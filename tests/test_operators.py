"""Differential operator algebra and the annihilator-style operator R."""

import cmath
import math
import random

import numpy as np
import pytest

from hypersum.errors import DomainError
from hypersum.operators import (
    LinDiffOp,
    _application_mass,
    _apply_stack,
    _mass_stack,
    build_R,
    kappa,
    op_apply,
    op_compose,
    op_theta,
    r_action,
    r_image,
    verify_ode,
)
from hypersum.partial_sums import HypParams, gn_direct, read_family
from hypersum.polycore import Poly
from test_polycore import (
    _former_add,
    _former_derivative,
    _former_mul,
    _former_scale,
    hex_bits,
    number,
)

IDENTITY = LinDiffOp((Poly((1,)),))
DDZ = LinDiffOp((Poly(), Poly((1,))))

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
BESSEL_LIKE = HypParams(a=(), b=(2.0,))
GAUSS_LIKE = HypParams(a=(1.0, 2.0), b=(3.0,))


def _former_op_apply(A, f):
    """op_apply as it was written, one Poly product per derivative order:
    the oracle of the stack engine."""
    out = Poly()
    deriv = f
    for c in A.coeffs:
        if not c.is_zero and not deriv.is_zero:
            out = out + c * deriv
        deriv = deriv.derivative()
    return out


def _former_application_mass(A, f):
    """_application_mass as it was written, on Poly arithmetic."""
    total = 0.0
    deriv = f
    for l in range(A.order + 1):
        if l > 0:
            deriv = deriv.derivative()
        c = A.coeffs[l]
        if c.degree < 0:
            continue
        l1 = math.fsum(abs(c.coeff(k)) for k in range(c.degree + 1))
        total += l1 * deriv.max_coeff()
    return total


def _engine_cases(seed):
    """Operators (zero, d/dz, theta, R of a random real and a random
    complex family, theta∘R) and polynomials (zero, constants, random
    complex ones up to degree 40) to hold the engine to the former loop."""
    rng = random.Random(seed)

    def draw():
        return complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))

    real = HypParams(
        a=tuple(draw().real for _ in range(rng.randint(0, 3))),
        b=tuple(draw().real for _ in range(rng.randint(0, 3))),
    )
    cplx = HypParams(
        a=tuple(draw() for _ in range(rng.randint(0, 3))),
        b=tuple(draw() for _ in range(rng.randint(0, 3))),
    )
    ops = [LinDiffOp(), DDZ, op_theta(), build_R(real), build_R(cplx)]
    ops.append(op_compose(op_theta(), ops[-1]))
    polys = [Poly(), Poly((2.5,)), Poly((draw(),))]
    polys += [Poly([draw() for _ in range(rng.randint(1, 41))]) for _ in range(4)]
    return ops, polys


@pytest.mark.parametrize("seed", range(8))
def test_op_apply_equals_the_former_loop_bit_for_bit(seed):
    ops, polys = _engine_cases(seed)
    for A in ops:
        for f in polys:
            assert op_apply(A, f).coeffs == _former_op_apply(A, f).coeffs
            assert _application_mass(A, f) == _former_application_mass(A, f)


def test_apply_stack_maps_each_row_as_alone():
    # Rows of different degrees share one table; each row's image and mass
    # are the ones it gets as a stack of one.
    ops, polys = _engine_cases(99)
    width = max(len(f.coeffs) for f in polys)
    stack = np.zeros((len(polys), width), dtype=complex)
    for row, f in zip(stack, polys):
        row[: len(f.coeffs)] = f.coeffs
    for A in ops:
        out = _apply_stack(A, stack)
        masses = _mass_stack(A, stack)
        for f, row, mass in zip(polys, out, masses):
            assert Poly(row).coeffs == _former_op_apply(A, f).coeffs
            assert mass == _former_application_mass(A, f)


def test_op_apply_refuses_an_image_that_overflowed():
    # Where the former loop refused a product, a running sum or a
    # derivative the image uses, op_apply refuses the image: Poly's error
    # on its first non-finite coefficient, printed as a plain complex.
    big = 1.5e308
    cases = [
        (LinDiffOp((Poly((big,)),)), Poly((0.5, 2.0))),  # product
        (LinDiffOp((Poly((big,)), Poly((big,)))), Poly((1.0, 1.0))),  # sum
        (op_theta(), Poly((1.0, 1.0, big))),  # derivative before the product
        (LinDiffOp((Poly((1.0,)), Poly((big * 1j,)))), Poly((0.0, big))),
    ]
    for A, f in cases:
        with pytest.raises(DomainError):
            _former_op_apply(A, f)
        with pytest.raises(DomainError) as engine:
            op_apply(A, f)
        image = _apply_stack(A, np.array([f.coeffs], dtype=complex)).tolist()[0]
        bad = next(c for c in image if not cmath.isfinite(c))
        assert type(bad) is complex
        assert str(engine.value) == f"non-finite coefficient: {bad!r}"
    # Derivatives past the operator's order are not formed: the identity
    # maps f to itself although f' overflows.
    f = Poly((0.0, 0.0, big))
    assert op_apply(IDENTITY, f) == f
    # Rows fail on their own: only the overflowing row is non-finite.
    out = _apply_stack(
        LinDiffOp((Poly((big,)),)),
        np.array([[0.5, 0.0], [2.0, 0.0], [0.25, 1.0]], dtype=complex),
    )
    assert np.isfinite(out).all(axis=1).tolist() == [True, False, True]
    assert out[0].tolist() == [0.5 * big, 0.0] and out[2, 0] == 0.25 * big


def test_primitive_operators():
    f = Poly((0, 0, 1))  # z^2
    assert op_apply(op_theta(), f).coeffs == (0j, 0j, 2 + 0j)  # theta z^n = n z^n


def test_theta_eigenvalue_property():
    theta = op_theta()
    for n in range(6):
        mono = Poly((0,) * n + (1,))
        assert op_apply(theta, mono) == mono.scale(n)


def test_compose_is_noncommutative():
    # d/dz after theta vs theta after d/dz on z^2: 4z vs 2z.
    dz_theta = op_compose(DDZ, op_theta())
    theta_dz = op_compose(op_theta(), DDZ)
    f = Poly((0, 0, 1))
    assert op_apply(dz_theta, f).coeffs == (0j, 4 + 0j)
    assert op_apply(theta_dz, f).coeffs == (0j, 2 + 0j)


def test_compose_matches_sequential_application():
    ddz_plus_one = LinDiffOp((Poly((1,)), Poly((1,))))
    A = op_compose(op_theta(), ddz_plus_one)
    f = Poly((1, -1, 0.5, 2))
    inner = op_apply(ddz_plus_one, f)
    assert op_apply(A, f) == op_apply(op_theta(), inner)


# The Poly-object expansion of R as it was written, on the former Poly
# methods: the oracles of the list engine behind build_R and op_compose.
def _former_coeff(A, l):
    return A.coeffs[l] if 0 <= l < len(A.coeffs) else Poly()


def _former_op_add(A, B):
    n = max(len(A.coeffs), len(B.coeffs))
    return LinDiffOp(tuple(_former_add(_former_coeff(A, l), _former_coeff(B, l))
                           for l in range(n)))


def _former_op_scale(A, s):
    return LinDiffOp(tuple(_former_scale(c, s) for c in A.coeffs))


def _former_op_sub(A, B):
    return _former_op_add(A, _former_op_scale(B, -1.0))


def _former_op_compose(A, B):
    acc = {}
    for l, al in enumerate(A.coeffs):
        if al.is_zero:
            continue
        for m, bm in enumerate(B.coeffs):
            if bm.is_zero:
                continue
            deriv = bm
            for i in range(l + 1):
                if deriv.is_zero:
                    break
                order = m + l - i
                term = _former_scale(_former_mul(al, deriv), math.comb(l, i))
                acc[order] = _former_add(acc.get(order, Poly()), term)
                deriv = _former_derivative(deriv)
    if not acc:
        return LinDiffOp()
    top = max(acc)
    return LinDiffOp(tuple(acc.get(l, Poly()) for l in range(top + 1)))


def _former_build_R(params):
    try:
        left = IDENTITY
        for bj in params.b:
            factor = _former_op_add(op_theta(), _former_op_scale(IDENTITY, bj - 1))
            left = _former_op_compose(left, factor)
        left = _former_op_compose(DDZ, left)
        right = IDENTITY
        for aj in params.a:
            factor = _former_op_add(op_theta(), _former_op_scale(IDENTITY, aj))
            right = _former_op_compose(right, factor)
        return _former_op_sub(left, right)
    except DomainError as exc:
        raise DomainError(f"expanding R overflowed double precision: {exc}") from exc


def _operator_outcome(call, *args):
    """("value", the bits of every coefficient) or ("refused", the message
    and that of its cause)."""
    try:
        return "value", tuple(hex_bits(c.coeffs) for c in call(*args).coeffs)
    except DomainError as exc:
        return "refused", str(exc), str(exc.__cause__)


def test_expansion_equals_the_former_poly_expansion_bit_for_bit():
    # Seeded families, p, q <= 3, half of them complex, with moduli up to
    # 1e300 in half the families: build_R, both compositions with theta and
    # R∘R (whose Leibniz terms scale nontrivial products by C(l, i) = 3, 4,
    # 6) are the Poly-object expansion's bit for bit, and every refusal
    # carries its message.
    rng = random.Random("expansion")
    families = refused = 0
    while families < 600:
        high = 300.0 if rng.random() < 0.5 else 3.0
        draw = (lambda: number(rng, high)) if rng.random() < 0.5 else (
            lambda: complex(number(rng, high).real or 1.0))
        try:
            params = HypParams(a=tuple(draw() for _ in range(rng.randint(0, 3))),
                               b=tuple(draw() for _ in range(rng.randint(0, 3))))
        except DomainError:
            continue
        families += 1
        got = _operator_outcome(build_R, params)
        assert got == _operator_outcome(_former_build_R, params), params
        if got[0] == "refused":
            refused += 1
            continue
        R = build_R(params)
        for A, B in ((op_theta(), R), (R, op_theta()), (R, R)):
            assert (_operator_outcome(op_compose, A, B)
                    == _operator_outcome(_former_op_compose, A, B)), params
    assert 50 < refused < families - 200


def test_build_R_exponential():
    # R = d/dz - 1 for the empty-parameter case.
    R = build_R(EXP)
    assert R.order == 1
    assert R.coeffs == (Poly((-1,)), Poly((1,)))


def test_build_R_confluent():
    # a=(1,), b=(2,): R f = z f'' + (2 - z) f' - f.
    R = build_R(CONFLUENT)
    assert R.order == 2
    assert R.coeffs == (Poly((-1,)), Poly((2, -1)), Poly((0, 1)))


def test_build_R_lower_only():
    # a=(), b=(2,): R f = z f'' + 2 f' - f.
    R = build_R(BESSEL_LIKE)
    assert R.order == 2
    assert R.coeffs == (Poly((-1,)), Poly((2,)), Poly((0, 1)))


def test_R_order_is_max_p_q_plus_one():
    assert build_R(EXP).order == 1
    assert build_R(GAUSS_LIKE).order == 2
    assert build_R(HypParams(a=(), b=(1.5, 2.5, 3.5))).order == 4


def test_build_R_overflow_names_the_expansion():
    # a_1·a_2 or (b_1 - 1)(b_2 - 1), about 1e400, overflows while R is
    # composed; the Poly arithmetic error is kept as the cause.
    for params in (HypParams(a=(1e200, 1e200)), HypParams(b=(1e200, 1e200))):
        with pytest.raises(DomainError, match="^expanding R overflowed") as exc:
            build_R(params)
        assert isinstance(exc.value.__cause__, DomainError)
        assert "non-finite coefficient" in str(exc.value)


def test_kappa_with_overflowing_denominator_is_domain_error():
    # xi_1 = 1e200 is finite; xi_1 · (a + 1) overflows, so kappa_1 is not 0.
    with pytest.raises(DomainError):
        kappa(HypParams(a=(1e200,)), 1)


def test_kappa_oracles():
    # 0F0: kappa_n = n!
    for n in range(5):
        assert kappa(EXP, n) == pytest.approx(math.factorial(n), rel=1e-15)
    # a=(), b=(2,): kappa_n = (n+1)! n!
    for n, want in ((1, 2.0), (2, 12.0), (3, 144.0)):
        assert kappa(BESSEL_LIKE, n) == pytest.approx(want, rel=1e-14)
    # a=(1,2), b=(3,): kappa_n = 1/(2(n+1))
    for n, want in ((1, 0.25), (2, 1 / 6), (3, 0.125)):
        assert kappa(GAUSS_LIKE, n) == pytest.approx(want, rel=1e-14)


def test_r_image_is_monomial_exponential():
    # -kappa_n R g_n lands exactly on z^n in floating point for 0F0 while
    # every 1/k! division in the chain is exact; past n = 5 the kappa_n = n!
    # prefactor amplifies single-ulp residue.
    for n in (1, 3, 5):
        image = r_image(EXP, n)
        assert image.coeffs == (0j,) * n + (1 + 0j,)


def test_r_image_is_monomial_general():
    # Off-monomial mass scaled by the application mass of R on g_n, the
    # coefficient magnitude the cancellation actually chews through (raw
    # mass is kappa_n-amplified: 4e-3 for 0F1(;2) at n=10 despite a clean
    # identity).
    for params in (CONFLUENT, BESSEL_LIKE, GAUSS_LIKE):
        for n in (1, 4, 10):
            image = r_image(params, n)
            mass = sum(
                abs(image.coeff(k) - (1 if k == n else 0))
                for k in range(image.degree + 1)
            )
            m = _application_mass(build_R(params), gn_direct(params, n))
            assert mass <= 1e-14 * max(1.0, abs(kappa(params, n)) * m)


def test_verify_ode_defect_small():
    # theta(R g_n) = n R g_n; defect polynomial should vanish.
    assert verify_ode(EXP, 5).max_coeff() == 0.0
    for params in (CONFLUENT, GAUSS_LIKE):
        for n in (1, 6, 15):
            g = gn_direct(params, n)
            image = op_apply(build_R(params), g)
            scale = max(1.0, n * image.max_coeff())
            assert verify_ode(params, n).max_coeff() <= 1e-12 * scale


def test_lin_diff_op_validation():
    op = LinDiffOp((Poly((1,)), Poly((0, 1)), Poly()))
    assert op.order == 1
    assert op.coeffs == (Poly((1,)), Poly((0, 1)))
    assert LinDiffOp([(), [0j]]).order == -1


def test_r_action_exact_oracle():
    # a=(1,), b=(2,) on z^2: z·2 + (2 - z)·2z - z^2 = 6z - 3z^2.
    assert r_action(CONFLUENT, (0, 0, 1)).tolist() == [0j, 6 + 0j, -3 + 0j]
    assert r_action(EXP, ()).size == 0


def test_r_action_matches_expanded_operator():
    # Closed form vs op_apply(build_R) on random complex polynomials, every
    # shape p, q in 0..3 with complex parameters; agreement is scaled by the
    # coefficient mass op_apply moves.
    rng = random.Random(11)

    def draw():
        return complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))

    for p in range(4):
        for q in range(4):
            params = HypParams(
                a=tuple(draw() for _ in range(p)),
                b=tuple(draw() for _ in range(q)),
            )
            R = build_R(params)
            for _ in range(4):
                f = Poly([draw() for _ in range(rng.randint(1, 15))])
                want = op_apply(R, f)
                got = r_action(params, f.coeffs)
                assert len(got) == f.degree + 1 >= want.degree + 1
                dev = max(abs(got[k] - want.coeff(k)) for k in range(len(got)))
                assert dev <= 1e-14 * _application_mass(R, f)


# Two complex b whose product rounds differently with and without FMA.
COMPLEX_B = HypParams(a=(1.5 + 0.5j,), b=(1.2 + 0.1j, 2.2 + 0.3j))


def test_r_action_on_a_prefix_rounds_like_the_whole_sequence():
    # Entries 0..n-1 of R on xi_0..xi_n read only xi_0..xi_n, so they equal
    # the same entries of the call on the whole sequence, bit for bit; at
    # n = 1 the product over b has one element.
    seq = read_family(COMPLEX_B, 30).seq(30)
    whole = r_action(COMPLEX_B, seq)
    for n in range(1, 31):
        assert r_action(COMPLEX_B, seq[: n + 1])[:n].tolist() == whole[:n].tolist()


def test_r_action_maps_each_row_of_a_stack():
    seq = read_family(COMPLEX_B, 12).seq(12)
    stack = np.tril(np.tile(seq, (len(seq), 1)))
    rows = r_action(COMPLEX_B, stack)
    assert rows.shape == stack.shape
    for row, coeffs in zip(rows, stack):
        assert row.tolist() == r_action(COMPLEX_B, coeffs).tolist()
