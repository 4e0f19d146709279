"""Differential operator algebra and the annihilator-style operator R."""

import math
import random

import pytest

from hypersum.errors import DomainError
from hypersum.operators import (
    LinDiffOp,
    _application_mass,
    build_R,
    kappa,
    op_add,
    op_apply,
    op_compose,
    op_ddz,
    op_identity,
    op_scale,
    op_sub,
    op_theta,
    r_action,
    r_image,
    verify_ode,
)
from hypersum.partial_sums import HypParams, gn_direct
from hypersum.polycore import Poly

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
BESSEL_LIKE = HypParams(a=(), b=(2.0,))
GAUSS_LIKE = HypParams(a=(1.0, 2.0), b=(3.0,))


def test_primitive_operators():
    f = Poly((0, 0, 1))  # z^2
    assert op_apply(op_identity(), f) == f
    assert op_apply(op_ddz(), f).coeffs == (0j, 2 + 0j)
    assert op_apply(op_theta(), f).coeffs == (0j, 0j, 2 + 0j)  # theta z^n = n z^n


def test_theta_eigenvalue_property():
    theta = op_theta()
    for n in range(6):
        mono = Poly((0,) * n + (1,))
        assert op_apply(theta, mono) == mono.scale(n)


def test_algebra_add_scale_sub():
    A = op_ddz()
    f = Poly((1, 2, 3))
    assert op_apply(op_add(A, A), f) == op_apply(A, f).scale(2)
    assert op_apply(op_scale(A, 3), f) == op_apply(A, f).scale(3)
    assert op_apply(op_sub(A, A), f).is_zero


def test_compose_is_noncommutative():
    # d/dz after theta vs theta after d/dz on z^2: 4z vs 2z.
    dz_theta = op_compose(op_ddz(), op_theta())
    theta_dz = op_compose(op_theta(), op_ddz())
    f = Poly((0, 0, 1))
    assert op_apply(dz_theta, f).coeffs == (0j, 4 + 0j)
    assert op_apply(theta_dz, f).coeffs == (0j, 2 + 0j)


def test_compose_matches_sequential_application():
    A = op_compose(op_theta(), op_add(op_ddz(), op_identity()))
    f = Poly((1, -1, 0.5, 2))
    inner = op_apply(op_add(op_ddz(), op_identity()), f)
    assert op_apply(A, f) == op_apply(op_theta(), inner)


def test_build_R_exponential():
    # R = d/dz - 1 for the empty-parameter case.
    R = build_R(EXP)
    assert R.order == 1
    assert R.coeff(0) == Poly((-1,))
    assert R.coeff(1) == Poly((1,))


def test_build_R_confluent():
    # a=(1,), b=(2,): R f = z f'' + (2 - z) f' - f.
    R = build_R(CONFLUENT)
    assert R.order == 2
    assert R.coeff(0) == Poly((-1,))
    assert R.coeff(1) == Poly((2, -1))
    assert R.coeff(2) == Poly((0, 1))


def test_build_R_lower_only():
    # a=(), b=(2,): R f = z f'' + 2 f' - f.
    R = build_R(BESSEL_LIKE)
    assert R.order == 2
    assert R.coeff(0) == Poly((-1,))
    assert R.coeff(1) == Poly((2,))
    assert R.coeff(2) == Poly((0, 1))


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
    op = LinDiffOp((Poly((1,)), Poly((0, 1))))
    assert op.order == 1
    assert op.coeff(5).is_zero


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
