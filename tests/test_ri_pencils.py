"""R_I recurrences, T-fraction bridge, pencil solves, Chebyshev pieces."""

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum.errors import DomainError
from hypersum import checks, ri_pencils
from hypersum.partial_sums import (
    Gn_by_recurrence,
    Gn_monic,
    HypParams,
    PowerSeriesCoeffs,
    delta_k,
)
from hypersum.polycore import DEGREE_CAP, Poly, horner, modulus
from test_partial_sums import _exact_outcome, _extreme_family, _random_family
from hypersum.ri_pencils import (
    JacobiPencil,
    RIRecurrence,
    _band_coeff_stack,
    _band_row_sums,
    _pencil_bands,
    chebyshev_eval,
    kernel_decompose,
    pencil_polynomials,
    pencil_residual,
    pencil_row_terms,
    ri_generate,
    tfraction_from_hyp,
)

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))


def test_recurrence_validation():
    with pytest.raises(DomainError):
        RIRecurrence(c=(1, 2), lam=(0,), a=(0, 0))
    with pytest.raises(DomainError):
        RIRecurrence(c=(math.inf,), lam=(0,), a=(0,))
    assert len(RIRecurrence(c=(1, 2), lam=(0, 1), a=(0, 0))) == 2


def test_first_step_is_z_minus_c1():
    polys, validity = ri_generate(RIRecurrence(c=(-1,), lam=(0,), a=(0,)), 1)
    assert polys[0].coeffs == (1 + 0j,)
    assert polys[1].coeffs == (1 + 0j, 1 + 0j)  # z + 1
    # lambda_1 = 0 is exempt: it multiplies P_{-1} = 0.
    assert validity.valid


def test_two_step_worked_example():
    rec = RIRecurrence(c=(-1, -2), lam=(0, 1), a=(0, 0))
    polys, validity = ri_generate(rec, 2)
    # P_2 = (z + 2)(z + 1) - z = z^2 + 2z + 2
    assert polys[2].coeffs == (2 + 0j, 2 + 0j, 1 + 0j)
    assert validity.valid


def test_node_zero_surfaces_one_step_late():
    # c_1 = a_2 forces P_1(a_2) = 0, caught by the n = 2 node check since
    # P_2(a_2) = (a_2 - c_2) P_1(a_2).
    rec = RIRecurrence(c=(0.7, 1.1), lam=(1, 1), a=(0.3, 0.7))
    _, validity = ri_generate(rec, 2)
    assert not validity.valid
    assert validity.node_failures == (2,)
    assert validity.lambda_failures == ()


def test_zero_lambda_flagged():
    rec = RIRecurrence(c=(1, 2), lam=(5, 0), a=(0.5, 0.5))
    _, validity = ri_generate(rec, 2)
    assert validity.lambda_failures == (2,)


def test_generated_polynomials_are_exactly_monic():
    rng = random.Random(3)
    n = 8
    rec = RIRecurrence(
        c=tuple(rng.uniform(-2, 2) for _ in range(n)),
        lam=tuple(rng.uniform(0.1, 2) for _ in range(n)),
        a=tuple(rng.uniform(-1, 1) for _ in range(n)),
    )
    polys, _ = ri_generate(rec, n)
    for k, f in enumerate(polys):
        assert f.degree == k
        assert f.coeff(k) == 1


def test_monic_recurrence_overflow_names_its_degree():
    # delta_1·delta_2 = 1e300·2e300, the constant term of P_2, overflows;
    # the Poly arithmetic error is kept as the cause.
    params = HypParams(b=(1e100, 1e100, 1e100))
    for generate in (
        lambda: ri_generate(tfraction_from_hyp(params, 25), 25),
        lambda: Gn_by_recurrence(params, 25),
    ):
        with pytest.raises(DomainError) as exc:
            generate()
        assert str(exc.value) == (
            "R_I recurrence overflowed double precision at degree 2: "
            "non-finite coefficient: (inf+0j)"
        )
        assert isinstance(exc.value.__cause__, DomainError)


def _former_ri_generate(rec, N):
    # The Poly loop ri_generate ran before its list engine.
    N = int(N)
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > len(rec):
        raise DomainError(
            f"recurrence holds {len(rec)} coefficient triples, needs {N}"
        )
    polys = [Poly([1 + 0j])]
    lambda_failures = []
    node_failures = []
    triples = zip(rec.c[:N], rec.lam[:N], rec.a[:N])
    for n, (c_n, lam_n, a_n) in enumerate(triples, start=1):
        if n >= 2 and lam_n == 0:
            lambda_failures.append(n)
        try:
            nxt = polys[-1] * Poly((-c_n, 1 + 0j))
            if n >= 2:
                nxt = nxt - (polys[-2] * Poly((-a_n, 1 + 0j))).scale(lam_n)
        except DomainError as exc:
            raise DomainError(
                f"R_I recurrence overflowed double precision at degree {n}: {exc}"
            ) from exc
        polys.append(nxt)
        value, _, mass = horner(nxt.coeffs, a_n)
        if modulus(value) <= ri_pencils.RI_NODE_RTOL * (mass - modulus(nxt.coeff(0))):
            node_failures.append(n)
    return polys, ri_pencils.RIValidity(
        lambda_failures=tuple(lambda_failures),
        node_failures=tuple(node_failures),
    )


def _random_recurrence(rng, N):
    """N coefficient triples of moduli 10^u, u uniform on one of a few
    bands up to the edge of double precision, some lambda_n and a_n zero,
    some a_n = c_{n-1} (a node hit one step late)."""
    lo, hi = rng.choice(((-2, 1), (-2, 1), (0, 60), (100, 200)))

    def draw():
        w = 10 ** rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-3.0, 3.0))
        return complex(w.real, 0.0) if rng.random() < 0.3 else w

    c = [draw() for _ in range(N)]
    lam = [0j if rng.random() < 0.1 else draw() for _ in range(N)]
    a = [0j if rng.random() < 0.3 else (c[n - 1] if n and rng.random() < 0.2 else draw())
         for n in range(N)]
    return RIRecurrence(c=c, lam=lam, a=a)


@pytest.mark.parametrize("seed", range(3))
def test_ri_generate_equals_the_former_loop_bit_for_bit(seed):
    # General recurrences and T-fractions of mild and extreme families,
    # validity reports and errors included.
    rng = random.Random(f"{seed}:ri-engine")
    for i in range(40):
        N = rng.choice((0, 1, 2, 5, 12, 25))
        if i % 2:
            params = _extreme_family(rng) if i % 4 == 1 else _random_family(rng)
            try:
                rec = tfraction_from_hyp(params, N)
            except DomainError:
                continue
        else:
            rec = _random_recurrence(rng, N)
        assert _exact_outcome(lambda: ri_generate(rec, N)) == _exact_outcome(
            lambda: _former_ri_generate(rec, N)), (rec, N)


def test_ri_generate_length_guard():
    rec = RIRecurrence(c=(1,), lam=(0,), a=(0,))
    with pytest.raises(DomainError):
        ri_generate(rec, 2)


def test_tfraction_coefficients_exponential():
    # c_n = -n, lambda_n = n-1, a_n = 0 for the exponential case.
    rec = tfraction_from_hyp(EXP, 4)
    assert rec.c == (-1 + 0j, -2 + 0j, -3 + 0j, -4 + 0j)
    assert rec.lam == (0j, 1 + 0j, 2 + 0j, 3 + 0j)
    assert rec.a == (0j, 0j, 0j, 0j)


def test_tfraction_reproduces_monic_partial_sums():
    # The T-fraction against the direct Gn_monic, each coefficient relative
    # to the pair's largest one.
    for params in (EXP, CONFLUENT, HypParams(a=(1.0, 2.0), b=(3.0,))):
        N = 10
        polys, validity = ri_generate(tfraction_from_hyp(params, N), N)
        assert validity.valid
        for n, P in enumerate(polys):
            G = Gn_monic(params, n)
            scale = max(map(abs, P.coeffs + G.coeffs))
            for k in range(n + 1):
                assert abs(P.coeff(k) - G.coeff(k)) <= 1e-12 * scale, (params, n, k)


def test_tfraction_computes_each_delta_once(monkeypatch):
    calls = []

    def counted(params, k):
        calls.append(k)
        return delta_k(params, k)

    monkeypatch.setattr(ri_pencils, "delta_k", counted)
    rec = tfraction_from_hyp(CONFLUENT, 7)
    assert sorted(calls) == list(range(8))
    assert rec.c == tuple(-delta_k(CONFLUENT, n) for n in range(1, 8))
    assert rec.lam == tuple(delta_k(CONFLUENT, n - 1) for n in range(1, 8))


def test_tfraction_value_at_zero_is_delta_product():
    # P_n(0) = G_n(0) = delta_1 ... delta_n, never zero.
    polys, _ = ri_generate(tfraction_from_hyp(EXP, 6), 6)
    prod = 1 + 0j
    for n in range(1, 7):
        prod *= delta_k(EXP, n)
        assert polys[n](0) == pytest.approx(prod, rel=1e-13)


WORKED_PENCIL = JacobiPencil(
    j3_diag=(0.0, 0.0, 0.0, 0.0),
    j3_offdiag=(1.0, 1.0, 1.0, 1.0),
    j5_diag=(0.0, 0.0, 0.0, 0.0),
    j5_off1=(0.0, 0.0, 0.0, 0.0),
    j5_off2=(1.0, 1.0, 1.0, 1.0),
    alpha=1.0,
    beta=0.0,
)


def test_pencil_validation():
    with pytest.raises(DomainError):
        JacobiPencil(
            j3_diag=(0.0,),
            j3_offdiag=(0.0,),  # must be positive
            j5_diag=(0.0,),
            j5_off1=(0.0,),
            j5_off2=(1.0,),
            alpha=1.0,
            beta=0.0,
        )
    with pytest.raises(DomainError):
        JacobiPencil(
            j3_diag=(0.0,),
            j3_offdiag=(1.0,),
            j5_diag=(0.0,),
            j5_off1=(0.0,),
            j5_off2=(1.0,),
            alpha=0.0,  # must be positive
            beta=0.0,
        )


def test_pencil_worked_example_p2_exact():
    polys = pencil_polynomials(WORKED_PENCIL, 2)
    assert polys[0].coeffs == (1 + 0j,)
    assert polys[1].coeffs == (0j, 1 + 0j)
    assert polys[2].coeffs == (0j, 0j, 1 + 0j)  # p_2 = lambda^2 exactly


def test_pencil_degrees_and_leading_signs():
    rng = random.Random(11)
    N = 9
    m = N + 2
    pencil = JacobiPencil(
        j3_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j3_offdiag=tuple(rng.uniform(0.1, 2) for _ in range(m)),
        j5_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j5_off1=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j5_off2=tuple(rng.uniform(0.1, 2) for _ in range(m)),
        alpha=rng.uniform(0.1, 2),
        beta=rng.uniform(-2, 2),
    )
    polys = pencil_polynomials(pencil, N)
    for n, f in enumerate(polys):
        assert f.degree == n
        lead = f.coeff(n)
        assert lead.imag == 0
        assert lead.real > 0


def test_pencil_rows_vanish_on_solution():
    rng = random.Random(5)
    m = 10
    pencil = JacobiPencil(
        j3_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j3_offdiag=tuple(rng.uniform(0.1, 2) for _ in range(m)),
        j5_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j5_off1=tuple(rng.uniform(-2, 2) for _ in range(m)),
        j5_off2=tuple(rng.uniform(0.1, 2) for _ in range(m)),
        alpha=1.3,
        beta=-0.4,
    )
    polys = pencil_polynomials(pencil, 8)
    for lam in (0.0, 1.0 + 0.5j, -2.7, 0.25j):
        values = [f(lam) for f in polys]
        scale = max(
            1.0,
            max(
                sum(abs(t) for t in pencil_row_terms(pencil, values, lam, n))
                for n in range(7)
            ),
        )
        assert pencil_residual(pencil, polys, lam, 7) <= 1e-11 * scale


def test_worked_pencil_residual_at_lambda_two():
    polys = pencil_polynomials(WORKED_PENCIL, 5)
    assert pencil_residual(WORKED_PENCIL, polys, 2.0, 3) <= 1e-10


def test_pencil_residual_detects_perturbation():
    # Adding 1 to p_2 shifts row 0 by exactly gamma_0.
    polys = pencil_polynomials(WORKED_PENCIL, 2)
    tampered = list(polys)
    tampered[2] = tampered[2] + Poly((1,))
    resid = pencil_residual(WORKED_PENCIL, tampered, 0.7, 1)
    assert resid == pytest.approx(WORKED_PENCIL.j5_off2[0], rel=1e-14)


def test_pencil_length_guards():
    with pytest.raises(DomainError):
        pencil_polynomials(WORKED_PENCIL, 6)  # row 4 outruns the entries
    polys = pencil_polynomials(WORKED_PENCIL, 2)
    with pytest.raises(DomainError):
        pencil_residual(WORKED_PENCIL, polys, 0.0, 3)
    # The three public functions share one band guard and one message.
    values = [f(0.5) for f in pencil_polynomials(WORKED_PENCIL, 5)] + [0j]
    message = "j3_diag holds 4 entries, row 4 needs more"
    with pytest.raises(DomainError, match=message):
        pencil_polynomials(WORKED_PENCIL, 6)
    with pytest.raises(DomainError, match=message):
        pencil_row_terms(WORKED_PENCIL, values, 0.5, 4)
    with pytest.raises(DomainError, match=message):
        pencil_residual(WORKED_PENCIL, polys * 3, 0.5, 5)


def test_zero_rows_need_only_p_0():
    # p_0 = 1 exists without any band entry, and zero rows check nothing.
    empty = JacobiPencil((), (), (), (), (), alpha=1.0, beta=0.0)
    polys = pencil_polynomials(empty, 0)
    assert [f.coeffs for f in polys] == [(1 + 0j,)]
    assert pencil_residual(empty, polys, (0.0, 2 + 1j), 0) == 0.0
    with pytest.raises(DomainError, match="1 rows need 3 polynomials"):
        pencil_residual(WORKED_PENCIL, polys, 0.0, 1)
    with pytest.raises(DomainError, match="rows must be nonnegative"):
        pencil_residual(WORKED_PENCIL, polys, 0.0, -1)
    with pytest.raises(DomainError, match="N must be nonnegative"):
        pencil_polynomials(WORKED_PENCIL, -1)


def test_pencil_degree_is_capped_before_solving(monkeypatch):
    # p_N is a Poly of degree N, so N past DEGREE_CAP is refused up front,
    # even with bands long enough for every row.
    band = (0.5,) * (DEGREE_CAP + 2)
    pencil = JacobiPencil(band, band, band, band, band, alpha=1.0, beta=0.0)
    assert len(pencil_polynomials(pencil, DEGREE_CAP)) == DEGREE_CAP + 1

    def refuse(*args):
        raise AssertionError("no solve expected")

    monkeypatch.setattr(ri_pencils, "_band_coeff_stack", refuse)
    for N in (DEGREE_CAP + 1, DEGREE_CAP + 2):
        with pytest.raises(DomainError, match=f"exceeds the degree cap {DEGREE_CAP}"):
            pencil_polynomials(pencil, N)


def poly_pencil_polynomials(pencil, N):
    """Reference forward solve in Poly arithmetic, row by row."""
    polys = [Poly([1.0 + 0j])]
    if N >= 1:
        polys.append(Poly([complex(pencil.beta), complex(pencil.alpha)]))
    zero = Poly([])
    for n in range(0, N - 1):
        p_nm2 = polys[n - 2] if n >= 2 else zero
        p_nm1 = polys[n - 1] if n >= 1 else zero
        acc = Poly([])
        if n >= 2:
            acc = acc + p_nm2.scale(pencil.j5_off2[n - 2])
        if n >= 1:
            acc = acc + p_nm1 * Poly(
                (pencil.j5_off1[n - 1], -pencil.j3_offdiag[n - 1])
            )
        acc = acc + polys[n] * Poly((pencil.j5_diag[n], -pencil.j3_diag[n]))
        acc = acc + polys[n + 1] * Poly(
            (pencil.j5_off1[n], -pencil.j3_offdiag[n])
        )
        polys.append(acc.scale(-1.0 / pencil.j5_off2[n]))
    return polys


def _random_pencil(rng: random.Random, N: int) -> JacobiPencil:
    """One random pencil of size N, drawn as the verify pencil check draws
    its bands, alpha and beta (random.uniform per entry, in field order)."""
    def sym(_):
        return rng.uniform(-2.0, 2.0)

    def pos(_):
        return rng.uniform(0.1, 2.0)

    return JacobiPencil(
        j3_diag=tuple(sym(k) for k in range(N)),
        j3_offdiag=tuple(pos(k) for k in range(N)),
        j5_diag=tuple(sym(k) for k in range(N)),
        j5_off1=tuple(sym(k) for k in range(N)),
        j5_off2=tuple(pos(k) for k in range(N)),
        alpha=rng.uniform(0.1, 2.0),
        beta=rng.uniform(-2.0, 2.0),
    )


def _random_pencils_by_size(seed, count):
    rng = random.Random(seed)
    groups = {}
    for _ in range(count):
        N = rng.randint(2, 12)
        groups.setdefault(N, []).append(_random_pencil(rng, N))
    return groups


def _band_stack(pencils, rows):
    """The band array (5, B, rows) of a list of pencils, from _pencil_bands
    of each, with their (B,) alpha and beta arrays."""
    bands = np.stack([_pencil_bands(p, rows) for p in pencils], axis=1)
    alpha = np.array([p.alpha for p in pencils])
    beta = np.array([p.beta for p in pencils])
    return bands, alpha, beta


def _coeff_stack(pencils, N):
    """p_0..p_N of a list of pencils, solved as one stack by the engine."""
    return _band_coeff_stack(*_band_stack(pencils, max(N - 1, 0)), N)


def test_coeff_stack_matches_poly_oracle():
    groups = _random_pencils_by_size(21, 50)
    assert len(groups) > 5 and max(len(g) for g in groups.values()) > 1
    for N, pencils in groups.items():
        stack = _coeff_stack(pencils, N)
        assert stack.shape == (len(pencils), N + 1, N + 1)
        assert stack.dtype == np.float64
        for pencil, coeffs in zip(pencils, stack):
            for k, f in enumerate(poly_pencil_polynomials(pencil, N)):
                want = np.zeros(N + 1, dtype=complex)
                want[: len(f.coeffs)] = f.coeffs
                dev = np.abs(coeffs[k] - want).max()
                assert dev <= 1e-13 * np.abs(want).max()


def test_pencil_polynomials_is_a_stack_of_one():
    for N, pencils in _random_pencils_by_size(4, 12).items():
        for pencil in pencils:
            polys = pencil_polynomials(pencil, N)
            stack = _coeff_stack([pencil], N)[0]
            assert [list(f.coeffs) for f in polys] == [
                list(row[: k + 1]) for k, row in enumerate(stack)
            ]


def test_stacked_solve_equals_solo_solve():
    for N, pencils in _random_pencils_by_size(8, 200).items():
        assert len(pencils) > 3
        stack = _coeff_stack(pencils, N)
        for pencil, coeffs in zip(pencils, stack):
            assert np.array_equal(_coeff_stack([pencil], N)[0], coeffs)


def test_row_sums_match_scalar_row_terms():
    # The vectorized Horner pass rounds differently from Poly.__call__, so
    # agreement is to roundoff of the row scale, far below the 1e-10 check.
    rng = random.Random(13)
    for N, pencils in _random_pencils_by_size(6, 40).items():
        lams = [[complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
                 for _ in range(7)] for _ in pencils]
        stack = _coeff_stack(pencils, N)
        bands, _, _ = _band_stack(pencils, N - 1)
        total, scale = _band_row_sums(bands, stack, lams, N - 1)
        assert total.shape == scale.shape == (len(pencils), N - 1, 7)
        for i, pencil in enumerate(pencils):
            polys = poly_pencil_polynomials(pencil, N)
            for j, lam in enumerate(lams[i]):
                values = [f(lam) for f in polys]
                for n in range(N - 1):
                    terms = pencil_row_terms(pencil, values, lam, n)
                    want_scale = sum(abs(t) for t in terms)
                    tol = 1e-12 * want_scale
                    assert abs(total[i, n, j] - sum(terms)) <= tol
                    assert abs(scale[i, n, j] - want_scale) <= tol


def test_band_engine_reads_any_layout_and_ignores_extra_entries():
    # The pencil check hands the engine transposed views holding one band
    # entry more than the solve reads; the result is that of contiguous
    # bands holding exactly the entries read, bit for bit.
    rng = random.Random(17)
    for N, pencils in _random_pencils_by_size(12, 60).items():
        full, alpha, beta = _band_stack(pencils, N)
        strided = np.ascontiguousarray(full.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not strided.flags.c_contiguous
        exact = _band_stack(pencils, N - 1)[0]
        assert exact.flags.c_contiguous
        stack = _band_coeff_stack(strided, alpha.tolist(), beta.tolist(), N)
        assert np.array_equal(stack, _band_coeff_stack(exact, alpha, beta, N))
        lams = np.array([[complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
                          for _ in range(5)] for _ in pencils])
        got = _band_row_sums(strided, stack, lams, N - 1)
        want = _band_row_sums(exact, stack, lams, N - 1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _former_band_coeff_stack(bands, alpha, beta, N):
    """_band_coeff_stack as it was: each row step on (B, N+1) slices of a
    (B, N+1, N+1) array, the pencil axis first."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    b, a, al, be, ga = np.ascontiguousarray(bands[:, :, : max(N - 1, 0)])
    P = np.zeros((len(alpha), N + 1, N + 1))
    P[:, 0, 0] = 1.0
    if N >= 1:
        P[:, 1, 0] = beta
        P[:, 1, 1] = alpha

    def times_linear(k, c0, c1):
        out = P[:, k] * c0[:, None]
        out[:, 1:] += P[:, k, :-1] * c1[:, None]
        return out

    for n in range(0, N - 1):
        acc = P[:, n - 2] * ga[:, n - 2, None] if n >= 2 else 0.0
        if n >= 1:
            acc = acc + times_linear(n - 1, be[:, n - 1], -a[:, n - 1])
        acc = acc + times_linear(n, al[:, n], -b[:, n])
        acc = acc + times_linear(n + 1, be[:, n], -a[:, n])
        P[:, n + 2] = acc * (-1.0 / ga[:, n])[:, None]
    return P


def _assert_coeff_stack_is_the_former(bands, alpha, beta, N):
    got = _band_coeff_stack(bands, alpha, beta, N)
    want = _former_band_coeff_stack(bands, alpha, beta, N)
    assert got.shape == want.shape == (len(alpha), N + 1, N + 1)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()  # signed zeros too


@pytest.mark.parametrize("N", [0, 1, 2, 12])
def test_coeff_stack_equals_the_former_solve_byte_for_byte(N):
    # Seeded stacks of 1..40 pencils holding up to three band entries more
    # than the solve reads, contiguous and as strided views.
    rng = np.random.default_rng(41 + N)
    for _ in range(30):
        B, K = int(rng.integers(1, 41)), max(N - 1, 0) + int(rng.integers(0, 4))
        bands = rng.uniform(-2.0, 2.0, size=(5, B, K))
        bands[[1, 4]] = rng.uniform(0.1, 2.0, size=(2, B, K))
        alpha, beta = rng.uniform(0.1, 2.0, size=B), rng.uniform(-2.0, 2.0, size=B)
        strided = np.ascontiguousarray(bands.transpose(2, 1, 0)).transpose(2, 1, 0)
        for given in (bands, strided):
            _assert_coeff_stack_is_the_former(given, alpha, beta, N)
        _assert_coeff_stack_is_the_former(strided[:, ::-1], alpha[::-1].tolist(),
                                          beta[::-1].tolist(), N)


def test_coeff_stack_equals_the_former_solve_on_the_check_stacks():
    for seed in range(20):
        _, bands, alpha, beta, _ = checks._pencil_stack(random.Random(f"{seed}:pencil"), 200)
        _assert_coeff_stack_is_the_former(bands, alpha, beta, checks._PENCIL_MAX_N)


def test_an_overflowing_pencil_names_its_first_overflowed_polynomial():
    # Finite bands of 1e308: numpy's overflow warnings stayed muted, and the
    # refusal read "non-finite coefficient: -inf".
    band = (1e308,) * 3
    pencil = JacobiPencil(band, band, band, band, band, alpha=1.0, beta=0.0)
    with pytest.raises(DomainError) as exc:
        pencil_polynomials(pencil, 4)
    assert str(exc.value) == "p_4 overflowed double precision"
    assert [list(f.coeffs) for f in pencil_polynomials(pencil, 3)][:2] == [[1], [0, 1]]


def test_row_terms_refuse_an_addend_that_is_not_finite():
    polys = pencil_polynomials(WORKED_PENCIL, 2)
    values = [f(1e300) for f in polys]
    with pytest.raises(DomainError) as exc:
        pencil_row_terms(WORKED_PENCIL, values, 1e300, 0)
    assert str(exc.value) == "addend 3 of row 0 is not finite: (-inf+0j)"
    with pytest.raises(DomainError, match="^addend 4 of row 0 is not finite: "):
        pencil_row_terms(WORKED_PENCIL, [1, 2, math.nan], 0.5, 0)


def _former_band_row_sums(bands, coeffs, lams, rows):
    """_band_row_sums as it was: Horner over every row and every power on a
    (pencil, k, lambda) layout, each product formed as a new array, with
    numpy casting the real bands and coefficients per product."""
    C = np.asarray(coeffs)
    bands = np.ascontiguousarray(bands[:, :, :rows])
    b, a, al, be, ga = (x[:, :, None] for x in bands)
    lam = np.broadcast_to(np.asarray(lams, dtype=complex),
                          (bands.shape[1], np.shape(lams)[-1]))[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.zeros(C.shape[:2] + lam.shape[-1:], dtype=complex)
        for j in range(C.shape[2] - 1, -1, -1):
            V = V * lam + C[:, :, j, None]
        r1, r2 = max(rows - 1, 0), max(rows - 2, 0)
        terms = np.zeros((5,) + V[:, :rows].shape, dtype=complex)
        terms[0, :, 2:] = ga[:, :r2] * V[:, :r2]
        terms[1, :, 1:] = (be[:, :r1] - lam * a[:, :r1]) * V[:, :r1]
        terms[2] = (al - lam * b) * V[:, :rows]
        terms[3] = (be - lam * a) * V[:, 1 : rows + 1]
        terms[4] = ga * V[:, 2 : rows + 2]
        return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def _assert_row_sums_equal_the_former(bands, coeffs, lams, rows):
    got = _band_row_sums(bands, coeffs, lams, rows)
    want = _former_band_row_sums(bands, coeffs, lams, rows)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("first", range(0, 200, 20))
def test_row_sums_equal_the_former_pass_on_the_check_stacks(first):
    # Every row-sum pass of the pencil check, 200 draws on each seed.
    for seed in range(first, first + 20):
        rng = random.Random(f"{seed}:pencil")
        sizes, bands, alpha, beta, lams = checks._pencil_stack(rng, 200)
        coeffs = _band_coeff_stack(bands, alpha, beta, 12)
        for N in sorted(set(sizes.tolist())):
            rows = slice(*np.searchsorted(sizes, [N, N + 1]).tolist())
            _assert_row_sums_equal_the_former(
                bands[:, rows], coeffs[rows, : N + 1, : N + 1], lams[rows], N - 1)


def test_row_sums_equal_the_former_pass_on_single_pencils():
    # One pencil at L lambdas, shared (L,) or per pencil (1, L): with one
    # lambda every product is of rows entries, down to one entry.
    rng = random.Random(29)
    for _ in range(100):
        N = rng.randint(2, 12)
        pencil = _random_pencil(rng, N)
        coeffs = _coeff_stack([pencil], N)
        for L in (1, 2, 4, 20):
            lams = np.array([complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
                             for _ in range(L)])
            for rows in sorted({0, 1, N - 1}):
                bands = _band_stack([pencil], rows)[0]
                for lam in (lams, lams[None]):
                    _assert_row_sums_equal_the_former(bands, coeffs, lam, rows)


def test_row_sums_equal_the_former_pass_on_any_table():
    # pencil_residual takes any polynomials: p_k of degree above k, zero
    # polynomials, complex coefficients, more polynomials than the rows
    # read, lambdas that overflow the values or are not finite.
    rng = np.random.default_rng(31)
    for _ in range(2000):
        B, L, rows = (int(x) for x in rng.integers((1, 1, 0), (4, 4, 5)))
        K, D = rows + 2 + int(rng.integers(0, 2)), int(rng.integers(0, 8))
        shape = (B, K, D)
        coeffs = rng.normal(size=shape) * (rng.random(shape) < 0.4)
        if rng.random() < 0.7:
            coeffs = coeffs + 1j * rng.normal(size=shape) * (rng.random(shape) < 0.4)
        bands = rng.normal(size=(5, B, rows + 1))
        lams = rng.normal(size=(B, L)) + 1j * rng.normal(size=(B, L))
        pick = rng.random()
        if pick < 0.1:
            lams[0, 0] = complex(math.inf, 0.0)
        elif pick < 0.2:
            lams[0, 0] = complex(math.nan, 1.0)
        elif pick < 0.3:
            lams[0, 0] *= 1e200
        _assert_row_sums_equal_the_former(bands, coeffs, lams, rows)


def test_row_sums_round_a_lone_top_polynomial_as_the_former_pass():
    # p_2 of degree 6 over p_0 and p_1 of degree 0, one pencil, one lambda:
    # only p_2 reaches x^6..x^1, one entry, whose in-place product numpy
    # would round without the fused multiply-add of the former pass.
    rng = np.random.default_rng(37)
    for _ in range(50):
        coeffs = np.zeros((1, 3, 7), dtype=complex)
        coeffs[0, :2, 0] = 1.0, rng.normal()
        coeffs[0, 2] = rng.normal(size=7) + 1j * rng.normal(size=7)
        lam = rng.normal(size=1) + 1j * rng.normal(size=1)
        bands = rng.normal(size=(5, 1, 1))
        _assert_row_sums_equal_the_former(bands, coeffs, lam, 1)


BAND_NAMES = ("j3_diag", "j3_offdiag", "j5_diag", "j5_off1", "j5_off2")


def _refusals(bands, alpha, beta, i):
    """The messages of the engine's refusal of a stack and of JacobiPencil's
    refusal of pencil i of that stack."""
    with pytest.raises(DomainError) as engine:
        _band_coeff_stack(bands, alpha, beta, bands.shape[2] + 1)
    fields = dict(zip(BAND_NAMES, bands[:, i].tolist()), alpha=alpha[i],
                  beta=beta[i])
    with pytest.raises(DomainError) as single:
        JacobiPencil(**fields)
    return str(engine.value), str(single.value)


@pytest.mark.parametrize("band, value", [
    (1, 0.0), (4, -0.5), (0, math.nan), (2, math.inf), (3, -math.inf),
    (4, math.nan),
])
def test_band_engine_refuses_what_jacobi_pencil_refuses(band, value):
    bands, alpha, beta = _band_stack(_random_pencils_by_size(3, 20)[5], 4)
    _band_coeff_stack(bands, alpha, beta, 5)
    bands[band, 1, 3] = value
    engine, single = _refusals(bands, alpha, beta, 1)
    rule = "finite and positive" if band in (1, 4) else "finite"
    assert single == f"{BAND_NAMES[band]}[3] = {value} must be {rule}"
    assert engine == f"pencil 1: {single}"


@pytest.mark.parametrize("alpha0, beta0", [
    (0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
    (1.0, math.nan), (1.0, -math.inf),
])
def test_band_engine_refuses_a_bad_seed(alpha0, beta0):
    bands, alpha, beta = _band_stack(_random_pencils_by_size(3, 20)[5], 4)
    alpha[-1], beta[-1] = alpha0, beta0
    engine, single = _refusals(bands, alpha, beta, -1)
    assert single.startswith("alpha = " if alpha0 != 1.0 else "beta = ")
    assert engine == f"pencil {len(alpha) - 1}: {single}"


def test_pencil_residual_takes_every_lambda_at_once():
    polys = pencil_polynomials(WORKED_PENCIL, 2)
    # Adding x to p_2 shifts row 0 by gamma_0 * lam.
    tampered = [polys[0], polys[1], polys[2] + Poly((0, 1))]
    lams = (0.7, 2 + 1j, -3.0)
    each = [pencil_residual(WORKED_PENCIL, tampered, lam, 1) for lam in lams]
    assert each == pytest.approx([0.7, abs(2 + 1j), 3.0], rel=1e-15)
    assert pencil_residual(WORKED_PENCIL, tampered, lams, 1) == max(each)
    assert pencil_residual(WORKED_PENCIL, tampered, (), 1) == 0.0


@pytest.mark.parametrize("kind, k, x, name", [
    ("first", 5, 1e300, "T_5"), ("second", 3, math.inf, "U_3"),
    ("first", 1, math.nan, "T_1"),
])
def test_chebyshev_refuses_a_value_that_is_not_finite(kind, k, x, name):
    # T_5(1e300) returned nan.
    with pytest.raises(DomainError, match="^" + re.escape(f"{name}(x) at x = {x!r} is not finite: ")):
        chebyshev_eval(kind, k, x)
    assert chebyshev_eval(kind, 0, x) == 1.0


def test_chebyshev_index_is_capped_at_the_degree_cap():
    # An index of 10**400 ran its recurrence loop without end.
    assert chebyshev_eval("second", DEGREE_CAP, 0.5) == pytest.approx(
        math.sin((DEGREE_CAP + 1) * math.pi / 3) / math.sin(math.pi / 3), abs=1e-11)
    for k in (DEGREE_CAP + 1, 10**400):
        with pytest.raises(DomainError) as exc:
            chebyshev_eval("first", k, 0.5)
        assert str(exc.value) == f"index {k} exceeds the degree cap {DEGREE_CAP}"


@pytest.mark.parametrize("route, args, name, bad", [
    (pencil_polynomials, (WORKED_PENCIL, math.nan), "N", "nan"),
    (pencil_residual, (WORKED_PENCIL, (), 0.0, math.inf), "rows", "inf"),
    (pencil_row_terms, (WORKED_PENCIL, (), 0.0, -math.inf), "row index", "-inf"),
    (chebyshev_eval, ("first", math.nan, 0.5), "index", "nan"),
    (kernel_decompose, (PowerSeriesCoeffs((1.0, 1.0)), math.nan), "order", "nan"),
])
def test_an_order_int_cannot_take_is_a_domain_error(route, args, name, bad):
    # int() raised ValueError or OverflowError.
    with pytest.raises(DomainError) as exc:
        route(*args)
    assert str(exc.value) == f"{name} must be an integer, got {bad}"


def test_chebyshev_values():
    assert chebyshev_eval("first", 2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    assert chebyshev_eval("second", 2, 0.5) == pytest.approx(0.0, abs=1e-15)
    x = math.cos(math.pi / 3)
    assert chebyshev_eval("first", 3, x) == pytest.approx(-1.0, rel=1e-14)
    assert chebyshev_eval("first", 0, 0.9) == 1.0
    assert chebyshev_eval("second", 0, 0.9) == 1.0
    assert chebyshev_eval("second", 1, 0.3) == pytest.approx(0.6)
    with pytest.raises(DomainError):
        chebyshev_eval("third", 1, 0.0)
    with pytest.raises(DomainError):
        chebyshev_eval("first", -1, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
)
def test_chebyshev_trigonometric_identities(k, t):
    x = math.cos(t)
    assert chebyshev_eval("first", k, x) == pytest.approx(
        math.cos(k * t), abs=1e-11
    )
    # sin(t) U_k(cos t) = sin((k+1) t)
    assert math.sin(t) * chebyshev_eval("second", k, x) == pytest.approx(
        math.sin((k + 1) * t), abs=1e-11
    )


def test_kernel_decompose_slices():
    d = PowerSeriesCoeffs(d=(1.0, 2.0, 3.0))
    dec = kernel_decompose(d, 1)
    assert dec.t_coeffs == (1.0, 2.0)
    assert dec.u_coeffs == (2.0, 3.0)


def test_kernel_decompose_exponential_head():
    # d_k = 1/k!, n = 0: Im f_1 = sin(tau) * 1 * U_0.
    d = PowerSeriesCoeffs(d=(1.0, 1.0, 0.5))
    dec = kernel_decompose(d, 0)
    assert dec.t_coeffs == (1.0,)
    assert dec.u_coeffs == (1.0,)


def test_kernel_decompose_guards():
    d = PowerSeriesCoeffs(d=(1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        kernel_decompose(d, 2)  # needs d_0..d_3
    with pytest.raises(DomainError):
        kernel_decompose(PowerSeriesCoeffs(d=(1.0, -2.0, 3.0)), 1)


def test_kernel_identities_on_circle():
    rng = random.Random(99)
    for _ in range(5):
        n = rng.randint(0, 10)
        d = PowerSeriesCoeffs(d=tuple(rng.uniform(0.05, 3.0) for _ in range(n + 2)))
        dec = kernel_decompose(d, n)
        for _ in range(8):
            tau = rng.uniform(0.0, 2.0 * math.pi)
            x = math.cos(tau)
            f_n = sum(d.d[k].real * complex(math.cos(k * tau), math.sin(k * tau))
                      for k in range(n + 1))
            f_n1 = f_n + d.d[n + 1].real * complex(
                math.cos((n + 1) * tau), math.sin((n + 1) * tau)
            )
            re_sum = sum(
                dec.t_coeffs[k] * chebyshev_eval("first", k, x)
                for k in range(n + 1)
            )
            im_sum = math.sin(tau) * sum(
                dec.u_coeffs[j] * chebyshev_eval("second", j, x)
                for j in range(n + 1)
            )
            assert abs(f_n.real - re_sum) <= 1e-11
            assert abs(f_n1.imag - im_sum) <= 1e-11
