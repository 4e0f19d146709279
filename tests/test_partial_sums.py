"""Partial sums g_n, monic G_n, and the step ratios delta_k.

Oracle values were derived independently with exact rational arithmetic
(Fraction) and are frozen here as literals.
"""

import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum.errors import DomainError
from hypersum.operators import kappa
from hypersum.partial_sums import (
    _check_cap,
    _coeff_ratio,
    _monic_coeffs,
    _monic_table,
    Gn_by_recurrence,
    Gn_monic,
    HypParams,
    PowerSeriesCoeffs,
    delta_k,
    gn_by_recurrence,
    gn_direct,
    hyp_coeff,
    read_family,
)
from hypersum.polycore import Poly
from hypersum.ri_pencils import tfraction_from_hyp

EXP = HypParams(a=(), b=())  # 0F0: sum z^k/k!
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
BESSEL_LIKE = HypParams(a=(), b=(2.0,))
GAUSS_LIKE = HypParams(a=(1.0, 2.0), b=(3.0,))

# Exact coefficient oracles, derived with Fraction arithmetic.
XI_CONFLUENT = (1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120)  # 1/(k+1)!
XI_GAUSS = (1.0, 2 / 3, 1 / 2, 2 / 5, 1 / 3)  # 2/(k+2)
XI_BESSEL = (1.0, 1 / 2, 1 / 12, 1 / 144, 1 / 2880)
DELTA_CONFLUENT = (2.0, 3.0, 4.0, 5.0)  # k+1
DELTA_GAUSS = (3 / 2, 4 / 3, 5 / 4, 6 / 5)  # (k+2)/(k+1)
DELTA_BESSEL = (2.0, 6.0, 12.0, 20.0)  # k(k+1)


def test_params_shape():
    assert GAUSS_LIKE.p == 2
    assert GAUSS_LIKE.q == 1
    assert EXP.p == EXP.q == 0


def test_param_exclusions_rejected():
    with pytest.raises(DomainError):
        HypParams(a=(), b=(0.0,))
    with pytest.raises(DomainError):
        HypParams(a=(-2.0,), b=())
    with pytest.raises(DomainError):
        HypParams(a=(), b=(-1.0 + 1e-14,))
    # Negative non-integers are fine.
    HypParams(a=(-0.5,), b=(-1.5,))


def test_hyp_coeff_oracles():
    for k, want in enumerate(XI_CONFLUENT):
        assert hyp_coeff(CONFLUENT, k) == pytest.approx(want, rel=1e-15)
    for k, want in enumerate(XI_GAUSS):
        assert hyp_coeff(GAUSS_LIKE, k) == pytest.approx(want, rel=1e-15)
    for k, want in enumerate(XI_BESSEL):
        assert hyp_coeff(BESSEL_LIKE, k) == pytest.approx(want, rel=1e-15)
    assert hyp_coeff(EXP, 4) == pytest.approx(1 / 24, rel=1e-15)


def test_gn_direct_exponential():
    g2 = gn_direct(EXP, 2)
    assert g2.coeffs == (1 + 0j, 1 + 0j, 0.5 + 0j)


def test_gn_direct_degree_exactly_n():
    for params in (EXP, CONFLUENT, BESSEL_LIKE, GAUSS_LIKE):
        for n in (0, 1, 7, 25):
            assert gn_direct(params, n).degree == n


def test_delta_oracles():
    assert delta_k(EXP, 0) == 0
    for k in range(1, 5):
        assert delta_k(EXP, k) == pytest.approx(k, rel=1e-15)
        assert delta_k(CONFLUENT, k) == pytest.approx(
            DELTA_CONFLUENT[k - 1], rel=1e-15
        )
        assert delta_k(GAUSS_LIKE, k) == pytest.approx(DELTA_GAUSS[k - 1], rel=1e-15)
        assert delta_k(BESSEL_LIKE, k) == pytest.approx(
            DELTA_BESSEL[k - 1], rel=1e-15
        )


@pytest.mark.parametrize("params, message", [
    # The parameter products overflow to a nan ratio.
    (HypParams(a=(-0.0026170945989460147,),
               b=(4.766531125685042e102, 1.334112643209489e230,
                  -4.2159381362018675e217 + 6.19404079036996e216j)),
     "non-finite delta_1: (nan+nanj)"),
    # A finite xi_1 = 2e-309 whose reciprocal ratio overflows.
    (HypParams(a=(2e-12,), b=(1e297,)), "non-finite delta_1: (inf+0j)"),
])
def test_delta_k_refuses_a_non_finite_ratio(params, message):
    # As the T-fraction built from the deltas does, naming the same index.
    assert delta_k(params, 0) == 0
    for call in (lambda: delta_k(params, 1), lambda: tfraction_from_hyp(params, 3)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


def test_delta_product_inverts_coefficient():
    # delta_1 ... delta_n = 1/xi_n
    for params in (EXP, CONFLUENT, BESSEL_LIKE, GAUSS_LIKE):
        prod = 1.0 + 0j
        for k in range(1, 13):
            prod *= delta_k(params, k)
            xi = hyp_coeff(params, k)
            assert abs(prod * xi - 1) <= 1e-12


def test_recurrence_matches_direct():
    for params in (EXP, CONFLUENT, BESSEL_LIKE, GAUSS_LIKE):
        gs = gn_by_recurrence(params, 12)
        assert len(gs) == 13
        for n, g in enumerate(gs):
            direct = gn_direct(params, n)
            assert g.degree == n
            for k in range(n + 1):
                assert g.coeff(k) == pytest.approx(direct.coeff(k), rel=1e-12)


def test_monic_oracles():
    G1 = Gn_monic(CONFLUENT, 1)
    assert G1.coeffs == (2 + 0j, 1 + 0j)
    G3 = Gn_monic(BESSEL_LIKE, 3)
    assert G3.coeffs == (144 + 0j, 72 + 0j, 12 + 0j, 1 + 0j)


def test_monic_leading_coefficient_exactly_one():
    for params in (EXP, CONFLUENT, GAUSS_LIKE):
        for n in (1, 5, 20):
            assert Gn_monic(params, n).coeff(n) == 1


def test_monic_recurrence_matches_closed_form():
    for params in (EXP, CONFLUENT, BESSEL_LIKE, GAUSS_LIKE):
        Gs = Gn_by_recurrence(params, 10)
        for n, G in enumerate(Gs):
            want = Gn_monic(params, n)
            for k in range(n + 1):
                assert G.coeff(k) == pytest.approx(want.coeff(k), rel=1e-11)


def _former_delta(params, k):
    # delta_k as it was computed before it shared _param_products.
    if k == 0:
        return 0j
    num = k + 0j
    for bl in params.b:
        num *= bl + (k - 1)
    den = 1 + 0j
    for aj in params.a:
        den *= aj + (k - 1)
    return num / den


def _former_ratio(params, k):
    num = 1 + 0j
    for aj in params.a:
        num *= aj + k
    den = (k + 1) + 0j
    for bl in params.b:
        den *= bl + k
    return num / den


def _former_Gn_by_recurrence(params, N):
    # The monic loop Gn_by_recurrence ran before it moved onto ri_generate.
    out = [Poly((1 + 0j,))]
    prev = Poly()
    for n in range(1, N + 1):
        d_n = _former_delta(params, n)
        d_n1 = _former_delta(params, n - 1)
        cur = out[-1]
        nxt = cur * Poly((d_n, 1 + 0j)) - Poly((0j,) + prev.coeffs).scale(d_n1)
        prev = cur
        out.append(nxt)
    return out


def _random_family(rng):
    # p, q <= 3; every other family complex. Real parts keep 0.05 clear of
    # the excluded nonpositive integers.
    complex_family = rng.random() < 0.5

    def param():
        while True:
            x = rng.uniform(-3.0, 4.0)
            if x > 0.05 or abs(x - round(x)) > 0.05:
                break
        return complex(x, rng.uniform(-2.0, 2.0)) if complex_family else x

    return HypParams(a=tuple(param() for _ in range(rng.randint(0, 3))),
                     b=tuple(param() for _ in range(rng.randint(0, 3))))


def _extreme_family(rng):
    """p, q in 0..3, moduli 10^u with u uniform on one of a few bands
    reaching the edge of double precision, half of them complex."""
    lo, hi = rng.choice(((0, 50), (50, 160), (140, 160), (150, 308)))
    cplx = rng.random() < 0.5

    def draw():
        w = 10 ** rng.uniform(lo, hi)
        return w * cmath.exp(1j * rng.uniform(-3.0, 3.0)) if cplx else -w

    return HypParams(a=tuple(draw() for _ in range(rng.randint(0, 3))),
                     b=tuple(draw() for _ in range(rng.randint(0, 3))))


def _bits(value):
    """value with every float and complex as its bytes, so that == is bit
    equality (signed zeros included); Poly, lists and tuples elementwise."""
    if isinstance(value, complex):
        return struct.pack("dd", value.real, value.imag)
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, Poly):
        return "Poly", _bits(value.coeffs)
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(_bits(v) for v in value)
    return value


def _exact_outcome(run):
    """What run returns, bit for bit (_bits), or the type, message and
    cause type of the DomainError or ZeroDivisionError it raises."""
    try:
        return "value", _bits(run())
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc), type(exc.__cause__).__name__


def _former_gn_by_recurrence(params, N):
    # The Poly loop gn_by_recurrence ran before its list engine.
    N = _check_cap(N)
    out = [Poly((1 + 0j,))]
    prev = Poly()  # g_{-1} := 0
    for n in range(N):
        d = delta_k(params, n + 1)
        step = Poly((0j,) + (out[-1] - prev).coeffs).scale(1 / d)
        prev = out[-1]
        out.append(prev + step)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_gn_by_recurrence_equals_the_former_loop_bit_for_bit(seed):
    # Mild and extreme families, errors included: a family gn_direct
    # refuses is refused with its error; on any other the list engine
    # rounds and refuses as the Poly loop did, signed zeros too.
    rng = random.Random(f"{seed}:gn-recurrence")
    for i in range(40):
        params = _extreme_family(rng) if i % 2 else _random_family(rng)
        N = rng.choice((0, 1, 2, 10, 25, 60))
        want = _exact_outcome(lambda: gn_direct(params, N))
        if want[0] == "value":
            want = _exact_outcome(lambda: _former_gn_by_recurrence(params, N))
        assert _exact_outcome(lambda: gn_by_recurrence(params, N)) == want, (params, N)


def test_gn_by_recurrence_refuses_what_gn_direct_refuses():
    # delta_1 = 0 here: the former loop divided by it (ZeroDivisionError),
    # where the family record holds a non-finite xi_1.
    params = HypParams(
        a=(-1.2787624683585395e208, 1.8646141335495207e71, -1.723950054127906e45),
        b=(-2.9307019274074324e125,))
    assert delta_k(params, 1) == 0
    with pytest.raises(ZeroDivisionError):
        _former_gn_by_recurrence(params, 1)
    for N in (1, 5):
        with pytest.raises(DomainError) as direct:
            gn_direct(params, N)
        with pytest.raises(DomainError) as recurrence:
            gn_by_recurrence(params, N)
        assert str(recurrence.value) == str(direct.value) == (
            "non-finite coefficient xi_1: (nan+nanj)")
    assert [g.coeffs for g in gn_by_recurrence(params, 0)] == [(1 + 0j,)]


def _former_monic_table(seq):
    # The per-degree loop _monic_table replaced: _monic_coeffs per row.
    table = np.zeros((len(seq), len(seq)), dtype=complex)
    for n in range(len(seq)):
        table[n, : n + 1] = _monic_coeffs(seq[: n + 1])
    return table


def test_monic_table_equals_the_per_degree_loop():
    rng = random.Random("monic-table")
    for i in range(200):
        params = _extreme_family(rng) if i % 2 else _random_family(rng)
        family = read_family(params, 25)
        seq = family.xi
        assert _exact_outcome(lambda: _monic_table(seq).tolist()) == _exact_outcome(
            lambda: _former_monic_table(seq).tolist()), params
    # 1F1(1e-11;1e300): xi_1 = 1e-311 is subnormal, 1/xi_1 overflows.
    params = HypParams(a=(1e-11,), b=(1e300,))
    seq = read_family(params, 1).seq(1)
    with pytest.raises(DomainError, match=r"^monic rescaling of g_1 overflowed$"):
        Gn_monic(params, 1)
    # Rows 1 and 2 overflow, row 3 does not: the error names g_1.
    for seq in (seq, (1 + 0j, 1e-320 + 0j, 1e-321 + 0j, 1 + 0j)):
        with pytest.raises(DomainError, match=r"^monic rescaling of g_1 overflowed$"):
            _monic_table(seq)
        with pytest.raises(DomainError, match=r"^monic rescaling of g_1 overflowed$"):
            _former_monic_table(seq)


def test_monic_recurrence_equals_the_former_loop_exactly():
    rng = random.Random("monic-recurrence-engine")
    for _ in range(300):
        params = _random_family(rng)
        got = Gn_by_recurrence(params, 25)
        want = _former_Gn_by_recurrence(params, 25)
        assert [G.coeffs for G in got] == [G.coeffs for G in want], params


def test_delta_and_coeff_ratio_equal_their_former_formulas_bitwise():
    rng = random.Random("parameter-products")
    for _ in range(200):
        params = _random_family(rng)
        for k in range(31):
            for got, want in ((delta_k(params, k), _former_delta(params, k)),
                              (_coeff_ratio(params, k), _former_ratio(params, k))):
                assert struct.pack("dd", got.real, got.imag) == struct.pack(
                    "dd", want.real, want.imag)


def test_power_series_coeffs_rejects_zero():
    with pytest.raises(DomainError):
        PowerSeriesCoeffs(d=(1.0, 0.0))


def test_degree_cap():
    with pytest.raises(DomainError):
        gn_direct(EXP, 171)
    with pytest.raises(DomainError):
        gn_direct(EXP, -1)


def _coeff_seq_oracle(params, N):
    """xi_0..xi_N by the scalar loop, each xi_k = xi_{k-1}·(xi_k/xi_{k-1}),
    written apart from read_family. Stops at the first xi_k that is zero
    or not finite: returns the coefficients before it and the refusal
    message for it, or all N + 1 coefficients and None."""
    xi, out = 1 + 0j, [1 + 0j]
    for k in range(1, N + 1):
        xi = xi * _coeff_ratio(params, k - 1)
        if xi == 0:
            return out, f"coefficient xi_{k} underflowed to zero; degree would collapse"
        if not cmath.isfinite(xi):
            return out, f"non-finite coefficient xi_{k}: {xi!r}"
        out.append(xi)
    return out, None


# Every public route that reads the coefficient sequence at one degree.
SINGLE_DEGREE_ROUTES = (gn_direct, Gn_monic, hyp_coeff, kappa)


@pytest.mark.parametrize("params", [
    EXP,
    HypParams(a=(1e200,)),  # xi_2 overflows
    HypParams(b=(1e100, 1e100, 1e100)),  # xi_2 underflows
    HypParams(b=(1e40,)),  # xi_8 underflows
    # xi_1 underflows to zero, and the complex products make xi_3 nan:
    # the first failing g_n is g_1, so this is the underflow at 1.
    HypParams(b=(2.5428429466716663e154, 2.8124008144527875e153,
                 1.3503388545122605e154)),
])
def test_partial_sum_seq_refuses_as_the_first_failing_gn_direct(params):
    # The family record's sequence, and every route reading it at one
    # degree, equals the scalar loop at every degree before its first zero
    # or non-finite xi_k, and refuses every degree from k on with that
    # coefficient's message.
    N = 25
    seq, message = _coeff_seq_oracle(params, N)
    family = read_family(params, N)
    for n in range(N + 1):
        if n < len(seq):
            assert family.seq(n) == tuple(seq[: n + 1])
            assert family.table(n)[n].tolist() == seq[: n + 1]
            assert gn_direct(params, n).coeffs == tuple(seq[: n + 1])
            assert hyp_coeff(params, n) == seq[n]
            continue
        for route in (lambda _, m: family.seq(m), *SINGLE_DEGREE_ROUTES):
            with pytest.raises(DomainError) as got:
                route(params, n)
            assert str(got.value) == message


def test_single_degree_routes_name_the_first_underflowed_coefficient():
    # 0F2(;1e300,1e300): xi_1 = 1e-600 is already 0. Each route used to
    # name the coefficient it was asked for, or return 0j (hyp_coeff).
    params = HypParams(b=(1e300, 1e300))
    for route in SINGLE_DEGREE_ROUTES:
        with pytest.raises(DomainError) as got:
            route(params, 3)
        assert str(got.value) == (
            "coefficient xi_1 underflowed to zero; degree would collapse")


def _valid_param(rng: random.Random) -> float:
    while True:
        x = rng.uniform(-3.0, 4.0)
        if x > 0.05 or abs(x - round(x)) > 0.05:
            return x


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=20))
def test_product_identity_random_params(seed, n):
    rng = random.Random(seed)
    p = rng.randint(0, 3)
    q = rng.randint(0, 3)
    params = HypParams(
        a=tuple(_valid_param(rng) for _ in range(p)),
        b=tuple(_valid_param(rng) for _ in range(q)),
    )
    prod = 1.0 + 0j
    for k in range(1, n + 1):
        prod *= delta_k(params, k)
    xi = hyp_coeff(params, n)
    assert abs(prod * xi - 1) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_recurrence_random_params(seed):
    rng = random.Random(seed)
    p = rng.randint(0, 3)
    q = rng.randint(0, 3)
    params = HypParams(
        a=tuple(_valid_param(rng) for _ in range(p)),
        b=tuple(_valid_param(rng) for _ in range(q)),
    )
    n = rng.randint(1, 15)
    g = gn_by_recurrence(params, n)[n]
    direct = gn_direct(params, n)
    for k in range(n + 1):
        r, c = direct.coeff(k), g.coeff(k)
        assert abs(r - c) <= 1e-10 * max(abs(r), abs(c), 1e-300)
