"""Series evaluation and the two integral representations."""

import cmath
import math

import numpy as np
import pytest

from hypersum import pfq
from hypersum.errors import ConvergenceError, DomainError
from hypersum.partial_sums import HypParams, _coeff_ratio, gn_direct
from hypersum.pfq import (
    SERIES_TERM_CAP,
    _sum_series,
    _unit_gauss_legendre,
    convergence_report,
    integral_rep_circle,
    integral_rep_circle_batch,
    integral_rep_negative_axis,
    integral_rep_negative_axis_numeric,
    pfq_eval,
    terminating_pfq_poly,
)

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
GEOMETRIC = HypParams(a=(1.0,), b=())
EPS = 2.0**-52


def scalar_series(params, z):
    """Oracle: the series summed at one point in plain Python, with the same
    stopping rule (3 consecutive terms below 1e-15 of the running sum).
    Returns (sum, terms used, sum of the term moduli); the sum is None and
    terms used 0 when SERIES_TERM_CAP terms do not get there."""
    z = complex(z)
    term = total = 1 + 0j
    moduli = 1.0
    small_streak = 0
    for k in range(1, SERIES_TERM_CAP + 1):
        term = term * _coeff_ratio(params, k - 1) * z
        total += term
        moduli += abs(term)
        if abs(term) < 1e-15 * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total, k + 1, moduli
        else:
            small_streak = 0
    return None, 0, moduli


ORACLE_FAMILIES = {
    "exp": EXP,
    "1F1(1;2)": CONFLUENT,
    "2F3(1,1.5;2,2.5,3)": HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0)),
    "complex 1F2": HypParams(a=(0.5 + 0.25j,), b=(1.5, 2.0 - 0.5j)),
    "1F0(0.5)": HypParams(a=(0.5,), b=()),
}
# Zero, interior points of the unit disk, and points on the unit circle,
# where 1F0(0.5) honestly fails to converge.
ORACLE_POINTS = (
    0j, 0.3, -0.7, -0.3 + 0.2j, 0.9j, 1.0, -1.0, 1j, cmath.exp(0.6j * math.pi),
)


def test_eval_exponential():
    out = pfq_eval(EXP, 1.0)
    assert out.value == pytest.approx(math.e, rel=1e-14)
    assert out.domain_class == "entire"
    assert out.terms_used > 5
    assert pfq_eval(EXP, 0.0).value == 1


def test_eval_confluent():
    # sum z^k/(k+1)! = (e^z - 1)/z
    z = 0.7
    want = (math.exp(z) - 1) / z
    assert pfq_eval(CONFLUENT, z).value == pytest.approx(want, rel=1e-13)


def test_eval_geometric_inside_disk():
    out = pfq_eval(GEOMETRIC, 0.5)
    assert out.value == pytest.approx(2.0, rel=1e-13)
    assert out.domain_class == "unit-disk"


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        pfq_eval(GEOMETRIC, 1.5)
    divergent = HypParams(a=(1.0, 1.0), b=())
    with pytest.raises(DomainError):
        pfq_eval(divergent, 0.1)
    assert pfq_eval(divergent, 0.0).value == 1
    assert pfq_eval(divergent, 0.0).domain_class == "divergent"


def test_eval_honest_failure_on_circle():
    # p = q+1 on the boundary is attempted, not guaranteed.
    with pytest.raises(ConvergenceError):
        pfq_eval(GEOMETRIC, -1.0)


@pytest.mark.parametrize("params", ORACLE_FAMILIES.values(), ids=ORACLE_FAMILIES)
def test_eval_matches_scalar_oracle(params):
    # Same stopping point, and the sum within the rounding of summing
    # terms_used terms of these moduli.
    for z in ORACLE_POINTS:
        want, used, moduli = scalar_series(params, z)
        if not used:
            with pytest.raises(ConvergenceError, match="did not converge within"):
                pfq_eval(params, z)
            continue
        got = pfq_eval(params, z)
        assert got.terms_used == used, z
        assert abs(got.value - want) <= 4 * used * EPS * moduli, z


def test_eval_on_real_data_is_the_scalar_loop_bit_for_bit():
    # Real parameters and points round alike in numpy and Python, so this
    # pins the term update order term·ratio·z; the cancellation at large
    # negative z shows any other order.
    for name in ("exp", "1F1(1;2)", "2F3(1,1.5;2,2.5,3)"):
        for z in (-30.0, -7.0, -2.3, 0.3, 4.1):
            want, used, _ = scalar_series(ORACLE_FAMILIES[name], z)
            got = pfq_eval(ORACLE_FAMILIES[name], z)
            assert (got.value, got.terms_used) == (want, used), (name, z)


def test_each_point_is_summed_on_its_own():
    # A point's sum and stopping term do not depend on the points summed
    # with it: the batch equals each point summed alone, bit for bit.
    circle = [cmath.exp(2j * math.pi * j / 16) for j in range(16)]
    points = {
        "exp": circle + [0j, 3.0, -7 + 2j, 25j],
        "1F1(1;2)": circle + [0.5, -40.0],
        "2F3(1,1.5;2,2.5,3)": circle + [0.1j, 60.0],
        "complex 1F2": circle + [2 - 2j],
        "1F0(0.5)": [0j, 0.5, -0.3 + 0.2j, 0.99, -1.0, 0.5],
    }
    for name, zs in points.items():
        sums, used = _sum_series(ORACLE_FAMILIES[name], zs)
        assert sums.shape == used.shape == (len(zs),)
        for i, z in enumerate(zs):
            one_sum, one_used = _sum_series(ORACLE_FAMILIES[name], [z])
            assert used[i] == one_used[0], (name, z)
            assert sums[i].tobytes() == one_sum[0].tobytes(), (name, z)
    # The point that reached the cap carries terms_used 0 and a nan sum.
    assert used[4] == 0 and cmath.isnan(sums[4])
    assert used.tolist().count(0) == 1


def explicit_trapezoid_circle_rep(params, n, tau, N=4096):
    """Trapezoid mean of sum_{k<=n} u^k · F(e^{it_j}), u = e^{i(tau - t_j)},
    with the kernel summed term by term: no closed form, no division. The
    series samples come from the scalar oracle, not from the summation the
    circle representation uses."""
    t = 2.0 * np.pi * np.arange(N) / N
    u = np.exp(1j * (tau - t))
    fvals = np.array([scalar_series(params, cmath.exp(1j * tj))[0] for tj in t])
    kernel = np.zeros(N, dtype=complex)
    power = np.ones(N, dtype=complex)
    for _ in range(n + 1):
        kernel += power
        power = power * u
    return complex(np.mean(kernel * fvals))


def test_circle_rep_matches_explicit_trapezoid():
    node = 2.0 * math.pi * 37 / 4096
    taus = (0.0, node + 1e-9, 0.3, 4.1)
    ns = (0, 3, 10)
    for params in (EXP, CONFLUENT, HypParams(a=(0.5 + 0.2j,), b=(1.5, 2.0 - 0.5j))):
        got = integral_rep_circle_batch(params, ns, taus)
        for i, n in enumerate(ns):
            for j, tau in enumerate(taus):
                want = explicit_trapezoid_circle_rep(params, n, tau)
                assert abs(got[i][j] - want) <= 1e-13


def test_terminating_poly_exponential():
    # n = 2: coefficients 1, 2/3, 1/6 (Fraction-derived oracle).
    h = terminating_pfq_poly(EXP, 2)
    assert h.degree == 2
    assert h.coeff(0) == 1
    assert h.coeff(1) == pytest.approx(2 / 3, rel=1e-15)
    assert h.coeff(2) == pytest.approx(1 / 6, rel=1e-15)


def test_terminating_poly_degree():
    for params in (EXP, CONFLUENT):
        for n in (0, 1, 9):
            assert terminating_pfq_poly(params, n).degree == n


def test_circle_rep_matches_direct():
    for params in (EXP, CONFLUENT, HypParams(a=(), b=(1.5,))):
        for n in (0, 2, 5):
            tau = 0.3
            got = integral_rep_circle(params, n, tau)
            want = gn_direct(params, n)(cmath.exp(1j * tau))
            assert abs(got - want) <= 1e-10


def test_circle_rep_batch_matches_scalar():
    taus = (0.0, 1.1, 4.5)
    ns = (1, 4)
    batch = integral_rep_circle_batch(EXP, ns, taus)
    for i, n in enumerate(ns):
        for j, tau in enumerate(taus):
            assert batch[i][j] == integral_rep_circle(EXP, n, tau)


def test_circle_rep_rows_follow_n_list():
    taus = (0.2, 2.9, 5.0)
    sorted_rows = integral_rep_circle_batch(CONFLUENT, [1, 4, 7], taus)
    rows = integral_rep_circle_batch(CONFLUENT, [7, 1, 4, 1, 7], taus)
    assert rows == [sorted_rows[i] for i in (2, 0, 1, 0, 2)]
    assert integral_rep_circle_batch(CONFLUENT, [], taus) == []


def test_circle_rep_preconditions():
    with pytest.raises(DomainError):
        integral_rep_circle(GEOMETRIC, 3, 0.0)  # p > q


def test_axis_rep_exact_small_case():
    # g_2(-1) = 1/2 for the exponential case, Fraction-derived.
    got = integral_rep_negative_axis(EXP, 2, -1.0)
    assert got.real == pytest.approx(0.5, rel=1e-14)
    assert abs(got.imag) <= 1e-16


def test_axis_rep_matches_direct():
    for params in (EXP, CONFLUENT, GEOMETRIC):
        for n in (1, 5, 10):
            g = gn_direct(params, n)
            for x in (-0.1, -1.0, -10.0):
                got = integral_rep_negative_axis(params, n, x)
                want = g(x)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_axis_rep_requires_negative_x():
    with pytest.raises(DomainError):
        integral_rep_negative_axis(EXP, 3, 0.0)
    with pytest.raises(DomainError):
        integral_rep_negative_axis(EXP, 3, 1.0)


def _axis_quadrature_loop(params, n, x, nodes=64):
    """The per-node loop the array pass replaced: value, and the sum of the
    moduli of its terms (the scale of its rounding error)."""
    h = terminating_pfq_poly(params, n)
    u_raw, w_raw = np.polynomial.legendre.leggauss(nodes)
    total, mass = 0j, 0.0
    for ui, wi in zip((0.5 * (u_raw + 1.0)).tolist(), (0.5 * w_raw).tolist()):
        t = x / ui
        term = wi * (t ** (-n - 2)) * h(t) * (-x / (ui * ui))
        total += term
        mass += abs(term)
    scale = (n + 1) * abs(x) ** (n + 1)
    return -(n + 1) * x ** (n + 1) * total, scale * mass


def test_axis_rep_numeric_matches_per_node_loop():
    complex_2f3 = HypParams(a=(0.7 + 0.2j, 1.1 - 0.3j), b=(1.5 + 0.4j, 2.2, 3.1))
    for params in (EXP, CONFLUENT, complex_2f3):
        for n in (0, 5, 20):
            for x in (-0.1, -1.0, -10.0):
                want, mass = _axis_quadrature_loop(params, n, x)
                got = integral_rep_negative_axis_numeric(params, n, x)
                assert isinstance(got, complex)
                assert abs(got - want) <= 1e-14 * mass
    u, w = _unit_gauss_legendre(64)
    assert _unit_gauss_legendre(64)[0] is u
    assert not (u.flags.writeable or w.flags.writeable)
    with pytest.raises(DomainError):
        integral_rep_negative_axis_numeric(EXP, 3, 0.0)


def test_axis_rep_numeric_cross_check():
    for params in (EXP, CONFLUENT):
        for n in (1, 6, 12):
            for x in (-0.5, -3.0):
                term = integral_rep_negative_axis(params, n, x)
                quad = integral_rep_negative_axis_numeric(params, n, x)
                assert abs(term - quad) <= 1e-10 * max(1.0, abs(term))


def test_convergence_report_entire():
    pts = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
    report = convergence_report(EXP, [5, 20], pts)
    assert report.all_samples_converged
    assert report.failed_points == ()
    sups = {row.n: row.sup_error for row in report.rows}
    assert sups[20] < sups[5]
    assert sups[20] <= 1e-15


def test_convergence_report_boundary_failures_recorded():
    # p = q+1 on the circle: the series may honestly fail; that is data,
    # not an error.
    half = HypParams(a=(0.5,), b=())
    report = convergence_report(half, [3], [-1.0 + 0j])
    assert not report.all_samples_converged
    assert report.failed_points == (-1 + 0j,)
    assert math.isnan(report.rows[0].sup_error)


def test_convergence_report_preconditions():
    half = HypParams(a=(0.5,), b=())
    with pytest.raises(DomainError):
        convergence_report(half, [3], [0.5 + 0j])  # off the circle
    divergent = HypParams(a=(1.0, 2.0), b=())
    with pytest.raises(DomainError):
        convergence_report(divergent, [3], [1.0 + 0j])


def test_convergence_report_refuses_points_the_series_refuses():
    # The report admits |z| up to 1 + 1e-9 as on the circle, but the
    # series is undefined past 1 + 1e-12 for p = q+1.
    half = HypParams(a=(0.5,), b=())
    z = 1.0 + 1e-10
    with pytest.raises(DomainError, match="outside the closed unit disk"):
        pfq_eval(half, z)
    with pytest.raises(DomainError, match="outside the closed unit disk"):
        convergence_report(half, [3], [-1.0 + 0j, z * 1j])


def test_convergence_report_keeps_failed_points_in_order(monkeypatch):
    # With the cap lowered, the far points fail and the near ones converge;
    # failures keep input order and repeats, and the sup is over the rest.
    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 30)
    points = [10.0, 0.1, 10j, 10.0, -0.2j, 0.1]
    report = convergence_report(EXP, [2], points)
    assert report.failed_points == (10.0, 10j, 10.0)
    assert not report.all_samples_converged
    g = gn_direct(EXP, 2)
    want = max(abs(g(z) - pfq_eval(EXP, z).value) for z in (0.1, -0.2j))
    assert report.rows[0].sup_error == want


def test_series_cap_fails_circle_and_report(monkeypatch):
    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 2)
    message = "^series did not converge at some circle node$"
    with pytest.raises(ConvergenceError, match=message):
        integral_rep_circle_batch(EXP, [3], [0.0])
    points = [1.0 + 0j, -1.0 + 0j, 1.0 + 0j]
    report = convergence_report(EXP, [1, 3], points)
    assert report.failed_points == tuple(points)
    assert [row.n for row in report.rows] == [1, 3]
    assert all(math.isnan(row.sup_error) for row in report.rows)
    with pytest.raises(ConvergenceError, match=r"within 2 terms at z = \(1\+0j\)"):
        pfq_eval(EXP, 1.0)


def test_circle_and_report_sum_without_pfq_eval(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pfq_eval called")

    monkeypatch.setattr(pfq, "pfq_eval", refuse)
    integral_rep_circle_batch(CONFLUENT, [4], [0.3])
    pts = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
    assert convergence_report(CONFLUENT, [4], pts).all_samples_converged
