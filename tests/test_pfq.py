"""Series evaluation and the two integral representations."""

import cmath
import math

import numpy as np
import pytest

from hypersum.errors import ConvergenceError, DomainError
from hypersum.partial_sums import HypParams, gn_direct, hyp_coeff
from hypersum.pfq import (
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


def explicit_trapezoid_circle_rep(params, n, tau, N=4096):
    """Trapezoid mean of sum_{k<=n} u^k · F(e^{it_j}), u = e^{i(tau - t_j)},
    with the kernel summed term by term: no closed form, no division."""
    t = 2.0 * np.pi * np.arange(N) / N
    u = np.exp(1j * (tau - t))
    fvals = np.array([pfq_eval(params, cmath.exp(1j * tj)).value for tj in t])
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
