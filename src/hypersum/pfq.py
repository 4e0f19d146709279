"""Full series evaluation and the two integral representations.

The series is entire for p <= q, has unit convergence radius for p = q+1,
and diverges for p > q+1 (defined at z = 0 only). Every value of the series
comes from one summation, _sum_series, vectorized over a set of points:
each point sums terms incrementally and stops on its own after three
consecutive terms fall below SERIES_RTOL relative to its running sum,
guarding against odd/even alternation. pfq_eval is its one-point case.

Two independent routes back to the partial sums are provided. On the unit
circle, g_n is recovered by integrating the full series against a geometric
kernel (a Dirichlet-type sum in the angle difference). The trapezoid rule
for that integral is the truncated discrete Fourier sum of the series
samples, so it is computed from one FFT of the series on CIRCLE_NODES
equispaced nodes (discrete convolution theorem). On the negative real
axis, g_n is recovered by integrating a terminating series of one higher
order: the integrand is polynomial-times-power, so the integral is done by
exact termwise antidifferentiation, with a Gauss-Legendre cross-check on a
substituted finite interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .partial_sums import HypParams, _check_cap, _coeff_ratio, gn_direct
from .polycore import Poly

SERIES_TERM_CAP = 10000
# A term below this fraction of the running sum counts as negligible.
SERIES_RTOL = 1e-15
# Slack for the |z| <= 1 membership test in the p = q+1 case: boundary points
# are admitted (convergence is attempted and may honestly fail there).
UNIT_DISK_SLACK = 1e-12
# Trapezoid nodes of the circle representation (one FFT of this length).
CIRCLE_NODES = 4096


@dataclass(frozen=True)
class PfqValue:
    """Series value plus evaluation diagnostics."""

    value: complex
    terms_used: int
    domain_class: str  # "entire" | "unit-disk" | "divergent"


def _domain_class(params: HypParams, z: complex = 0j) -> str:
    """The domain class: entire, unit-disk or divergent. Raises DomainError
    at a point z where the series is undefined (|z| > 1 for p = q+1, z != 0
    for p > q+1)."""
    if params.p <= params.q:
        return "entire"
    if params.p > params.q + 1:
        if z != 0:
            raise DomainError("series with p > q+1 is defined at z = 0 only")
        return "divergent"
    if abs(z) > 1.0 + UNIT_DISK_SLACK:
        raise DomainError(
            f"|z| = {abs(z)} is outside the closed unit disk; the series "
            "diverges there for p = q+1"
        )
    return "unit-disk"


def _sum_series(params: HypParams, zs) -> tuple[np.ndarray, np.ndarray]:
    """Series sums and terms used at each point of the 1-D array zs (the
    domain is not checked). A point stops once |term| < SERIES_RTOL·|its
    running sum| has held for 3 consecutive terms; terms_used is 0 (and the
    sum nan) where SERIES_TERM_CAP terms do not get there. Stopped points
    leave the arrays, and every product is elementwise and out of place
    (numpy's in-place complex *= can round a one-element array differently),
    so no point depends on the others.
    """
    z = np.asarray(zs, dtype=complex)
    sums = np.full(z.shape, complex(math.nan, math.nan))
    terms_used = np.zeros(z.shape, dtype=int)
    live, term, total = np.arange(z.size), np.ones_like(z), np.ones_like(z)
    small1 = small2 = np.zeros(z.shape, dtype=bool)  # the last two terms small?
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, SERIES_TERM_CAP + 1):
            if not live.size:
                break
            term = term * _coeff_ratio(params, k - 1) * z
            total = total + term
            small = np.abs(term) < SERIES_RTOL * np.abs(total)
            done = small & small1 & small2
            small1, small2 = small, small1
            if done.any():
                sums[live[done]], terms_used[live[done]] = total[done], k + 1
                live, z, term, total, small1, small2 = (
                    x[~done] for x in (live, z, term, total, small1, small2)
                )
    return sums, terms_used


def pfq_eval(params: HypParams, z: complex) -> PfqValue:
    """Sum the series at z: the one-point case of _sum_series. Raises
    DomainError where the series is undefined and ConvergenceError if
    SERIES_TERM_CAP terms do not meet the stopping rule."""
    z = complex(z)
    cls = _domain_class(params, z)
    (value,), (terms_used,) = _sum_series(params, [z])
    if not terms_used:
        raise ConvergenceError(
            f"series did not converge within {SERIES_TERM_CAP} terms at z = {z}"
        )
    return PfqValue(complex(value), int(terms_used), cls)


def integral_rep_circle_batch(
    params: HypParams, n_list, taus
) -> list[list[complex]]:
    """Quadrature recovery of g_n(e^{i·tau}) for every (n, tau) pair:

        (1/2·pi) ∫_0^{2·pi}  d_n(e^{i(tau - t)}) · (series at e^{it}) dt,

    where d_n(u) = sum_{k<=n} u^k is the degree-n Dirichlet-type kernel.
    Only valid for p <= q (the series must converge on the whole circle).

    The integral is taken by the trapezoid rule on CIRCLE_NODES equispaced
    nodes t_j. Expanding the kernel, that rule is exactly the truncated DFT

        sum_{k<=n} F_k · e^{ik·tau},   F_k = (1/N) sum_j f(e^{it_j}) e^{-ik·t_j},

    so one FFT of the series samples gives every F_k, and a cumulative sum
    over k gives every n at once. The samples come from one _sum_series
    call, each node stopping on its own. F_k equals xi_k up to aliasing from
    xi_{k+N}, xi_{k+2N}, ..., far below roundoff at N = 4096 for n <= 170.
    Rows follow n_list (any order, repeats allowed), columns follow taus.
    """
    ns = [_check_cap(n) for n in n_list]
    angles = np.array([float(x) for x in taus])
    if params.p > params.q:
        raise DomainError("circle representation requires p <= q")
    if not ns:
        return []
    t = 2.0 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    fvals, terms_used = _sum_series(params, np.exp(1j * t))
    if not terms_used.all():
        raise ConvergenceError("series did not converge at some circle node")
    k = np.arange(max(ns) + 1)
    coeffs = np.fft.fft(fvals)[: len(k)] / CIRCLE_NODES
    terms = coeffs[:, None] * np.exp(1j * np.outer(k, angles))
    partial = np.cumsum(terms, axis=0)
    return partial[ns].tolist()


def integral_rep_circle(params: HypParams, n: int, tau: float) -> complex:
    """Single-pair form of integral_rep_circle_batch. Matches direct
    evaluation of g_n within 1e-8 for n <= 10."""
    return integral_rep_circle_batch(params, [n], [tau])[0][0]


def terminating_pfq_poly(params: HypParams, n: int) -> Poly:
    """The degree-n polynomial with coefficients

        (-n)_k (a_1)_k···(a_p)_k / ((-n-1)_k (b_1)_k···(b_q)_k k!),

    i.e. the higher-order terminating series appearing under the integral
    sign in the negative-axis representation. (-n-1)_k never vanishes for
    k <= n, and the top coefficient is nonzero, so the degree is exactly n.
    """
    n = _check_cap(n)
    coeffs = [1 + 0j]
    e = 1 + 0j
    for k in range(n):
        e *= _coeff_ratio(params, k) * (complex(-n) + k) / (complex(-n - 1) + k)
        coeffs.append(e)
    return Poly(coeffs)


def integral_rep_negative_axis(params: HypParams, n: int, x: float) -> complex:
    """Recover g_n(x) for x < 0 by exact termwise integration of

        -(n+1) x^{n+1} ∫_{-oo}^x t^{-n-2} · (terminating series at t) dt.

    Every integrand term t^{k-n-2} (k <= n) has an exponent <= -2, so its
    antiderivative t^{k-n-1}/(k-n-1) vanishes at the lower limit and the
    integral is a finite sum evaluated at t = x. No quadrature is involved;
    the only approximation is floating-point roundoff.
    """
    n = _check_cap(n)
    x = float(x)
    if not (x < 0):
        raise DomainError("the axis representation needs x < 0")
    h = terminating_pfq_poly(params, n)
    antiderivative_at_x = 0j
    for k, e_k in enumerate(h.coeffs):
        antiderivative_at_x += e_k * x ** (k - n - 1) / (k - n - 1)
    return -(n + 1) * x ** (n + 1) * antiderivative_at_x


@functools.cache
def _unit_gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to (0, 1)."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def integral_rep_negative_axis_numeric(
    params: HypParams, n: int, x: float, nodes: int = 64
) -> complex:
    """Cross-check of the axis representation by fixed Gauss-Legendre rule.

    Substituting t = x/u maps the improper integral onto u in (0, 1]; the
    transformed integrand is a polynomial in u of degree <= n, which the
    64-point rule integrates essentially exactly. The rule is built once
    per node count and the integrand is evaluated at all nodes in one
    array pass. Agreement with the termwise-exact path to 1e-6 is the test
    contract (observed far tighter).
    """
    n = _check_cap(n)
    x = float(x)
    if not (x < 0):
        raise DomainError("the axis representation needs x < 0")
    h = terminating_pfq_poly(params, n)
    u, w = _unit_gauss_legendre(int(nodes))
    t = x / u
    integrand = t ** (-n - 2) * np.polyval(h.coeffs[::-1], t) * (-x / (u * u))
    return complex(-(n + 1) * x ** (n + 1) * (w @ integrand))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-errors |g_n(z) - series(z)| over the sample set, per n.

    For p = q+1 the samples must lie on the unit circle and the series may
    honestly fail to converge there; failures are recorded (failed_points,
    NaN sup_error when nothing converged), never asserted against.
    """

    rows: tuple[ConvergenceRow, ...]
    all_samples_converged: bool
    failed_points: tuple[complex, ...]


def convergence_report(params: HypParams, n_list, sample_points) -> ConvergenceReport:
    """Sup over the sample points of |g_n - series| for each n in n_list.

    The series is summed at all points in one _sum_series call, each point
    stopping on its own, after the domain check pfq_eval applies. A point
    that does not converge goes to failed_points (input order, repeats
    kept); the sup is over the converged points only.
    """
    cls = _domain_class(params)
    if cls == "divergent":
        raise DomainError("no convergence statement applies for p > q+1")
    points = [complex(z) for z in sample_points]
    if cls == "unit-disk":
        for z in points:
            if abs(abs(z) - 1.0) > 1e-9:
                raise DomainError(
                    f"for p = q+1 samples must lie on the unit circle; got {z}"
                )
    for z in points:
        _domain_class(params, z)
    sums, terms_used = _sum_series(params, np.array(points, dtype=complex))
    converged = list(zip(points, sums.tolist(), terms_used.tolist()))
    values = {z: fz for z, fz, used in converged if used}
    failed = [z for z, _, used in converged if not used]
    rows = []
    for n in sorted(set(int(n) for n in n_list)):
        g = gn_direct(params, n)
        errs = [abs(g(z) - fz) for z, fz in values.items()]
        sup = max(errs) if errs else math.nan
        rows.append(ConvergenceRow(n=n, sup_error=sup))
    return ConvergenceReport(
        rows=tuple(rows),
        all_samples_converged=not failed,
        failed_points=tuple(failed),
    )
