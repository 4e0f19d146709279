"""Full series evaluation and the two integral representations.

The series is entire for p <= q, has unit convergence radius for p = q+1,
and diverges for p > q+1 (defined at z = 0 only). Evaluation sums terms
incrementally and stops after three consecutive terms fall below tolerance
relative to the running sum, guarding against odd/even alternation.

Two independent routes back to the partial sums are provided. On the unit
circle, g_n is recovered by integrating the full series against a geometric
kernel (a Dirichlet-type sum in the angle difference). On the negative real
axis, g_n is recovered by integrating a terminating series of one higher
order: the integrand is polynomial-times-power, so the integral is done by
exact termwise antidifferentiation, with a Gauss-Legendre cross-check on a
substituted finite interval.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .partial_sums import HypParams, _check_cap, _coeff_ratio, gn_direct
from .polycore import Poly

SERIES_TERM_CAP = 10000
# Slack for the |z| <= 1 membership test in the p = q+1 case: boundary points
# are admitted (convergence is attempted and may honestly fail there).
UNIT_DISK_SLACK = 1e-12


@dataclass(frozen=True)
class PfqValue:
    """Series value plus evaluation diagnostics."""

    value: complex
    terms_used: int
    domain_class: str  # "entire" | "unit-disk" | "divergent"


def _domain_class(params: HypParams) -> str:
    if params.p <= params.q:
        return "entire"
    if params.p == params.q + 1:
        return "unit-disk"
    return "divergent"


def pfq_eval(params: HypParams, z: complex, tol: float = 1e-15) -> PfqValue:
    """Sum the series at z.

    Stops once |term| < tol·|running sum| holds for 3 consecutive terms;
    raises ConvergenceError if 10000 terms do not get there. Out-of-domain
    points (|z| > 1 for p = q+1, z != 0 for p > q+1) raise DomainError.
    """
    z = complex(z)
    cls = _domain_class(params)
    if cls == "unit-disk" and abs(z) > 1.0 + UNIT_DISK_SLACK:
        raise DomainError(
            f"|z| = {abs(z)} is outside the closed unit disk; the series "
            "diverges there for p = q+1"
        )
    if cls == "divergent" and z != 0:
        raise DomainError("series with p > q+1 is defined at z = 0 only")

    term = 1 + 0j
    total = 1 + 0j
    small_streak = 0
    for k in range(1, SERIES_TERM_CAP + 1):
        term = term * _coeff_ratio(params, k - 1) * z
        total += term
        if abs(term) < tol * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return PfqValue(value=total, terms_used=k + 1, domain_class=cls)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"series did not converge within {SERIES_TERM_CAP} terms at z = {z}"
    )


def dirichlet_sum(u: complex, n: int) -> complex:
    """Sum_{k=0..n} u^k: closed form (1 - u^{n+1})/(1 - u) away from u = 1,
    direct summation within 1e-6 of it."""
    u = complex(u)
    n = int(n)
    if n < 0:
        raise DomainError("order must be nonnegative")
    if abs(1 - u) >= 1e-6:
        return (1 - u ** (n + 1)) / (1 - u)
    total = 1 + 0j
    power = 1 + 0j
    for _ in range(n):
        power *= u
        total += power
    return total


def _series_values_on_circle(
    params: HypParams, angles: np.ndarray, tol: float = 1e-15
) -> np.ndarray:
    """Vectorized evaluation of the full series at e^{i·angle} (p <= q).

    Same stopping rule as pfq_eval, applied uniformly across nodes (the
    streak counts only when every node's term is small).
    """
    zs = np.exp(1j * angles)
    term = np.ones_like(zs)
    total = np.ones_like(zs)
    small_streak = 0
    for k in range(1, SERIES_TERM_CAP + 1):
        term = term * (_coeff_ratio(params, k - 1) * zs)
        total += term
        if np.all(np.abs(term) < tol * np.abs(total)):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError("series did not converge at some circle node")


def integral_rep_circle_batch(
    params: HypParams, n_list, taus, N: int = 4096
) -> list[list[complex]]:
    """Quadrature recovery of g_n(e^{i·tau}) for every (n, tau) pair:

        (1/2·pi) ∫_0^{2·pi}  d_n(e^{i(tau - t)}) · (series at e^{it}) dt,

    where d_n is the degree-n Dirichlet-type sum. Only valid for p <= q
    (the series must converge on the whole circle). The series values at
    the nodes are computed once and the kernel powers are built
    incrementally in n, so the cost is one series evaluation plus one
    exact-sum reduction per pair. Rows follow n_list, columns follow taus.
    """
    ns = [_check_cap(n) for n in n_list]
    angles = [float(x) for x in taus]
    if params.p > params.q:
        raise DomainError("circle representation requires p <= q")
    if ns and N < 2 * (max(ns) + 2):
        raise DomainError(f"node count {N} too small for order {max(ns)}")
    t = 2.0 * np.pi * np.arange(int(N)) / int(N)
    fvals = _series_values_on_circle(params, t)
    order = sorted(set(ns))
    results: dict[tuple[int, int], complex] = {}
    for j, tau in enumerate(angles):
        u = np.exp(1j * (tau - t))
        one_minus_u = 1.0 - u
        near_one = np.abs(one_minus_u) < 1e-6
        # Guard the division; masked entries are overwritten by direct sums.
        safe = np.where(near_one, 1.0, one_minus_u)
        upow = u.copy()  # u^{n+1}, maintained incrementally over `order`
        prev = 0
        for n in order:
            if n > prev:
                upow = upow * u ** (n - prev)
                prev = n
            kernel = (1.0 - upow) / safe
            if near_one.any():
                for idx in np.flatnonzero(near_one):
                    kernel[idx] = dirichlet_sum(complex(u[idx]), n)
            vals = kernel * fvals
            re = math.fsum(vals.real.tolist())
            im = math.fsum(vals.imag.tolist())
            results[(n, j)] = complex(re / N, im / N)
    return [[results[(n, j)] for j in range(len(angles))] for n in ns]


def integral_rep_circle(
    params: HypParams, n: int, tau: float, N: int = 4096
) -> complex:
    """Single-pair form of integral_rep_circle_batch. Matches direct
    evaluation of g_n within 1e-8 for n <= 10 at the default node count."""
    return integral_rep_circle_batch(params, [n], [tau], N)[0][0]


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
    values: dict[complex, complex] = {}
    failed: list[complex] = []
    for z in points:
        try:
            values[z] = pfq_eval(params, z).value
        except ConvergenceError:
            failed.append(z)
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
