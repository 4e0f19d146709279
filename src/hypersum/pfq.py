"""Full series evaluation and the two integral representations.

The series is entire for p <= q, has unit convergence radius for p = q+1,
and diverges for p > q+1 (defined at z = 0 only). Every value of the series
comes from one summation, _sum_series, vectorized over (family, point)
pairs: each point stops on its own after three consecutive terms below
SERIES_RTOL of its running sum, guarding against odd/even alternation.
pfq_eval is its one-point case; _raise_series_failure refuses the first failed
point for it, the circle representation and the convergence sweep alike.

Two independent routes back to the partial sums are provided. On the unit
circle, g_n is recovered by integrating the full series against a geometric
kernel (a Dirichlet-type sum in the angle difference). The trapezoid rule
for that integral is the truncated discrete Fourier sum of the series
samples, so it is computed from one FFT of the series on CIRCLE_NODES
equispaced nodes (discrete convolution theorem). On the negative real
axis, g_n is recovered by integrating a terminating series of one higher
order: the integrand is polynomial-times-power, so the integral is done by
exact termwise antidifferentiation, with a Gauss-Legendre cross-check on a
substituted finite interval. Both axis routes run on one table of the
terminating series of every degree asked for (_terminating_table), all
degrees and points in one array pass rounded as the one-degree scalar
arithmetic rounds it; the public functions are that pass at one degree and point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, read_in_order
from .partial_sums import HypParams, _check_cap, _coeff_ratio, read_family
from .polycore import (coeff_table, complex_product, horner_rows, modulus, poly_coeffs,
                       real_quotient)

SERIES_TERM_CAP = 10000
# A term below this fraction of the running sum counts as negligible.
SERIES_RTOL = 1e-15
# Slack for the |z| <= 1 membership test in the p = q+1 case: boundary points
# are admitted (convergence is attempted and may honestly fail there).
UNIT_DISK_SLACK = 1e-12
# Trapezoid nodes of the circle representation (one FFT of this length).
CIRCLE_NODES = 4096
# Gauss-Legendre nodes of the negative-axis cross-check.
AXIS_NODES = 64


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


def _sum_series(stack, owner, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series sums, terms used and whether SERIES_TERM_CAP was reached, at
    each point of the 1-D array zs, point i summing family stack[owner[i]]
    (owner: an index per point, or one for all; the domain is not checked).
    A point stops once |term| < SERIES_RTOL·|its running sum| has held for
    3 consecutive terms, or at the step the modulus of its running sum
    turns nan, which no later term can undo. terms_used is 0 where the
    point reaches the cap (the sum nan), stops on a nan sum, or stops on an
    overflowed total (the sum that total: any finite term is small against
    inf). Each step forms each family's _coeff_ratio once, as a Python
    complex, gathered per point (a product with the gathered ratios rounds
    as one with the scalar). Stopped points leave the arrays, and every
    product is elementwise and out of place (numpy's in-place complex *=
    can round one entry differently), so no point depends on the others.
    """
    z = np.asarray(zs, dtype=complex)
    owner = np.asarray(owner, dtype=int)
    sums = np.full(z.shape, complex(math.nan, math.nan))
    terms_used = np.zeros(z.shape, dtype=int)
    live, term, total = np.arange(z.size), np.ones_like(z), np.ones_like(z)
    small1 = small2 = np.zeros(z.shape, dtype=bool)  # the last two terms small?
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, SERIES_TERM_CAP + 1):
            if not live.size:
                break
            if owner.ndim:
                ratio = np.array([_coeff_ratio(f, k - 1) for f in stack])[owner]
            else:
                ratio = _coeff_ratio(stack[owner], k - 1)
            term = term * ratio * z
            total = total + term
            size = np.abs(total)
            small = np.abs(term) < SERIES_RTOL * size
            done = (small & small1 & small2) | np.isnan(size)
            small1, small2 = small, small1
            if done.any():
                sums[live[done]] = total[done]
                terms_used[live[done]] = np.where(np.isfinite(total[done]), k + 1, 0)
                live, z, term, total, small1, small2 = (
                    x[~done] for x in (live, z, term, total, small1, small2)
                )
                if owner.ndim:
                    owner = owner[~done]
    capped = np.zeros(sums.shape, dtype=bool)
    capped[live] = True
    return sums, terms_used, capped


def _raise_series_failure(zs, sums, terms, capped) -> None:
    """Raise the refusal of the first point of zs whose sum failed (terms
    used 0), from _sum_series' outputs at zs: the sum overflowed, the point
    reached the cap, or a term is not finite."""
    failed = np.flatnonzero(np.asarray(terms) == 0)
    if failed.size:
        i = failed[0]
        failure = ("overflowed double precision" if np.isinf(sums[i]) else
                   f"did not converge within {SERIES_TERM_CAP} terms" if capped[i]
                   else "term is not finite")
        raise ConvergenceError(f"series {failure} at z = {complex(zs[i])}")


def _eval_points(params: HypParams, zs) -> list[PfqValue]:
    """pfq_eval at each point of zs by one _sum_series call over the points
    before the first one outside the domain; the first failed sum raises
    (_raise_series_failure), then the first point outside the domain."""
    zs = [complex(z) for z in zs]

    def values(classes):
        sums, terms, capped = _sum_series([params], 0, zs[: len(classes)])
        _raise_series_failure(zs, sums, terms, capped)
        return [PfqValue(complex(s), int(t), c) for s, t, c in zip(sums, terms, classes)]

    return read_in_order(zs, functools.partial(_domain_class, params), values)


def pfq_eval(params: HypParams, z: complex) -> PfqValue:
    """Sum the series at z: the one-point case of _eval_points. Raises
    DomainError where the series is undefined and ConvergenceError if
    SERIES_TERM_CAP terms do not meet the stopping rule, a term is not
    finite or the sum overflows."""
    return _eval_points(params, [z])[0]


@functools.cache
def _unit_circle_nodes(count: int) -> np.ndarray:
    """The equispaced nodes e^(2·pi·i·j/count), j < count, read-only."""
    nodes = np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
    nodes.flags.writeable = False
    return nodes


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
    call, each node stopping on its own; the nodes are built once per
    process (_unit_circle_nodes). F_k equals xi_k up to aliasing from
    xi_{k+N}, xi_{k+2N}, ..., far below roundoff at N = 4096 for n <= 170.
    Rows follow n_list (any order, repeats allowed), columns follow taus.
    """
    ns = [_check_cap(n) for n in n_list]
    angles = np.array([float(x) for x in taus])
    if params.p > params.q:
        raise DomainError("circle representation requires p <= q")
    if not ns:
        return []
    nodes = _unit_circle_nodes(CIRCLE_NODES)
    fvals, terms_used, capped = _sum_series([params], 0, nodes)
    _raise_series_failure(nodes, fvals, terms_used, capped)
    k = np.arange(max(ns) + 1)
    coeffs = np.fft.fft(fvals)[: len(k)] / CIRCLE_NODES
    terms = coeffs[:, None] * np.exp(1j * np.outer(k, angles))
    partial = np.cumsum(terms, axis=0)
    return partial[ns].tolist()


def _terminating_table(params: HypParams, ns) -> np.ndarray:
    """The coefficients (-n)_k (a_1)_k···(a_p)_k / ((-n-1)_k (b_1)_k···(b_q)_k
    k!) of the terminating series under the negative-axis integral, of
    degree exactly n, for every n of ns, one zero-padded row each: column
    k + 1 is column k times

        _coeff_ratio(params, k) · (k - n) / (k - n - 1),

    every factor formed in one pass and the columns multiplied out for all
    rows at once, each product and quotient rounded as the Python complex
    arithmetic of a term-by-term loop rounds it (complex_product,
    real_quotient). Raises the DomainError of the first row holding a
    non-finite coefficient, as Poly construction does."""
    ns = np.asarray(ns, dtype=int)
    width = int(ns.max(initial=0)) + 1
    ratios = np.array([_coeff_ratio(params, k) for k in range(width - 1)], dtype=complex)
    steps = np.arange(width - 1) - ns[:, None]  # k - n
    table = np.zeros((len(ns), width), dtype=complex)
    table[:, 0] = 1.0
    # Python complex arithmetic overflows to inf or nan without a warning.
    with np.errstate(all="ignore"):
        factors = real_quotient(complex_product(steps.astype(complex), ratios), steps - 1)
        factors[steps >= 0] = 0.0  # past the degree
        for k in range(width - 1):
            table[:, k + 1] = complex_product(table[:, k], factors[:, k])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        poly_coeffs(table[np.argmax(bad)].tolist())
    return table


def _negative_axis_arguments(n: int, x: float) -> tuple[int, float]:
    n = _check_cap(n)
    x = float(x)
    if not (x < 0):
        raise DomainError("the axis representation needs x < 0")
    return n, x


def _axis_value(route, name: str, params: HypParams, n: int, x: float) -> complex:
    """route (_axis_termwise or _axis_quadrature) at one degree and one
    point. A value that overflows, or a power of x beyond the float range
    (Python's float pow raises OverflowError), is a DomainError naming the
    route."""
    n, x = _negative_axis_arguments(n, x)
    table = _terminating_table(params, [n])
    failure = f"the {name} of g_{n} at x = {x!r} overflowed double precision"
    try:
        with np.errstate(all="ignore"):
            value = complex(route(table, [n], [x])[0, 0])
    except OverflowError:
        raise DomainError(f"{failure}: a power of x exceeds the float range") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{failure}: {value!r}")
    return value


def _axis_termwise(table: np.ndarray, ns, xs) -> np.ndarray:
    """integral_rep_negative_axis at every x < 0 of xs for each row of a
    _terminating_table of the degrees ns: a (len(ns), len(xs)) array. Row
    n sums its terms e_k·x^(k-n-1)/(k-n-1), k = 0..n, one column at a time
    for all rows and points; the powers of x are Python's float pow, and
    every product, quotient and sum is rounded as the term-by-term loop of
    Python complex arithmetic rounds it."""
    ns = np.asarray(ns, dtype=int)
    top = int(ns.max(initial=0)) + 1
    powers = np.array([[x ** e for e in range(-top, top + 1)] for x in xs])
    exponents = np.arange(table.shape[1]) - ns[:, None] - 1
    live = exponents < 0  # the columns k <= n; the others add zero terms
    # Python complex arithmetic overflows to inf or nan without a warning.
    with np.errstate(all="ignore"):
        terms = real_quotient(
            complex_product(table, powers[:, np.where(live, exponents, 0) + top]),
            np.where(live, exponents, 1),
        )
        total = np.zeros(terms.shape[:2], dtype=complex)
        for k in range(table.shape[1]):
            total = total + terms[:, :, k]
        values = complex_product(total, -(ns + 1.0) * powers[:, ns + 1 + top])
    return values.T


def integral_rep_negative_axis(params: HypParams, n: int, x: float) -> complex:
    """Recover g_n(x) for x < 0 by exact termwise integration of

        -(n+1) x^{n+1} ∫_{-oo}^x t^{-n-2} · (terminating series at t) dt.

    Every integrand term t^{k-n-2} (k <= n) has an exponent <= -2, so its
    antiderivative t^{k-n-1}/(k-n-1) vanishes at the lower limit and the
    integral is a finite sum evaluated at t = x. No quadrature is involved;
    the only approximation is floating-point roundoff. This is
    _axis_termwise at one degree and one point; a value that overflows is
    a DomainError.
    """
    return _axis_value(_axis_termwise, "termwise integral", params, n, x)


@functools.cache
def _unit_gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to (0, 1)."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _axis_quadrature(table: np.ndarray, ns, xs) -> np.ndarray:
    """integral_rep_negative_axis_numeric at every x < 0 of xs for each row
    of a _terminating_table of the degrees ns: a (len(ns), len(xs)) array
    from one (len(ns), len(xs), AXIS_NODES) array pass. The terminating
    series is evaluated by Horner's rule over all of the table's columns,
    as np.polyval evaluates it (the zero columns above a row's degree keep
    it at zero), and t^(-n-2) is one broadcast power. Each (degree, point)
    integral is its own row's dot product with the weights, so no value
    depends on the other degrees or points."""
    u, w = _unit_gauss_legendre(AXIS_NODES)
    ns = np.asarray(ns, dtype=int)
    x = np.array(xs, dtype=float)[:, None]
    t = x / u
    series = np.zeros((len(ns),) + t.shape, dtype=complex)
    for k in range(table.shape[1] - 1, -1, -1):
        series = series * t + table[:, k, None, None]
    integrand = t ** (-ns - 2.0)[:, None, None] * series * (-x / (u * u))
    return np.array([
        [-(n + 1) * xi ** (n + 1) * (w @ row) for xi, row in zip(map(float, xs), rows)]
        for n, rows in zip(ns.tolist(), integrand)
    ], dtype=complex)


def integral_rep_negative_axis_numeric(
    params: HypParams, n: int, x: float
) -> complex:
    """Cross-check of the axis representation by fixed Gauss-Legendre rule.

    Substituting t = x/u maps the improper integral onto u in (0, 1]; the
    transformed integrand is a polynomial in u of degree <= n, which the
    AXIS_NODES = 64-point rule integrates essentially exactly. The rule is
    built once; this is _axis_quadrature at one degree and one point.
    Agreement with the termwise-exact path to 1e-6 is the test contract
    (observed far tighter). A quadrature that overflows is a DomainError.
    """
    return _axis_value(_axis_quadrature, "Gauss-Legendre quadrature", params, n, x)


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
    stopping on its own, after the domain check pfq_eval applies. Every g_n
    is read from one family record. A point that does not converge goes to
    failed_points (input order, repeats kept); the sup is _sup_errors over
    the converged points only.
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
    ns = sorted({int(n) for n in n_list})
    seq = ()
    if ns:
        _check_cap(ns[0])
        seq = read_family(params, ns[-1]).seq(ns[-1])
    zs = np.array(points, dtype=complex)
    sums, used, _ = _sum_series([params], 0, zs)
    failed = [z for z, u in zip(points, used) if not u]
    sups = _sup_errors([seq], ns, zs[used > 0], [sums[used > 0]])[0]
    return ConvergenceReport(
        rows=tuple(ConvergenceRow(n=n, sup_error=sup) for n, sup in zip(ns, sups)),
        all_samples_converged=not failed,
        failed_points=tuple(failed),
    )


def _sup_errors(seqs, ns, zs, sums) -> list[list[float]]:
    """Python's max over the finite points zs, in order, of |g_n(z) -
    sums[i]|, for each n of ns and each family record prefix seqs[i], nan
    without points. g_n is evaluated by one horner_rows table, as Poly rounds
    it up to the sign of a zero, and modulus rounds as Python's abs. Python's
    max keeps a nan in first place and passes over any other."""
    if not len(zs) or not ns:
        return [[math.nan] * len(ns) for _ in seqs]
    table = coeff_table([seq[: n + 1] for seq in seqs for n in ns], max(ns) + 1)
    values = horner_rows(table, np.array(zs, dtype=complex))[0]
    errors = modulus(values.reshape(len(seqs), len(ns), len(zs))
                     - np.array(sums, dtype=complex)[:, None, :])
    sup = np.fmax.reduce(errors, axis=2)
    return np.where(np.isnan(errors[..., 0]), math.nan, sup).tolist()
