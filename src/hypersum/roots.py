"""Root finding and zero localization for partial sums.

find_roots takes the eigenvalues of a companion matrix (Edelman & Murakami,
Math. Comp. 64, 1995). Partial sums have coefficients that decay over
hundreds of orders of magnitude, so the polynomial is first rescaled,
z = s·w with s = (|c_0|/|c_n|)^(1/n) formed in the log domain, which gives
the outer coefficients of the w-polynomial equal moduli. The companion is
real when every coefficient is real and complex otherwise; one LAPACK call
(balanced QR) returns all roots. A guarded Newton polish then refines each
root, accepting a step only when it strictly lowers the backward error, and
a residual gate rejects any root whose residual is not small against the
evaluation mass sum_k |c_k||z|^k.

The engine is the root table (_root_table): a stack of polynomials, one
LAPACK call each, whose coefficients go into one zero-padded table and
whose roots into one masked (D, n) array. The polish and the gate run
elementwise on all (polynomial, root) pairs at once, each pair starting
Horner's pass at its own top coefficient, so every row is bit for bit its
polynomial solved alone. find_roots is the table on a stack of one; the
verify roots check solves all of its degrees as one table.

Localization checks for the hypergeometric family (all parameters real and
positive with a_j <= b_j pairwise and remaining b_k >= 1, p <= q): all roots
simple, none inside the open unit disk, none on the ray (1, oo), and the
Eneström–Kakeya annulus from consecutive-coefficient ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .partial_sums import HypParams, _check_cap, gn_direct
from .polycore import Poly, modulus

# Newton passes after the eigenvalue solve. Four are needed at 2F3 g_100,
# whose top coefficient is the smallest subnormal double.
POLISH_STEPS = 6


def _companion_roots(coeffs: list) -> np.ndarray:
    """Eigenvalues of the companion matrix of the log-scaled polynomial.

    coeffs run low to high with nonzero c_0 and c_n. Each scaled coefficient
    is its phase times exp(log|c_k| + k·log s - max), so no ratio of
    coefficients is ever formed outside the exponent.
    """
    n = len(coeffs) - 1
    log_mod = [math.log(abs(c)) if c else -math.inf for c in coeffs]
    log_s = (log_mod[0] - log_mod[-1]) / n
    log_d = [lm + k * log_s for k, lm in enumerate(log_mod)]
    top = max(log_d)
    d = [c / abs(c) * math.exp(ld - top) if c else 0.0 for c, ld in zip(coeffs, log_d)]
    if not d[-1]:
        raise ConvergenceError("scaled coefficients span more than the double range")
    companion = np.zeros((n, n), dtype=type(coeffs[-1]))
    companion[0] = [-c / d[-1] for c in d[-2::-1]]
    companion.ravel()[n :: n + 1] = 1.0  # subdiagonal
    try:
        w = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:  # also a non-finite matrix
        raise ConvergenceError(f"companion eigenvalues failed: {exc}") from exc
    return w.astype(complex) * math.exp(log_s)


def _horner_pairs(table, moduli, degree, owner, z):
    """Value, derivative and evaluation mass of one polynomial per point:
    entry i is horner(row owner[i] of table, z[i]).

    table and moduli are (D, W) arrays whose row k holds the coefficients
    (low to high, zero-padded above degree[k]) of polynomial k and their
    moduli; degree[owner] is ascending. Each entry starts at its own top
    coefficient, from the state horner starts from, and takes horner's
    elementwise steps, so it is bit for bit horner's unpadded pass at its
    point. The products are formed as new arrays, as horner forms them:
    numpy rounds an in-place complex product of one entry without the
    fused multiply-add of its array loop.
    """
    table, moduli = table[owner], moduli[owner]  # one row per entry
    r = np.abs(z)
    value, derivative, mass = 0 * z, 0 * z, 0 * r
    starts = degree[owner].searchsorted(np.arange(table.shape[1])).tolist()
    for j in range(table.shape[1] - 1, -1, -1):
        s = starts[j]  # the entries of degree >= j
        if s:  # the others have not reached their top coefficient
            d, v, m = derivative[s:], value[s:], mass[s:]
            d[...] = d * z[s:] + v
            v[...] = v * z[s:] + table[s:, j]
            m[...] = m * r[s:] + moduli[s:, j]
        else:
            derivative = derivative * z + value
            value = value * z + table[:, j]
            mass = mass * r + moduli[:, j]
    return value, derivative, mass


def _polish(table, moduli, degree, owner, z):
    """Guarded Newton steps on all (polynomial, root) pairs at once;
    refines z in place. Pair i is root z[i] of polynomial owner[i], laid
    out as for _horner_pairs.

    The backward error of a root is |p(z)| / max(1, mass(z)). A root takes
    a step only if the step is finite and strictly lowers that error; a
    root whose step is refused is final, and each pass evaluates only the
    roots still active. At most POLISH_STEPS passes.
    """
    value, derivative, mass = _horner_pairs(table, moduli, degree, owner, z)
    err = np.abs(value) / np.maximum(1.0, mass)
    active = np.flatnonzero(err > 0)
    for _ in range(POLISH_STEPS):
        if not active.size:
            break
        trial = z[active] - value[active] / derivative[active]
        t_value, t_derivative, t_mass = _horner_pairs(
            table, moduli, degree, owner[active], trial
        )
        t_err = np.abs(t_value) / np.maximum(1.0, t_mass)
        take = np.isfinite(trial) & (t_err < err[active])
        active = active[take]
        z[active] = trial[take]
        value[active] = t_value[take]
        derivative[active] = t_derivative[take]
        err[active] = t_err[take]
    return z


def _pairs(rows: list, points: list) -> tuple:
    """The (polynomial, point) pairs of coefficient lists rows[k] (low to
    high) and point arrays points[k], laid out for _horner_pairs: the
    coefficient table (complex, zero-padded), its moduli (polycore.modulus,
    which rounds as Python's abs) and the degrees, one row per polynomial;
    then, grouped by polynomial in ascending degree, each group in its
    points' order, the polynomial k and the point of every pair."""
    table = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
    for out, row in zip(table, rows):
        out[: len(row)] = row
    degree = np.array([len(row) - 1 for row in rows])
    order = np.argsort(degree, kind="stable").tolist()
    owner = np.repeat(order, [len(points[k]) for k in order])
    z = np.concatenate([points[k] for k in order])
    return table, modulus(table), degree, owner, z


def _root_table(polys: Sequence[Poly], tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The roots find_roots finds for every polynomial of polys, at once.

    Returns a (D, n) complex table, n the largest degree, and its mask: row
    i holds the deg(polys[i]) roots of polys[i] in its first columns, in
    find_roots' order. Each polynomial is normalized and its companion
    eigenvalues are taken as in find_roots, one LAPACK call each. The
    guarded polish and the residual gate then run elementwise on every
    (polynomial, root) pair at once, so each row is bit for bit the roots
    of its polynomial solved alone. Raises what find_roots raises on the
    first polynomial on which it raises.
    """
    short = next((i for i, f in enumerate(polys) if f.degree < 1), None)
    if short is not None:
        _root_table(polys[:short], tol)  # an earlier polynomial's error first
        raise DomainError("root finding needs degree >= 1")
    full, rests = [], []
    for f in polys:
        scale = f.max_coeff()
        coeffs = [c / scale for c in f.coeffs]
        if not any(c.imag for c in coeffs):
            coeffs = [c.real for c in coeffs]  # real companion matrix
        zeros = next(k for k, c in enumerate(coeffs) if c)
        full.append(coeffs)
        rests.append(coeffs[zeros:] if zeros else coeffs)
    errors: list[Optional[Exception]] = [None] * len(polys)
    roots = [np.zeros(len(rest) - 1, dtype=complex) for rest in rests]
    with np.errstate(all="ignore"):
        eigen = []  # the polynomials whose eigenvalues are polished
        for i, rest in enumerate(rests):
            if len(rest) > 2:
                try:
                    roots[i] = _companion_roots(rest)
                    eigen.append(i)
                except ConvergenceError as exc:
                    errors[i] = exc
            elif len(rest) == 2:
                roots[i][0] = -rest[0] / rest[1]
        if eigen:
            *layout, z = _pairs([rests[i] for i in eigen], [roots[i] for i in eigen])
            z = _polish(*layout, z)
            owner = layout[-1]
            for k, i in enumerate(eigen):
                roots[i] = z[owner == k]
        for i, (c, rest) in enumerate(zip(full, rests)):
            if rest is not c:  # the zero roots of the factor z^m
                zero = np.zeros(len(c) - len(rest), dtype=complex)
                roots[i] = np.concatenate((zero, roots[i]))
        gated = [i for i, error in enumerate(errors) if error is None]
        if gated != eigen or any(full[i] is not rests[i] for i in gated):
            *layout, z = _pairs([full[i] for i in gated], [roots[i] for i in gated])
        # else the gate's pairs are the polished ones
        if gated:
            value, _, mass = _horner_pairs(*layout, z)
            bad = ~(np.isfinite(mass) & (np.abs(value) <= tol * np.maximum(1.0, mass)))
            owner = layout[-1]
            for j in np.flatnonzero(bad).tolist():  # in each polynomial's root order
                i = gated[owner[j]]
                if errors[i] is None:
                    errors[i] = ConvergenceError(
                        f"residual {abs(value[j]):.3e} at root {z[j]} exceeds tolerance"
                    )
    for error in errors:
        if error is not None:
            raise error
    degrees = np.array([len(r) for r in roots], dtype=int)
    table = np.zeros((len(polys), degrees.max(initial=0)), dtype=complex)
    mask = np.arange(table.shape[1]) < degrees[:, None]
    table[mask] = np.concatenate(roots) if roots else []
    return table, mask


def find_roots(f: Poly, tol: float = 1e-10) -> tuple[complex, ...]:
    """All deg(f) roots: companion eigenvalues, guarded polish, gate.

    Coefficients are divided by the largest modulus. A factor z^m (zero low
    coefficients) gives m exact zero roots; degree 1 is solved exactly;
    otherwise the roots are the eigenvalues of the log-scaled companion
    matrix followed by the guarded Newton polish. The polynomial is taken
    exactly as given: legitimately tiny trailing coefficients (partial sums
    have rapidly decaying ones) carry the largest roots, so nothing is
    trimmed here. Callers holding polynomials with roundoff-level trailing
    noise should clean them with trim_tiny first.

    Every root must satisfy |f(root)| <= tol · max(1, sum_k |c_k||root|^k)
    (backward-stable form; an absolute bound in terms of max|c_k| alone is
    meaningless for roots far outside the unit disk), else ConvergenceError.
    This is _root_table on a stack of one.
    """
    roots, _ = _root_table([f], tol)
    return tuple(complex(r) for r in roots[0])


def check_simple(roots: Sequence[complex], tol: Optional[float] = None) -> bool:
    """True iff the minimum pairwise distance exceeds tol.

    Default tol: 1e-7 times the largest root modulus. Vacuously true for
    fewer than two roots.
    """
    rs = [complex(r) for r in roots]
    return _simple(_min_pair_distance(rs), [abs(r) for r in rs], tol)


def _simple(distance: float, moduli: Sequence[float], tol=None) -> bool:
    """check_simple's rule on the roots' minimum pairwise distance and
    moduli."""
    if tol is None:
        tol = 1e-7 * max(moduli, default=0.0)
    return len(moduli) < 2 or distance > tol


def _min_pair_distance(roots: Sequence[complex]) -> float:
    # hypot on the parts, not np.abs: it rounds like Python's abs(complex).
    r = np.asarray(roots, dtype=complex)
    d = r[:, None] - r[None, :]
    dist = np.hypot(d.real, d.imag)
    np.fill_diagonal(dist, math.inf)
    return float(dist.min(initial=math.inf))


def enestrom_kakeya_bounds(f: Poly) -> tuple[float, float]:
    """Annulus [min_k c_k/c_{k+1}, max_k c_k/c_{k+1}] containing all roots.

    Requires every coefficient real and strictly positive (the classical
    hypothesis); refuses otherwise.
    """
    if f.degree < 1:
        raise DomainError("bounds need degree >= 1")
    reals = []
    for k, c in enumerate(f.coeffs):
        if abs(c.imag) > 1e-14 * abs(c) or c.real <= 0:
            raise DomainError(
                f"coefficient of z^{k} is not strictly positive real"
            )
        reals.append(c.real)
    ratios = [reals[k] / reals[k + 1] for k in range(len(reals) - 1)]
    return min(ratios), max(ratios)


@dataclass(frozen=True)
class RootReport:
    """Zero-localization summary for one partial sum.

    boundary_root_count tallies roots with modulus within 1e-9 of 1: the
    localization statement is boundary-tight (g_1 for the exponential case
    has its root exactly on the circle), so these are recorded rather than
    treated as failures.
    """

    roots: tuple[complex, ...]
    min_pair_distance: float
    min_modulus: float
    positive_real_root_found: bool
    simple: bool
    boundary_root_count: int
    ek_annulus: Optional[tuple[float, float]]


def _require_positive_conditions(params: HypParams) -> None:
    if params.p > params.q:
        raise DomainError("localization requires p <= q")
    for name, vals in (("a", params.a), ("b", params.b)):
        for j, v in enumerate(vals):
            if v.imag != 0:
                raise DomainError(f"parameter {name}_{j + 1} must be real")
    for j, aj in enumerate(params.a):
        bj = params.b[j]
        if not (0 < aj.real <= bj.real):
            raise DomainError(
                f"need 0 < a_{j + 1} <= b_{j + 1}, got {aj.real} vs {bj.real}"
            )
    for k in range(params.p, params.q):
        if params.b[k].real < 1:
            raise DomainError(f"need b_{k + 1} >= 1, got {params.b[k].real}")


def location_report(params: HypParams, n: int) -> RootReport:
    """Find the roots of g_n and check the localization claims.

    Preconditions (refused otherwise): p <= q, all parameters real,
    0 < a_j <= b_j for j <= p, and b_k >= 1 for the unpaired b's. Under these
    the coefficients are positive, so g_n takes positive values on (0, oo)
    and the Eneström–Kakeya annulus applies.
    """
    n = _check_cap(n)
    _require_positive_conditions(params)
    return _location_report(gn_direct(params, n))


def _location_report(g: Poly, roots: Optional[tuple[complex, ...]] = None) -> RootReport:
    """The report of location_report on a g_n already built, for a caller
    that has checked the preconditions; from its roots, when the caller has
    found them as find_roots finds them."""
    if g.degree == 0:
        return RootReport(
            roots=(),
            min_pair_distance=math.inf,
            min_modulus=math.inf,
            positive_real_root_found=False,
            simple=True,
            boundary_root_count=0,
            ek_annulus=None,
        )
    if roots is None:
        roots = find_roots(g, tol=1e-10)
    moduli = [abs(r) for r in roots]
    distance = _min_pair_distance(roots)
    return RootReport(
        roots=roots,
        min_pair_distance=distance,
        min_modulus=min(moduli),
        positive_real_root_found=any(
            (abs(r.imag) if r.real >= 1 else abs(r - 1)) < 1e-8 for r in roots
        ),
        simple=_simple(distance, moduli),
        boundary_root_count=sum(1 for m in moduli if abs(m - 1.0) <= 1e-9),
        ek_annulus=enestrom_kakeya_bounds(g),
    )
