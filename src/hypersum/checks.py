"""Named verification checks driven by the CLI `verify` command.

Each check measures a residual for the supplied parameters and reports
PASS/FAIL against its tolerance. Two conventions:

- single-tolerance checks report the raw measured residual and the natural
  tolerance (recurrence 1e-10, ode 1e-9, circle-rep 1e-8, rifrac 1e-12,
  pencil 1e-10);
- composite checks with heterogeneous sub-tolerances (sobolev, axis-rep,
  roots) report max(measured_i / tol_i) against tolerance 1.0.

recurrence and rifrac hold the monic recurrence (ri_generate on the
T-fraction) against the direct sums Gn_monic, not against itself; within
one run_checks call the two read one shared comparison. ode, recurrence and
rifrac read every degree from one coefficient sequence, in array passes
that round each degree as its Poly arithmetic would.

The family checks (recurrence, ode, sobolev, rifrac) refuse by one rule.
Each first reads xi_0..xi_N (partial_sums._partial_sum_seq), so a family
refused there gets the same message from every check, alone or in --check
all. Then come the check's own stages; one that overflows, or a modulus
beyond the float range that would divide a residual to 0, is a
DomainError naming the stage and its first bad degree.

Boolean conditions (simple roots, validity flags, exact worked examples)
fold in as residual 0 or inf. Randomized checks derive their generator
from a string seed, f"{seed}:{name}", so runs are reproducible across
processes regardless of hash randomization.
"""

from __future__ import annotations

import contextvars
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .operators import (
    _apply_stack,
    _kappa_from_xi,
    _mass_stack,
    build_R,
    op_compose,
    op_theta,
)
from .partial_sums import (
    HypParams,
    _monic_coeffs,
    _partial_sum_seq,
    gn_by_recurrence,
    gn_direct,
)
from .pfq import (
    _axis_quadrature,
    _axis_termwise,
    integral_rep_circle_batch,
    terminating_pfq_poly,
)
from .polycore import horner, modulus
from .ri_pencils import (
    JacobiPencil,
    _band_coeff_stack,
    _band_row_sums,
    pencil_polynomials,
    ri_generate,
    tfraction_from_hyp,
)
from .roots import _location_report, _require_positive_conditions
from .sobolev import (
    QuadratureRule,
    _gram_stack,
    auto_node_count,
    gram_extremes,
    monomial_quadrature_defect,
)

CHECK_ORDER = (
    "recurrence",
    "ode",
    "sobolev",
    "circle-rep",
    "axis-rep",
    "roots",
    "rifrac",
    "pencil",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    max_residual: float
    tolerance: float
    detail: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _result(name: str, measured: float, tol: float, detail: str) -> CheckResult:
    ok = measured <= tol
    return CheckResult(
        name=name,
        status="PASS" if ok else "FAIL",
        max_residual=float(measured),
        tolerance=float(tol),
        detail=detail,
    )


def _degree(n_max: int, cap: int) -> int:
    """The degree a check runs to: n_max clamped to the check's cap. A
    negative n_max raises the DomainError gn_direct raises for a negative
    order, instead of an empty degree range that passes."""
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("order must be nonnegative")
    return min(n_max, cap)


def _running_max(values: np.ndarray) -> float:
    """max(worst, v) over the values from worst = 0.0, as a Python loop
    takes it: a nan never replaces the running maximum."""
    return float(np.fmax.reduce(np.ravel(values), initial=0.0))


def _poly_table(polys, width: int) -> np.ndarray:
    """The coefficients of a Poly sequence, one zero-padded row each."""
    table = np.zeros((len(polys), width), dtype=complex)
    for row, p in zip(table, polys):
        row[: len(p.coeffs)] = p.coeffs
    return table


def _require_finite(values: np.ndarray, stage: str, check: str) -> None:
    """Refuse a table of per-degree rows holding a non-finite entry: a
    DomainError naming the stage, with {n} replaced by the first bad
    degree (row), and the check."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        n = int(np.argmax(bad))
        raise DomainError(
            f"{stage.format(n=n)} overflowed double precision in the {check} check"
        )


def _rel_coeff_dev(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Max per-coefficient relative deviation between two coefficient
    tables of g_0..g_N, one polynomial per zero-padded row.

    Reference coefficients of the hypergeometric family are never zero, so
    dividing by them is safe (a zero counts as 1). A reference modulus
    beyond the float range would hide its deviation, so the first row
    holding one, the first |xi_n| that overflowed, is refused.
    """
    ref = modulus(reference)
    _require_finite(ref, "|xi_{n}|", "recurrence")
    with np.errstate(invalid="ignore"):
        return _running_max(
            modulus(reference - candidate) / np.where(ref == 0, 1.0, ref)
        )


def _scaled_coeff_dev(reference: np.ndarray, candidate: np.ndarray, check: str) -> float:
    """Max coefficient deviation relative to each pair's coefficient scale:
    per row, the largest |r - c| over the largest |r| or |c| (1 if all are
    zero), for two coefficient tables of G_0..G_N. A scale beyond the float
    range would hide its row's deviation, and is refused.

    Used for the monic route: its three-term recurrence cancels like-sized
    terms at every step, so coefficients far below the polynomial's largest
    coefficient carry absolute roundoff of order eps times that scale, and a
    per-coefficient relative measure would report conditioning rather than
    correctness.
    """
    scale = np.maximum(modulus(reference), modulus(candidate)).max(axis=1)
    _require_finite(scale[:, None], "the coefficient scale of G_{n}", check)
    scale = np.where(scale == 0, 1.0, scale)
    with np.errstate(invalid="ignore"):
        return _running_max(modulus(reference - candidate).max(axis=1) / scale)


def _monic_table(seq: list[complex]) -> np.ndarray:
    """Row n holds the coefficients of G_n, read from xi_0..xi_n as
    Gn_monic reads them; raises their errors in degree order."""
    table = np.zeros((len(seq), len(seq)), dtype=complex)
    for n in range(len(seq)):
        table[n, : n + 1] = _monic_coeffs(seq[: n + 1])
    return table


# The memo of one run_checks call: the monic comparison, keyed by
# (params, N), which recurrence and rifrac both read. None outside a call.
_RUN_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "hypersum_checks_run_memo", default=None
)


def _monic_comparison(
    params: HypParams, N: int, seq: list[complex], check: str
) -> tuple[float, bool]:
    """The monic recurrence against the direct monic sums: the table of
    G_0..G_N read from seq = xi_0..xi_N (_monic_table), then ri_generate on
    the T-fraction, measured as _scaled_coeff_dev, and whether the validity
    report is clean. A refusal names the check that asked.

    Inside run_checks it is computed once per call and read by both
    recurrence and rifrac; nothing outlives the call.
    """
    memo = _RUN_MEMO.get()
    key = (params, N)
    if memo is not None and key in memo:
        return memo[key]
    direct = _monic_table(seq)
    polys, validity = ri_generate(tfraction_from_hyp(params, N), N)
    deviation = _scaled_coeff_dev(direct, _poly_table(polys, N + 1), check)
    result = (deviation, validity.valid)
    if memo is not None:
        memo[key] = result
    return result


def check_recurrence(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Direct-formula vs recurrence construction of g_n and G_n.

    The direct g_n and G_n are read from one coefficient sequence. Its
    errors come first, then those of the monic comparison, then those of
    the recurrence for g_n.
    """
    tol = 1e-10 if tol is None else tol
    N = _degree(n_max, 25)
    seq = _partial_sum_seq(params, N)
    dev_G, _ = _monic_comparison(params, N, seq, "recurrence")
    direct_g = np.tril(np.tile(np.array(seq), (N + 1, 1)))
    rec_g = _poly_table(gn_by_recurrence(params, N), N + 1)
    measured = max(_rel_coeff_dev(direct_g, rec_g), dev_G)
    return _result(
        "recurrence",
        measured,
        tol,
        "max coefficient deviation "
        f"{_fmt(measured)} (g per-coefficient relative, G relative to "
        f"coefficient scale) over n <= {N}",
    )


def _scaled(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of a complex table times its entry of the column w, as
    Poly.scale rounds it: the complex product spelled as real ufuncs."""
    out = np.empty_like(values)
    out.real = values.real * w.real - values.imag * w.imag
    out.imag = values.real * w.imag + values.imag * w.real
    return out


def _over_scale(value: np.ndarray, factor: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """value / max(1, factor·mass), elementwise. Where the product
    overflows, the scale is above 1 and the quotient is taken in two steps,
    value / factor / mass, so an infinite scale never reads as 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.maximum(1.0, factor * mass)
        return np.where(np.isinf(scale), value / factor / mass, value / scale)


def check_ode(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """theta(R g_n) = n·(R g_n), and -kappa_n·R g_n = z^n.

    The partial sums g_0..g_N are the rows of the lower-triangular table of
    one coefficient sequence, read first, and kappa_n is read from the same
    sequence. R and theta∘R are expanded once per check, each applied to
    the whole table in one engine pass (_apply_stack), and both clauses are
    read off the one image R g_n per row. Residuals are scaled by the mass
    the application moves forming R g_n: the exact image z^n/kappa_n can
    sit far below the roundoff of that cancellation, where raw residuals
    measure conditioning. The errors are those of the sequence, of
    expanding R, of kappa_n, then of each array stage in turn (R g_n,
    theta(R g_n), the eigen-residual, kappa_n·R g_n, the application mass,
    |kappa_n|), naming the stage and its first bad degree. A scale whose
    product overflows is divided out in two steps (_over_scale).
    """
    tol = 1e-9 if tol is None else tol
    N = _degree(n_max, 25)
    seq = _partial_sum_seq(params, N)
    R = build_R(params)
    theta_R = op_compose(op_theta(), R)
    kappas = [_kappa_from_xi(params, n, xi_n) for n, xi_n in enumerate(seq)]
    kap = np.array(kappas, dtype=complex)[:, None]
    g = np.tril(np.tile(np.array(seq, dtype=complex), (N + 1, 1)))
    Rg = _apply_stack(R, g)
    _require_finite(Rg, "R g_{n}", "ode")
    theta_Rg = _apply_stack(theta_R, g)
    _require_finite(theta_Rg, "theta(R g_{n})", "ode")
    width = max(Rg.shape[1], theta_Rg.shape[1])
    Rg, theta_Rg = (np.pad(x, ((0, 0), (0, width - x.shape[1])))
                    for x in (Rg, theta_Rg))
    degrees = np.arange(N + 1, dtype=float)[:, None]
    # Overflow reads as inf, as in Python float arithmetic, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        n_Rg = _scaled(Rg, degrees + 0j)
        # Poly subtraction adds the other side scaled by -1.
        eigen = theta_Rg + _scaled(n_Rg, np.array([[-1.0 + 0j]]))
        _require_finite(eigen, "theta(R g_{n}) - n·R g_{n}", "ode")
        mono = _scaled(Rg, -kap)
        _require_finite(mono, "kappa_{n}·R g_{n}", "ode")
        mass_scale = _mass_stack(R, g)[:, None]
        _require_finite(mass_scale, "the application mass of R on g_{n}", "ode")
        kappa_mod = modulus(kap)
        _require_finite(kappa_mod, "|kappa_{n}|", "ode")
        eigen_max = modulus(eigen).max(axis=1, initial=0.0)[:, None]
        eigen_ratio = _over_scale(eigen_max, degrees, mass_scale)
        off_monomial = mono.copy()
        off_monomial.real[np.arange(N + 1), np.arange(N + 1)] -= 1.0
        mass = np.array([[math.fsum(row)] for row in modulus(off_monomial)])
        mono_ratio = _over_scale(mass, kappa_mod, mass_scale)
        worst = _running_max(np.hstack([eigen_ratio, mono_ratio]))
    return _result(
        "ode",
        worst,
        tol,
        f"max of scaled eigen-residual and off-monomial mass, n <= {N}",
    )


def check_sobolev(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Gram diagonality, |kappa_n|^-2 diagonal values, monomial exactness.

    Normalized composite: off-diagonal / (1e-10 · max diag), diagonal
    deviation / (1e-9 · denominator), quadrature defect / 1e-14. The
    diagonal denominator is max(|kappa_n|^-2, 0.1 · max diag): entries are
    held to strict relative accuracy where double precision supports it,
    and otherwise to the same absolute standard as the off-diagonal clause
    (a diagonal below the form's roundoff floor cannot be distinguished
    from orthogonality noise).

    The coefficient sequence is read first; the Gram's errors follow, then
    those of kappa_n, which is read from the same sequence.
    """
    tol = 1.0 if tol is None else tol
    m = _degree(n_max, 15)
    seq = _partial_sum_seq(params, m)
    gram = _gram_stack([params], m)[0]
    off, max_diag = gram_extremes(gram)
    kappas = [_kappa_from_xi(params, n, xi_n) for n, xi_n in enumerate(seq)]
    # A float64 scalar's square is Python's pow (an array's is not), but
    # reads inf rather than raising where |kappa_n|^2 is beyond the range.
    with np.errstate(over="ignore"):
        target = np.array([1.0 / k**2 for k in modulus(np.array(kappas))])
    with np.errstate(divide="ignore", invalid="ignore"):
        diag_rel = _running_max(
            modulus(gram.diagonal() - target) / np.maximum(target, 0.1 * max_diag)
        )
    rule = QuadratureRule(auto_node_count(m, max(params.p, params.q + 1)))
    pairs = [(k, l) for k in range(7) for l in range(7)] + [(rule.n_nodes - 1, 0)]
    defect = max(monomial_quadrature_defect(rule, k, l) for k, l in pairs)
    measured = max(off / (1e-10 * max_diag), diag_rel / 1e-9, defect / 1e-14)
    return _result(
        "sobolev",
        measured,
        tol,
        (
            f"offdiag {_fmt(off)} vs maxdiag {_fmt(max_diag)}, "
            f"diag rel {_fmt(diag_rel)}, quad defect {_fmt(defect)}"
        ),
    )


def check_circle_rep(
    params: HypParams,
    n_max: int,
    rng: random.Random,
    tol: Optional[float] = None,
) -> CheckResult:
    """Kernel quadrature on T vs direct evaluation, 16 random angles."""
    tol = 1e-8 if tol is None else tol
    N = _degree(n_max, 10)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(16)]
    ns = list(range(N + 1))
    recovered = integral_rep_circle_batch(params, ns, angles)
    worst = 0.0
    for n in ns:
        g = gn_direct(params, n)
        for j, tau in enumerate(angles):
            z = complex(math.cos(tau), math.sin(tau))
            worst = max(worst, abs(recovered[n][j] - g(z)))
    return _result(
        "circle-rep",
        worst,
        tol,
        f"max |quadrature - direct| {_fmt(worst)} over n <= {N}, 16 angles",
    )


_AXIS_POINTS = (-0.1, -1.0, -10.0)


def check_axis_rep(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Termwise-exact axis representation vs direct evaluation, plus the
    Gauss-Legendre cross-check, at x in {-0.1, -1, -10}.

    Normalized composite: termwise relative error / 1e-10 and
    |termwise - quadrature| / (1e-6 · max(1, |g(x)|)). The relative error
    uses denominator |g(x)| while that value stands above 1e-8 times the
    coefficient-magnitude scale S = sum |xi_k| |x|^k; below that the
    alternating sum has cancelled more than 8 digits (possibly to an exact
    zero), neither route carries 10 trustworthy digits of the value, and
    the deviation is measured against S instead.

    Per degree the terminating series h is built once and serves both
    routes at all three points; the quadrature takes the three points in
    one array pass. The values are those of integral_rep_negative_axis and
    integral_rep_negative_axis_numeric.
    """
    tol = 1.0 if tol is None else tol
    N = _degree(n_max, 20)
    worst = 0.0
    for n in range(N + 1):
        g = gn_direct(params, n)
        h = terminating_pfq_poly(params, n)
        for x, quad in zip(_AXIS_POINTS, _axis_quadrature(h, n, _AXIS_POINTS)):
            direct, _, scale = horner(g.coeffs, x)
            term = _axis_termwise(h, n, x)
            denom = abs(direct) if abs(direct) >= 1e-8 * scale else scale
            worst = max(worst, (abs(term - direct) / denom) / 1e-10)
            worst = max(
                worst, abs(term - quad) / (1e-6 * max(1.0, abs(direct)))
            )
    return _result(
        "axis-rep",
        worst,
        tol,
        f"normalized worst deviation {_fmt(worst)} over n <= {N}",
    )


def check_roots(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Zero localization: simple roots, moduli >= 1 - 1e-9, clearance of
    the real ray (1, oo), and Vieta product reconstruction to 1e-8.

    Each g_n is built once; its location report and its Vieta target
    (-1)^n c_0/c_n are both read from it."""
    tol = 1.0 if tol is None else tol
    N = _degree(n_max, 25)
    worst = 0.0
    min_modulus_seen = math.inf
    boundary = 0
    degrees = range(2, N + 1)
    if degrees:  # refused where location_report refused them: at n = 2
        _require_positive_conditions(params)
    for n in degrees:
        g = gn_direct(params, n)
        rep = _location_report(g)
        min_modulus_seen = min(min_modulus_seen, rep.min_modulus)
        boundary += rep.boundary_root_count
        worst = max(worst, max(0.0, 1.0 - rep.min_modulus) / 1e-9)
        if not rep.simple or rep.positive_real_root_found:
            worst = math.inf
        target = (-1) ** n * g.coeff(0) / g.coeff(n)
        prod = math.prod(rep.roots, start=1 + 0j)
        worst = max(worst, (abs(prod - target) / abs(target)) / 1e-8)
    return _result(
        "roots",
        worst,
        tol,
        (
            f"min modulus {_fmt(min_modulus_seen)}, boundary roots {boundary}, "
            f"n in [2, {N}]"
        ),
    )


def check_rifrac(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """The T-fraction reproduces the direct monic sums Gn_monic, measured
    as _scaled_coeff_dev; the validity report must be clean
    (lambda_{n+1} != 0 and P_n(0) != 0)."""
    tol = 1e-12 if tol is None else tol
    N = _degree(n_max, 25)
    seq = _partial_sum_seq(params, N)
    measured, valid = _monic_comparison(params, N, seq, "rifrac")
    if not valid:
        measured = math.inf
    return _result(
        "rifrac",
        measured,
        tol,
        (
            f"max coefficient deviation {_fmt(measured)} from the direct "
            "monic sums, relative to coefficient scale, "
            f"validity {'clean' if valid else 'violated'}, N = {N}"
        ),
    )


# A draw of the pencil check is N, then the five bands (N entries each, in
# JacobiPencil's field order), alpha, beta and _PENCIL_LAMBDAS (re, im)
# pairs, each value uniform on its (lo, hi).
_PENCIL_BAND_RANGES = ((-2.0, 2.0), (0.1, 2.0), (-2.0, 2.0), (-2.0, 2.0), (0.1, 2.0))
_PENCIL_SEED_RANGES = ((0.1, 2.0), (-2.0, 2.0))  # alpha, beta
_PENCIL_LAMBDA_RANGES = ((-3.0, 3.0), (-1.0, 1.0))  # re, im
_PENCIL_LAMBDAS = 20


def _draw_pencils(rng: random.Random, draws: int) -> dict[int, np.ndarray]:
    """The pencil check's draws, grouped by N in draw order: a (B, 5N + 2 +
    2·_PENCIL_LAMBDAS) array per N. Value i is lo_i + (hi_i - lo_i)·r with
    r = rng.random(), drawn in the same order as rng.uniform(lo_i, hi_i)
    would be and mapped in one numpy pass per N; the doubles are the ones
    rng.uniform returns, which is that same expression."""
    uniform01 = rng.random
    raw: dict[int, list[float]] = {}
    for _ in range(int(draws)):
        N = rng.randint(2, 12)
        count = 5 * N + 2 + 2 * _PENCIL_LAMBDAS
        raw.setdefault(N, []).extend([uniform01() for _ in range(count)])
    groups = {}
    for N, flat in raw.items():
        ranges = [r for r in _PENCIL_BAND_RANGES for _ in range(N)]
        ranges += _PENCIL_SEED_RANGES + _PENCIL_LAMBDA_RANGES * _PENCIL_LAMBDAS
        lo, hi = np.array(ranges).T
        groups[N] = lo + (hi - lo) * np.array(flat).reshape(-1, len(ranges))
    return groups


def check_pencil(
    rng: random.Random, draws: int = 200, tol: Optional[float] = None
) -> CheckResult:
    """Random pencils satisfy their five-term rows at random lambda, the
    generated p_n have degree n with positive leading coefficient, and the
    worked p_2 = lambda^2 example is reproduced exactly.

    The pencils are drawn from rng alone, so the result depends only on the
    seed and `draws`, not on the family being verified. Each draw takes N in
    2..12, the pencil's bands, alpha and beta, then _PENCIL_LAMBDAS lambdas
    (_draw_pencils). The draws are grouped by N, and each group is solved as
    one band array by the pencil engine (_band_coeff_stack) and checked by
    one pass of _band_row_sums; no JacobiPencil is built for them. Degree n
    with a positive leading coefficient means exact zeros above the
    diagonal of the coefficient array and a positive diagonal. Per lambda
    the measure is the largest row residual over the largest row scale (at
    least 1). Negative draws are a DomainError; zero draws check only the
    worked example.
    """
    tol = 1e-10 if tol is None else tol
    if int(draws) < 0:
        raise DomainError("draws must be nonnegative")
    worked = JacobiPencil(
        j3_diag=(0.0, 0.0),
        j3_offdiag=(1.0, 1.0),
        j5_diag=(0.0, 0.0),
        j5_off1=(0.0, 0.0),
        j5_off2=(1.0, 1.0),
        alpha=1.0,
        beta=0.0,
    )
    worst = 0.0
    if pencil_polynomials(worked, 2)[2].coeffs != (0, 0, 1):
        worst = math.inf
    for N, values in sorted(_draw_pencils(rng, draws).items()):
        bands = values[:, : 5 * N].reshape(-1, 5, N).transpose(1, 0, 2)
        alpha, beta = values[:, 5 * N], values[:, 5 * N + 1]
        # The (re, im) pairs are laid out as complex128 once contiguous.
        lams = np.ascontiguousarray(values[:, 5 * N + 2 :]).view(complex)
        coeffs = _band_coeff_stack(bands, alpha, beta, N)
        diagonal = np.diagonal(coeffs, axis1=1, axis2=2)
        if np.triu(coeffs, 1).any() or not (diagonal > 0).all():
            worst = math.inf
        total, scale = _band_row_sums(bands, coeffs, lams, N - 1)
        ratio = np.abs(total).max(axis=1) / np.maximum(scale.max(axis=1), 1.0)
        worst = float(np.max([worst, ratio.max()]))
    return _result(
        "pencil",
        worst,
        tol,
        f"max residual/scale over {draws} pencils, {_PENCIL_LAMBDAS} lambdas each",
    )


def inapplicable_reason(name: str, params: HypParams) -> Optional[str]:
    """Reason the named check cannot run on these parameters, or None."""
    if name == "circle-rep" and params.p > params.q:
        return "circle representation requires p <= q"
    if name == "roots":
        try:
            _require_positive_conditions(params)
        except DomainError as exc:
            return str(exc)
    return None


def run_checks(
    params: HypParams,
    n_max: int,
    seed: int,
    names: Sequence[str],
    draws: int = 200,
    skip_inapplicable: bool = False,
    tol: Optional[float] = None,
) -> list[CheckResult]:
    """Run the named checks in canonical order.

    Checks whose preconditions fail become SKIP results when
    skip_inapplicable is set (the `--check all` mode) and raise DomainError
    otherwise (explicitly selected checks). A ConvergenceError inside a
    check body is an honest FAIL, not an error. tol overrides the tolerance
    of a single requested check; with more than one it is a DomainError.
    """
    requested = [n for n in CHECK_ORDER if n in set(names)]
    unknown = set(names) - set(CHECK_ORDER)
    if unknown:
        raise DomainError(f"unknown checks: {sorted(unknown)}")
    if tol is not None and len(requested) > 1:
        raise DomainError("a tolerance override needs a single check")
    # Looked up when called, so a wrapped or substituted check_* is what runs.
    runners: dict[str, Callable[[], CheckResult]] = {
        "recurrence": lambda: check_recurrence(params, n_max, tol),
        "ode": lambda: check_ode(params, n_max, tol),
        "sobolev": lambda: check_sobolev(params, n_max, tol),
        "circle-rep": lambda: check_circle_rep(
            params, n_max, random.Random(f"{seed}:circle-rep"), tol
        ),
        "axis-rep": lambda: check_axis_rep(params, n_max, tol),
        "roots": lambda: check_roots(params, n_max, tol),
        "rifrac": lambda: check_rifrac(params, n_max, tol),
        "pencil": lambda: check_pencil(random.Random(f"{seed}:pencil"), draws, tol),
    }
    results = []
    memo = _RUN_MEMO.set({})
    try:
        for name in requested:
            reason = inapplicable_reason(name, params)
            if reason is not None:
                if not skip_inapplicable:
                    raise DomainError(f"check {name}: {reason}")
                results.append(
                    CheckResult(
                        name=name,
                        status="SKIP",
                        max_residual=math.nan,
                        tolerance=math.nan,
                        detail=reason,
                    )
                )
                continue
            try:
                results.append(runners[name]())
            except ConvergenceError as exc:
                results.append(
                    CheckResult(
                        name=name,
                        status="FAIL",
                        max_residual=math.inf,
                        tolerance=math.nan,
                        detail=f"did not converge: {exc}",
                    )
                )
    finally:
        _RUN_MEMO.reset(memo)
    return results
