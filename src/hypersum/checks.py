"""Named verification checks driven by the CLI `verify` command.

Each check measures a residual for the supplied parameters and reports
PASS/FAIL against its tolerance. Two conventions:

- single-tolerance checks report the raw measured residual and the natural
  tolerance (recurrence 1e-10, ode 1e-9, circle-rep 1e-8, rifrac 1e-12,
  pencil 1e-10);
- composite checks with heterogeneous sub-tolerances (sobolev, axis-rep,
  roots) report max(measured_i / tol_i) against tolerance 1.0.

Boolean conditions (simple roots, validity flags, exact worked examples)
fold in as residual 0 or inf. Randomized checks derive their generator
from a string seed, f"{seed}:{name}", so runs are reproducible across
processes regardless of hash randomization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .operators import (
    _application_mass,
    build_R,
    kappa,
    op_apply,
    op_compose,
    op_theta,
)
from .partial_sums import (
    Gn_by_recurrence,
    Gn_monic,
    HypParams,
    gn_by_recurrence,
    gn_direct,
)
from .pfq import (
    integral_rep_circle_batch,
    integral_rep_negative_axis,
    integral_rep_negative_axis_numeric,
)
from .polycore import horner
from .ri_pencils import (
    JacobiPencil,
    pencil_coeff_stack,
    pencil_row_sums,
    ri_generate,
    tfraction_from_hyp,
)
from .roots import _require_positive_conditions, location_report
from .sobolev import (
    QuadratureRule,
    auto_node_count,
    gram_extremes,
    monomial_quadrature_defect,
    sobolev_gram,
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


def _rel_coeff_dev(reference, candidate) -> float:
    """Max per-coefficient relative deviation between two Poly sequences.

    Reference coefficients of the hypergeometric family are never zero, so
    dividing by them is safe.
    """
    worst = 0.0
    for ref, cand in zip(reference, candidate):
        deg = max(ref.degree, cand.degree)
        for k in range(deg + 1):
            r = ref.coeff(k)
            c = cand.coeff(k)
            denom = abs(r)
            if denom == 0.0:
                denom = 1.0
            worst = max(worst, abs(r - c) / denom)
    return worst


def _scaled_coeff_dev(reference, candidate) -> float:
    """Max coefficient deviation relative to each pair's coefficient scale.

    Used for the monic route: its three-term recurrence cancels like-sized
    terms at every step, so coefficients far below the polynomial's largest
    coefficient carry absolute roundoff of order eps times that scale, and a
    per-coefficient relative measure would report conditioning rather than
    correctness.
    """
    worst = 0.0
    for ref, cand in zip(reference, candidate):
        deg = max(ref.degree, cand.degree)
        scale = 0.0
        for k in range(deg + 1):
            scale = max(scale, abs(ref.coeff(k)), abs(cand.coeff(k)))
        if scale == 0.0:
            scale = 1.0
        for k in range(deg + 1):
            worst = max(worst, abs(ref.coeff(k) - cand.coeff(k)) / scale)
    return worst


def check_recurrence(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Direct-formula vs recurrence construction of g_n and G_n."""
    tol = 1e-10 if tol is None else tol
    N = min(int(n_max), 25)
    direct_g = [gn_direct(params, n) for n in range(N + 1)]
    direct_G = [Gn_monic(params, n) for n in range(N + 1)]
    rec_g = gn_by_recurrence(params, N)
    rec_G = Gn_by_recurrence(params, N)
    measured = max(
        _rel_coeff_dev(direct_g, rec_g), _scaled_coeff_dev(direct_G, rec_G)
    )
    return _result(
        "recurrence",
        measured,
        tol,
        "max coefficient deviation "
        f"{_fmt(measured)} (g per-coefficient relative, G relative to "
        f"coefficient scale) over n <= {N}",
    )


def check_ode(
    params: HypParams, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """theta(R g_n) = n·(R g_n), and -kappa_n·R g_n = z^n.

    R and theta∘R are expanded once per check; both clauses are read off
    one image R g_n per degree. Residuals are scaled by the mass op_apply
    moves forming R g_n: the exact image z^n/kappa_n can sit far below the
    roundoff of that cancellation, where raw residuals measure conditioning.
    """
    tol = 1e-9 if tol is None else tol
    N = min(int(n_max), 25)
    R = build_R(params)
    theta_R = op_compose(op_theta(), R)
    worst = 0.0
    for n in range(N + 1):
        kappa_n = kappa(params, n)
        g = gn_direct(params, n)
        Rg = op_apply(R, g)
        mass_scale = _application_mass(R, g)
        scale = max(1.0, n * mass_scale)
        eigen = op_apply(theta_R, g) - Rg.scale(n)
        worst = max(worst, eigen.max_coeff() / scale)
        mono = Rg.scale(-kappa_n)
        mass = math.fsum(
            abs(mono.coeff(k) - (1.0 if k == n else 0.0))
            for k in range(max(mono.degree, n) + 1)
        )
        worst = max(worst, mass / max(1.0, abs(kappa_n) * mass_scale))
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
    """
    tol = 1.0 if tol is None else tol
    m = min(int(n_max), 15)
    gram = sobolev_gram(params, m)
    off, max_diag = gram_extremes(gram)
    diag_rel = 0.0
    for n in range(m + 1):
        target = 1.0 / abs(kappa(params, n)) ** 2
        denom = max(target, 0.1 * max_diag)
        diag_rel = max(diag_rel, abs(gram[n][n] - target) / denom)
    rule = QuadratureRule(auto_node_count(m, max(params.p, params.q + 1)))
    defect = 0.0
    for k in range(7):
        for l in range(7):
            defect = max(defect, monomial_quadrature_defect(rule, k, l))
    defect = max(defect, monomial_quadrature_defect(rule, rule.n_nodes - 1, 0))
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
    N = min(int(n_max), 10)
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
    """
    tol = 1.0 if tol is None else tol
    N = min(int(n_max), 20)
    worst = 0.0
    for n in range(N + 1):
        g = gn_direct(params, n)
        for x in (-0.1, -1.0, -10.0):
            direct, _, scale = horner(g.coeffs, x)
            term = integral_rep_negative_axis(params, n, x)
            denom = abs(direct) if abs(direct) >= 1e-8 * scale else scale
            worst = max(worst, (abs(term - direct) / denom) / 1e-10)
            quad = integral_rep_negative_axis_numeric(params, n, x)
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
    the real ray (1, oo), and Vieta product reconstruction to 1e-8."""
    tol = 1.0 if tol is None else tol
    N = min(int(n_max), 25)
    worst = 0.0
    min_modulus_seen = math.inf
    boundary = 0
    for n in range(2, N + 1):
        rep = location_report(params, n)
        min_modulus_seen = min(min_modulus_seen, rep.min_modulus)
        boundary += rep.boundary_root_count
        worst = max(worst, max(0.0, 1.0 - rep.min_modulus) / 1e-9)
        if not rep.simple or rep.positive_real_root_found:
            worst = math.inf
        g = gn_direct(params, n)
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
    """T-fraction recurrence reproduces the monic partial sums; validity
    report must be clean (lambda_{n+1} != 0 and P_n(0) != 0)."""
    tol = 1e-12 if tol is None else tol
    N = min(int(n_max), 25)
    rec = tfraction_from_hyp(params, N)
    polys, validity = ri_generate(rec, N)
    measured = _rel_coeff_dev(Gn_by_recurrence(params, N), polys)
    if not validity.valid:
        measured = math.inf
    return _result(
        "rifrac",
        measured,
        tol,
        (
            f"max relative coefficient deviation {_fmt(measured)}, "
            f"validity {'clean' if validity.valid else 'violated'}, N = {N}"
        ),
    )


def _random_pencil(rng: random.Random, N: int) -> JacobiPencil:
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


def check_pencil(
    rng: random.Random, draws: int = 200, tol: Optional[float] = None
) -> CheckResult:
    """Random pencils satisfy their five-term rows at random lambda, the
    generated p_n have degree n with positive leading coefficient, and the
    worked p_2 = lambda^2 example is reproduced exactly.

    Each draw takes N in 2..12, the pencil, then 20 lambdas from rng. The
    draws are grouped by N, and each group is solved as one stack by
    pencil_coeff_stack and checked by one pencil_row_sums pass. Degree n
    with a positive leading coefficient means exact zeros above the
    diagonal of the coefficient array and a positive diagonal. Per lambda
    the measure is the largest row residual over the largest row scale
    (at least 1).
    """
    tol = 1e-10 if tol is None else tol
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
    if pencil_coeff_stack([worked], 2)[0, 2].tolist() != [0.0, 0.0, 1.0]:
        worst = math.inf
    groups: dict[int, tuple[list, list]] = {}
    for _ in range(int(draws)):
        N = rng.randint(2, 12)
        pencils, lams = groups.setdefault(N, ([], []))
        pencils.append(_random_pencil(rng, N))
        lams.append(
            [complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
             for _ in range(20)]
        )
    for N, (pencils, lams) in sorted(groups.items()):
        coeffs = pencil_coeff_stack(pencils, N)
        diagonal = np.diagonal(coeffs, axis1=1, axis2=2)
        if np.triu(coeffs, 1).any() or not (diagonal > 0).all():
            worst = math.inf
        total, scale = pencil_row_sums(pencils, coeffs, lams, N - 1)
        ratio = np.abs(total).max(axis=1) / np.maximum(scale.max(axis=1), 1.0)
        worst = float(np.max([worst, ratio.max()]))
    return _result(
        "pencil",
        worst,
        tol,
        f"max residual/scale over {draws} pencils, 20 lambdas each",
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
    return results
