"""Named verification checks driven by the CLI `verify` command.

Each check measures a residual for the supplied parameters and reports
PASS/FAIL against its tolerance. Two conventions:

- single-tolerance checks report the raw measured residual and the natural
  tolerance (recurrence 1e-10, ode 1e-9, circle-rep 1e-8, rifrac 1e-12,
  pencil 1e-10);
- composite checks with heterogeneous sub-tolerances (sobolev, axis-rep,
  roots) report max(measured_i / tol_i) against tolerance 1.0.

recurrence and rifrac hold the monic recurrence (the R_I engine of
ri_generate on the T-fraction) against the direct sums Gn_monic, not
against itself; the two read one comparison, kept on the family record.
Every degree-taking check reads its degrees from the record's coefficient
sequence and computes them together, in array passes (the ode and axis
passes) or row engines (the recurrences) that round each degree
as its one-degree Poly or Python arithmetic would.

The seven degree-taking checks (all but pencil) read one family record
(partial_sums.read_family) and refuse by one rule. Each first reads
xi_0..xi_N at its own clamp (Family.seq), so a family refused there gets
the same message from every check, alone or in --check all. Then come the
check's own stages; one that overflows, or a modulus beyond the float range
that would divide a residual to 0, is a DomainError naming the stage and
its first bad degree. A nan measure is a DomainError naming the clause,
the degree and the check (_worst), never a dropped measure.

Boolean conditions (simple roots, validity flags, exact worked examples)
fold in as residual 0 or inf. Randomized checks derive their generator
from a string seed, f"{seed}:{name}", so runs are reproducible across
processes regardless of hash randomization.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import CHECK_ORDER
from .errors import ConvergenceError, DomainError
from .operators import (
    _apply_stack,
    _kappa_from_xi,
    _mass_stack,
    build_R,
    op_compose,
    op_theta,
    r_action,
)
from .partial_sums import (
    Family,
    HypParams,
    _gn_rows,
    _monic_table,
    read_family,
)
from .pfq import (
    _axis_quadrature,
    _axis_termwise,
    _terminating_table,
    integral_rep_circle_batch,
)
from .polycore import coeff_table, complex_product, horner_rows, modulus
from .ri_pencils import _band_coeff_stack, _band_row_sums, _ri_rows, tfraction_from_hyp
from .roots import _location_reports, _require_positive_conditions
from .sobolev import (
    QuadratureRule,
    _gram_stack,
    auto_node_count,
    gram_extremes,
    monomial_quadrature_defect,
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
    status = "PASS" if measured <= tol else "FAIL"
    return CheckResult(name, status, float(measured), float(tol), detail)


def _degree(n_max: int, cap: int) -> int:
    """The degree a check runs to: n_max clamped to the check's cap. A
    negative n_max raises the DomainError read_family raises for a negative
    order, instead of an empty degree range that passes."""
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("order must be nonnegative")
    return min(n_max, cap)


def _worst(measures, check: str, clauses: Sequence[str], first: int = 0,
           note: Optional[Callable[[int, int], str]] = None) -> float:
    """The largest of a table of measures, from 0.0: row i holds degree
    first + i, and column j measures the clause clauses[j % len(clauses)].
    A nan measure is a DomainError naming the clause, the first degree
    holding one (then note(i, j), if given) and the check, never a dropped
    measure."""
    measures = np.asarray(measures, dtype=float)
    bad = np.isnan(measures)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        clause = clauses[j % len(clauses)]
        raise DomainError(f"the {clause} clause is nan at degree {first + i}"
                          f"{note(i, j) if note else ''} in the {check} check")
    return float(measures.max(initial=0.0))


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
        deviation = modulus(reference - candidate) / np.where(ref == 0, 1.0, ref)
    return _worst(deviation, "recurrence", ("g coefficient",))


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
        deviation = modulus(reference - candidate).max(axis=1) / scale
    return _worst(deviation[:, None], check, ("G coefficient",))


def _monic_comparison(family: Family, N: int, check: str) -> tuple[float, bool]:
    """The monic recurrence against the direct monic sums: the table of
    G_0..G_N read from the record's xi_0..xi_N (_monic_table), then the
    coefficients of ri_generate on the T-fraction (its engine,
    ri_pencils._ri_rows), measured as _scaled_coeff_dev, and
    whether the validity report is clean. A refusal names the check that
    asked. Computed once per record and degree, by the first of recurrence
    and rifrac to ask, and kept on the record (Family.monic) for the other.
    """
    if N not in family.monic:
        direct = _monic_table(family.seq(N))
        monic, validity = _ri_rows(tfraction_from_hyp(family.params, N), N)
        deviation = _scaled_coeff_dev(direct, coeff_table(monic, N + 1), check)
        family.monic[N] = (deviation, validity.valid)
    return family.monic[N]


def check_recurrence(
    family: Family, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Direct-formula vs recurrence construction of g_n and G_n.

    The direct g_n and G_n are read from the family record, the recurrence
    g_n from the coefficients of gn_by_recurrence (its engine,
    partial_sums._gn_rows). The record's errors come first, then those of
    the monic comparison, then those of the recurrence for g_n.
    """
    tol = 1e-10 if tol is None else tol
    N = _degree(n_max, 25)
    dev_G, _ = _monic_comparison(family, N, "recurrence")
    rec_g = coeff_table(_gn_rows(family.params, N), N + 1)
    measured = max(_rel_coeff_dev(family.table(N), rec_g), dev_G)
    return _result("recurrence", measured, tol, (
        f"max coefficient deviation {_fmt(measured)} (g per-coefficient "
        f"relative, G relative to coefficient scale) over n <= {N}"))


def _over_scale(value: np.ndarray, factor: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """value / max(1, factor·mass), elementwise. Where the product
    overflows, the scale is above 1 and the quotient is taken in two steps,
    value / factor / mass, so an infinite scale never reads as 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.maximum(1.0, factor * mass)
        return np.where(np.isinf(scale), value / factor / mass, value / scale)


def check_ode(
    family: Family, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """theta(R g_n) = n·(R g_n), and -kappa_n·R g_n = z^n.

    The partial sums g_0..g_N are the rows of the family record's
    lower-triangular table, read first, and kappa_n is read from the same
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
    seq, params = family.seq(N), family.params
    R = build_R(params)
    theta_R = op_compose(op_theta(), R)
    kappas = [_kappa_from_xi(params, n, xi_n) for n, xi_n in enumerate(seq)]
    kap = np.array(kappas, dtype=complex)[:, None]
    g = family.table(N)
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
        n_Rg = complex_product(Rg, degrees)
        # Poly subtraction adds the other side scaled by -1.
        eigen = theta_Rg + complex_product(n_Rg, -1.0)
        _require_finite(eigen, "theta(R g_{n}) - n·R g_{n}", "ode")
        mono = complex_product(Rg, -kap)
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
        ratios = np.hstack([eigen_ratio, mono_ratio])
    worst = _worst(ratios, "ode", ("eigen-residual", "off-monomial"))
    detail = f"max of scaled eigen-residual and off-monomial mass, n <= {N}"
    return _result("ode", worst, tol, detail)


@functools.cache
def _exactness_defect(n_nodes: int) -> float:
    """The exactness clause of check_sobolev on the n_nodes-node rule: the
    largest monomial_quadrature_defect of z^k·conj(z)^l, k, l <= 6, and of
    z^(N-1), 50 pairs in Python complex arithmetic node by node. It depends
    on the node count alone, so each count is computed once per process."""
    rule = QuadratureRule(n_nodes)
    pairs = [(k, l) for k in range(7) for l in range(7)] + [(n_nodes - 1, 0)]
    return max(monomial_quadrature_defect(rule, k, l) for k, l in pairs)


def check_sobolev(
    family: Family, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Gram diagonality, |kappa_n|^-2 diagonal values, monomial exactness.

    Normalized composite: off-diagonal / (1e-10 · max diag), diagonal
    deviation / (1e-9 · denominator), quadrature defect / 1e-14. The
    diagonal denominator is max(|kappa_n|^-2, 0.1 · max diag): entries are
    held to strict relative accuracy where double precision supports it,
    and otherwise to the same absolute standard as the off-diagonal clause
    (a diagonal below the form's roundoff floor cannot be distinguished
    from orthogonality noise).

    The family record's sequence is read first; the Gram's errors follow,
    then those of kappa_n, which is read from the same sequence. The
    exactness clause takes z^k·conj(z)^l, k, l <= 6, and z^(N-1) on the
    N-node rule, N = auto_node_count(n, rho), in Python complex arithmetic
    node by node. It depends on N alone and is built once per N and process
    (_exactness_defect); the Gram and the diagonal clause are the family's
    own.
    """
    tol = 1.0 if tol is None else tol
    m = _degree(n_max, 15)
    seq, params = family.seq(m), family.params
    gram = _gram_stack(r_action(params, family.table(m))[None])[0]
    off, max_diag = gram_extremes(gram)
    kappas = [_kappa_from_xi(params, n, xi_n) for n, xi_n in enumerate(seq)]
    # A float64 scalar's square is Python's pow (an array's is not), but
    # reads inf rather than raising where |kappa_n|^2 is beyond the range.
    with np.errstate(over="ignore"):
        target = np.array([1.0 / k**2 for k in modulus(np.array(kappas))])
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = modulus(gram.diagonal() - target) / np.maximum(target, 0.1 * max_diag)
    diag_rel = _worst(diag[:, None], "sobolev", ("diagonal",))
    defect = _exactness_defect(auto_node_count(m, max(params.p, params.q + 1)))
    measured = max(off / (1e-10 * max_diag), diag_rel / 1e-9, defect / 1e-14)
    return _result("sobolev", measured, tol, (
        f"offdiag {_fmt(off)} vs maxdiag {_fmt(max_diag)}, "
        f"diag rel {_fmt(diag_rel)}, quad defect {_fmt(defect)}"))


def check_circle_rep(
    family: Family, n_max: int, rng: random.Random, tol: Optional[float] = None
) -> CheckResult:
    """Kernel quadrature on T vs direct evaluation of each g_n, a row of the
    family record's table, at 16 random angles: every g_n at every point in
    one polycore.horner_rows pass, each value as Poly evaluation rounds it
    up to the sign of a zero."""
    tol = 1e-8 if tol is None else tol
    N = _degree(n_max, 10)
    table = family.table(N)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(16)]
    recovered = integral_rep_circle_batch(family.params, range(N + 1), angles)
    points = np.array([complex(math.cos(tau), math.sin(tau)) for tau in angles])
    # Python complex arithmetic overflows to inf or nan without a warning.
    with np.errstate(all="ignore"):
        measures = modulus(np.array(recovered) - horner_rows(table, points)[0])
    worst = _worst(measures, "circle-rep", ("quadrature",))
    detail = f"max |quadrature - direct| {_fmt(worst)} over n <= {N}, 16 angles"
    return _result("circle-rep", worst, tol, detail)


_AXIS_POINTS = (-0.1, -1.0, -10.0)


def check_axis_rep(
    family: Family, n_max: int, tol: Optional[float] = None
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

    One pass serves every degree and all three points: the g_n are the
    rows of the family record's table, evaluated by polycore.horner_rows;
    the terminating series of every degree are the rows of one
    pfq._terminating_table, which both routes read (_axis_termwise and
    _axis_quadrature), each value bit for bit that of
    integral_rep_negative_axis and integral_rep_negative_axis_numeric at
    its degree and point. Moduli beyond the float range read as inf
    (polycore.modulus); a clause whose measure is nan (a nan value,
    quadrature or deviation) is a DomainError naming the clause, the
    degree and the point (_worst), never a dropped measure.
    """
    tol = 1.0 if tol is None else tol
    N = _degree(n_max, 20)
    g = family.table(N)
    degrees = np.arange(N + 1)
    h = _terminating_table(family.params, degrees)
    # An overflowing integrand reads as inf or nan; a nan is refused.
    with np.errstate(all="ignore"):
        term = _axis_termwise(h, degrees, _AXIS_POINTS)
        quad = _axis_quadrature(h, degrees, _AXIS_POINTS)
        direct, scale = horner_rows(g, _AXIS_POINTS)
        size = modulus(direct)
        denom = np.where(size >= 1e-8 * scale, size, scale)
        # max(1.0, size) as Python's max takes it: a nan size reads as 1.
        floor = 1e-6 * np.where(size > 1.0, size, 1.0)
        measures = np.stack([modulus(term - direct) / denom / 1e-10,
                             modulus(term - quad) / floor], axis=2)

    def note(n: int, j: int) -> str:
        p = j // 2
        return (f", x = {_AXIS_POINTS[p]} (g_{n}(x) = {complex(direct[n, p])}, termwise "
                f"{complex(term[n, p])}, quadrature {complex(quad[n, p])})")

    worst = _worst(measures.reshape(N + 1, -1), "axis-rep", ("termwise", "quadrature"),
                   note=note)
    detail = f"normalized worst deviation {_fmt(worst)} over n <= {N}"
    return _result("axis-rep", worst, tol, detail)


def check_roots(
    family: Family, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """Zero localization: simple roots, moduli >= 1 - 1e-9, clearance of
    the real ray (1, oo), and Vieta product reconstruction to 1e-8.

    Each g_n, n = 2..N, is a row of the family record, and all of them are
    solved together as one root table (roots._location_reports), each row
    bit for bit find_roots on its g_n; each gives its degree's location
    report and root product, as one g_n alone gives them. A convergence
    failure is the one of the lowest degree that meets one.
    """
    tol = 1.0 if tol is None else tol
    N = _degree(n_max, 25)
    seq = family.seq(N)
    degrees = range(2, N + 1)
    if degrees:  # refused where location_report refused them: at n = 2
        _require_positive_conditions(family.params)
    measures, min_modulus_seen, boundary = [], math.inf, 0
    for n, rep in zip(degrees, _location_reports([seq], degrees)[0]):
        min_modulus_seen = min(min_modulus_seen, rep.min_modulus)
        boundary += rep.boundary_root_count
        located = rep.simple and not rep.positive_real_root_found
        target = (-1) ** n * seq[0] / seq[n]
        prod = math.prod(rep.roots, start=1 + 0j)
        measures.append([
            max(0.0, 1.0 - rep.min_modulus) / 1e-9 if located else math.inf,
            modulus(prod - target) / modulus(target) / 1e-8,
        ])
    worst = _worst(measures, "roots", ("localization", "Vieta"), first=2)
    return _result("roots", worst, tol, (
        f"min modulus {_fmt(min_modulus_seen)}, boundary roots {boundary}, "
        f"n in [2, {N}]"))


def check_rifrac(
    family: Family, n_max: int, tol: Optional[float] = None
) -> CheckResult:
    """The T-fraction reproduces the direct monic sums Gn_monic, measured
    as _scaled_coeff_dev; the validity report must be clean
    (lambda_{n+1} != 0 and P_n(0) != 0)."""
    tol = 1e-12 if tol is None else tol
    N = _degree(n_max, 25)
    measured, valid = _monic_comparison(family, N, "rifrac")
    if not valid:
        measured = math.inf
    return _result("rifrac", measured, tol, (
        f"max coefficient deviation {_fmt(measured)} from the direct "
        "monic sums, relative to coefficient scale, "
        f"validity {'clean' if valid else 'violated'}, N = {N}"))


# A draw of the pencil check is N, then the five bands (N entries each, in
# JacobiPencil's field order), alpha, beta and _PENCIL_LAMBDAS (re, im)
# pairs, each value uniform on its (lo, hi).
_PENCIL_BAND_RANGES = ((-2.0, 2.0), (0.1, 2.0), (-2.0, 2.0), (-2.0, 2.0), (0.1, 2.0))
_PENCIL_SEED_RANGES = ((0.1, 2.0), (-2.0, 2.0))  # alpha, beta
_PENCIL_LAMBDA_RANGES = ((-3.0, 3.0), (-1.0, 1.0))  # re, im
_PENCIL_LAMBDAS = 20
_PENCIL_MAX_N = 12  # N is drawn from 2..12


@functools.cache
def _pencil_ranges(N: int) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi - lo of every value of a draw of size N, in draw order:
    built once per size and process, and read-only."""
    ranges = [r for r in _PENCIL_BAND_RANGES for _ in range(N)]
    ranges += _PENCIL_SEED_RANGES + _PENCIL_LAMBDA_RANGES * _PENCIL_LAMBDAS
    lo, hi = np.array(ranges).T.copy()
    width = hi - lo
    lo.flags.writeable = width.flags.writeable = False
    return lo, width


def _draw_pencils(rng: random.Random, draws: int) -> dict[int, np.ndarray]:
    """The pencil check's draws, grouped by N in draw order: a (B, 5N + 2 +
    2·_PENCIL_LAMBDAS) array per N. Value i is lo_i + (hi_i - lo_i)·r_i as
    rng.uniform gives it: a draw takes 64 bits per value from one
    rng.getrandbits, each pair of its 32-bit words (w0, w1), low first, being
    CPython's random() r = ((w0 >> 5)·2^26 + (w1 >> 6))·2^-53; rng ends as
    random() leaves it (test_checks.py::test_draws_equal_the_random_loop)."""
    blocks: dict[int, list[bytes]] = {}
    for _ in range(int(draws)):
        N = rng.randint(2, _PENCIL_MAX_N)
        size = 8 * (5 * N + 2 + 2 * _PENCIL_LAMBDAS)  # bytes: 64 bits per value
        blocks.setdefault(N, []).append(rng.getrandbits(8 * size).to_bytes(size, "little"))
    words = np.frombuffer(b"".join(b"".join(v) for v in blocks.values()), dtype="<u4")
    uniform = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
    groups, stop = {}, 0
    for N, drawn in blocks.items():  # one numpy pass per size
        lo, width = _pencil_ranges(N)
        r = uniform[stop : stop + len(drawn) * len(lo)].reshape(len(drawn), -1)
        groups[N], stop = lo + width * r, stop + r.size
    return groups


def _pencil_stack(rng: random.Random, draws: int) -> tuple:
    """The draws of _draw_pencils as one stack for the pencil engine, in
    size order and in draw order within a size, then the worked pencil:
    each draw's N, the (5, B + 1, _PENCIL_MAX_N - 1) band array, alpha,
    beta and the (B, _PENCIL_LAMBDAS) lambdas. Past a pencil's N - 1 read
    entries the bands hold a_k = gamma_k = 1 and 0 elsewhere, so the array
    validates; the worked pencil is that padding with alpha 1 and beta 0,
    whose p_2 is x^2."""
    groups = sorted(_draw_pencils(rng, draws).items())
    sizes = np.repeat([N for N, _ in groups], [len(v) for _, v in groups])
    bands = np.zeros((5, len(sizes) + 1, _PENCIL_MAX_N - 1))
    bands[[1, 4]] = 1.0
    alpha, beta = np.ones(len(sizes) + 1), np.zeros(len(sizes) + 1)
    lams = np.empty((len(sizes), _PENCIL_LAMBDAS), dtype=complex)
    stop = 0
    for N, values in groups:
        rows = slice(stop, stop + len(values))
        drawn = values[:, : 5 * N].reshape(-1, 5, N).transpose(1, 0, 2)
        bands[:, rows, : N - 1] = drawn[:, :, : N - 1]
        alpha[rows], beta[rows] = values[:, 5 * N], values[:, 5 * N + 1]
        # The (re, im) pairs are laid out as complex128 once contiguous.
        lams[rows] = np.ascontiguousarray(values[:, 5 * N + 2 :]).view(complex)
        stop = rows.stop
    return sizes, bands, alpha, beta, lams


def check_pencil(
    rng: random.Random, draws: int = 200, tol: Optional[float] = None
) -> CheckResult:
    """Random pencils satisfy their five-term rows at random lambda, the
    generated p_n have degree n with positive leading coefficient, and the
    worked p_2 = lambda^2 example is reproduced exactly.

    The pencils are drawn from rng alone (_draw_pencils), so the result
    depends only on the seed and `draws`, not on the family verified. Each
    draw takes N in 2..12, the pencil's bands, alpha and beta, then
    _PENCIL_LAMBDAS lambdas. All draws, padded into one band array in size
    order, and the worked pencil after them (_pencil_stack) are solved to
    degree 12 by one engine call, each pencil's p_0..p_N bit for bit its
    own size's solve; each size is then summed by one _band_row_sums pass
    on its slice. Degree n with a positive leading coefficient means, for k
    <= N, exact zeros above the diagonal and a positive diagonal. Per
    lambda the measure is the largest row residual over the largest row
    scale (at least 1). Negative draws are a DomainError; zero draws check
    only the worked example.
    """
    tol = 1e-10 if tol is None else tol
    if int(draws) < 0:
        raise DomainError("draws must be nonnegative")
    sizes, bands, alpha, beta, lams = _pencil_stack(rng, draws)
    coeffs = _band_coeff_stack(bands, alpha, beta, _PENCIL_MAX_N)
    coeffs, worked = coeffs[:-1], coeffs[-1]
    worst = 0.0 if worked[2, :3].tolist() == [0.0, 0.0, 1.0] else math.inf
    k = np.arange(_PENCIL_MAX_N + 1)
    read = k <= sizes[:, None]  # p_k and its x^k, k <= N
    upper = read[:, :, None] & read[:, None, :] & (k[:, None] < k)
    diagonal = np.diagonal(coeffs, axis1=1, axis2=2)[read]
    if coeffs[upper].any() or not (diagonal > 0).all():
        worst = math.inf
    for N in sorted(set(sizes.tolist())):
        rows = slice(*np.searchsorted(sizes, [N, N + 1]).tolist())
        total, scale = _band_row_sums(bands[:, rows], coeffs[rows, : N + 1, : N + 1],
                                      lams[rows], N - 1)
        ratio = np.abs(total).max(axis=1) / np.maximum(scale.max(axis=1), 1.0)
        worst = float(np.max([worst, ratio.max()]))
    return _result("pencil", worst, tol, f"max residual/scale over {draws} pencils, "
                   f"{_PENCIL_LAMBDAS} lambdas each")


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

    The degree-taking checks read one family record, read on first use to
    the largest clamp, 25, so nothing is read before the first check that
    needs it; nothing outlives the call.
    """
    requested = [n for n in CHECK_ORDER if n in set(names)]
    unknown = set(names) - set(CHECK_ORDER)
    if unknown:
        raise DomainError(f"unknown checks: {sorted(unknown)}")
    if tol is not None and len(requested) > 1:
        raise DomainError("a tolerance override needs a single check")
    family = functools.cache(lambda: read_family(params, min(n_max, 25)))
    # Looked up when called, so a wrapped or substituted check_* is what runs.
    runners: dict[str, Callable[[], CheckResult]] = {
        "recurrence": lambda: check_recurrence(family(), n_max, tol),
        "ode": lambda: check_ode(family(), n_max, tol),
        "sobolev": lambda: check_sobolev(family(), n_max, tol),
        "circle-rep": lambda: check_circle_rep(
            family(), n_max, random.Random(f"{seed}:circle-rep"), tol
        ),
        "axis-rep": lambda: check_axis_rep(family(), n_max, tol),
        "roots": lambda: check_roots(family(), n_max, tol),
        "rifrac": lambda: check_rifrac(family(), n_max, tol),
        "pencil": lambda: check_pencil(random.Random(f"{seed}:pencil"), draws, tol),
    }
    results = []
    for name in requested:
        reason = inapplicable_reason(name, params)
        if reason is not None:
            if not skip_inapplicable:
                raise DomainError(f"check {name}: {reason}")
            results.append(CheckResult(name, "SKIP", math.nan, math.nan, reason))
            continue
        try:
            results.append(runners[name]())
        except ConvergenceError as exc:
            detail = f"did not converge: {exc}"
            results.append(CheckResult(name, "FAIL", math.inf, math.nan, detail))
    return results
