"""Three-term R_I recurrences, their T-fraction specialization, banded
matrix pencils with associated polynomials, and Chebyshev decompositions
of partial sums on the unit circle.

The R_I engine generates monic P_n from

    P_n = (z - c_n) P_{n-1} - lambda_n (z - a_n) P_{n-2},   P_-1 = 0, P_0 = 1,

one degree at a time on coefficient lists with polycore's kernels (so it
rounds and refuses as Poly arithmetic does), and reports whether the
classical validity conditions hold: lambda_{n+1} nonzero (lambda_1
multiplies P_-1 and is exempt) and P_n(a_n) != 0. With c_n = -delta_n,
lambda_n = delta_{n-1}, a_n = 0 the P_n are the monic partial sums G_n:
partial_sums.Gn_by_recurrence runs on this engine.

The pencil engine solves the five-term scalar relation of a pentadiagonal/
tridiagonal symmetric pair forward for p_{n+2}; gamma_n > 0 makes the solve
unconditionally legal. It works on band arrays: a (5, B, K) float array of
b_k, a_k, alpha_k, beta_k, gamma_k of B pencils, with (B,) arrays of alpha
and beta, solved at once into a real (B, N+1, N+1) coefficient array. The
solve runs on a (k, j, B) array, the pencil axis last and contiguous, and
returns its (B, k, j) view; each coefficient is one sequence of real
float64 multiplies and adds, each its own ufunc call, so the layout cannot
change a bit. Row n reads band entries <= n only, so a pencil padded past
its last read entry and solved to a larger N has p_0..p_N bit for bit
those of its own solve.
The residual (_band_row_sums) evaluates every p_k at an array of lambda by
Horner and sums the five row addends, with their moduli as the scale, in
one pass; pencil_row_terms is the scalar form of one row it is tested
against. This is the only pencil route: pencil_polynomials and
pencil_residual hand it one JacobiPencil as a stack of one, and the verify
check hands it its random draws as band arrays. JacobiPencil and the engine
refuse the same data through one rule, _require_valid: every entry finite;
a_k, gamma_k and alpha positive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, nonnegative_int
from .partial_sums import HypParams, PowerSeriesCoeffs, delta_k
from .polycore import (DEGREE_CAP, Poly, coeff_difference, coeff_product, coeff_scale,
                       coeff_table, horner, modulus)

RI_NODE_RTOL = 1e-12


@dataclass(frozen=True)
class RIRecurrence:
    """Coefficient sequences c_n, lambda_n, a_n, n = 1..len (index 0 is n=1)."""

    c: tuple[complex, ...]
    lam: tuple[complex, ...]
    a: tuple[complex, ...]

    def __post_init__(self):
        c = tuple(complex(x) for x in self.c)
        lam = tuple(complex(x) for x in self.lam)
        a = tuple(complex(x) for x in self.a)
        if not (len(c) == len(lam) == len(a)):
            raise DomainError("c, lambda, a must have equal lengths")
        for name, seq in (("c", c), ("lambda", lam), ("a", a)):
            for k, w in enumerate(seq):
                if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                    raise DomainError(f"non-finite {name}_{k + 1}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)

    def __len__(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class RIValidity:
    """Validity report for a generated P_0..P_N.

    lambda_failures lists n >= 2 with lambda_n = 0 exactly (lambda_1 is
    exempt: it multiplies P_-1 = 0). node_failures lists n >= 1 where
    |P_n(a_n)| fails to clear 1e-12 times the cancellable evaluation mass
    sum_{k>=1} |coeff_k| |a_n|^k; a value below that threshold is
    indistinguishable from a zero hit by cancellation. The constant term is
    excluded from the mass so that at a_n = 0, where evaluation performs no
    arithmetic, only an exact zero is flagged (the T-fraction route
    legitimately drives P_n(0) = 1/xi_n under double-precision tininess for
    p > q). Note P_n(a_n) = (a_n - c_n) P_{n-1}(a_n), so a zero of P_{n-1}
    at a_n always surfaces here one index later.
    """

    lambda_failures: tuple[int, ...]
    node_failures: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return not self.lambda_failures and not self.node_failures


def _ri_rows(rec: RIRecurrence, N: int) -> tuple[list[list[complex]], RIValidity]:
    """The coefficients of P_0..P_N, one list per degree, and the validity
    report: the engine of ri_generate. Each P_n is formed from P_{n-1} and
    P_{n-2} by polycore's list kernels, which Poly arithmetic wraps, and
    tested at a_n by horner."""
    N = nonnegative_int(N, "N")
    if N > len(rec):
        raise DomainError(
            f"recurrence holds {len(rec)} coefficient triples, needs {N}"
        )
    rows = [[1 + 0j]]
    lambda_failures = []
    node_failures = []
    triples = zip(rec.c[:N], rec.lam[:N], rec.a[:N])
    for n, (c_n, lam_n, a_n) in enumerate(triples, start=1):
        if n >= 2 and lam_n == 0:
            lambda_failures.append(n)
        try:
            nxt = coeff_product(rows[-1], [-c_n, 1 + 0j])
            if n >= 2:
                lower = coeff_product(rows[-2], [-a_n, 1 + 0j])
                nxt = coeff_difference(nxt, coeff_scale(lower, lam_n))
        except DomainError as exc:
            raise DomainError(
                f"R_I recurrence overflowed double precision at degree {n}: {exc}"
            ) from exc
        rows.append(nxt)
        # Only the mass of z^k, k >= 1, can cancel against the constant term.
        value, _, mass = horner(nxt, a_n)
        if modulus(value) <= RI_NODE_RTOL * (mass - modulus(nxt[0])):
            node_failures.append(n)
    return rows, RIValidity(
        lambda_failures=tuple(lambda_failures),
        node_failures=tuple(node_failures),
    )


def ri_generate(rec: RIRecurrence, N: int) -> tuple[list[Poly], RIValidity]:
    """Monic P_0..P_N plus the validity report. A coefficient that
    overflows double precision raises DomainError naming the degree of the
    P_n being formed, with the Poly arithmetic error as its cause. This is
    the engine _ri_rows, its rows as Poly."""
    rows, validity = _ri_rows(rec, N)
    return [Poly(row) for row in rows], validity


def tfraction_from_hyp(params: HypParams, N: int) -> RIRecurrence:
    """c_n = -delta_n, lambda_n = delta_{n-1}, a_n = 0 for n = 1..N.

    ri_generate on the result gives the monic partial sums G_n; it is the
    production route of partial_sums.Gn_by_recurrence, and check_rifrac
    compares it with the direct Gn_monic. Each of delta_0..delta_N is
    computed once. lambda_1 = delta_0 = 0 by convention; it multiplies
    P_-1 = 0.
    """
    N = nonnegative_int(N, "N")
    deltas = [delta_k(params, n) for n in range(N + 1)]
    return RIRecurrence(
        c=[-d for d in deltas[1:]], lam=deltas[:-1], a=(0j,) * N
    )


# The fields of a pencil: its five bands, in the order of a band array's
# first axis, then the seed of p_1. a_k, gamma_k and alpha must be positive.
_BAND_NAMES = ("j3_diag", "j3_offdiag", "j5_diag", "j5_off1", "j5_off2")
_FIELD_NAMES = _BAND_NAMES + ("alpha", "beta")
_POSITIVE = ("j3_offdiag", "j5_off2", "alpha")


def _require_valid(name: str, values, stacked: bool = False) -> None:
    """The validation rule of pencil data, for JacobiPencil and the band
    engine alike: every entry of field `name` is finite, and positive for
    a_k, gamma_k and alpha. values is the field of one pencil (a band of any
    length, or a scalar) or, with `stacked`, of one pencil per index of its
    first axis. Raises DomainError naming the first bad entry, after
    "pencil i: " when stacked."""
    values = np.asarray(values, dtype=float)
    positive = name in _POSITIVE
    ok = (values > 0) & (values < np.inf) if positive else np.isfinite(values)
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)
        where = f"pencil {at[0]}: " if stacked else ""
        index = "".join(f"[{k}]" for k in (at[1:] if stacked else at))
        rule = "finite and positive" if positive else "finite"
        raise DomainError(f"{where}{name}{index} = {values[at]} must be {rule}")


@dataclass(frozen=True)
class JacobiPencil:
    """Symmetric tridiagonal/pentadiagonal pair plus the degree-one seed.

    j3_diag/j3_offdiag are the tridiagonal entries b_k and a_k > 0;
    j5_diag/j5_off1/j5_off2 are the pentadiagonal entries alpha_n, beta_n,
    and gamma_n > 0. The scalars alpha > 0 and beta seed p_1 = alpha*x + beta.
    """

    j3_diag: tuple[float, ...]
    j3_offdiag: tuple[float, ...]
    j5_diag: tuple[float, ...]
    j5_off1: tuple[float, ...]
    j5_off2: tuple[float, ...]
    alpha: float
    beta: float

    def __post_init__(self):
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if name in _BAND_NAMES:
                value = tuple(float(x) for x in value)
            else:
                value = float(value)
            _require_valid(name, value)
            object.__setattr__(self, name, value)


def _pencil_bands(pencil: JacobiPencil, rows: int) -> np.ndarray:
    """(5, rows) array of b_k, a_k, alpha_k, beta_k, gamma_k for k < rows,
    the entries that rows 0..rows-1 read (row k reads entry k of every band).

    A band too short raises the DomainError of the first row it cannot
    serve, the one a row-by-row pass would raise.
    """
    bands = [getattr(pencil, name) for name in _BAND_NAMES]
    lengths = [len(band) for band in bands]
    shortest = min(lengths)
    if shortest < rows:
        name = _BAND_NAMES[lengths.index(shortest)]
        raise DomainError(
            f"{name} holds {shortest} entries, row {shortest} needs more"
        )
    return np.array([band[:rows] for band in bands])


def _band_coeff_stack(bands, alpha, beta, N: int) -> np.ndarray:
    """Coefficients of p_0..p_N for a stack of B pencils, solved together.

    bands is a (5, B, K) array of b_k, a_k, alpha_k, beta_k, gamma_k with
    K >= N - 1 (entries past N - 2 are not read), alpha and beta are (B,);
    every entry is validated by _require_valid. Entry [i, k, j] of the
    (B, N+1, N+1) result is the coefficient of x^j in p_k of pencil i, zero
    above the diagonal. Each row n = 0..N-2 is solved for p_{n+2} (see
    pencil_polynomials) on all pencils at once, so a pencil's coefficients
    do not depend on the stack it is solved in.

    The solve runs in a (k, j, B) array: each row step reads and writes
    whole (N+1, B) rows with the pencil axis last and contiguous, not
    (B, N+1) slices strided by (N+1)^2 entries; the result is its (B, k, j)
    view. The bits are those of the (B, k, j) solve
    (tests/test_ri_pencils.py keeps it as the oracle): every coefficient
    takes the same real float64 multiplies and adds in the same order, each
    in its own ufunc call, and no complex product, so numpy's fused
    multiply-add path never enters.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    for name, values in zip(_FIELD_NAMES, (*bands, alpha, beta)):
        _require_valid(name, values, stacked=True)
    # Laid out (k, j, pencil): each step below reads and writes whole rows
    # with the pencil axis last and contiguous, whatever the caller's layout.
    b, a, al, be, ga = np.ascontiguousarray(bands[:, :, : max(N - 1, 0)].transpose(0, 2, 1))
    P = np.zeros((N + 1, N + 1, len(alpha)))
    P[0, 0] = 1.0
    if N >= 1:
        P[1, 0] = beta
        P[1, 1] = alpha

    def times_linear(k, c0, c1):
        # p_k * (c0 + c1 x)
        out = P[k] * c0
        out[1:] += P[k, :-1] * c1
        return out

    for n in range(0, N - 1):
        acc = P[n - 2] * ga[n - 2] if n >= 2 else 0.0
        if n >= 1:
            acc = acc + times_linear(n - 1, be[n - 1], -a[n - 1])
        acc = acc + times_linear(n, al[n], -b[n])
        acc = acc + times_linear(n + 1, be[n], -a[n])
        P[n + 2] = acc * (-1.0 / ga[n])
    return P.transpose(2, 0, 1)


def pencil_polynomials(pencil: JacobiPencil, N: int) -> list[Poly]:
    """p_0 = 1, p_1 = alpha*x + beta, then solve row n for p_{n+2}:

        gamma_n p_{n+2} = -[gamma_{n-2} p_{n-2} + (beta_{n-1} - x a_{n-1}) p_{n-1}
                           + (alpha_n - x b_n) p_n + (beta_n - x a_n) p_{n+1}]

    with p_{-2} = p_{-1} = 0 and gamma/a/beta at negative indices zero.
    deg p_n = n with positive leading coefficient (alpha, a_k, gamma_n > 0).
    This is _band_coeff_stack on a stack of one. N may not exceed
    DEGREE_CAP, the largest degree a Poly holds. A coefficient that
    overflows double precision is a DomainError naming the first p_k
    holding one.
    """
    N = nonnegative_int(N, "N")
    if N > DEGREE_CAP:
        raise DomainError(f"N = {N} exceeds the degree cap {DEGREE_CAP}")
    bands = _pencil_bands(pencil, max(N - 1, 0))[:, None]
    # Overflowed coefficients are refused below, so numpy's warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        P = _band_coeff_stack(bands, [pencil.alpha], [pencil.beta], N)[0]
    overflowed = ~np.isfinite(P).all(axis=1)
    if overflowed.any():
        raise DomainError(f"p_{overflowed.argmax()} overflowed double precision")
    return [Poly(row[: k + 1].tolist()) for k, row in enumerate(P)]


def pencil_row_terms(
    pencil: JacobiPencil, values: Sequence[complex], lam: complex, n: int
) -> tuple[complex, complex, complex, complex, complex]:
    """The five addends of scalar relation n at p_k(lam) = values[k]. An
    addend that is not finite, from an overflow or a non-finite input, is a
    DomainError naming it."""
    n = nonnegative_int(n, "row index")
    if len(values) < n + 3:
        raise DomainError(f"row {n} needs p_0..p_{n + 2}")
    b, a, al, be, ga = _pencil_bands(pencil, n + 1).tolist()
    lam = complex(lam)
    t0 = ga[n - 2] * values[n - 2] if n >= 2 else 0j
    t1 = (be[n - 1] - lam * a[n - 1]) * values[n - 1] if n >= 1 else 0j
    t2 = (al[n] - lam * b[n]) * values[n]
    t3 = (be[n] - lam * a[n]) * values[n + 1]
    t4 = ga[n] * values[n + 2]
    terms = (t0, t1, t2, t3, t4)
    for i, t in enumerate(terms):
        if not cmath.isfinite(t):
            raise DomainError(f"addend {i} of row {n} is not finite: {t}")
    return terms


def _band_row_sums(bands, coeffs, lams, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and row scales of the first `rows` scalar relations of a
    stack of B pencils.

    bands is (5, B, K) as for _band_coeff_stack, K >= rows (entries past
    rows - 1 are not read); coeffs[i, k] holds the coefficients of p_k of
    pencil i (shape (B, K', D), real or complex, K' >= rows + 2 when rows is
    positive); lams holds the lambdas, of shape (L,) for all pencils or
    (B, L) per pencil. Returns two (B, rows, L) arrays: the sum of the five
    addends of pencil_row_terms, and the sum of their moduli.

    The values p_k(lambda) are laid out (k, pencil, lambda). Horner's step
    for x^j updates in place the rows from the first p_k of degree >= j on,
    at least two (numpy rounds an in-place complex product of one entry
    without FMA). The rows left out hold zeros where a full pass holds
    signed zeros (or nan at a non-finite lambda, where addend 2 is nan
    anyway): each result is bit for bit, up to the sign of a zero, that of
    the full pass tests/test_ri_pencils.py keeps as the oracle. Unlike the
    padded passes of the root table and the axis quadrature, this start
    pays: a full pass made check_pencil slower, a median 4.63 ms against
    4.47, in 9 of 10 alternating runs on a 2-vCPU x86-64 machine.
    """
    K = rows + 2 if rows else 0  # p_0..p_{rows+1}; zero rows read none
    C = np.ascontiguousarray(np.asarray(coeffs)[:, :K].transpose(2, 1, 0), dtype=complex)
    b, a, al, be, ga = np.ascontiguousarray(
        bands[:, :, :rows].transpose(0, 2, 1), dtype=complex)[..., None]
    lam = np.asarray(lams, dtype=complex)
    reach = np.logical_or.accumulate(C.any(axis=2)[::-1], axis=0)[::-1]  # (D, K)
    starts = np.minimum(reach.argmax(axis=1), K - 2).tolist() if K else []
    # A lambda far outside the spectrum can overflow the values; the
    # non-finite sums are the report, so numpy's warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.zeros((K, C.shape[2], lam.shape[-1]), dtype=complex)
        for j, s in reversed(list(enumerate(starts))):
            np.multiply(V[s:], lam, out=V[s:])
            np.add(V[s:], C[j, s:, :, None], out=V[s:])
        r1, r2 = max(rows - 1, 0), max(rows - 2, 0)
        shifted = be - lam * a  # for addends 1 and 3
        terms = np.zeros((5, rows) + V.shape[1:], dtype=complex)
        np.multiply(ga[:r2], V[:r2], out=terms[0, 2:])
        np.multiply(shifted[:r1], V[:r1], out=terms[1, 1:])
        np.multiply(al - lam * b, V[:rows], out=terms[2])
        np.multiply(shifted, V[1 : rows + 1], out=terms[3])
        np.multiply(ga, V[2 : rows + 2], out=terms[4])
        total, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    return total.transpose(1, 0, 2), scale.transpose(1, 0, 2)


def pencil_residual(
    pencil: JacobiPencil, polys: Sequence[Poly], lam, rows: int
) -> float:
    """Max modulus of the first `rows` scalar relations at lambda = lam,
    or over every lambda when lam is a sequence. Row n reads p_0..p_{n+2};
    zero rows read no polynomial and have residual 0. Values that overflow
    (a lambda far outside the spectrum, entries near the float range) give
    an inf or nan residual: that is the report, not a refusal."""
    rows = nonnegative_int(rows, "rows")
    if rows and len(polys) < rows + 2:
        raise DomainError(f"{rows} rows need {rows + 2} polynomials")
    used = [f.coeffs for f in polys[: rows + 2]]
    C = coeff_table(used, max(map(len, used), default=1))[None]
    bands = _pencil_bands(pencil, rows)[:, None]
    total, _ = _band_row_sums(bands, C, np.atleast_1d(lam), rows)
    return float(np.abs(total).max(initial=0.0))


def chebyshev_eval(kind: str, k: int, x: float) -> float:
    """T_k(x) or U_k(x) by the shared three-term recurrence, k up to
    DEGREE_CAP. A value that is not finite (|x| so large that it
    overflows, or x nan) is a DomainError naming k and x."""
    k = nonnegative_int(k, "index")
    if k > DEGREE_CAP:
        raise DomainError(f"index {k} exceeds the degree cap {DEGREE_CAP}")
    if kind == "first":
        w0, w1 = 1.0, float(x)
    elif kind == "second":
        w0, w1 = 1.0, 2.0 * float(x)
    else:
        raise DomainError(f"kind must be 'first' or 'second', got {kind!r}")
    if k == 0:
        return w0
    for _ in range(k - 1):
        w0, w1 = w1, 2.0 * float(x) * w1 - w0
    if not math.isfinite(w1):
        name = "T" if kind == "first" else "U"
        raise DomainError(f"{name}_{k}(x) at x = {float(x)!r} is not finite: {w1}")
    return w1


@dataclass(frozen=True)
class ChebDecomposition:
    """Coefficients against T_k (k = 0..n) and U_j (j = 0..n)."""

    t_coeffs: tuple[float, ...]
    u_coeffs: tuple[float, ...]


def kernel_decompose(d: PowerSeriesCoeffs, n: int) -> ChebDecomposition:
    """For positive d_k and x = cos(tau):

        Re f_n(e^{i tau})     = sum_{k=0}^{n}  d_k     T_k(x)
        Im f_{n+1}(e^{i tau}) = sin(tau) * sum_{j=0}^{n} d_{j+1} U_j(x)

    so t_coeffs = (d_0..d_n) and u_coeffs = (d_1..d_{n+1}). Requires
    n + 1 < len(d) and strictly positive real coefficients.
    """
    n = nonnegative_int(n, "order")
    if n + 1 >= len(d):
        raise DomainError(f"need d_0..d_{n + 1}, have {len(d)} coefficients")
    reals = []
    for k, w in enumerate(d.d[: n + 2]):
        if w.imag != 0 or not (w.real > 0):
            raise DomainError(f"d_{k} = {w} must be real and positive")
        reals.append(w.real)
    return ChebDecomposition(
        t_coeffs=tuple(reals[: n + 1]),
        u_coeffs=tuple(reals[1 : n + 2]),
    )
