"""Three-term R_I recurrences, their T-fraction specialization, banded
matrix pencils with associated polynomials, and Chebyshev decompositions
of partial sums on the unit circle.

The R_I engine generates monic P_n from

    P_n = (z - c_n) P_{n-1} - lambda_n (z - a_n) P_{n-2},   P_-1 = 0, P_0 = 1,

and reports whether the classical validity conditions hold: lambda_{n+1}
nonzero (lambda_1 multiplies P_-1 and is exempt) and P_n(a_n) != 0. With
c_n = -delta_n, lambda_n = delta_{n-1}, a_n = 0 the P_n coincide with the
monic partial sums G_n.

The pencil engine solves the five-term scalar relation of a pentadiagonal/
tridiagonal symmetric pair forward for p_{n+2}; gamma_n > 0 makes the solve
unconditionally legal. Every band entry, alpha and beta is real, so the
solve runs on a stack of B same-size pencils at once as a real float64
coefficient array of shape (B, N+1, N+1). The residual evaluates all p_k at
an array of lambda by Horner and sums the five row addends, with their
moduli as the scale, in one vectorized pass. pencil_row_terms keeps the
scalar form of one row as the reference the vectorized pass is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .partial_sums import HypParams, PowerSeriesCoeffs, delta_k
from .polycore import Poly, horner

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


def ri_generate(rec: RIRecurrence, N: int) -> tuple[list[Poly], RIValidity]:
    """Monic P_0..P_N plus the validity report."""
    N = int(N)
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > len(rec):
        raise DomainError(
            f"recurrence holds {len(rec)} coefficient triples, needs {N}"
        )
    polys = [Poly([1 + 0j])]
    lambda_failures = []
    node_failures = []
    for n in range(1, N + 1):
        c_n = rec.c[n - 1]
        lam_n = rec.lam[n - 1]
        a_n = rec.a[n - 1]
        if n >= 2 and lam_n == 0:
            lambda_failures.append(n)
        cur = polys[-1]
        nxt = cur * Poly((-c_n, 1 + 0j))
        if n >= 2:
            nxt = nxt - (polys[-2] * Poly((-a_n, 1 + 0j))).scale(lam_n)
        polys.append(nxt)
        # Only the mass of z^k, k >= 1, can cancel against the constant term.
        value, _, mass = horner(nxt.coeffs, a_n)
        if abs(value) <= RI_NODE_RTOL * (mass - abs(nxt.coeff(0))):
            node_failures.append(n)
    return polys, RIValidity(
        lambda_failures=tuple(lambda_failures),
        node_failures=tuple(node_failures),
    )


def tfraction_from_hyp(params: HypParams, N: int) -> RIRecurrence:
    """c_n = -delta_n, lambda_n = delta_{n-1}, a_n = 0 for n = 1..N.

    ri_generate on the result reproduces the monic partial sums G_n.
    lambda_1 = delta_0 = 0 by convention; it multiplies P_-1 = 0.
    """
    N = int(N)
    if N < 0:
        raise DomainError("N must be nonnegative")
    c = tuple(-delta_k(params, n) for n in range(1, N + 1))
    lam = tuple(delta_k(params, n - 1) for n in range(1, N + 1))
    a = (0j,) * N
    return RIRecurrence(c=c, lam=lam, a=a)


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
        def checked(name, seq, positive):
            out = []
            for k, x in enumerate(seq):
                v = float(x)
                if not math.isfinite(v):
                    raise DomainError(f"non-finite {name}[{k}]")
                if positive and not (v > 0):
                    raise DomainError(f"{name}[{k}] = {v} must be positive")
                out.append(v)
            return tuple(out)

        object.__setattr__(self, "j3_diag", checked("j3_diag", self.j3_diag, False))
        object.__setattr__(
            self, "j3_offdiag", checked("j3_offdiag", self.j3_offdiag, True)
        )
        object.__setattr__(self, "j5_diag", checked("j5_diag", self.j5_diag, False))
        object.__setattr__(self, "j5_off1", checked("j5_off1", self.j5_off1, False))
        object.__setattr__(
            self, "j5_off2", checked("j5_off2", self.j5_off2, True)
        )
        alpha = float(self.alpha)
        beta = float(self.beta)
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError("alpha must be finite and positive")
        if not math.isfinite(beta):
            raise DomainError("beta must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _pencil_required_length(pencil: JacobiPencil, n: int) -> None:
    # Row n touches b_n, a_n, alpha_n, beta_n, gamma_n.
    for name, seq in (
        ("j3_diag", pencil.j3_diag),
        ("j3_offdiag", pencil.j3_offdiag),
        ("j5_diag", pencil.j5_diag),
        ("j5_off1", pencil.j5_off1),
        ("j5_off2", pencil.j5_off2),
    ):
        if len(seq) <= n:
            raise DomainError(f"{name} holds {len(seq)} entries, row {n} needs more")


def _pencil_bands(pencils: Sequence[JacobiPencil], rows: int) -> np.ndarray:
    """(5, B, rows) array of b_k, a_k, alpha_k, beta_k, gamma_k for k < rows.

    Raises the DomainError of the first row that outruns a band, the same
    one a row-by-row pass would raise.
    """
    for pencil in pencils:
        bands = (pencil.j3_diag, pencil.j3_offdiag, pencil.j5_diag,
                 pencil.j5_off1, pencil.j5_off2)
        shortest = min(len(seq) for seq in bands)
        if shortest < rows:
            _pencil_required_length(pencil, shortest)
    out = np.empty((5, len(pencils), rows))
    for i, pencil in enumerate(pencils):
        out[0, i] = pencil.j3_diag[:rows]
        out[1, i] = pencil.j3_offdiag[:rows]
        out[2, i] = pencil.j5_diag[:rows]
        out[3, i] = pencil.j5_off1[:rows]
        out[4, i] = pencil.j5_off2[:rows]
    return out


def pencil_coeff_stack(pencils: Sequence[JacobiPencil], N: int) -> np.ndarray:
    """Coefficients of p_0..p_N for a stack of pencils, solved together.

    Entry [i, k, j] is the coefficient of x^j in p_k of pencils[i], so the
    result has shape (B, N+1, N+1) and is zero above the diagonal. Each row
    n = 0..N-2 is solved for p_{n+2} (see pencil_polynomials) on all
    pencils at once, so a pencil's coefficients do not depend on the stack
    it is solved in.
    """
    N = int(N)
    if N < 0:
        raise DomainError("N must be nonnegative")
    b, a, al, be, ga = _pencil_bands(pencils, max(N - 1, 0))
    P = np.zeros((len(pencils), N + 1, N + 1))
    P[:, 0, 0] = 1.0
    if N >= 1:
        P[:, 1, 0] = [pencil.beta for pencil in pencils]
        P[:, 1, 1] = [pencil.alpha for pencil in pencils]

    def times_linear(k, c0, c1):
        # p_k * (c0 + c1 x)
        out = P[:, k] * c0[:, None]
        out[:, 1:] += P[:, k, :-1] * c1[:, None]
        return out

    for n in range(0, N - 1):
        acc = P[:, n - 2] * ga[:, n - 2, None] if n >= 2 else 0.0
        if n >= 1:
            acc = acc + times_linear(n - 1, be[:, n - 1], -a[:, n - 1])
        acc = acc + times_linear(n, al[:, n], -b[:, n])
        acc = acc + times_linear(n + 1, be[:, n], -a[:, n])
        P[:, n + 2] = acc * (-1.0 / ga[:, n])[:, None]
    return P


def pencil_polynomials(pencil: JacobiPencil, N: int) -> list[Poly]:
    """p_0 = 1, p_1 = alpha*x + beta, then solve row n for p_{n+2}:

        gamma_n p_{n+2} = -[gamma_{n-2} p_{n-2} + (beta_{n-1} - x a_{n-1}) p_{n-1}
                           + (alpha_n - x b_n) p_n + (beta_n - x a_n) p_{n+1}]

    with p_{-2} = p_{-1} = 0 and gamma/a/beta at negative indices zero.
    deg p_n = n with positive leading coefficient (alpha, a_k, gamma_n > 0).
    This is pencil_coeff_stack on a stack of one.
    """
    P = pencil_coeff_stack([pencil], N)[0]
    return [Poly(row[: k + 1].tolist()) for k, row in enumerate(P)]


def pencil_row_terms(
    pencil: JacobiPencil, values: Sequence[complex], lam: complex, n: int
) -> tuple[complex, complex, complex, complex, complex]:
    """The five addends of scalar relation n at p_k(lam) = values[k]."""
    n = int(n)
    if n < 0:
        raise DomainError("row index must be nonnegative")
    if len(values) < n + 3:
        raise DomainError(f"row {n} needs p_0..p_{n + 2}")
    _pencil_required_length(pencil, n)
    lam = complex(lam)
    t0 = pencil.j5_off2[n - 2] * values[n - 2] if n >= 2 else 0j
    t1 = (
        (pencil.j5_off1[n - 1] - lam * pencil.j3_offdiag[n - 1]) * values[n - 1]
        if n >= 1
        else 0j
    )
    t2 = (pencil.j5_diag[n] - lam * pencil.j3_diag[n]) * values[n]
    t3 = (pencil.j5_off1[n] - lam * pencil.j3_offdiag[n]) * values[n + 1]
    t4 = pencil.j5_off2[n] * values[n + 2]
    return (t0, t1, t2, t3, t4)


def pencil_row_sums(
    pencils: Sequence[JacobiPencil], coeffs, lams, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and row scales of the first `rows` scalar relations.

    coeffs[i, k] holds the coefficients of p_k for pencils[i] (shape
    (B, K, D), K >= rows + 2, real or complex); lams holds the lambdas, of
    shape (L,) for all pencils or (B, L) per pencil. Returns two (B, rows, L)
    arrays: the sum of the five addends of pencil_row_terms, and the sum of
    their moduli.
    """
    rows = int(rows)
    if rows < 0:
        raise DomainError("rows must be nonnegative")
    C = np.asarray(coeffs)
    if C.shape[1] < rows + 2:
        raise DomainError(f"{rows} rows need {rows + 2} polynomials")
    b, a, al, be, ga = (x[:, :, None] for x in _pencil_bands(pencils, rows))
    lam = np.broadcast_to(np.asarray(lams, dtype=complex),
                          (len(pencils), np.shape(lams)[-1]))[:, None, :]
    # A lambda far outside the spectrum can overflow the values; the
    # non-finite sums are the report, so numpy's warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.zeros(C.shape[:2] + lam.shape[-1:], dtype=complex)
        for j in range(C.shape[2] - 1, -1, -1):
            V = V * lam + C[:, :, j, None]
        r1, r2 = max(rows - 1, 0), max(rows - 2, 0)
        terms = np.zeros((5,) + V[:, :rows].shape, dtype=complex)
        terms[0, :, 2:] = ga[:, :r2] * V[:, :r2]
        terms[1, :, 1:] = (be[:, :r1] - lam * a[:, :r1]) * V[:, :r1]
        terms[2] = (al - lam * b) * V[:, :rows]
        terms[3] = (be - lam * a) * V[:, 1 : rows + 1]
        terms[4] = ga * V[:, 2 : rows + 2]
        return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def pencil_residual(
    pencil: JacobiPencil, polys: Sequence[Poly], lam, rows: int
) -> float:
    """Max modulus of the first `rows` scalar relations at lambda = lam,
    or over every lambda when lam is a sequence."""
    rows = int(rows)
    if rows < 0:
        raise DomainError("rows must be nonnegative")
    used = polys[: rows + 2]
    width = max((len(f.coeffs) for f in used), default=1)
    C = np.zeros((1, len(used), width), dtype=complex)
    for k, f in enumerate(used):
        C[0, k, : len(f.coeffs)] = f.coeffs
    total, _ = pencil_row_sums([pencil], C, np.atleast_1d(lam), rows)
    return float(np.abs(total).max(initial=0.0))


def chebyshev_eval(kind: str, k: int, x: float) -> float:
    """T_k(x) or U_k(x) by the shared three-term recurrence."""
    k = int(k)
    if k < 0:
        raise DomainError("index must be nonnegative")
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
    n = int(n)
    if n < 0:
        raise DomainError("order must be nonnegative")
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
