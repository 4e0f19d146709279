"""Partial sums of the generalized hypergeometric series.

The series with numerator parameters a_1..a_p and denominator parameters
b_1..b_q has coefficients

    xi_k = (a_1)_k ··· (a_p)_k / ((b_1)_k ··· (b_q)_k · k!),

and g_n is its degree-n truncation. G_n is the monic rescaling of g_n. Both
come in two independently computed flavors: directly from the coefficients,
and via their three-term recurrences, which downstream tests compare. Each
recurrence is an engine on coefficient rows, one per degree (_gn_rows here,
the R_I engine of ri_pencils for the monic one) on polycore's list
kernels, which Poly arithmetic wraps. Only read_family multiplies out
xi_0..xi_N: the family record, which refuses from the first zero or
non-finite xi_k on. Every route reads a prefix of it. The module also
carries the coefficients of an arbitrary power series with nonzero
coefficients (PowerSeriesCoeffs), which the kernel decompositions take.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .polycore import DEGREE_CAP, Poly, coeff_difference, coeff_scale, coeff_sum, coeff_table

# Parameters this close to {0, -1, -2, ...} are rejected at construction:
# the coefficient ratios degenerate there.
PARAM_EXCLUSION_TOL = 1e-12


def _checked_param(value) -> complex:
    w = complex(value)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"non-finite parameter: {value!r}")
    m = round(-w.real)
    if 0 <= m <= DEGREE_CAP and abs(w + m) < PARAM_EXCLUSION_TOL:
        raise DomainError(
            f"parameter {w} lies within {PARAM_EXCLUSION_TOL} of the "
            "excluded set {0, -1, -2, ...}"
        )
    return w


def _check_cap(n: int) -> int:
    n = int(n)
    if n < 0:
        raise DomainError("order must be nonnegative")
    if n > DEGREE_CAP:
        raise DomainError(f"order {n} exceeds the cap {DEGREE_CAP}")
    return n


@dataclass(frozen=True)
class HypParams:
    """Parameter record (a_1..a_p; b_1..b_q).

    p = len(a) and q = len(b); empty tuples mean the corresponding product is
    absent (and equals 1). Every parameter must avoid {0, -1, -2, ...}.
    """

    a: tuple[complex, ...] = ()
    b: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_checked_param(x) for x in self.a))
        object.__setattr__(self, "b", tuple(_checked_param(x) for x in self.b))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class PowerSeriesCoeffs:
    """Coefficients d_0, d_1, ..., d_N of a power series, all nonzero."""

    d: tuple[complex, ...]

    def __post_init__(self):
        vals = []
        for k, x in enumerate(self.d):
            w = complex(x)
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise DomainError(f"non-finite series coefficient d_{k}")
            if abs(w) < 1e-300:
                raise DomainError(f"series coefficient d_{k} is (near) zero")
            vals.append(w)
        object.__setattr__(self, "d", tuple(vals))

    def __len__(self) -> int:
        return len(self.d)


def _param_products(params: HypParams, k: int) -> tuple[complex, complex]:
    """(prod(a_j + k), (k+1) · prod(b_l + k)): numerator and denominator of
    xi_{k+1} / xi_k, and the reverse of delta_{k+1}."""
    num = 1 + 0j
    for aj in params.a:
        num *= aj + k
    den = (k + 1) + 0j
    for bl in params.b:
        den *= bl + k
    return num, den


def _coeff_ratio(params: HypParams, k: int) -> complex:
    """xi_{k+1} / xi_k = prod(a_j + k) / (prod(b_l + k) · (k+1))."""
    num, den = _param_products(params, k)
    return num / den


@dataclass(frozen=True)
class Family:
    """One family's coefficient sequence, read once (read_family): xi_0..xi_m
    and, where the read stopped short, the DomainError of xi_{m+1}, recorded
    rather than raised. Readers take prefixes of it; the verify checks keep
    their monic comparison on it (monic, by degree).
    """

    params: HypParams
    xi: tuple[complex, ...]
    error: Optional[DomainError] = None
    monic: dict = field(default_factory=dict, repr=False, compare=False)

    def seq(self, N: int) -> tuple[complex, ...]:
        """xi_0..xi_N, the coefficients of g_N; raises the recorded error
        from the failing degree on."""
        if N >= len(self.xi):
            raise self.error or ValueError(f"family read to degree {len(self.xi) - 1}")
        return self.xi[: N + 1]

    def table(self, N: int) -> np.ndarray:
        """The lower-triangular (N+1, N+1) table of seq(N): row n is g_n."""
        return np.tril(np.tile(np.array(self.seq(N), dtype=complex), (N + 1, 1)))


def read_family(params: HypParams, N: int) -> Family:
    """The family record of params read to degree N, built incrementally
    (xi_k = xi_{k-1}·_coeff_ratio) to delay overflow. The read stops at the
    first xi_k that is zero or not finite and records that coefficient's
    error; a zero xi_k before a non-finite xi_{k+1} is the underflow at k.
    Only a degree outside 0..DEGREE_CAP is raised."""
    N = _check_cap(N)
    xi, out = 1 + 0j, [1 + 0j]
    for k in range(1, N + 1):
        xi *= _coeff_ratio(params, k - 1)
        if xi == 0 or not cmath.isfinite(xi):
            message = f"non-finite coefficient xi_{k}: {xi!r}" if xi else (
                f"coefficient xi_{k} underflowed to zero; degree would collapse")
            return Family(params, tuple(out), DomainError(message))
        out.append(xi)
    return Family(params, tuple(out))


def hyp_coeff(params: HypParams, k: int) -> complex:
    """Series coefficient xi_k, the last entry of the family record read to
    degree k; empty parameter products are 1."""
    return read_family(params, k).seq(k)[-1]


def gn_direct(params: HypParams, n: int) -> Poly:
    """Degree-n partial sum g_n: the family record's xi_0..xi_n."""
    return Poly(read_family(params, n).seq(n))


def delta_k(params: HypParams, k: int) -> complex:
    """Recurrence coefficient: delta_0 = 0 and, for k >= 1,

    delta_k = k · (b_1+k-1)···(b_q+k-1) / ((a_1+k-1)···(a_p+k-1)).

    A ratio that is not finite (its products overflowed) is a DomainError,
    as it is in the T-fraction built from it (tfraction_from_hyp).
    """
    k = _check_cap(k)
    if k == 0:
        return 0j
    num, den = _param_products(params, k - 1)
    d = den / num
    if not cmath.isfinite(d):
        raise DomainError(f"non-finite delta_{k}: {d!r}")
    return d


def _gn_rows(params: HypParams, N: int) -> list[list[complex]]:
    """The coefficients of g_0..g_N by the three-term relation, as
    gn_by_recurrence's Poly arithmetic forms and keeps them: g_{n+1} is g_n
    plus z·(g_n - g_{n-1})/delta_{n+1}, one list step per degree by
    polycore's kernels, which Poly arithmetic wraps."""
    N = _check_cap(N)
    rows, prev = [[1 + 0j]], []  # g_0, and g_{-1} := 0
    for n in range(N):
        d = delta_k(params, n + 1)
        diff = coeff_difference(rows[-1], prev)
        step = coeff_scale([0j] + diff, 1 / d) if diff else []
        prev = rows[-1]
        rows.append(coeff_sum(prev, step))
    return rows


def gn_by_recurrence(params: HypParams, N: int) -> list[Poly]:
    """g_0..g_N via the three-term relation, independent of gn_direct.

    With g_{-1} := 0 the relation reads

        (n+1)(b_1+n)···(b_q+n) / ((a_1+n)···(a_p+n)) · (g_{n+1} - g_n)
            = z (g_n - g_{n-1}),

    whose prefactor is delta_{n+1}. This is the engine _gn_rows, its rows
    as Poly, once the family record shows gn_direct would not refuse.
    """
    read_family(params, N).seq(N)
    return [Poly(row) for row in _gn_rows(params, N)]


def Gn_monic(params: HypParams, n: int) -> Poly:
    """Monic rescaling G_n = (n!(b_1)_n···(b_q)_n / ((a_1)_n···(a_p)_n))·g_n.

    The prefactor is 1/xi_n, so coefficient k of G_n is xi_k/xi_n and the
    leading coefficient is exactly 1.
    """
    return Poly(_monic_coeffs(read_family(params, n).seq(n)))


def _monic_coeffs(seq: Sequence[complex]) -> list[complex]:
    """Coefficients xi_k / xi_n of G_n, k = 0..n, from seq = xi_0..xi_n, a
    prefix of a family record (so xi_n is nonzero), by Python complex
    division. Refuses a quotient that overflowed."""
    coeffs = [x / seq[-1] for x in seq]
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError(f"monic rescaling of g_{len(seq) - 1} overflowed")
    return coeffs


def _monic_table(seq: Sequence[complex]) -> np.ndarray:
    """Row n holds _monic_coeffs(seq[:n + 1]), zero above the diagonal; it
    raises their error for the first bad degree."""
    return coeff_table([_monic_coeffs(seq[: n + 1]) for n in range(len(seq))], len(seq))


def Gn_by_recurrence(params: HypParams, N: int) -> list[Poly]:
    """G_0..G_N via G_n = (z + delta_n) G_{n-1} - delta_{n-1} z G_{n-2},
    with G_{-1} := 0: the R_I engine of ri_pencils run on the T-fraction
    (tfraction_from_hyp). Independent of Gn_monic."""
    from .ri_pencils import ri_generate, tfraction_from_hyp

    N = _check_cap(N)
    return ri_generate(tfraction_from_hyp(params, N), N)[0]

