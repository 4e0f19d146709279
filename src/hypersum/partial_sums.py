"""Partial sums of the generalized hypergeometric series.

The series with numerator parameters a_1..a_p and denominator parameters
b_1..b_q has coefficients

    xi_k = (a_1)_k ··· (a_p)_k / ((b_1)_k ··· (b_q)_k · k!),

and g_n is its degree-n truncation. G_n is the monic rescaling of g_n. Both
come in two independently computed flavors: directly from the coefficients,
and via their three-term recurrences, which downstream tests compare. The
module also carries the generalization to an arbitrary power series with
nonzero coefficients (f_n, F_n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .polycore import DEGREE_CAP, Poly

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


def _coeff_ratio(params: HypParams, k: int) -> complex:
    """xi_{k+1} / xi_k = prod(a_j + k) / (prod(b_l + k) · (k+1))."""
    num = 1 + 0j
    for aj in params.a:
        num *= aj + k
    den = (k + 1) + 0j
    for bl in params.b:
        den *= bl + k
    return num / den


def _coeff_seq(params: HypParams, n: int) -> list[complex]:
    """xi_0 .. xi_n, built incrementally to delay overflow.

    Raises DomainError at the first xi_k that overflowed (is not finite).
    """
    xi = 1 + 0j
    out = [xi]
    for k in range(n):
        xi *= _coeff_ratio(params, k)
        if not cmath.isfinite(xi):
            raise DomainError(f"non-finite coefficient xi_{k + 1}: {xi!r}")
        out.append(xi)
    return out


def hyp_coeff(params: HypParams, k: int) -> complex:
    """Series coefficient xi_k; empty parameter products are 1."""
    k = _check_cap(k)
    return _coeff_seq(params, k)[-1]


def gn_direct(params: HypParams, n: int) -> Poly:
    """Degree-n partial sum g_n straight from the coefficients xi_0..xi_n."""
    n = _check_cap(n)
    seq = _coeff_seq(params, n)
    if seq[-1] == 0:
        raise DomainError(
            f"coefficient xi_{n} underflowed to zero; degree would collapse"
        )
    return Poly(seq)


def delta_k(params: HypParams, k: int) -> complex:
    """Recurrence coefficient: delta_0 = 0 and, for k >= 1,

    delta_k = k · (b_1+k-1)···(b_q+k-1) / ((a_1+k-1)···(a_p+k-1)).
    """
    k = _check_cap(k)
    if k == 0:
        return 0j
    num = k + 0j
    for bl in params.b:
        num *= bl + (k - 1)
    den = 1 + 0j
    for aj in params.a:
        den *= aj + (k - 1)
    return num / den


def gn_by_recurrence(params: HypParams, N: int) -> list[Poly]:
    """g_0..g_N via the three-term relation, independent of gn_direct.

    With g_{-1} := 0 the relation reads

        (n+1)(b_1+n)···(b_q+n) / ((a_1+n)···(a_p+n)) · (g_{n+1} - g_n)
            = z (g_n - g_{n-1}),

    whose prefactor is delta_{n+1}.
    """
    N = _check_cap(N)
    out = [Poly((1 + 0j,))]
    prev = Poly()  # g_{-1} := 0
    for n in range(N):
        d = delta_k(params, n + 1)
        step = (out[-1] - prev).shift_up().scale(1 / d)
        prev = out[-1]
        out.append(prev + step)
    return out


def Gn_monic(params: HypParams, n: int) -> Poly:
    """Monic rescaling G_n = (n!(b_1)_n···(b_q)_n / ((a_1)_n···(a_p)_n))·g_n.

    The prefactor is 1/xi_n, so coefficient k of G_n is xi_k/xi_n and the
    leading coefficient is exactly 1.
    """
    n = _check_cap(n)
    seq = _coeff_seq(params, n)
    top = seq[-1]
    if top == 0:
        raise DomainError(
            f"coefficient xi_{n} underflowed to zero; monic scaling impossible"
        )
    coeffs = [x / top for x in seq]
    if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
        raise DomainError(f"monic rescaling of g_{n} overflowed")
    return Poly(coeffs)


def Gn_by_recurrence(params: HypParams, N: int) -> list[Poly]:
    """G_0..G_N via G_n = (z + delta_n) G_{n-1} - delta_{n-1} z G_{n-2},
    with G_{-1} := 0; independent of Gn_monic."""
    N = _check_cap(N)
    out = [Poly((1 + 0j,))]
    prev = Poly()  # G_{-1} := 0
    for n in range(1, N + 1):
        d_n = delta_k(params, n)
        d_n1 = delta_k(params, n - 1)
        cur = out[-1]
        nxt = cur * Poly((d_n, 1 + 0j)) - prev.shift_up().scale(d_n1)
        prev = cur
        out.append(nxt)
    return out


def generic_partial_sums(
    d: PowerSeriesCoeffs, N: int
) -> tuple[list[Poly], list[Poly]]:
    """Partial sums f_n of an arbitrary power series and their monic forms.

    f_n collects d_0..d_n; F_n = f_n/d_n. The F_n satisfy
    F_n = (z + d_{n-1}/d_n) F_{n-1} - (d_{n-2}/d_{n-1}) z F_{n-2}
    with F_{-1} := 0 and d_{-1} := 1, which tests verify against this
    construction.
    """
    N = int(N)
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N >= len(d):
        raise DomainError(f"N={N} needs {N + 1} coefficients, have {len(d)}")
    fs, Fs = [], []
    for n in range(N + 1):
        f = Poly(d.d[: n + 1])
        fs.append(f)
        Fs.append(f.scale(1 / d.d[n]))
    return fs, Fs
