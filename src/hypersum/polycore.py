"""Dense complex-coefficient polynomials and the Pochhammer symbol.

Everything else in the package builds on this module. Polynomials are
immutable, stored densely as coefficient tuples (index k = coefficient of
z^k), with the zero polynomial represented by the empty tuple. Arithmetic is
double-precision complex throughout; there is no exact-rational path because
all downstream checks are tolerance-based and parameters may be irrational.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DomainError

# Hypergeometric constructors refuse degrees beyond this: factorial-sized
# prefactors overflow doubles near 171!, and the monic normalization is the
# binding constraint.
DEGREE_CAP = 170

# Relative threshold below which trim_tiny treats a coefficient as roundoff.
TRIM_REL_TOL = 1e-14


def _as_coeff(value) -> complex:
    w = complex(value)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"non-finite coefficient: {value!r}")
    return w


class Poly:
    """Immutable dense polynomial over the complex numbers.

    Construction strips trailing coefficients that are exactly zero, so the
    highest stored coefficient of a nonzero polynomial is nonzero and
    degree = len(coeffs) - 1. Genuinely tiny trailing coefficients (e.g. the
    1/n! top coefficient of an exponential partial sum) are kept; callers
    whose answer depends on degree in the presence of roundoff should pass
    through trim_tiny first.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        vals = [_as_coeff(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        if len(vals) - 1 > DEGREE_CAP:
            raise ValueError(
                f"degree {len(vals) - 1} exceeds the cap {DEGREE_CAP}"
            )
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> complex:
        """Coefficient of z^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0j

    def max_coeff(self) -> float:
        """Largest coefficient modulus; 0.0 for the zero polynomial."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        w = complex(z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + other.scale(-1.0)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    def scale(self, s: complex) -> "Poly":
        w = complex(s)
        return Poly(c * w for c in self.coeffs)

    def shift_up(self) -> "Poly":
        """Multiply by z (used by the three-term recurrences)."""
        if self.is_zero:
            return self
        return Poly((0j,) + self.coeffs)

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def modulus(values):
    """|values| as Python's abs rounds it (libm's hypot of the parts, by
    np.hypot for anything but a Python number), but inf where the modulus
    exceeds the float range and abs raises OverflowError."""
    if type(values) in (complex, float, int):
        try:
            return abs(values)
        except OverflowError:
            return math.inf
    with np.errstate(over="ignore"):
        return np.hypot(np.real(values), np.imag(values))


def horner(coeffs, z):
    """Value, derivative and evaluation mass sum_k |c_k||z|^k at z.

    coeffs run low to high; z is a scalar or a numpy array of points. One
    nested pass computes all three. The mass is the scale of the rounding
    error in the value, so residuals are judged against it. The pass never
    forms |z|**k, which for partial sums at large |z| overflows long before
    the terms |c_k||z|^k do. A coefficient or scalar z whose modulus is
    beyond the float range reads as inf (see modulus), never as an
    OverflowError; an array of points keeps numpy's abs, which rounds some
    moduli differently from hypot. The mass is inf wherever a term is
    infinite, never nan: a product 0·inf in the pass multiplies terms that
    vanish (zero coefficients, or z = 0), so it is taken as 0.
    """
    scalar = not isinstance(z, np.ndarray)
    r = modulus(z) if scalar else abs(z)
    try:
        moduli = [abs(c) for c in coeffs]
    except OverflowError:
        moduli = modulus(np.asarray(coeffs, dtype=complex)).tolist()
    value = derivative = 0 * z
    mass = 0.0 if scalar else np.zeros(np.shape(r))
    for c, m in zip(reversed(coeffs), reversed(moduli)):
        derivative = derivative * z + value
        value = value * z + c
        if scalar:
            mass = (mass * r if mass and r else 0.0) + m
        else:
            vanish = (mass == 0) | (r == 0)
            mass = np.where(vanish, 0.0, mass) * np.where(vanish, 0.0, r) + m
    return value, derivative, mass


def trim_tiny(p: Poly, rel_tol: float = TRIM_REL_TOL) -> Poly:
    """Strip trailing coefficients below rel_tol × (max coefficient modulus).

    For callers holding a polynomial whose top coefficients are roundoff
    artifacts of cancellation, to be applied before degree-sensitive
    operations such as root finding. Never applied automatically: partial
    sums legitimately carry top coefficients many orders below their largest
    one, and those must survive.
    """
    scale = p.max_coeff()
    if scale == 0.0:
        return Poly()
    cutoff = rel_tol * scale
    vals = list(p.coeffs)
    while vals and abs(vals[-1]) < cutoff:
        vals.pop()
    return Poly(vals)


def pochhammer(c: complex, k: int) -> complex:
    """Shifted factorial (c)_k = c(c+1)···(c+k-1), with (c)_0 = 1.

    Computed as a running product, so pochhammer(c, k+1) equals
    pochhammer(c, k)·(c+k) exactly as floating-point operations.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    w = complex(c)
    out = 1 + 0j
    for m in range(k):
        out *= w + m
    return out
