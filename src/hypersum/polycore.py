"""Dense complex-coefficient polynomials and their array kernels.

Everything else in the package builds on this module. Polynomials are
immutable, stored densely as coefficient tuples (index k = coefficient of
z^k), with the zero polynomial represented by the empty tuple. Arithmetic is
double-precision complex throughout; there is no exact-rational path because
all downstream checks are tolerance-based and parameters may be irrational.

Polynomial arithmetic is written once, on coefficient lists: coeff_sum,
coeff_difference, coeff_product, coeff_scale and coeff_derivative each
round in one fixed order and refuse the first non-finite coefficient
(poly_coeffs). Poly's +, -, *, scale and derivative wrap them, and the
list routes (R's expansion, the g_n and R_I recurrences) call them
directly, so every route rounds and refuses alike.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import numpy as np

from .errors import DomainError

# Hypergeometric constructors refuse degrees beyond this: factorial-sized
# prefactors overflow doubles near 171!, and the monic normalization is the
# binding constraint.
DEGREE_CAP = 170


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
    1/n! top coefficient of an exponential partial sum) are kept. A degree
    beyond DEGREE_CAP is a DomainError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        vals = [_as_coeff(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        if len(vals) - 1 > DEGREE_CAP:
            raise DomainError(
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
        """Largest coefficient modulus; 0.0 for the zero polynomial. A
        modulus beyond the float range is a DomainError naming its
        coefficient (finite_moduli)."""
        return max(finite_moduli(self.coeffs, "the coefficient of z^{k}"), default=0.0)

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
        return Poly(coeff_sum(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(coeff_difference(self.coeffs, other.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(coeff_product(self.coeffs, other.coeffs))

    def scale(self, s: complex) -> "Poly":
        return Poly(coeff_scale(self.coeffs, s))

    def derivative(self) -> "Poly":
        return Poly(coeff_derivative(self.coeffs))

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


def poly_coeffs(values: list[complex]) -> list[complex]:
    """The coefficients Poly(values) keeps, for a list of Python complex
    numbers: its DomainError for the first non-finite value, then the list
    without its trailing exact zeros. A finite sum vouches for every value,
    so only a sum that is not finite looks at the values one by one."""
    if not cmath.isfinite(sum(values, 0j)):
        for value in values:
            _as_coeff(value)
    while values and values[-1] == 0:
        values.pop()
    return values


def coeff_sum(a, b) -> list[complex]:
    """a + b for two coefficient lists as Poly keeps them: each
    coefficient of the longer list plus the other's, then poly_coeffs."""
    if len(a) < len(b):
        a, b = b, a
    return poly_coeffs([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def coeff_difference(a, b) -> list[complex]:
    """a - b: a plus b scaled by -1."""
    return coeff_sum(a, coeff_scale(b, -1.0))


def coeff_product(a, b) -> list[complex]:
    """a·b: coefficient k is 0j plus a_i·b_(k-i), added in ascending i.
    One pass over a per coefficient of b, in descending order, so that a
    short b, such as a linear factor, costs few passes."""
    if not a or not b:
        return []
    out = [0j] * (len(a) + len(b) - 1)
    for j in range(len(b) - 1, -1, -1):
        cj = b[j]
        out[j : j + len(a)] = [o + ci * cj for o, ci in zip(out[j : j + len(a)], a)]
    return poly_coeffs(out)


def coeff_scale(a, s) -> list[complex]:
    """s·a: each coefficient times complex(s)."""
    w = complex(s)
    return poly_coeffs([c * w for c in a])


def coeff_derivative(a) -> list[complex]:
    """a': coefficient k-1 is the int k times coefficient k."""
    return poly_coeffs([k * c for k, c in enumerate(a) if k > 0])


def coeff_table(rows, width: int) -> np.ndarray:
    """Coefficient lists as a table, one zero-padded row each."""
    table = np.zeros((len(rows), width), dtype=complex)
    for out, row in zip(table, rows):
        out[: len(row)] = row
    return table


def finite_moduli(values, name: str) -> list[float]:
    """|v| of every value, as Python's abs rounds it. A modulus beyond the
    float range with finite parts, where abs raises OverflowError, is a
    DomainError naming the first such value by name.format(k=its index)."""
    try:
        return [abs(v) for v in values]
    except OverflowError:
        k = next(k for k, v in enumerate(values) if math.isinf(modulus(v)))
        raise DomainError(f"the modulus of {name.format(k=k)} exceeds the "
                          f"float range: {values[k]!r}") from None


def complex_product(a, b) -> np.ndarray:
    """a·b elementwise for an array a (b an array or a number), rounded as
    Python's complex multiply rounds it: re = ar·br - ai·bi, im = ar·bi +
    ai·br as real ufuncs, never the multiply-adds numpy's complex multiply
    fuses."""
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def real_quotient(a, d) -> np.ndarray:
    """a/d elementwise for an array a and a real d != 0 (an array or a
    number), rounded as Python's complex division by complex(d) rounds it:
    its ratio b.imag/b.real is the signed zero 0.0/d, which turns an
    infinite part of a into a nan of the other part, as Python's does."""
    ratio = 0.0 / np.asarray(d, dtype=float)
    out = np.empty(np.broadcast_shapes(np.shape(a), ratio.shape), dtype=complex)
    out.real = (a.real + a.imag * ratio) / d
    out.imag = (a.imag - a.real * ratio) / d
    return out


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


def horner_rows(table: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """Value and mass of horner at finite points z for every row of a
    coefficient table (low to high, zero-padded): one pass over the
    columns for all rows and points. z broadcasts against (rows, 1): one
    point per row as a (rows, 1) array, shared points as a (P,) array.
    Each value and mass is the one horner's scalar path forms for the row
    at that point, its products rounded as Python's (complex_product) on
    the real and imaginary parts; the padding leaves them unchanged but
    for the sign of a zero."""
    z = np.asarray(z)
    zr, zi, r = z.real, z.imag, modulus(z)
    moduli = modulus(table)
    columns = zip(table.real.T[::-1, :, None], table.imag.T[::-1, :, None],
                  moduli.T[::-1, :, None])
    shape = np.broadcast_shapes((len(table), 1), z.shape)
    re, im, mass = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    # Python float arithmetic overflows to inf without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for c_re, c_im, m in columns:
            re, im = re * zr - im * zi + c_re, re * zi + im * zr + c_im
            mass = mass * r + m
    value = np.empty(shape, dtype=complex)
    value.real, value.imag = re, im
    # At z = 0 horner skips mass·r, so its mass is |c_0|.
    return value, np.where(r == 0, moduli[:, :1], mass)
