"""Linear differential operators with polynomial coefficients.

An operator is stored expanded, as the coefficient list of Sum_l c_l(z) d^l:
index l holds the polynomial multiplying the l-th derivative. The module
builds theta = z·d/dz and the annihilator-style operator

    R = (d/dz) · prod_{j=1..q} (theta + b_j - 1)  -  prod_{j=1..p} (a_j + theta)

(empty products are the identity), whose order is rho = max(p, q+1). Two
identities anchor everything downstream: applied to the degree-n partial sum
g_n, the rescaled image -kappa_n·R g_n is the monomial z^n, and consequently
theta(R g_n) - n·R g_n = 0. Both are exposed as operations returning residual
material rather than booleans, so callers choose their tolerances.

R is expanded on coefficient lists: build_R and op_compose run one
Leibniz engine, _compose, on operators held as lists of coefficient lists,
with polycore's list kernels, and build one LinDiffOp at the end.

Operators are applied by one engine, _apply_stack, to a stack of
polynomials held as the rows of a complex array, each row rounded as Poly
arithmetic rounds it alone; op_apply is that engine on a stack of one, and
_mass_stack measures the coefficient mass the engine moves per row. The
engine reports no errors of its own: an overflow leaves a non-finite
coefficient in its row, which op_apply refuses as Poly does and the ode
check refuses naming the stage and degree.
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from .errors import DomainError
from .partial_sums import HypParams, _check_cap, gn_direct, read_family
from .polycore import (Poly, coeff_derivative, coeff_difference, coeff_product, coeff_scale,
                       coeff_sum, complex_product, modulus)


class LinDiffOp:
    """Immutable expanded operator Sum_l coeffs[l](z) · d^l/dz^l.

    The zero operator is the empty tuple; otherwise the top coefficient
    polynomial is nonzero and order = len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        vals = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while vals and vals[-1].is_zero:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("LinDiffOp is immutable")

    @property
    def order(self) -> int:
        """Highest derivative order with nonzero coefficient; -1 if zero."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, LinDiffOp) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"LinDiffOp({self.coeffs!r})"


def op_theta() -> LinDiffOp:
    """theta = z·d/dz: c_1(z) = z, everything else zero."""
    return LinDiffOp((Poly(), Poly((0j, 1 + 0j))))


def _stack_of_one(f: Poly) -> np.ndarray:
    return np.array([f.coeffs], dtype=complex).reshape(1, -1)


def _derivatives(f: np.ndarray, count: int) -> list[np.ndarray]:
    """f, f', ..., f^(count) of every row of the complex stack f. Each is
    the derivative of the one before, coefficient k-1 being k times
    coefficient k, never a precomputed falling factorial; the product is
    the complex one Poly.derivative forms, (k + 0j)·c (complex_product). A
    derivative that overflowed holds inf or nan."""
    out = [f]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count):
            d = out[-1][:, 1:]
            out.append(complex_product(d, np.arange(1, d.shape[1] + 1, dtype=float)))
    return out


def _apply_stack(A: LinDiffOp, f: np.ndarray) -> np.ndarray:
    """Sum_l c_l(z) · f^(l)(z) for every row of the complex stack f
    (B, K), one polynomial per row, low to high: the rows of the image.

    Every row is rounded as Poly arithmetic rounds it alone: each complex
    product rounds as Python's (complex_product), and c_l·f^(l) accumulates
    over the coefficients c_l[i], i ascending, into a zeroed buffer that is
    then added to the running sum, in l order. Only the derivatives up to
    the order of A are formed. An overflow anywhere leaves a non-finite
    coefficient in its row's image; the caller refuses it.
    """
    B, K = f.shape
    derivs = _derivatives(f, A.order)
    terms = [
        (l, c.coeffs) for l, c in enumerate(A.coeffs) if not c.is_zero and l < K
    ]
    width = max([K] + [len(c) + K - 1 - l for l, c in terms])
    out = np.zeros((B, width), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for l, coeffs in terms:
            d = derivs[l]
            span = d.shape[1]
            prod = np.zeros((B, width), dtype=complex)
            for i, ci in enumerate(coeffs):
                prod[:, i : i + span] += complex_product(d, ci)
            out = out + prod
    return out


def op_apply(A: LinDiffOp, f: Poly) -> Poly:
    """Apply the operator: Sum_l c_l(z) · f^(l)(z). The stack engine
    _apply_stack on a stack of one; an image that overflowed is the
    DomainError Poly raises on its first non-finite coefficient."""
    return Poly(_apply_stack(A, _stack_of_one(f))[0].tolist())


def _compose(A: list, B: list) -> list:
    """A∘B for operators held as lists of coefficient lists (entry l: the
    coefficient of d^l), by the Leibniz expansion d^l (b_m(z) u) = Sum_i
    C(l,i) b_m^(i) u^(l-i): the term a_l d^l ∘ b_m d^m adds a_l·C(l,i)·b_m^(i)
    at derivative order m + l - i, in ascending l, m, i. The result may end
    in empty entries."""
    acc: dict[int, list[complex]] = {}
    for l, al in enumerate(A):
        if not al:
            continue
        for m, deriv in enumerate(B):
            for i in range(l + 1):
                if not deriv:
                    break
                term = coeff_scale(coeff_product(al, deriv), math.comb(l, i))
                acc[m + l - i] = coeff_sum(acc.get(m + l - i, []), term)
                deriv = coeff_derivative(deriv)
    return [acc.get(k, []) for k in range(max(acc, default=-1) + 1)]


def op_compose(A: LinDiffOp, B: LinDiffOp) -> LinDiffOp:
    """Operator composition: apply(op_compose(A,B), f) == apply(A, apply(B, f)).
    The engine _compose on the coefficients of A and B."""
    return LinDiffOp(_compose([c.coeffs for c in A.coeffs], [c.coeffs for c in B.coeffs]))


def _theta_plus(s: complex) -> list:
    """theta + s as coefficient lists: s on d^0, z on d^1."""
    return [coeff_scale([1 + 0j], s), [0j, 1 + 0j]]


def build_R(params: HypParams) -> LinDiffOp:
    """The order-rho operator R for the given parameters, expanded.

    Left part: d/dz composed after prod_j (theta + (b_j - 1)); right part:
    prod_j (a_j + theta). Products are composed in ascending j starting from
    the identity; the factors commute, the order is fixed for
    reproducibility. rho = max(p, q+1). A coefficient that overflows
    double precision raises DomainError naming the expansion of R.
    """
    try:
        left = [[1 + 0j]]
        for bj in params.b:
            left = _compose(left, _theta_plus(bj - 1))
        left = _compose([[], [1 + 0j]], left)
        right = [[1 + 0j]]
        for aj in params.a:
            right = _compose(right, _theta_plus(aj))
        return LinDiffOp([coeff_difference(x, y)
                          for x, y in zip_longest(left, right, fillvalue=[])])
    except DomainError as exc:
        raise DomainError(f"expanding R overflowed double precision: {exc}") from exc


def r_action(params: HypParams, coeffs) -> np.ndarray:
    """Coefficients of R f from the coefficients of f, in closed form.

    R is bidiagonal on monomials, R z^k = k·prod_j(b_j+k-1)·z^(k-1) -
    prod_j(a_j+k)·z^k, so coefficient m of R f is (m+1)·prod_j(b_j+m)·c_(m+1)
    - prod_j(a_j+m)·c_m. Agrees with op_apply(build_R(params), f) to roundoff
    of order eps·_application_mass, without expanding R. Acts on the last
    axis. Products are out of place: numpy's in-place complex multiply
    rounds a one-element array without FMA, unlike a longer one. A
    coefficient that overflows is a DomainError naming it (and its row,
    for a stack of rows).
    """
    c = np.asarray(coeffs, dtype=complex)
    m = np.arange(c.shape[-1], dtype=float)
    with np.errstate(all="ignore"):
        down = math.prod((bj + m[:-1] for bj in params.b), start=m[1:].astype(complex))
        diag = math.prod((aj + m for aj in params.a), start=np.ones(len(m), dtype=complex))
        out = -diag * c
        out[..., :-1] += down * c[..., 1:]
    finite = np.isfinite(out)
    if not finite.all():
        *row, k = np.argwhere(~finite)[0].tolist()
        subject = f"R applied to row {', '.join(map(str, row))}" if row else "R f"
        raise DomainError(f"{subject} overflowed double precision at its "
                          f"coefficient of z^{k}: {complex(out[(*row, k)])!r}")
    return out


def kappa(params: HypParams, n: int) -> complex:
    """Normalizing prefactor n!(b_1)_n···(b_q)_n / ((a_1)_{n+1}···(a_p)_{n+1}).

    Computed from the family record's xi_n as 1 / (xi_n · prod_j (a_j + n)),
    which delays overflow the same way the coefficients do. The anchor
    identity is -kappa(params,n)·R g_n = z^n.
    """
    return _kappa_from_xi(params, n, read_family(params, n).seq(n)[-1])


def _kappa_from_xi(params: HypParams, n: int, xi_n: complex) -> complex:
    """kappa_n from xi_n, the last entry of the coefficient sequence."""
    den = xi_n
    for aj in params.a:
        den *= aj + n
    if den == 0:
        raise DomainError(f"prefactor at n={n} overflowed (xi underflow)")
    if not (math.isfinite(den.real) and math.isfinite(den.imag)):
        raise DomainError(f"prefactor at n={n} underflowed (denominator overflow)")
    out = 1 / den
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise DomainError(f"prefactor at n={n} overflowed double precision")
    return out


def _stage(name: str, compute, *args):
    """compute(*args), its refusal of an overflowed coefficient naming the stage."""
    try:
        return compute(*args)
    except DomainError as exc:
        raise DomainError(f"{name} overflowed double precision: {exc}") from exc


def r_image(params: HypParams, n: int) -> Poly:
    """-kappa_n · (R g_n): equal to the monomial z^n up to roundoff. An
    overflow names its stage and degree, as in the ode check."""
    n = _check_cap(n)
    R = build_R(params)
    Rg = _stage(f"R g_{n}", op_apply, R, gn_direct(params, n))
    return _stage(f"kappa_{n}·R g_{n}", Rg.scale, -kappa(params, n))


def verify_ode(params: HypParams, n: int) -> Poly:
    """Residual of the differential equation: theta(R g_n) - n·(R g_n).

    Exactly zero in exact arithmetic; callers compare its coefficients
    against a tolerance scaled by the application mass of R on g_n. An
    overflow names its stage and degree, as in the ode check.
    """
    n = _check_cap(n)
    R = build_R(params)
    g = gn_direct(params, n)
    theta_R = op_compose(op_theta(), R)
    Rg = _stage(f"R g_{n}", op_apply, R, g)
    theta_Rg = _stage(f"theta(R g_{n})", op_apply, theta_R, g)
    return _stage(f"theta(R g_{n}) - n·R g_{n}", lambda: theta_Rg - Rg.scale(n))


def _mass_stack(A: LinDiffOp, f: np.ndarray) -> np.ndarray:
    """_application_mass of every row of the complex stack f, one float per
    row, accumulated over l in the same order. A derivative that overflowed
    makes its row's mass inf or nan."""
    derivs = _derivatives(f, A.order)
    total = np.zeros(f.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for l, c in enumerate(A.coeffs):
            if c.is_zero:
                continue
            l1 = math.fsum(modulus(c.coeffs).tolist())
            d = derivs[l]
            total = total + l1 * np.hypot(d.real, d.imag).max(axis=1, initial=0.0)
    return total


def _application_mass(A: LinDiffOp, f: Poly) -> float:
    """Coefficient mass moved by op_apply(A, f): sum over derivative
    orders of L1(c_l) times max|coefficient of f^(l)|.

    op_apply sums coefficient products of this total size, so its output
    carries absolute roundoff of order eps times this mass no matter how
    small the exact image is. Residuals of identities about A f are only
    meaningful relative to this scale. _mass_stack on a stack of one.
    """
    return float(_mass_stack(A, _stack_of_one(f))[0])
