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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .partial_sums import HypParams, _check_cap, _coeff_seq, gn_direct
from .polycore import Poly


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

    def coeff(self, l: int) -> Poly:
        if 0 <= l < len(self.coeffs):
            return self.coeffs[l]
        return Poly()

    def __eq__(self, other) -> bool:
        return isinstance(other, LinDiffOp) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"LinDiffOp({self.coeffs!r})"


def op_identity() -> LinDiffOp:
    return LinDiffOp((Poly((1 + 0j,)),))


def op_ddz() -> LinDiffOp:
    return LinDiffOp((Poly(), Poly((1 + 0j,))))


def op_theta() -> LinDiffOp:
    """theta = z·d/dz: c_1(z) = z, everything else zero."""
    return LinDiffOp((Poly(), Poly((0j, 1 + 0j))))


def op_add(A: LinDiffOp, B: LinDiffOp) -> LinDiffOp:
    n = max(len(A.coeffs), len(B.coeffs))
    return LinDiffOp(tuple(A.coeff(l) + B.coeff(l) for l in range(n)))


def op_scale(A: LinDiffOp, s: complex) -> LinDiffOp:
    return LinDiffOp(tuple(c.scale(s) for c in A.coeffs))


def op_sub(A: LinDiffOp, B: LinDiffOp) -> LinDiffOp:
    return op_add(A, op_scale(B, -1.0))


def op_apply(A: LinDiffOp, f: Poly) -> Poly:
    """Apply the operator: Sum_l c_l(z) · f^(l)(z)."""
    out = Poly()
    deriv = f
    for c in A.coeffs:
        if not c.is_zero and not deriv.is_zero:
            out = out + c * deriv
        deriv = deriv.derivative()
    return out


def op_compose(A: LinDiffOp, B: LinDiffOp) -> LinDiffOp:
    """Operator composition: apply(op_compose(A,B), f) == apply(A, apply(B, f)).

    Uses the Leibniz expansion: d^l (b_m(z) u) = Sum_i C(l,i) b_m^(i) u^(l-i),
    so the term a_l d^l ∘ b_m d^m contributes a_l·C(l,i)·b_m^(i) at derivative
    order m + l - i.
    """
    acc: dict[int, Poly] = {}
    for l, al in enumerate(A.coeffs):
        if al.is_zero:
            continue
        for m, bm in enumerate(B.coeffs):
            if bm.is_zero:
                continue
            deriv = bm
            for i in range(l + 1):
                if deriv.is_zero:
                    break
                order = m + l - i
                term = (al * deriv).scale(math.comb(l, i))
                acc[order] = acc.get(order, Poly()) + term
                deriv = deriv.derivative()
    if not acc:
        return LinDiffOp()
    top = max(acc)
    return LinDiffOp(tuple(acc.get(l, Poly()) for l in range(top + 1)))


def build_R(params: HypParams) -> LinDiffOp:
    """The order-rho operator R for the given parameters, expanded.

    Left part: d/dz composed after prod_j (theta + (b_j - 1)); right part:
    prod_j (a_j + theta). Products are composed in ascending j starting from
    the identity; the factors commute, the order is fixed for
    reproducibility. rho = max(p, q+1). A coefficient that overflows
    double precision raises DomainError naming the expansion of R.
    """
    try:
        left = op_identity()
        for bj in params.b:
            factor = op_add(op_theta(), op_scale(op_identity(), bj - 1))
            left = op_compose(left, factor)
        left = op_compose(op_ddz(), left)
        right = op_identity()
        for aj in params.a:
            factor = op_add(op_theta(), op_scale(op_identity(), aj))
            right = op_compose(right, factor)
        return op_sub(left, right)
    except DomainError as exc:
        raise DomainError(f"expanding R overflowed double precision: {exc}") from exc


def r_action(params: HypParams, coeffs) -> np.ndarray:
    """Coefficients of R f from the coefficients of f, in closed form.

    R is bidiagonal on monomials, R z^k = k·prod_j(b_j+k-1)·z^(k-1) -
    prod_j(a_j+k)·z^k, so coefficient m of R f is (m+1)·prod_j(b_j+m)·c_(m+1)
    - prod_j(a_j+m)·c_m. Agrees with op_apply(build_R(params), f) to roundoff
    of order eps·_application_mass, without expanding R.
    """
    c = np.asarray(coeffs, dtype=complex)
    m = np.arange(len(c), dtype=float)
    down = m[1:].astype(complex)
    for bj in params.b:
        down *= bj + m[:-1]
    diag = np.ones(len(c), dtype=complex)
    for aj in params.a:
        diag *= aj + m
    out = -diag * c
    out[:-1] += down * c[1:]
    return out


def kappa(params: HypParams, n: int) -> complex:
    """Normalizing prefactor n!(b_1)_n···(b_q)_n / ((a_1)_{n+1}···(a_p)_{n+1}).

    Computed from the incremental coefficient sequence as
    1 / (xi_n · prod_j (a_j + n)), which delays overflow the same way the
    coefficients do. The anchor identity is -kappa(params,n)·R g_n = z^n.
    """
    n = _check_cap(n)
    xi_n = _coeff_seq(params, n)[-1]
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


def r_image(params: HypParams, n: int) -> Poly:
    """-kappa_n · (R g_n): equal to the monomial z^n up to roundoff."""
    n = _check_cap(n)
    R = build_R(params)
    return op_apply(R, gn_direct(params, n)).scale(-kappa(params, n))


def verify_ode(params: HypParams, n: int) -> Poly:
    """Residual of the differential equation: theta(R g_n) - n·(R g_n).

    Exactly zero in exact arithmetic; callers compare its coefficients
    against a tolerance scaled by the application mass of R on g_n.
    """
    n = _check_cap(n)
    R = build_R(params)
    g = gn_direct(params, n)
    theta_R = op_compose(op_theta(), R)
    return op_apply(theta_R, g) - op_apply(R, g).scale(n)


def _application_mass(A: LinDiffOp, f: Poly) -> float:
    """Coefficient mass moved by op_apply(A, f): sum over derivative
    orders of L1(c_l) times max|coefficient of f^(l)|.

    op_apply sums coefficient products of this total size, so its output
    carries absolute roundoff of order eps times this mass no matter how
    small the exact image is. Residuals of identities about A f are only
    meaningful relative to this scale.
    """
    total = 0.0
    deriv = f
    for l in range(A.order + 1):
        if l > 0:
            deriv = deriv.derivative()
        c = A.coeff(l)
        if c.degree < 0:
            continue
        l1 = math.fsum(abs(c.coeff(k)) for k in range(c.degree + 1))
        total += l1 * deriv.max_coeff()
    return total
