"""Derivative-weighted inner products on the unit circle.

The bilinear form pairs two polynomials f, h through the rank-one matrix
M(z) = (c_0(z),...,c_rho(z))^T (conj c_0(z),...,conj c_rho(z)) built from the
expansion coefficients of the operator R, integrated against normalized arc
length on |z| = 1:

    <f, h> = integral of (f, f', ..., f^(rho)) M (conj of same for h) dmu_0.

Rank-one structure collapses this to (Rf)(z)·conj((Rh)(z)) pointwise, and
on the unit circle the integral of a product of polynomials is the inner
product of their coefficient vectors (Parseval). sobolev_gram evaluates it
that way, from the closed-form coefficients of R g_n. sobolev_inner
integrates the pointwise product on equispaced nodes with uniform weights,
which is exact for the trigonometric-polynomial integrands arising here;
it, and a debug path materializing M and the derivative vectors, are kept
as oracles for the Gram matrix.

Under this form the partial sums g_0, g_1, ... are orthogonal, with squared
norms |kappa_n|^{-2} (the image identity -kappa_n·R g_n = z^n turns the Gram
matrix into the Gram matrix of monomials).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operators import LinDiffOp, build_R, op_apply, r_action
from .partial_sums import HypParams, _check_cap, _coeff_seq
from .polycore import Poly


@dataclass(frozen=True)
class QuadratureRule:
    """Equispaced angles tau_j = 2·pi·j/N with uniform weights 1/N.

    Exact for trigonometric polynomials of degree < N by orthogonality of
    the N-th roots of unity.
    """

    n_nodes: int

    def __post_init__(self):
        if int(self.n_nodes) < 1:
            raise DomainError("node count must be >= 1")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))

    @property
    def angles(self) -> tuple[float, ...]:
        N = self.n_nodes
        return tuple(2.0 * math.pi * j / N for j in range(N))

    @property
    def points(self) -> tuple[complex, ...]:
        return tuple(cmath.exp(1j * t) for t in self.angles)

    def integrate(self, values) -> complex:
        """Mean of the sampled values, accumulated with exact summation.

        math.fsum gives a correctly rounded sum, so the result does not
        depend on the order of the nodes.
        """
        vals = [complex(v) for v in values]
        if len(vals) != self.n_nodes:
            raise DomainError("one value per node required")
        re = math.fsum(v.real for v in vals)
        im = math.fsum(v.imag for v in vals)
        return complex(re / self.n_nodes, im / self.n_nodes)


def monomial_quadrature_defect(rule: QuadratureRule, k: int, m: int) -> float:
    """|rule applied to z^k·conj(z)^m  minus the exact value (1 if k == m)|.

    The exact value holds whenever N > k + m; this is the exactness
    sub-check used by tests and the verification suite.
    """
    vals = [z**k * (z.conjugate() ** m) for z in rule.points]
    exact = 1.0 if k == m else 0.0
    return abs(rule.integrate(vals) - exact)


@dataclass(frozen=True)
class SobolevForm:
    """Coefficient polynomials c_0..c_rho of R, defining the rank-one form."""

    c: tuple[Poly, ...]
    rho: int

    def as_operator(self) -> LinDiffOp:
        return LinDiffOp(self.c)


def build_sobolev_form(params: HypParams) -> SobolevForm:
    """Form built from the expansion coefficients of R; rho = max(p, q+1)."""
    R = build_R(params)
    rho = max(params.p, params.q + 1)
    # R has order exactly rho; pad defensively so len(c) == rho + 1 holds.
    c = tuple(R.coeff(l) for l in range(rho + 1))
    return SobolevForm(c=c, rho=rho)


def auto_node_count(n_max: int, rho: int) -> int:
    """2(n_max + rho) + 8 rounded up to a power of two.

    Covers the safe bound N >= deg f + deg h + 2·rho + 1 for f, h of degree
    up to n_max; the power of two fixes a predictable accumulation order.
    """
    raw = 2 * (int(n_max) + int(rho)) + 8
    return 1 << (raw - 1).bit_length()


def _require_enough_nodes(form: SobolevForm, f: Poly, h: Poly, N: int) -> None:
    need = max(f.degree, 0) + max(h.degree, 0) + 2 * form.rho + 1
    if N < need:
        raise DomainError(
            f"{N} nodes alias the integrand; need at least {need}"
        )


def sobolev_inner(form: SobolevForm, f: Poly, h: Poly, N: int) -> complex:
    """(1/N) Sum_j (Rf)(e^{i tau_j}) · conj((Rh)(e^{i tau_j})).

    Equals the arc-length integral of (Rf)·conj(Rh) exactly up to roundoff
    because the integrand is a trigonometric polynomial of degree < N; node
    counts below the safe bound are refused rather than silently aliased.
    """
    rule = QuadratureRule(N)
    _require_enough_nodes(form, f, h, N)
    op = form.as_operator()
    rf = op_apply(op, f)
    rh = op_apply(op, h)
    vals = [rf(z) * rh(z).conjugate() for z in rule.points]
    return rule.integrate(vals)


def sobolev_inner_matrix(form: SobolevForm, f: Poly, h: Poly, N: int) -> complex:
    """Debug path: materialize M(z) and the derivative vectors at each node.

    Algebraically identical to sobolev_inner by the rank-one structure; kept
    as an independent oracle (agreement to 1e-12 is a test contract).
    """
    rule = QuadratureRule(N)
    _require_enough_nodes(form, f, h, N)
    rho = form.rho

    def derivative_vector(poly: Poly, z: complex) -> list[complex]:
        out = []
        cur = poly
        for _ in range(rho + 1):
            out.append(cur(z))
            cur = cur.derivative()
        return out

    vals = []
    for z in rule.points:
        cvec = [form.c[l](z) for l in range(rho + 1)]
        vf = derivative_vector(f, z)
        vh = derivative_vector(h, z)
        total = 0j
        for i in range(rho + 1):
            for j in range(rho + 1):
                m_ij = cvec[i] * cvec[j].conjugate()
                total += vf[i] * m_ij * vh[j].conjugate()
        vals.append(total)
    return rule.integrate(vals)


def sobolev_gram(params: HypParams, n_max: int) -> list[list[complex]]:
    """Gram matrix [<g_n, g_m>] for n, m = 0..n_max, by Parseval.

    Row n of C holds the coefficients of R g_n: r_action on the first n+1
    entries of one coefficient sequence xi_0..xi_n_max. The sequence is a
    running product, so each slice is exactly the coefficient list of
    gn_direct(params, n), and the errors are gn_direct's: a DomainError
    when the sequence overflows, and at row n when xi_n underflowed to
    zero. Entry (n, m) is sum_k C[n,k]·conj(C[m,k]). Every entry is
    computed, row by row with elementwise products and numpy sums, never a
    thread-dependent BLAS call. Hermitian symmetry is computed, not
    mirrored, so it stays a real check on the computation. A Gram entry
    that overflowed, in r_action or in the row products, is a DomainError.
    """
    n_max = _check_cap(n_max)
    seq = _coeff_seq(params, n_max)
    C = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    # Products that overflow come back as inf/nan without a numpy warning
    # and are reported once, on the finished Gram. One errstate for all
    # rows: entering one costs about 1.5 us, a tenth of an r_action call on
    # a gram row.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max + 1):
            if seq[n] == 0:
                raise DomainError(
                    f"coefficient xi_{n} underflowed to zero; degree would collapse"
                )
            C[n, : n + 1] = r_action(params, seq[: n + 1])
        conj = C.conj()
        gram = np.array([(row * conj).sum(axis=1) for row in C])
    if not np.isfinite(gram).all():
        raise DomainError("Gram matrix overflowed double precision")
    return gram.tolist()


def gram_extremes(gram) -> tuple[float, float]:
    """(largest off-diagonal, largest diagonal) modulus of a Gram matrix.

    Their ratio is the orthogonality measure of the gram-offdiag sweep and
    of the sobolev check.
    """
    mods = np.abs(np.asarray(gram, dtype=complex))
    max_diag = float(mods.diagonal().max())
    np.fill_diagonal(mods, 0.0)
    return float(mods.max()), max_diag
