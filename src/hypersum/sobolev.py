"""Derivative-weighted inner products on the unit circle.

The bilinear form pairs two polynomials f, h through the rank-one matrix
M(z) = (c_0(z),...,c_rho(z))^T (conj c_0(z),...,conj c_rho(z)) built from the
expansion coefficients of the operator R, integrated against normalized arc
length on |z| = 1:

    <f, h> = integral of (f, f', ..., f^(rho)) M (conj of same for h) dmu_0.

Rank-one structure collapses this to (Rf)(z)·conj((Rh)(z)) pointwise, and
on the unit circle the integral of a product of polynomials is the inner
product of their coefficient vectors (Parseval). sobolev_gram evaluates it
that way, from the closed-form coefficients of R g_n. Its engine,
_gram_stack, builds the Grams of a (B, n+1, n+1) array of R images (the
cells of a sweep grid) in one pass, each bit for bit the Gram its family
gets alone, and raises only its own overflow; sobolev_gram is that engine on
a stack of one. QuadratureRule, the equispaced node rule that is exact for
the trigonometric polynomials arising here, backs the exactness sub-check,
monomial_quadrature_defect: Python complex arithmetic, node by node. The
verify check builds that clause once per node count and process
(checks._exactness_defect).

Under this form the partial sums g_0, g_1, ... are orthogonal, with squared
norms |kappa_n|^{-2} (the image identity -kappa_n·R g_n = z^n turns the Gram
matrix into the Gram matrix of monomials).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer, nonnegative_int
from .operators import LinDiffOp, build_R, r_action
from .partial_sums import HypParams, read_family


NODE_CAP = 1 << 20  # the most nodes a QuadratureRule takes
EXPONENT_CAP = 1 << 53  # the largest exponent modulus float() keeps exactly


@dataclass(frozen=True)
class QuadratureRule:
    """Equispaced angles tau_j = 2·pi·j/N with uniform weights 1/N.

    Exact for trigonometric polynomials of degree < N by orthogonality of
    the N-th roots of unity. N is read by errors.integer; a count below 1
    or above NODE_CAP (2**20 nodes, about 40 MB of points) is a
    DomainError.
    """

    n_nodes: int

    def __post_init__(self):
        N = integer(self.n_nodes, "node count")
        if N < 1:
            raise DomainError("node count must be >= 1")
        if N > NODE_CAP:
            raise DomainError(f"node count must be <= {NODE_CAP}")
        object.__setattr__(self, "n_nodes", N)

    @functools.cached_property
    def points(self) -> tuple[complex, ...]:
        N = self.n_nodes
        return tuple(cmath.exp(1j * (2.0 * math.pi * j / N)) for j in range(N))


def monomial_quadrature_defect(rule: QuadratureRule, k: int, m: int) -> float:
    """|rule applied to z^k·conj(z)^m  minus the exact value (1 if k == m)|.

    The exact value holds whenever N > k + m; this is the exactness
    sub-check used by tests and the verification suite. It is Python complex
    arithmetic node by node: z**k * z.conjugate()**m at each node, the real
    and imaginary parts summed exactly (math.fsum), then divided by N.
    Python's pow forms the phase as arg(z)·float(k), so its error grows like
    |k|·eps ((k, m) = (6.4e7, 1) reads 3.6e-9 on 64 nodes, where the rule
    gives 0), and past 2**53 it keeps no correct digit: an exponent beyond
    EXPONENT_CAP (2**53) in modulus, and a power that overflows or is not
    finite, is a DomainError.
    """
    for name, e in (("k", k), ("m", m)):
        if abs(e) > EXPONENT_CAP:
            raise DomainError(f"exponent {name} is beyond 2**53 in modulus")
    try:
        vals = [z**k * z.conjugate() ** m for z in rule.points]
        finite = all(map(cmath.isfinite, vals))
    except OverflowError:
        finite = False
    N = rule.n_nodes
    if not finite:
        raise DomainError(f"z^k·conj(z)^m of pair 0 is not finite on the {N}-node rule")
    mean = complex(math.fsum(v.real for v in vals) / N, math.fsum(v.imag for v in vals) / N)
    return abs(mean - (1.0 if k == m else 0.0))


def build_sobolev_form(params: HypParams) -> LinDiffOp:
    """The form is R: its coefficient polynomials c_0..c_rho define M(z).
    R's order is rho = max(p, q+1) for every family."""
    return build_R(params)


def auto_node_count(n_max: int, rho: int) -> int:
    """2(n_max + rho) + 8 rounded up to a power of two.

    Covers the safe bound N >= deg f + deg h + 2·rho + 1 for f, h of degree
    up to n_max; the power of two fixes a predictable accumulation order.
    Both must be nonnegative integers.
    """
    raw = 2 * (nonnegative_int(n_max, "order") + nonnegative_int(rho, "operator order")) + 8
    return 1 << (raw - 1).bit_length()


def _gram_stack(C: np.ndarray) -> np.ndarray:
    """Gram matrices of a stack of R-image tables, one (B, n+1, n+1) array.

    C[i] holds the coefficients of R g_0..R g_n of family i, one row each.
    Entry (n, m) of Gram i is sum_{k<=n} C[i,n,k]·conj(C[i,m,k]), leaving
    out only exact zeros, so each Gram is bit for bit the one its family
    gets alone, and its leading blocks are the Grams of lower degree. Every
    entry is computed, row by row with elementwise products and numpy sums,
    never a thread-dependent BLAS call; Hermitian symmetry is computed, not
    mirrored, so it stays a real check on the computation. Raises only its
    own DomainError, if any Gram overflowed.
    """
    # Overflowing products come back as inf/nan without a numpy warning and
    # are reported on the finished Grams. Rows are sliced, keeping their
    # axis: numpy rounds a broadcast one-element 1-D row without FMA, unlike
    # every longer row.
    with np.errstate(over="ignore", invalid="ignore"):
        conj = C.conj()
        rows = (
            C[:, n : n + 1, : n + 1] * conj[:, :, : n + 1] for n in range(C.shape[1])
        )
        gram = np.stack([row.sum(axis=2) for row in rows], axis=1)
    if not np.isfinite(gram).all():
        raise DomainError("Gram matrix overflowed double precision")
    return gram


def sobolev_gram(params: HypParams, n_max: int) -> list[list[complex]]:
    """Gram matrix [<g_n, g_m>] for n, m = 0..n_max, by Parseval: the
    stacked engine _gram_stack on a stack of one.

    C holds the coefficients of every R g_n from one r_action call on the
    lower-triangular table of the family record (read_family): its row n,
    xi_0..xi_n and zeros after, is exactly gn_direct(params, n). The errors
    are the record's, then r_action's, then the Gram's.
    """
    images = r_action(params, read_family(params, n_max).table(n_max))
    return _gram_stack(images[None])[0].tolist()


def gram_extremes(gram) -> tuple[float, float]:
    """(largest off-diagonal, largest diagonal) modulus of a Gram matrix.

    Their ratio is the orthogonality measure of the gram-offdiag sweep and
    of the sobolev check.
    """
    mods = np.abs(np.asarray(gram, dtype=complex))
    max_diag = float(mods.diagonal().max())
    np.fill_diagonal(mods, 0.0)
    return float(mods.max()), max_diag
