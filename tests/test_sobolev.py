"""Circle quadrature and the rank-one derivative inner product."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from hypersum.errors import DomainError
from hypersum.operators import kappa, op_apply, r_action
from hypersum.partial_sums import HypParams, _coeff_seq, gn_direct
from hypersum.polycore import DEGREE_CAP, Poly
from hypersum.sobolev import (
    QuadratureRule,
    auto_node_count,
    build_sobolev_form,
    gram_extremes,
    monomial_quadrature_defect,
    sobolev_gram,
    sobolev_inner,
    sobolev_inner_matrix,
)

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
GAUSS_LIKE = HypParams(a=(1.0, 2.0), b=(3.0,))
COMPLEX_1F2 = HypParams(a=(1.5 + 0.5j,), b=(2.0 - 0.25j, 1.25 + 1.0j))
TWO_F_THREE = HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0))


def quadrature_gram(params, n_max):
    """Oracle: every Gram entry integrated on the auto node rule.

    Images R g_n come from the expanded operator and are sampled at the
    nodes; each entry is the exactly summed node mean of their products.
    """
    form = build_sobolev_form(params)
    rule = QuadratureRule(auto_node_count(n_max, form.rho))
    op = form.as_operator()
    images = []
    for n in range(n_max + 1):
        rg = op_apply(op, gn_direct(params, n))
        images.append([rg(z) for z in rule.points])
    return [
        [
            rule.integrate([u * v.conjugate() for u, v in zip(row, col)])
            for col in images
        ]
        for row in images
    ]


def test_quadrature_integrates_monomials():
    rule = QuadratureRule(8)
    # mean of z^k over T is delta_{k0} for |k| < 8
    vals = [1.0 for _ in rule.points]
    assert rule.integrate(vals) == pytest.approx(1.0)
    for k in (1, 3, 7):
        vals = [z ** k for z in rule.points]
        assert abs(rule.integrate(vals)) <= 1e-15


def test_quadrature_aliasing_edge():
    # z^N aliases to z^0 on an N-node rule: exactness stops at |k - m| = N.
    rule = QuadratureRule(8)
    vals = [z ** 8 for z in rule.points]
    assert rule.integrate(vals) == pytest.approx(1.0)


def test_monomial_defect_within_exactness_window():
    rule = QuadratureRule(16)
    for k in range(6):
        for m in range(6):
            assert monomial_quadrature_defect(rule, k, m) <= 1e-14
    assert monomial_quadrature_defect(rule, 15, 0) <= 1e-14


def test_auto_node_count():
    n = auto_node_count(15, 1)
    assert n == 64  # next power of two above 2*(15+1)+8
    assert auto_node_count(15, 4) == 64
    assert auto_node_count(25, 4) == 128
    # Always a power of two and always sufficient.
    for n_max in (1, 10, 40):
        for rho in (1, 2, 4):
            N = auto_node_count(n_max, rho)
            assert N >= 2 * (n_max + rho) + 8
            assert N & (N - 1) == 0


def test_form_coefficients_match_R():
    from hypersum.operators import build_R

    form = build_sobolev_form(EXP)
    R = build_R(EXP)
    assert form.rho == R.order
    assert form.as_operator() == R


def test_inner_fast_path_matches_matrix_path():
    # Rank-one evaluation vs the materialized bilinear form, random polys.
    rng = random.Random(7)
    form = build_sobolev_form(GAUSS_LIKE)
    for _ in range(10):
        f = Poly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))])
        h = Poly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))])
        if f.is_zero or h.is_zero:
            continue
        N = auto_node_count(max(f.degree, h.degree), form.rho)
        fast = sobolev_inner(form, f, h, N)
        slow = sobolev_inner_matrix(form, f, h, N)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-13)


def test_inner_requires_enough_nodes():
    form = build_sobolev_form(EXP)
    f = Poly((0,) * 10 + (1,))
    with pytest.raises(DomainError):
        sobolev_inner(form, f, f, 4)


def test_gram_diagonal_exponential():
    # diag = |kappa_n|^{-2} = 1/(n!)^2, frozen oracle.
    gram = sobolev_gram(EXP, 3)
    want = (1.0, 1.0, 0.25, 1 / 36)
    for i in range(4):
        assert gram[i][i].real == pytest.approx(want[i], rel=1e-12)
        assert abs(gram[i][i].imag) <= 1e-15


def test_gram_orthogonality():
    for params in (EXP, CONFLUENT, GAUSS_LIKE):
        gram = sobolev_gram(params, 8)
        maxdiag = max(abs(gram[i][i]) for i in range(9))
        for i in range(9):
            for j in range(9):
                if i != j:
                    assert abs(gram[i][j]) <= 1e-12 * maxdiag
                else:
                    want = 1.0 / abs(kappa(params, i)) ** 2
                    assert abs(gram[i][i]) == pytest.approx(want, rel=1e-10)


def test_gram_is_hermitian():
    gram = sobolev_gram(GAUSS_LIKE, 6)
    for i in range(7):
        for j in range(7):
            assert gram[i][j] == pytest.approx(
                gram[j][i].conjugate(), rel=1e-12, abs=1e-15
            )


def test_inner_of_partial_sums_matches_gram():
    form = build_sobolev_form(CONFLUENT)
    N = auto_node_count(5, form.rho)
    g2 = gn_direct(CONFLUENT, 2)
    g4 = gn_direct(CONFLUENT, 4)
    cross = sobolev_inner(form, g2, g4, N)
    assert abs(cross) <= 1e-12
    diag = sobolev_inner(form, g4, g4, N)
    assert diag.real == pytest.approx(1.0 / abs(kappa(CONFLUENT, 4)) ** 2, rel=1e-10)


@pytest.mark.parametrize("n_max", (10, 20, 40))
@pytest.mark.parametrize(
    "params", (EXP, CONFLUENT, GAUSS_LIKE, COMPLEX_1F2, TWO_F_THREE)
)
def test_gram_matches_quadrature_oracle(params, n_max):
    gram = sobolev_gram(params, n_max)
    oracle = quadrature_gram(params, n_max)
    maxdiag = max(abs(oracle[i][i]) for i in range(n_max + 1))
    dev = max(
        abs(gram[i][j] - oracle[i][j])
        for i in range(n_max + 1)
        for j in range(n_max + 1)
    )
    assert dev <= 1e-15 * maxdiag


@pytest.mark.parametrize("params", (EXP, CONFLUENT, TWO_F_THREE))
def test_gram_is_bit_identical_to_per_row_gn_direct(params):
    n_max = 40
    C = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        C[n, : n + 1] = r_action(params, gn_direct(params, n).coeffs)
    conj = C.conj()
    want = [(row * conj).sum(axis=1).tolist() for row in C]
    assert sobolev_gram(params, n_max) == want


def test_gram_reaches_degree_cap():
    # 2F1(1,1;2): xi_k = 1/(k+1), so kappa_n = 1/(n+1) and diag = (n+1)^2.
    gram = sobolev_gram(HypParams(a=(1.0, 1.0), b=(2.0,)), DEGREE_CAP)
    assert len(gram) == DEGREE_CAP + 1
    for n in range(DEGREE_CAP + 1):
        assert gram[n][n] == pytest.approx((n + 1) ** 2, rel=1e-12)


def test_gram_past_coefficient_underflow_is_domain_error():
    # 0F1(;1): xi_k = 1/(k!)^2 underflows to zero near k = 100; the first
    # row past it raises gn_direct's error.
    seq = _coeff_seq(HypParams(b=(1.0,)), DEGREE_CAP)
    first = next(n for n, xi in enumerate(seq) if xi == 0)
    with pytest.raises(DomainError, match=rf"^coefficient xi_{first} underflow"):
        sobolev_gram(HypParams(b=(1.0,)), DEGREE_CAP)


def test_gram_with_non_finite_coefficient_is_value_error():
    # 2F0(1e200, 1e200;): xi_1 = 1e400 overflows, as in gn_direct.
    params = HypParams(a=(1e200, 1e200), b=())
    with pytest.raises(ValueError, match="non-finite coefficient"):
        gn_direct(params, 3)
    # The coefficient sequence raises at xi_1 before any row is formed.
    # The ValueError is the only signal: no numpy RuntimeWarning escapes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite coefficient"):
            sobolev_gram(params, 3)


def test_gram_overflow_with_finite_rows_is_domain_error():
    # C = [[-1e155]] is finite; its Gram entry 1e310 is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="Gram"):
            sobolev_gram(HypParams(a=(1e155,)), 0)


def test_gram_extremes_matches_entrywise_scan():
    gram = sobolev_gram(COMPLEX_1F2, 12)
    size = len(gram)
    off = max(
        abs(gram[i][j]) for i in range(size) for j in range(size) if i != j
    )
    diag = max(abs(gram[i][i]) for i in range(size))
    assert gram_extremes(gram) == (off, diag)
    assert gram_extremes([[2j]]) == (0.0, 2.0)
