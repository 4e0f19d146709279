"""Circle quadrature and the rank-one derivative inner product."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from hypersum import cli, sobolev
from hypersum.errors import DomainError
from hypersum.operators import LinDiffOp, build_R, kappa, op_apply, r_action
from hypersum.partial_sums import HypParams, gn_direct, read_family
from hypersum.polycore import DEGREE_CAP, Poly
from hypersum.sobolev import (
    QuadratureRule,
    _gram_stack,
    auto_node_count,
    build_sobolev_form,
    gram_extremes,
    monomial_quadrature_defect,
    sobolev_gram,
)
from test_partial_sums import _coeff_seq_oracle

EXP = HypParams(a=(), b=())
CONFLUENT = HypParams(a=(1.0,), b=(2.0,))
GAUSS_LIKE = HypParams(a=(1.0, 2.0), b=(3.0,))
COMPLEX_1F2 = HypParams(a=(1.5 + 0.5j,), b=(2.0 - 0.25j, 1.25 + 1.0j))
TWO_F_THREE = HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0))


def _integrate(rule: QuadratureRule, values) -> complex:
    """Mean of the sampled values at the rule's nodes, accumulated with
    exact summation (math.fsum), so it does not depend on the node order."""
    vals = [complex(v) for v in values]
    if len(vals) != rule.n_nodes:
        raise DomainError("one value per node required")
    re = math.fsum(v.real for v in vals)
    im = math.fsum(v.imag for v in vals)
    return complex(re / rule.n_nodes, im / rule.n_nodes)


def _require_enough_nodes(R: LinDiffOp, f: Poly, h: Poly, N: int) -> None:
    need = max(f.degree, 0) + max(h.degree, 0) + 2 * R.order + 1
    if N < need:
        raise DomainError(
            f"{N} nodes alias the integrand; need at least {need}"
        )


def sobolev_inner(R: LinDiffOp, f: Poly, h: Poly, N: int) -> complex:
    """Oracle for one Gram entry: (1/N) Sum_j (Rf)(e^{i tau_j}) ·
    conj((Rh)(e^{i tau_j})).

    Equals the arc-length integral of (Rf)·conj(Rh) exactly up to roundoff
    because the integrand is a trigonometric polynomial of degree < N; node
    counts below the safe bound are refused rather than silently aliased.
    """
    rule = QuadratureRule(N)
    _require_enough_nodes(R, f, h, N)
    rf = op_apply(R, f)
    rh = op_apply(R, h)
    return _integrate(rule, [rf(z) * rh(z).conjugate() for z in rule.points])


def sobolev_inner_matrix(R: LinDiffOp, f: Poly, h: Poly, N: int) -> complex:
    """Debug oracle: materialize M(z) and the derivative vectors at each
    node. Algebraically identical to sobolev_inner by the rank-one
    structure (agreement to 1e-12 is a test contract)."""
    rule = QuadratureRule(N)
    _require_enough_nodes(R, f, h, N)
    rho = R.order

    def derivative_vector(poly: Poly, z: complex) -> list[complex]:
        out = []
        cur = poly
        for _ in range(rho + 1):
            out.append(cur(z))
            cur = cur.derivative()
        return out

    vals = []
    for z in rule.points:
        cvec = [R.coeffs[l](z) for l in range(rho + 1)]
        vf = derivative_vector(f, z)
        vh = derivative_vector(h, z)
        total = 0j
        for i in range(rho + 1):
            for j in range(rho + 1):
                m_ij = cvec[i] * cvec[j].conjugate()
                total += vf[i] * m_ij * vh[j].conjugate()
        vals.append(total)
    return _integrate(rule, vals)


def quadrature_gram(params, n_max):
    """Oracle: every Gram entry integrated on the auto node rule.

    Images R g_n come from the expanded operator and are sampled at the
    nodes; each entry is the exactly summed node mean of their products.
    """
    R = build_sobolev_form(params)
    rule = QuadratureRule(auto_node_count(n_max, R.order))
    images = []
    for n in range(n_max + 1):
        rg = op_apply(R, gn_direct(params, n))
        images.append([rg(z) for z in rule.points])
    return [
        [
            _integrate(rule, [u * v.conjugate() for u, v in zip(row, col)])
            for col in images
        ]
        for row in images
    ]


def test_quadrature_integrates_monomials():
    rule = QuadratureRule(8)
    # mean of z^k over T is delta_{k0} for |k| < 8
    vals = [1.0 for _ in rule.points]
    assert _integrate(rule, vals) == pytest.approx(1.0)
    for k in (1, 3, 7):
        vals = [z ** k for z in rule.points]
        assert abs(_integrate(rule, vals)) <= 1e-15


def test_quadrature_aliasing_edge():
    # z^N aliases to z^0 on an N-node rule: exactness stops at |k - m| = N.
    rule = QuadratureRule(8)
    vals = [z ** 8 for z in rule.points]
    assert _integrate(rule, vals) == pytest.approx(1.0)


def test_rule_builds_its_points_once():
    rule = QuadratureRule(16)
    assert rule.points is rule.points
    assert rule.points == tuple(
        cmath.exp(1j * (2.0 * math.pi * j / 16)) for j in range(16)
    )


def test_monomial_defect_within_exactness_window():
    rule = QuadratureRule(16)
    for k in range(6):
        for m in range(6):
            assert monomial_quadrature_defect(rule, k, m) <= 1e-14
    assert monomial_quadrature_defect(rule, 15, 0) <= 1e-14


def _former_monomial_quadrature_defect(rule, k, m):
    # The node-by-node loop of Python complex powers that defines the
    # defect, mean taken by the tests' own _integrate.
    vals = [z**k * (z.conjugate() ** m) for z in rule.points]
    exact = 1.0 if k == m else 0.0
    return abs(_integrate(rule, vals) - exact)


@pytest.mark.parametrize("nodes", [1, 2, 7, 16, 64, 128, 256])
def test_monomial_defects_equal_the_node_loop_bit_for_bit(nodes):
    # Binary powering up to exponent 100, Python's pow beyond it (the
    # (127, 0) pair of a 128-node rule), negative and non-int exponents.
    rule = QuadratureRule(nodes)
    pairs = [(k, m) for k in range(12) for m in range(12)] + [
        (nodes - 1, 0), (nodes, 3), (100, 1), (101, 1), (150, 2), (-3, 1),
        (2, -120), (2.0, 1), (True, 1), (2, 2.0)]
    want = [_former_monomial_quadrature_defect(rule, k, m).hex() for k, m in pairs]
    assert [monomial_quadrature_defect(rule, k, m).hex() for k, m in pairs] == want


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


@pytest.mark.parametrize("n_max, rho, message", [
    (math.nan, 1, "order must be an integer, got nan"),  # was ValueError
    (-20, 1, "order must be nonnegative"),  # returned 32
    (3, math.inf, "operator order must be an integer, got inf"),
    (3, -1, "operator order must be nonnegative"),
])
def test_auto_node_count_refuses_what_is_no_order(n_max, rho, message):
    with pytest.raises(DomainError) as exc:
        auto_node_count(n_max, rho)
    assert str(exc.value) == message


@pytest.mark.parametrize("k, m, message", [
    (10**400, 0, "exponent k is beyond 2**53 in modulus"),  # was not finite
    (3, -(10**400), "exponent m is beyond 2**53 in modulus"),  # was not finite
    (10**18, 1, "exponent k is beyond 2**53 in modulus"),  # read 0.0828
    (10**300, 1, "exponent k is beyond 2**53 in modulus"),  # read 0.0102
    (math.nan, 0, "z^k·conj(z)^m of pair 0 is not finite on the 64-node rule"),
], ids=["huge-k", "huge-negative-m", "k-1e18", "k-1e300", "nan-k"])
def test_a_monomial_beyond_double_precision_is_a_domain_error(k, m, message):
    # 10**400 raised OverflowError from Python's pow; nan read a nan defect.
    # 10**18 and 10**300 read wrong finite values where the rule gives 0:
    # Python's pow takes the phase as arg(z)·float(k).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            monomial_quadrature_defect(QuadratureRule(64), k, m)
    assert str(exc.value) == message


@pytest.mark.parametrize("count, message", [
    (math.nan, "node count must be an integer, got nan"),  # was ValueError
    (math.inf, "node count must be an integer, got inf"),  # was OverflowError
    (0, "node count must be >= 1"),
    (-3, "node count must be >= 1"),
    (2**20 + 1, "node count must be <= 1048576"),
    (10**400, "node count must be <= 1048576"),  # was accepted
])
def test_a_node_count_outside_the_rule_is_a_domain_error(count, message):
    with pytest.raises(DomainError) as exc:
        QuadratureRule(count)
    assert str(exc.value) == message


def test_form_coefficients_match_R():
    assert build_sobolev_form(EXP) == build_R(EXP)


@pytest.mark.parametrize("params", [
    EXP, CONFLUENT, GAUSS_LIKE, COMPLEX_1F2, TWO_F_THREE,
    HypParams(a=(1.0,), b=()),
    HypParams(a=(0.5, 1.5, 2.5), b=(3.0, 4.0)),
    HypParams(a=(0.5 + 0.5j, 1.5, 2.0, 3.0), b=(1.25, 2.5j + 1, 3.5)),
    HypParams(a=(1.0, 2.0, 3.0), b=()),
])
def test_form_order_is_max_p_q_plus_one(params):
    # sobolev_inner and its node bound read rho as R.order; the top
    # coefficients z^q and -z^p of R never cancel, since their degrees
    # differ when p = q + 1.
    R = build_sobolev_form(params)
    rho = max(params.p, params.q + 1)
    assert R.order == rho
    assert not R.coeffs[rho].is_zero


def test_inner_fast_path_matches_matrix_path():
    # Rank-one evaluation vs the materialized bilinear form, random polys.
    rng = random.Random(7)
    R = build_sobolev_form(GAUSS_LIKE)
    for _ in range(10):
        f = Poly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))])
        h = Poly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 9))])
        if f.is_zero or h.is_zero:
            continue
        N = auto_node_count(max(f.degree, h.degree), R.order)
        fast = sobolev_inner(R, f, h, N)
        slow = sobolev_inner_matrix(R, f, h, N)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-13)


def test_inner_requires_enough_nodes():
    R = build_sobolev_form(EXP)
    f = Poly((0,) * 10 + (1,))
    with pytest.raises(DomainError):
        sobolev_inner(R, f, f, 4)


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
    R = build_sobolev_form(CONFLUENT)
    N = auto_node_count(5, R.order)
    g2 = gn_direct(CONFLUENT, 2)
    g4 = gn_direct(CONFLUENT, 4)
    cross = sobolev_inner(R, g2, g4, N)
    assert abs(cross) <= 1e-12
    diag = sobolev_inner(R, g4, g4, N)
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


@pytest.mark.parametrize("params", (EXP, CONFLUENT, TWO_F_THREE, COMPLEX_1F2))
def test_gram_is_bit_identical_to_per_row_gn_direct(params):
    n_max = 40
    C = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        C[n, : n + 1] = r_action(params, gn_direct(params, n).coeffs)
    conj = C.conj()
    want = [(row * conj).sum(axis=1).tolist() for row in C]
    assert sobolev_gram(params, n_max) == want


# |a|^2 rounds differently with and without FMA, so Gram(0) shows a
# product that takes another numpy loop than the larger Grams.
INEXACT_1F1 = HypParams(a=(0.3 + 0.7j,), b=(1.1 + 0.3j,))


@pytest.mark.parametrize(
    "params", (EXP, CONFLUENT, COMPLEX_1F2, TWO_F_THREE, INEXACT_1F1)
)
def test_gram_is_the_leading_block_of_a_larger_gram(params):
    big = sobolev_gram(params, 40)
    for n in (0, 1, 5, 10, 20, 30):
        assert sobolev_gram(params, n) == [row[: n + 1] for row in big[: n + 1]]


def _random_family(rng, complex_params):
    def draw():
        x = rng.uniform(0.2, 4.0)
        return complex(x, rng.uniform(-2.0, 2.0)) if complex_params else x

    p, q = rng.randint(0, 3), rng.randint(1, 3)
    return HypParams(
        a=tuple(draw() for _ in range(p)), b=tuple(draw() for _ in range(q))
    )


@pytest.mark.parametrize("seed", range(12))
def test_gram_stack_is_each_familys_gram_bit_for_bit(seed):
    # Real and complex families in one stack; each Gram is the one its
    # family gets alone, whatever the stack's size and neighbours.
    rng = random.Random(seed)
    n_max = rng.choice((0, 1, 2, 5, 10, 20, 40))
    size = rng.randint(1, 5)
    cells = [_random_family(rng, rng.random() < 0.5) for _ in range(size)]
    grams = _gram_stack(np.array(
        [r_action(params, read_family(params, n_max).table(n_max)) for params in cells]))
    assert grams.shape == (len(cells), n_max + 1, n_max + 1)
    for params, gram in zip(cells, grams):
        assert gram.tolist() == sobolev_gram(params, n_max)


def test_gram_stack_of_no_families_is_empty():
    for n in (0, 5):
        empty = np.empty((0, n + 1, n + 1), dtype=complex)
        assert _gram_stack(empty).shape == empty.shape


OVERFLOWS = HypParams(a=(1e155,), b=(1e155,))  # C[0, 0] = -1e155
UNDERFLOWS = HypParams(a=(1e155,), b=(1e300,))  # xi_3 underflows
R_OVERFLOWS = HypParams(a=(1e60,))  # (a + 5)·xi_5 in R g_5 overflows


def _cells_then_failure(cells):
    yield from cells
    raise DomainError("cell could not be built")


@pytest.mark.parametrize("cells, then_fail, message", [
    # The first family to fail at any stage decides, as one by one. A
    # failing iterable stands for a cell whose parameters are refused.
    ((CONFLUENT, OVERFLOWS, UNDERFLOWS), False, "Gram matrix overflowed"),
    ((CONFLUENT, UNDERFLOWS, OVERFLOWS), False, "coefficient xi_3 underflowed"),
    ((OVERFLOWS, CONFLUENT), False, "Gram matrix overflowed"),
    ((CONFLUENT, OVERFLOWS), True, "Gram matrix overflowed"),
    ((CONFLUENT, EXP), True, "cell could not be built"),
    ((), True, "cell could not be built"),
    # r_action refuses while C is built, so before any Gram is formed.
    ((CONFLUENT, R_OVERFLOWS, OVERFLOWS), False, "R applied to row 5 overflowed"),
    ((OVERFLOWS, R_OVERFLOWS), False, "Gram matrix overflowed"),
    ((CONFLUENT, R_OVERFLOWS), True, "R applied to row 5 overflowed"),
])
def test_gram_stack_raises_the_first_failing_familys_error(cells, then_fail, message):
    # The stack as the gram-offdiag sweep reads it, here with families of
    # different shapes: each family's R images in order, then one Gram
    # stack (tests/test_cli.py holds the sweep to its cell-by-cell oracle).
    source = _cells_then_failure(cells) if then_fail else cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            cli._sweep_gram_offdiag(source, [5])


def test_gram_maps_every_row_in_one_r_action_call(monkeypatch):
    shapes = []

    def recording(params, coeffs):
        shapes.append(np.shape(coeffs))
        return r_action(params, coeffs)

    monkeypatch.setattr(sobolev, "r_action", recording)
    sobolev_gram(COMPLEX_1F2, 12)
    assert shapes == [(13, 13)]


def test_gram_reaches_degree_cap():
    # 2F1(1,1;2): xi_k = 1/(k+1), so kappa_n = 1/(n+1) and diag = (n+1)^2.
    gram = sobolev_gram(HypParams(a=(1.0, 1.0), b=(2.0,)), DEGREE_CAP)
    assert len(gram) == DEGREE_CAP + 1
    for n in range(DEGREE_CAP + 1):
        assert gram[n][n] == pytest.approx((n + 1) ** 2, rel=1e-12)


def test_gram_past_coefficient_underflow_is_domain_error():
    # 0F1(;1): xi_k = 1/(k!)^2 underflows to zero near k = 100; the first
    # row past it raises that coefficient's error.
    seq, message = _coeff_seq_oracle(HypParams(b=(1.0,)), DEGREE_CAP)
    assert message.startswith(f"coefficient xi_{len(seq)} underflow")
    with pytest.raises(DomainError) as got:
        sobolev_gram(HypParams(b=(1.0,)), DEGREE_CAP)
    assert str(got.value) == message


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
