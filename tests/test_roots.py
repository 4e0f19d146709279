"""Root finding and zero localization for partial sums."""

import math
import random

import numpy as np
import pytest

from hypersum import cli
from hypersum.errors import ConvergenceError, DomainError
from hypersum.partial_sums import HypParams, gn_direct
from hypersum.polycore import DEGREE_CAP, Poly, horner
from hypersum.roots import (
    _companion_roots,
    _polish,
    check_simple,
    enestrom_kakeya_bounds,
    find_roots,
    location_report,
)

EXP = HypParams(a=(), b=())

# The roots-ladder benchmark families: the entire ones and 2F1(1,1;2).
ROOTS_FAMILIES = {
    "exp": ((), ()),
    "0F1(;1)": ((), (1.0,)),
    "1F1(1;1)": ((1.0,), (1.0,)),
    "1F1(1;2)": ((1.0,), (2.0,)),
    "2F3(1,1.5;2,2.5,3)": ((1.0, 1.5), (2.0, 2.5, 3.0)),
    "2F1(1,1;2)": ((1.0, 1.0), (2.0,)),
}
EPS = np.finfo(float).eps


def _backward_errors(f, roots):
    """|f(r)| / sum_k |c_k||r|^k per root, by numpy's polyval."""
    c = np.array(f.coeffs)[::-1]
    r = np.asarray(roots, dtype=complex)
    return np.abs(np.polyval(c, r)) / np.polyval(np.abs(c), np.abs(r))


def _sorted(roots):
    return sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_linear():
    assert find_roots(Poly((-6, 3))) == (2 + 0j,)


def test_quadratic_real_roots():
    r = _sorted(find_roots(Poly((-6, 1, 1))))  # (z - 2)(z + 3)
    assert abs(r[0] - (-3)) <= 1e-12
    assert abs(r[1] - 2) <= 1e-12


def test_exponential_partial_sum_roots():
    # g_2 = 1 + z + z^2/2 has roots exactly -1 -+ i.
    r = _sorted(find_roots(gn_direct(EXP, 2)))
    assert abs(r[0] - (-1 - 1j)) <= 1e-12
    assert abs(r[1] - (-1 + 1j)) <= 1e-12


def test_degree_zero_rejected():
    with pytest.raises(DomainError):
        find_roots(Poly((1,)))
    with pytest.raises(DomainError):
        find_roots(Poly(()))


def test_root_count_matches_degree():
    for n in (3, 8, 15):
        assert len(find_roots(gn_direct(EXP, n))) == n


def test_graded_moduli_polynomial():
    # Steeply decaying coefficients: root moduli span two orders of
    # magnitude, which the log-domain scaling of the companion matrix has to
    # absorb. The residual gate bounds each root's backward error; check
    # Vieta's product as well.
    params = HypParams(a=(), b=(1.5,))
    g = gn_direct(params, 12)
    roots = find_roots(g)
    assert len(roots) == 12
    prod = 1 + 0j
    for r in roots:
        prod *= r
    target = g.coeff(0) / g.coeff(12)  # (-1)^12 c_0/c_12
    assert abs(prod - target) <= 1e-10 * abs(target)
    assert min(abs(r) for r in roots) > 2.4


def test_zero_low_coefficients_give_exact_zero_roots():
    assert find_roots(Poly((0, 0, 1))) == (0j, 0j)
    r = find_roots(Poly((0, 0, -2, 1)))  # z^2 (z - 2)
    assert r[:2] == (0j, 0j)
    assert abs(r[2] - 2) <= 1e-15


def test_complex_coefficients():
    # (z - i)(z + 2) = z^2 + (2 - i) z - 2i
    r = sorted(find_roots(Poly((-2j, 2 - 1j, 1))), key=lambda z: z.real)
    assert abs(r[0] + 2) <= 1e-15
    assert abs(r[1] - 1j) <= 1e-15


def test_horner_matches_poly_and_keeps_mass_finite():
    f = Poly((1 - 2j, 0.5, -3, 0.25j))
    z = np.array([0.3 + 0.1j, -2.0, 5j])
    value, derivative, mass = horner(f.coeffs, z)
    for i, zi in enumerate(z):
        assert abs(value[i] - f(zi)) <= 1e-14 * mass[i]
        assert abs(derivative[i] - f.derivative()(zi)) <= 1e-14 * mass[i]
        terms = [abs(c) * abs(zi) ** k for k, c in enumerate(f.coeffs)]
        assert mass[i] == pytest.approx(math.fsum(terms), rel=1e-15)
    # exp g_170 at z = 170: every term is finite, but 170.0 ** 170 raises
    # OverflowError, so the mass cannot be summed term by term.
    g = gn_direct(EXP, DEGREE_CAP)
    assert horner(g.coeffs, 170.0)[2] == pytest.approx(math.fsum(
        math.exp(math.log(abs(c)) + k * math.log(170.0))
        for k, c in enumerate(g.coeffs)
    ), rel=1e-12)


@pytest.mark.parametrize("name, n", [
    ("exp", 123), ("exp", 170), ("2F3(1,1.5;2,2.5,3)", 100), ("0F1(;1)", 90),
])
def test_polish_never_raises_a_backward_error(name, n):
    a, b = ROOTS_FAMILIES[name]
    g = gn_direct(HypParams(a=a, b=b), n)
    coeffs = [c.real for c in g.coeffs]
    raw = _companion_roots(coeffs)
    before = _backward_errors(g, raw)
    after = _backward_errors(g, _polish(coeffs, raw.copy()))
    assert np.all(after <= before)
    assert np.max(after) <= 1e-10


@pytest.mark.parametrize("garbage", [
    lambda a: np.full(len(a), np.nan),
    lambda a: np.full(len(a), np.inf + 0j),
    lambda a: np.zeros(len(a)),
    lambda a: np.random.default_rng(5).normal(size=len(a)) * 1e3,
    lambda a: np.full(len(a), 1e300 + 1e300j),
])
def test_garbage_eigenvalues_raise_convergence_error(monkeypatch, garbage):
    monkeypatch.setattr(np.linalg, "eigvals", garbage)
    with pytest.raises(ConvergenceError):
        find_roots(gn_direct(EXP, DEGREE_CAP))


def test_failed_eigenvalue_solve_is_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        find_roots(gn_direct(EXP, 20))


@pytest.mark.parametrize("name", sorted(ROOTS_FAMILIES))
def test_degree_ladder_up_to_cap(name):
    a, b = ROOTS_FAMILIES[name]
    params = HypParams(a=a, b=b)
    solved = 0
    for n in range(2, DEGREE_CAP + 1, 7):
        try:
            g = gn_direct(params, n)
        except DomainError:  # gn_direct's limit for this family
            break
        roots = find_roots(g)
        assert len(roots) == n
        assert np.max(_backward_errors(g, roots)) <= 1e-10, n
        solved += 1
    assert solved >= 14  # every family reaches n >= 93


@pytest.mark.parametrize("name, n", [
    ("exp", 12), ("exp", 40), ("0F1(;1)", 12), ("0F1(;1)", 24),
    ("2F3(1,1.5;2,2.5,3)", 12), ("2F3(1,1.5;2,2.5,3)", 24),
])
def test_roots_match_high_precision_oracle(name, n):
    # mpmath.polyroots at 40 digits on the same float64 coefficients. Each
    # root may move by its condition number times the backward error:
    # |r - r*| <= 4n·eps·kappa(r)·|r| with kappa(r) = mass(r)/(|r||g'(r)|).
    mpmath = pytest.importorskip("mpmath")
    a, b = ROOTS_FAMILIES[name]
    g = gn_direct(HypParams(a=a, b=b), n)
    with mpmath.workdps(40):
        ref = mpmath.polyroots(
            [c.real for c in reversed(g.coeffs)], maxsteps=200, extraprec=2 * n
        )
    ref = np.array([complex(r) for r in ref])
    roots = np.array(find_roots(g))
    _, derivative, mass = horner(g.coeffs, roots)
    bound = 4 * n * EPS * mass / np.abs(derivative)
    dist = np.abs(roots[:, None] - ref[None, :])
    nearest = dist.argmin(axis=1)
    assert len(set(nearest.tolist())) == n  # one oracle root per root
    assert np.all(dist.min(axis=1) <= bound)


def test_roots_document_is_deterministic_at_cap(capsys):
    argv = ["roots", "--p", "0", "--q", "0", "--n", str(DEGREE_CAP)]
    docs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    assert len(docs[0]) > 1000


def test_check_simple():
    assert check_simple((1 + 0j, 2 + 0j))
    assert not check_simple((1 + 0j, 1 + 0j))
    assert check_simple((5 + 0j,))
    assert check_simple((1e6 + 0j, 1e6 + 1j), tol=0.5)


def test_enestrom_kakeya():
    lo, hi = enestrom_kakeya_bounds(Poly((1, 1, 0.5)))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)
    for r in find_roots(Poly((1, 1, 0.5))):
        assert lo - 1e-12 <= abs(r) <= hi + 1e-12
    with pytest.raises(DomainError):
        enestrom_kakeya_bounds(Poly((-1, 1)))
    with pytest.raises(DomainError):
        enestrom_kakeya_bounds(Poly((1j, 1)))


def test_boundary_case_report():
    # g_1 = 1 + z: single root at -1, exactly on the unit circle.
    report = location_report(EXP, 1)
    assert len(report.roots) == 1
    assert abs(report.roots[0] - (-1)) <= 1e-14
    assert abs(report.min_modulus - 1.0) <= 1e-12
    assert report.boundary_root_count == 1
    assert report.simple
    assert not report.positive_real_root_found
    assert report.ek_annulus == (1.0, 1.0)


def test_report_degree_zero():
    report = location_report(EXP, 0)
    assert report.roots == ()
    assert report.ek_annulus is None
    assert report.min_modulus == math.inf


def test_report_preconditions():
    with pytest.raises(DomainError):
        location_report(HypParams(a=(1.0,), b=()), 3)  # p > q
    with pytest.raises(DomainError):
        location_report(HypParams(a=(3.0,), b=(2.0,)), 3)  # a > b
    with pytest.raises(DomainError):
        location_report(HypParams(a=(), b=(0.5,)), 3)  # b < 1
    with pytest.raises(DomainError):
        location_report(HypParams(a=(1 + 1j,), b=(2 + 1j,)), 3)  # complex


def test_localization_random_draws():
    rng = random.Random(20260816)
    for _ in range(20):
        q = rng.randint(0, 3)
        p = rng.randint(0, q)
        b = tuple(rng.uniform(1.0, 4.0) for _ in range(q))
        a = tuple(rng.uniform(0.05, b[j]) for j in range(p))
        n = rng.randint(2, 12)
        report = location_report(HypParams(a=a, b=b), n)
        assert report.simple
        assert report.min_modulus >= 1 - 1e-9
        assert not report.positive_real_root_found
        lo, hi = report.ek_annulus
        for r in report.roots:
            assert lo * (1 - 1e-9) <= abs(r) <= hi * (1 + 1e-9)
