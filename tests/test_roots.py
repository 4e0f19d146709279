"""Root finding and zero localization for partial sums."""

import math
import random

import numpy as np
import pytest

from hypersum import cli
from hypersum.errors import ConvergenceError, DomainError
from hypersum.partial_sums import HypParams, gn_direct
from hypersum.polycore import DEGREE_CAP, Poly, horner
from hypersum import roots as roots_module
from hypersum.roots import (
    _companion_roots,
    _min_pair_distance,
    _root_table,
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


def _polish_oracle(coeffs: list, z: np.ndarray) -> np.ndarray:
    """The guarded Newton polish on one polynomial, as find_roots ran it
    before the root table: horner on all of its roots, then on the roots
    still active. Refines z in place."""
    value, derivative, mass = horner(coeffs, z)
    err = np.abs(value) / np.maximum(1.0, mass)
    active = np.flatnonzero(err > 0)
    for _ in range(roots_module.POLISH_STEPS):
        if not active.size:
            break
        trial = z[active] - value[active] / derivative[active]
        t_value, t_derivative, t_mass = horner(coeffs, trial)
        t_err = np.abs(t_value) / np.maximum(1.0, t_mass)
        take = np.isfinite(trial) & (t_err < err[active])
        active = active[take]
        z[active] = trial[take]
        value[active] = t_value[take]
        derivative[active] = t_derivative[take]
        err[active] = t_err[take]
    return z


def _find_roots_oracle(f: Poly, tol: float = 1e-10) -> tuple[complex, ...]:
    """find_roots one polynomial at a time, with _polish_oracle and
    horner: the reference the root table is held to bit for bit."""
    if f.degree < 1:
        raise DomainError("root finding needs degree >= 1")
    scale = f.max_coeff()
    coeffs = [c / scale for c in f.coeffs]
    if not any(c.imag for c in coeffs):
        coeffs = [c.real for c in coeffs]
    zeros = next(k for k, c in enumerate(coeffs) if c)
    rest = coeffs[zeros:]
    with np.errstate(all="ignore"):
        if len(rest) > 2:
            found = _polish_oracle(rest, _companion_roots(rest))
        elif len(rest) == 2:
            found = np.array([-rest[0] / rest[1]], dtype=complex)
        else:
            found = np.zeros(0, dtype=complex)
        roots = np.concatenate((np.zeros(zeros, dtype=complex), found))
        value, _, mass = horner(coeffs, roots)
        bad = ~(np.isfinite(mass) & (np.abs(value) <= tol * np.maximum(1.0, mass)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"residual {abs(value[i]):.3e} at root {roots[i]} exceeds tolerance"
        )
    return tuple(complex(r) for r in roots)


def _bits(roots) -> bytes:
    """The bytes of a root sequence: equal bit for bit, signed zeros too."""
    return np.asarray(roots, dtype=complex).tobytes()


def _outcome(solve, f):
    """The roots' bytes, or the type and message of what solve raised."""
    try:
        return _bits(solve(f))
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name, n", [
    ("exp", 123), ("exp", 170), ("2F3(1,1.5;2,2.5,3)", 100), ("0F1(;1)", 90),
])
def test_polish_never_raises_a_backward_error(name, n):
    # find_roots keeps the companion's root order, so each polished root
    # stands against its own eigenvalue.
    a, b = ROOTS_FAMILIES[name]
    g = gn_direct(HypParams(a=a, b=b), n)
    raw = _companion_roots([c.real for c in g.coeffs])
    before = _backward_errors(g, raw)
    after = _backward_errors(g, find_roots(g))
    assert np.all(after <= before)
    assert np.max(after) <= 1e-10


def _admissible_families(seed: int, count: int) -> list[HypParams]:
    """Seeded real families that meet location_report's preconditions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.randint(0, 3)
        p = rng.randint(0, q)
        b = tuple(rng.uniform(1.0, 4.0) for _ in range(q))
        a = tuple(rng.uniform(0.05, b[j]) for j in range(p))
        out.append(HypParams(a=a, b=b))
    return out


TABLE_FAMILIES = [
    HypParams(a=a, b=b) for a, b in (
        ((), ()), ((), (1.0,)), ((1.0,), (2.0,)),
        ((1.0, 1.5), (2.0, 2.5, 3.0)), ((), (1.3, 2.2)),
    )
] + _admissible_families(20261019, 20)


@pytest.mark.parametrize("params", TABLE_FAMILIES)
def test_root_table_rows_are_the_roots_of_each_degree_alone(params):
    polys = [gn_direct(params, n) for n in range(2, 26)]
    table, mask = _root_table(polys)
    assert table.shape == (24, 25)
    for g, row, present in zip(polys, table, mask):
        assert present.tolist() == [k < g.degree for k in range(25)]
        want = _bits(find_roots(g))
        assert _bits(row[: g.degree]) == want == _bits(_find_roots_oracle(g))
        assert not row[g.degree :].any()


def test_stack_of_one_equals_the_oracle_at_the_cap():
    # Every degree of 166..170 that gn_direct accepts: exp, 1F1(1;1),
    # 1F1(1;2) and 2F1(1,1;2) reach the cap; 0F1(;1) and 2F3 stop earlier.
    solved = set()
    for name, (a, b) in sorted(ROOTS_FAMILIES.items()):
        for n in range(166, DEGREE_CAP + 1):
            try:
                g = gn_direct(HypParams(a=a, b=b), n)
            except DomainError:  # gn_direct's limit for this family
                continue
            assert _outcome(find_roots, g) == _outcome(_find_roots_oracle, g), (name, n)
            solved.add(name)
    assert solved == {"exp", "1F1(1;1)", "1F1(1;2)", "2F1(1,1;2)"}


COMPLEX_POLYS = (
    gn_direct(HypParams(a=(0.5 + 0.3j,), b=(1.2 - 0.4j, 2.1 + 0.2j)), 14),
    Poly((0, 0, 1j, 2 - 1j, 0.5, -3j, 1 + 1e-3j)),  # z^2 times a quintic
    Poly((-2j, 2 - 1j, 1)),
    Poly((1.5 - 2j, -3)),  # degree 1, solved exactly
    Poly((0, 0, 0, 2.5j)),  # z^3: zero roots only
)


def test_complex_coefficients_take_the_complex_companion_path():
    # A real row and complex rows in one table: each row is its own solve,
    # whatever its neighbours.
    polys = [gn_direct(EXP, 9), *COMPLEX_POLYS]
    table, mask = _root_table(polys)
    for f, row, present in zip(polys, table, mask):
        assert _bits(row[present]) == _bits(find_roots(f)) == _bits(_find_roots_oracle(f))
    assert _bits(find_roots(COMPLEX_POLYS[1])[:2]) == _bits([0j, 0j])


def test_root_table_raises_the_first_failing_polynomial(monkeypatch):
    # Eigenvalues moved far off the roots of g_5 and g_8 fail the residual
    # gate after the polish; the table raises g_5's error, the one
    # find_roots raises on g_5 alone.
    companion = roots_module._companion_roots

    def shifted(coeffs):
        w = companion(coeffs)
        return w * 0 + 100.0 if len(coeffs) - 1 in (5, 8) else w

    monkeypatch.setattr(roots_module, "_companion_roots", shifted)
    polys = [gn_direct(EXP, n) for n in range(2, 11)]
    with pytest.raises(ConvergenceError) as first:
        _root_table(polys)
    with pytest.raises(ConvergenceError) as alone:
        find_roots(polys[3])
    assert str(first.value) == str(alone.value)
    assert _root_table(polys[:3])[0].shape == (3, 4)
    with pytest.raises(DomainError, match="degree >= 1"):
        _root_table([Poly((1,)), *polys])
    # A constant after a failing polynomial: the failure comes first.
    with pytest.raises(ConvergenceError) as before:
        _root_table([*polys, Poly((1,))])
    assert str(before.value) == str(alone.value)
    table, mask = _root_table([])
    assert table.shape == mask.shape == (0, 0)


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


def _newton_refined(coeffs, z0, dps=50):
    """The root of the polynomial with exactly these float coefficients
    nearest z0, by Newton's method at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        c = [mpmath.mpc(x) for x in reversed(coeffs)]
        z = mpmath.mpc(z0)
        for _ in range(8):
            value, derivative = mpmath.polyval(c, z, derivative=True)
            step = value / derivative
            z -= step
        assert abs(step) <= mpmath.mpf(10) ** (20 - dps) * abs(z)  # converged
        return complex(z)


@pytest.mark.parametrize("name, n, bound", [
    # Each bound is about 3x the largest relative error find_roots shows
    # (8.6e-15, 1.3e-12, 6.7e-14, 4.7e-11, 1.5e-14, 1.2e-11 in this order).
    # Stopping the polish once |g(z)| <= gamma_2n·mass(z) loses 12-160x on
    # every case; stopping at |g(z)| <= eps/2·mass(z) loses 12x on exp, 25.
    ("exp", 15, 3e-14), ("exp", 25, 4e-12),
    ("0F1(;1)", 15, 2e-13), ("0F1(;1)", 25, 1.5e-10),
    ("2F3(1,1.5;2,2.5,3)", 15, 5e-14), ("2F3(1,1.5;2,2.5,3)", 25, 4e-11),
])
def test_roots_forward_error_against_refined_oracle(name, n, bound):
    # Forward accuracy, not only backward error: each root against the
    # root of the same float64 coefficients refined at 50 digits.
    a, b = ROOTS_FAMILIES[name]
    g = gn_direct(HypParams(a=a, b=b), n)
    roots = np.array(find_roots(g))
    ref = np.array([_newton_refined(g.coeffs, r) for r in roots])
    assert len(set(ref.round(12).tolist())) == n  # one distinct root each
    assert np.max(np.abs(roots - ref) / np.abs(ref)) <= bound


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


def test_report_measures_the_pair_distance_once(monkeypatch):
    calls = []

    def counted(rs):
        calls.append(len(rs))
        return _min_pair_distance(rs)

    monkeypatch.setattr("hypersum.roots._min_pair_distance", counted)
    # 0F1(;1) g_2 = (1 + z/2)^2 has a double root: simple is False there.
    for params, n, simple in ((HypParams(a=(1.0,), b=(2.0,)), 8, True),
                              (HypParams(a=(), b=(1.0,)), 2, False)):
        calls.clear()
        report = location_report(params, n)
        assert calls == [n]
        assert report.simple is simple is check_simple(report.roots)
        assert report.min_pair_distance == _min_pair_distance(report.roots)


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
