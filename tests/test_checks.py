"""The named verification checks behind the verify command."""

import math
import random

import pytest

from hypersum import checks, operators, sobolev
from hypersum.checks import (
    CHECK_ORDER,
    CheckResult,
    check_ode,
    check_pencil,
    check_sobolev,
    inapplicable_reason,
    run_checks,
)
from hypersum.errors import DomainError
from hypersum.operators import (
    _application_mass,
    build_R,
    kappa,
    r_image,
    verify_ode,
)
from hypersum.partial_sums import HypParams, gn_direct

EXP = HypParams(a=(), b=())
GEOMETRIC = HypParams(a=(1.0,), b=())


def test_all_checks_pass_on_exponential():
    results = run_checks(EXP, 12, 7, CHECK_ORDER, draws=50)
    assert [r.name for r in results] == list(CHECK_ORDER)
    for r in results:
        assert r.status == "PASS", (r.name, r.max_residual, r.detail)
        assert r.max_residual <= r.tolerance


def test_results_are_reproducible():
    a = run_checks(EXP, 8, 3, ("circle-rep", "pencil"), draws=20)
    b = run_checks(EXP, 8, 3, ("circle-rep", "pencil"), draws=20)
    assert [(r.name, r.max_residual) for r in a] == [
        (r.name, r.max_residual) for r in b
    ]


def test_canonical_order_is_imposed():
    results = run_checks(EXP, 6, 0, ("ode", "recurrence"))
    assert [r.name for r in results] == ["recurrence", "ode"]


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        run_checks(EXP, 6, 0, ("recurrence", "bogus"))


def test_inapplicable_reasons():
    assert inapplicable_reason("circle-rep", GEOMETRIC) is not None
    assert inapplicable_reason("circle-rep", EXP) is None
    assert inapplicable_reason("roots", GEOMETRIC) is not None
    assert inapplicable_reason("recurrence", GEOMETRIC) is None


def test_explicit_inapplicable_check_raises():
    with pytest.raises(DomainError):
        run_checks(GEOMETRIC, 6, 0, ("circle-rep",), skip_inapplicable=False)


def test_all_mode_skips_inapplicable():
    results = run_checks(GEOMETRIC, 6, 0, CHECK_ORDER, draws=10,
                         skip_inapplicable=True)
    by_name = {r.name: r for r in results}
    assert by_name["circle-rep"].status == "SKIP"
    assert by_name["roots"].status == "SKIP"
    assert math.isnan(by_name["circle-rep"].max_residual)
    for name in ("recurrence", "ode", "sobolev", "axis-rep", "rifrac", "pencil"):
        assert by_name[name].status == "PASS", by_name[name]


def test_tolerance_override_can_force_failure():
    # The measured residual is honest; an absurd tolerance flips the verdict.
    results = run_checks(EXP, 6, 0, ("recurrence",), tol=1e-30)
    assert results[0].status == "FAIL"
    assert results[0].tolerance == 1e-30
    assert results[0].max_residual > 1e-30


def test_tolerance_override_needs_a_single_check():
    # Checks report on different tolerance scales (1e-12 for rifrac, 1.0
    # for the normalized sobolev), so one number cannot override several.
    for names in (CHECK_ORDER, ("recurrence", "rifrac")):
        with pytest.raises(DomainError, match="single check"):
            run_checks(EXP, 6, 0, names, tol=1e-9)
    # A repeated name is still one check.
    results = run_checks(EXP, 6, 0, ("recurrence", "recurrence"), tol=1e-9)
    assert [(r.name, r.tolerance) for r in results] == [("recurrence", 1e-9)]


def test_positive_param_family_passes_roots_check():
    params = HypParams(a=(0.8,), b=(1.6,))
    results = run_checks(params, 8, 1, ("roots", "rifrac"))
    for r in results:
        assert r.status == "PASS", (r.name, r.detail)


def test_run_checks_calls_the_checks_named_in_this_module(monkeypatch):
    # Dispatch looks each check up when it runs, so a wrapped or substituted
    # check is the one called; each random check gets its own string seed.
    stub = CheckResult("ode", "PASS", 0.0, 1.0, "stub")
    monkeypatch.setattr(checks, "check_ode", lambda params, n_max, tol: stub)
    assert run_checks(EXP, 6, 0, ["ode"]) == [stub]

    states = {}

    def record_circle(params, n_max, rng, tol):
        states["circle-rep"] = rng.getstate()
        return stub

    def record_pencil(rng, draws, tol):
        states["pencil"] = rng.getstate()
        return stub

    monkeypatch.setattr(checks, "check_circle_rep", record_circle)
    monkeypatch.setattr(checks, "check_pencil", record_pencil)
    run_checks(EXP, 6, 3, ["pencil", "circle-rep"])
    assert states == {
        name: random.Random(f"3:{name}").getstate()
        for name in ("circle-rep", "pencil")
    }


ODE_FAMILIES = [
    EXP,
    HypParams(a=(1.0,), b=(2.0,)),
    HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0)),
    HypParams(a=(0.5 + 0.25j, 1.5, 2.0 - 0.5j), b=(1.25 + 0.5j,)),
    HypParams(a=(0.5, 1.5, 2.5), b=(1.5, 2.0, 3.5)),
]


def _ode_by_degree(params, n_max):
    """check_ode formed degree by degree from verify_ode and r_image, each
    of which expands R again."""
    N = min(n_max, 25)
    R = build_R(params)
    worst = 0.0
    for n in range(N + 1):
        mass_scale = _application_mass(R, gn_direct(params, n))
        scale = max(1.0, n * mass_scale)
        worst = max(worst, verify_ode(params, n).max_coeff() / scale)
        mono = r_image(params, n)
        mass = math.fsum(
            abs(mono.coeff(k) - (1.0 if k == n else 0.0))
            for k in range(max(mono.degree, n) + 1)
        )
        worst = max(
            worst, mass / max(1.0, abs(kappa(params, n)) * mass_scale)
        )
    return CheckResult(
        "ode",
        "PASS" if worst <= 1e-9 else "FAIL",
        worst,
        1e-9,
        f"max of scaled eigen-residual and off-monomial mass, n <= {N}",
    )


@pytest.mark.parametrize("n_max", [10, 25])
@pytest.mark.parametrize("params", ODE_FAMILIES)
def test_ode_check_equals_per_degree_reference(params, n_max):
    assert check_ode(params, n_max) == _ode_by_degree(params, n_max)


def test_ode_check_expands_R_once(monkeypatch):
    calls = []

    def counting_build_R(params):
        calls.append(params)
        return build_R(params)

    def refuse(*args):
        raise AssertionError("the check must not rebuild R per degree")

    monkeypatch.setattr(operators, "build_R", counting_build_R)
    monkeypatch.setattr(checks, "build_R", counting_build_R)
    monkeypatch.setattr(operators, "verify_ode", refuse)
    monkeypatch.setattr(operators, "r_image", refuse)
    assert check_ode(ODE_FAMILIES[2], 25).status == "PASS"
    assert len(calls) == 1


def test_sobolev_check_does_not_expand_R(monkeypatch):
    def refuse(*args):
        raise AssertionError("R is not needed to read its order")

    monkeypatch.setattr(sobolev, "build_sobolev_form", refuse)
    monkeypatch.setattr(sobolev, "build_R", refuse)
    assert check_sobolev(ODE_FAMILIES[2], 10).status == "PASS"


def _pencil_draws(rng, draws):
    """(N, band tuples, alpha, beta, lambdas) in the pencil check's draw
    order: N, the five bands, alpha, beta, then 20 (re, im) lambda pairs."""
    out = []
    for _ in range(draws):
        N = rng.randint(2, 12)
        bands = []
        for lo in (-2.0, 0.1, -2.0, -2.0, 0.1):
            bands.append(tuple(rng.uniform(lo, 2.0) for _ in range(N)))
        alpha = rng.uniform(0.1, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        lams = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
                for _ in range(20)]
        out.append((N, tuple(bands), alpha, beta, lams))
    return out


def _record_pencil_calls(monkeypatch, perturb=None):
    """Wrap the stacked solve and residual that check_pencil calls; the
    recorded calls exclude the worked p_2 example, which runs first."""
    calls = []
    solve, row_sums = checks.pencil_coeff_stack, checks.pencil_row_sums

    def recording_solve(pencils, N):
        out = solve(pencils, N)
        if calls or pencils[0].j3_diag != (0.0, 0.0):
            if perturb is not None and not calls:
                perturb(out)
            calls.append([N, pencils, None])
        return out

    def recording_row_sums(pencils, coeffs, lams, rows):
        calls[-1][2] = lams
        return row_sums(pencils, coeffs, lams, rows)

    monkeypatch.setattr(checks, "pencil_coeff_stack", recording_solve)
    monkeypatch.setattr(checks, "pencil_row_sums", recording_row_sums)
    return calls


def test_pencil_check_draws_the_same_stream(monkeypatch):
    calls = _record_pencil_calls(monkeypatch)
    rng = random.Random("7:pencil")
    assert check_pencil(rng, 200).status == "PASS"
    reference = random.Random("7:pencil")
    want = _pencil_draws(reference, 200)
    assert rng.getstate() == reference.getstate()
    got = []
    for N, pencils, lams in calls:
        for pencil, lam_row in zip(pencils, lams, strict=True):
            bands = (pencil.j3_diag, pencil.j3_offdiag, pencil.j5_diag,
                     pencil.j5_off1, pencil.j5_off2)
            got.append((N, bands, pencil.alpha, pencil.beta, lam_row))
    # One stack per size, in size order, each in draw order.
    assert [c[0] for c in calls] == sorted({w[0] for w in want})
    assert got == sorted(want, key=lambda w: w[0])


def test_pencil_check_fails_on_one_perturbed_coefficient(monkeypatch):
    def perturb(coeffs):
        coeffs[0, -1, -1] *= 1 + 1e-6

    _record_pencil_calls(monkeypatch, perturb)
    result = check_pencil(random.Random("7:pencil"), 200)
    assert result.status == "FAIL"
    assert 1e-10 < result.max_residual < 1e-3
