"""The named verification checks behind the verify command."""

import math
import random

import pytest

from hypersum import checks
from hypersum.checks import (
    CHECK_ORDER,
    check_pencil,
    inapplicable_reason,
    run_checks,
)
from hypersum.errors import DomainError
from hypersum.partial_sums import HypParams

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


def test_positive_param_family_passes_roots_check():
    params = HypParams(a=(0.8,), b=(1.6,))
    results = run_checks(params, 8, 1, ("roots", "rifrac"))
    for r in results:
        assert r.status == "PASS", (r.name, r.detail)


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
