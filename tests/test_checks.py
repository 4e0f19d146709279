"""The named verification checks behind the verify command."""

import math
import random
import sys

import numpy as np
import pytest

from hypersum import checks, cli, operators, partial_sums, pfq, roots, sobolev
from hypersum.checks import (
    CHECK_ORDER,
    CheckResult,
    check_axis_rep,
    check_circle_rep,
    check_ode,
    check_pencil,
    check_recurrence,
    check_rifrac,
    check_roots,
    check_sobolev,
    inapplicable_reason,
    run_checks,
)
from hypersum.errors import ConvergenceError, DomainError
from hypersum.operators import build_R, kappa, op_compose, op_theta
from hypersum.partial_sums import (
    Gn_monic,
    HypParams,
    gn_by_recurrence,
    gn_direct,
    hyp_coeff,
    read_family,
)
from hypersum.pfq import (
    convergence_report,
    integral_rep_negative_axis,
    integral_rep_negative_axis_numeric,
)
from hypersum.polycore import Poly, coeff_table, horner, modulus
from hypersum.ri_pencils import (
    JacobiPencil,
    _band_coeff_stack,
    _pencil_bands,
    ri_generate,
    tfraction_from_hyp,
)
from hypersum.roots import find_roots, location_report
from test_acceptance import FIXED_SETS
from test_operators import _former_application_mass, _former_op_apply
from test_partial_sums import _bits, _extreme_family, _former_gn_by_recurrence
from test_pfq import (
    _former_axis_quadrature,
    _former_axis_termwise,
    _former_terminating_pfq_poly,
)
from test_ri_pencils import (
    _band_stack,
    _former_band_row_sums,
    _former_ri_generate,
    _random_pencil,
)
from test_roots import _admissible_families, _find_roots_oracle
from test_sobolev import _former_monomial_quadrature_defect

EXP = HypParams(a=(), b=())
GEOMETRIC = HypParams(a=(1.0,), b=())


def _family(params):
    """The family record run_checks reads: to the largest clamp, 25."""
    return read_family(params, 25)


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
    """check_ode formed degree by degree, as verify_ode and r_image form
    their residuals, on the former scalar op_apply loop rather than the
    stack engine."""
    N = min(n_max, 25)
    R = build_R(params)
    theta_R = op_compose(op_theta(), R)
    worst = 0.0
    for n in range(N + 1):
        g = gn_direct(params, n)
        mass_scale = _former_application_mass(R, g)
        scale = max(1.0, n * mass_scale)
        Rg = _former_op_apply(R, g)
        eigen = _former_op_apply(theta_R, g) - Rg.scale(n)
        worst = max(worst, eigen.max_coeff() / scale)
        mono = Rg.scale(-kappa(params, n))
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
    assert check_ode(_family(params), n_max) == _ode_by_degree(params, n_max)


def _former_rel_coeff_dev(reference, candidate):
    worst = 0.0
    for ref, cand in zip(reference, candidate):
        for k in range(max(ref.degree, cand.degree) + 1):
            r, c = ref.coeff(k), cand.coeff(k)
            worst = max(worst, abs(r - c) / (abs(r) or 1.0))
    return worst


def _former_scaled_coeff_dev(reference, candidate):
    worst = 0.0
    for ref, cand in zip(reference, candidate):
        pairs = [(ref.coeff(k), cand.coeff(k))
                 for k in range(max(ref.degree, cand.degree) + 1)]
        scale = max((max(abs(r), abs(c)) for r, c in pairs), default=0.0) or 1.0
        worst = max(worst, max((abs(r - c) for r, c in pairs), default=0.0) / scale)
    return worst


def _recurrence_by_degree(params, n_max):
    """The recurrence and rifrac measures formed from Poly lists, one
    gn_direct and one Gn_monic call per degree, deviations by Python loops."""
    N = min(n_max, 25)
    direct_g = [gn_direct(params, n) for n in range(N + 1)]
    direct_G = [Gn_monic(params, n) for n in range(N + 1)]
    g_dev = _former_rel_coeff_dev(direct_g, gn_by_recurrence(params, N))
    polys, validity = ri_generate(tfraction_from_hyp(params, N), N)
    G_dev = _former_scaled_coeff_dev(direct_G, polys)
    return max(g_dev, G_dev), G_dev if validity.valid else math.inf


def _random_family(rng):
    """p, q in 0..3, half of them complex; real parts down to -2.5."""
    lo = rng.choice((-2.5, 0.2))
    cplx = rng.random() < 0.5

    def draw():
        x = rng.uniform(lo, 3.0)
        return complex(x, rng.uniform(-1.0, 1.0)) if cplx else x

    p, q = rng.randint(0, 3), rng.randint(0, 3)
    return HypParams(a=tuple(draw() for _ in range(p)),
                     b=tuple(draw() for _ in range(q)))


@pytest.mark.parametrize("seed", range(6))
def test_family_checks_equal_the_degree_by_degree_references(seed):
    rng = random.Random(f"{seed}:family-checks")
    for _ in range(8):
        params = _random_family(rng)
        n_max = rng.choice((0, 1, 10, 25))
        assert check_ode(_family(params), n_max) == _ode_by_degree(params, n_max)
        recurrence, rifrac = _recurrence_by_degree(params, n_max)
        assert check_recurrence(_family(params), n_max).max_residual == recurrence
        assert check_rifrac(_family(params), n_max).max_residual == rifrac


def _one_refusal(message):
    """{check: message} for the four family checks and --check all."""
    return {name: message for name in ("recurrence", "ode", "sobolev", "rifrac")} | {
        "all": message
    }


# (a, b, {check: message}) of families whose coefficient sequence
# overflows or underflows by degree 2. Every family check reads the
# sequence first and raises its one refusal: what the first failing
# gn_direct(params, n) raises. "all" is --check all, whose messages are
# those of the degree-by-degree loops that came before.
OVERFLOW_ERRORS = [
    ((1e200,), (), _one_refusal("non-finite coefficient xi_2: (inf+0j)")),
    ((1e300,), (), _one_refusal("non-finite coefficient xi_2: (inf+0j)")),
    ((1e200, 1e200), (), _one_refusal("non-finite coefficient xi_1: (nan+nanj)")),
    ((), (1e100, 1e100, 1e100), _one_refusal(
        "coefficient xi_2 underflowed to zero; degree would collapse")),
]


@pytest.mark.parametrize("a, b, messages", OVERFLOW_ERRORS)
def test_family_checks_raise_the_first_error_of_the_degree_loop(a, b, messages):
    params = HypParams(a=a, b=b)
    for name, message in messages.items():
        names = CHECK_ORDER if name == "all" else [name]
        with pytest.raises(DomainError) as exc:
            run_checks(params, 25, 0, names, skip_inapplicable=name == "all")
        assert str(exc.value) == message


def _refusal(run):
    """The message of the DomainError or ConvergenceError run raises, or
    None; any other exception escapes."""
    try:
        run()
    except (ConvergenceError, DomainError) as exc:
        return str(exc)
    return None


# Each degree-taking check's clamp: the degree it reads the sequence to.
CLAMPS = {"recurrence": 25, "ode": 25, "sobolev": 15, "circle-rep": 10,
          "axis-rep": 20, "roots": 25, "rifrac": 25}


@pytest.mark.parametrize("seed", range(4))
def test_a_sequence_refusal_is_the_same_for_every_family_check(seed):
    # Every degree-taking check first reads xi_0..xi_N of the family record
    # at its own clamp; where that read refuses, the check alone and
    # --check all refuse with the same message, and so do the routes that
    # read the sequence at one degree, and the convergence report. No family
    # makes a check raise anything but a DomainError or a ConvergenceError.
    rng = random.Random(f"{seed}:extreme")
    refused = 0
    for _ in range(25):
        params = _extreme_family(rng)
        n_max = rng.choice((1, 2, 5, 25))
        family = _family(params)
        for name, clamp in CLAMPS.items():
            got = _refusal(lambda: run_checks(params, n_max, 0, [name]))
            want = _refusal(lambda: family.seq(min(n_max, clamp)))
            if want is not None and inapplicable_reason(name, params) is None:
                assert got == want
        n = min(n_max, 25)
        want = _refusal(lambda: family.seq(n))
        if want is not None:
            refused += 1
            assert _refusal(lambda: run_checks(
                params, n_max, 0, CHECK_ORDER, draws=0, skip_inapplicable=True
            )) == want
            for route in (gn_direct, Gn_monic, hyp_coeff, kappa):
                assert _refusal(lambda: route(params, n)) == want
            if params.p <= params.q + 1:
                assert _refusal(lambda: convergence_report(params, [1, n], [1j])) == want
    assert refused >= 6


# (params, n_max, check, message): a stage past the sequence read that
# overflows names itself and its first bad degree.
STAGE_ERRORS = [
    (HypParams(a=(-3.0373304329852997e102 + 4.781161783162749e102j,)), 2, "ode",
     "theta(R g_2) overflowed double precision in the ode check"),
    # b of modulus ~1e154: |kappa_2| and the scale of G_2 exceed the float
    # range although every part is finite.
    (HypParams(b=(9.44001724555802e153 - 2.940212464201619e153j,)), 2, "ode",
     "|kappa_2| overflowed double precision in the ode check"),
    (HypParams(b=(9.44001724555802e153 - 2.940212464201619e153j,)), 2,
     "recurrence", "the coefficient scale of G_2 overflowed double precision "
     "in the recurrence check"),
    (HypParams(b=(9.44001724555802e153 - 2.940212464201619e153j,)), 2,
     "rifrac", "the coefficient scale of G_2 overflowed double precision "
     "in the rifrac check"),
    (HypParams(a=(1e200, 1e200)), 0, "ode",
     "expanding R overflowed double precision: non-finite coefficient: (inf+0j)"),
]


@pytest.mark.parametrize("params, n_max, name, message", STAGE_ERRORS)
def test_a_stage_overflow_names_the_stage_and_degree(params, n_max, name, message):
    with pytest.raises(DomainError) as exc:
        run_checks(params, n_max, 0, [name])
    assert str(exc.value) == message


def test_an_overflowing_scale_is_divided_in_two_steps():
    # 1e300·1e10 overflows; the ratio is still 1 / 1e310, not 1 / inf = 0.
    value, factor, mass = (np.array([[x]]) for x in (1.0, 1e300, 1e10))
    assert checks._over_scale(value, factor, mass)[0, 0] == 1.0 / 1e300 / 1e10 > 0
    assert checks._over_scale(value, factor / 1e10, mass)[0, 0] == 1.0 / 1e300


def test_a_modulus_beyond_the_float_range_is_no_crash():
    # |kappa_1|^2 = 1.2e530 and |1/xi_2| > 1.8e308 read as inf, where
    # Python's abs and float pow raised OverflowError. The Gram diagonal
    # target |kappa_n|^-2 is then 0, as exact arithmetic rounds it, and the
    # diagonal clause measures the Gram entry against 0.1 of the largest.
    big = HypParams(b=(-1.1115136222221331e265,))
    gram = sobolev.sobolev_gram(big, 1)
    _, max_diag = sobolev.gram_extremes(gram)
    diag_rel = max(abs(gram[0][0] - 1.0) / max(1.0, 0.1 * max_diag),
                   abs(gram[1][1]) / (0.1 * max_diag))
    assert check_sobolev(_family(big), 1) == _sobolev_result(big, 1, diag_rel)
    wide = HypParams(b=(9.44001724555802e153 - 2.940212464201619e153j,))
    assert check_sobolev(_family(wide), 2).status == "PASS"
    polys, validity = ri_generate(tfraction_from_hyp(wide, 2), 2)
    assert validity.valid
    with pytest.raises(OverflowError):
        abs(polys[2].coeffs[0])


def _sobolev_with_kappa_calls(params, n_max):
    """The diagonal clause of check_sobolev as written with one
    kappa(params, n) call per degree, each rebuilding xi_0..xi_n."""
    m = min(n_max, 15)
    gram = np.array(sobolev.sobolev_gram(params, m))
    _, max_diag = sobolev.gram_extremes(gram)
    diag_rel = 0.0
    for n in range(m + 1):
        target = 1.0 / abs(kappa(params, n)) ** 2
        denom = max(target, 0.1 * max_diag)
        diag_rel = max(diag_rel, abs(complex(gram[n, n]) - target) / denom)
    return diag_rel


def _sobolev_result(params, n_max, diag_rel):
    """The CheckResult of check_sobolev with the given diagonal clause."""
    m = min(n_max, 15)
    off, max_diag = sobolev.gram_extremes(sobolev.sobolev_gram(params, m))
    rule = sobolev.QuadratureRule(
        sobolev.auto_node_count(m, max(params.p, params.q + 1)))
    pairs = [(k, l) for k in range(7) for l in range(7)] + [(rule.n_nodes - 1, 0)]
    defect = max(sobolev.monomial_quadrature_defect(rule, k, l) for k, l in pairs)
    measured = max(off / (1e-10 * max_diag), diag_rel / 1e-9, defect / 1e-14)
    fmt = checks._fmt
    return CheckResult(
        "sobolev", "PASS" if measured <= 1.0 else "FAIL", measured, 1.0,
        f"offdiag {fmt(off)} vs maxdiag {fmt(max_diag)}, diag rel "
        f"{fmt(diag_rel)}, quad defect {fmt(defect)}")


@pytest.mark.parametrize("seed", range(3))
def test_sobolev_reads_kappa_from_the_one_sequence(seed, monkeypatch):
    rng = random.Random(f"{seed}:sobolev-kappa")
    cases = [(_random_family(rng), rng.choice((1, 10, 15))) for _ in range(8)]
    wants = [_sobolev_with_kappa_calls(p, n) for p, n in cases]

    def refuse(*args):
        raise AssertionError("kappa_n must not rebuild the sequence")

    # kappa() reads the family record through operators.read_family.
    monkeypatch.setattr(operators, "read_family", refuse)
    for (params, n_max), want in zip(cases, wants):
        got = check_sobolev(_family(params), n_max)
        assert got == _sobolev_result(params, n_max, want)


def _count_ri_engine(monkeypatch):
    # The checks run the monic recurrence on ri_generate's engine.
    calls = []
    original = checks._ri_rows

    def counting(rec, N):
        calls.append(N)
        return original(rec, N)

    monkeypatch.setattr(checks, "_ri_rows", counting)
    return calls


def test_recurrence_and_rifrac_share_one_monic_comparison(monkeypatch):
    calls = _count_ri_engine(monkeypatch)
    params = ODE_FAMILIES[2]
    run_checks(params, 25, 1, CHECK_ORDER, draws=5, skip_inapplicable=True)
    assert calls == [25]
    # Nothing is kept from one run_checks call to the next.
    run_checks(params, 25, 1, CHECK_ORDER, draws=5, skip_inapplicable=True)
    assert calls == [25, 25]
    # One monic recurrence per record and degree, whichever check asks first.
    family = _family(params)
    check_rifrac(family, 25)
    check_recurrence(family, 25)
    check_rifrac(family, 25)
    assert calls == [25, 25, 25]
    check_recurrence(family, 10)
    assert calls == [25, 25, 25, 10]


@pytest.mark.parametrize("params", ODE_FAMILIES + [GEOMETRIC])
def test_rifrac_inside_all_equals_the_standalone_check(params):
    for n_max in (0, 1, 10, 25):
        results = run_checks(params, n_max, 1, CHECK_ORDER, draws=0,
                             skip_inapplicable=True)
        inside = {r.name: r for r in results}["rifrac"]
        alone = check_rifrac(_family(params), n_max)
        assert inside == alone
        assert inside.max_residual.hex() == alone.max_residual.hex()


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
    assert check_ode(_family(ODE_FAMILIES[2]), 25).status == "PASS"
    assert len(calls) == 1


def test_sobolev_check_does_not_expand_R(monkeypatch):
    def refuse(*args):
        raise AssertionError("R is not needed to read its order")

    monkeypatch.setattr(sobolev, "build_sobolev_form", refuse)
    monkeypatch.setattr(sobolev, "build_R", refuse)
    assert check_sobolev(_family(ODE_FAMILIES[2]), 10).status == "PASS"


def test_sobolev_computes_its_exactness_clause_once_per_node_count(monkeypatch):
    # 1F1 and 2F1 at n_max 15 both take the 64-node rule (rho = 2), and
    # 1F1 at n_max 10 the 32-node one; the clause reads the node count alone.
    calls = []
    original = checks.monomial_quadrature_defect

    def counting(rule, k, m):
        calls.append(rule.n_nodes)
        return original(rule, k, m)

    monkeypatch.setattr(checks, "monomial_quadrature_defect", counting)
    checks._exactness_defect.cache_clear()
    cases = [(HypParams(a=(1.0,), b=(2.0,)), 15), (HypParams(a=(1.0, 1.5), b=(2.5,)), 15),
             (HypParams(a=(1.0,), b=(2.0,)), 10), (HypParams(a=(0.5,), b=(3.0,)), 10)]
    for params, n_max in cases:
        family = _family(params)
        assert check_sobolev(family, n_max) == _former_sobolev_check(family, n_max)
    assert calls == [64] * 50 + [32] * 50


@pytest.mark.parametrize("table", [
    lambda: checks._pencil_ranges(7),
    lambda: (pfq._unit_circle_nodes(pfq.CIRCLE_NODES),),
    lambda: pfq._unit_gauss_legendre(pfq.AXIS_NODES),
], ids=["pencil-ranges", "circle-nodes", "gauss-legendre"])
def test_the_tables_built_once_per_process_are_read_only(table):
    arrays = table()
    assert all(again is array for again, array in zip(table(), arrays))
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


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


def _former_draw_pencils(rng, draws):
    """checks._draw_pencils as it was: one rng.random() per value."""
    raw = {}
    for _ in range(int(draws)):
        N = rng.randint(2, 12)
        count = 5 * N + 2 + 2 * 20
        raw.setdefault(N, []).extend([rng.random() for _ in range(count)])
    groups = {}
    for N, flat in raw.items():
        ranges = [r for r in checks._PENCIL_BAND_RANGES for _ in range(N)]
        ranges += checks._PENCIL_SEED_RANGES + checks._PENCIL_LAMBDA_RANGES * 20
        lo, hi = np.array(ranges).T
        groups[N] = lo + (hi - lo) * np.array(flat).reshape(-1, len(ranges))
    return groups


@pytest.mark.parametrize("seed", range(50))
def test_draws_equal_the_random_loop(seed):
    # getrandbits words turned into doubles by CPython's random() formula:
    # the same doubles, and the generator left in the same state.
    for draws in (0, 1, 7, 200, 1000):
        rng, reference = (random.Random(f"{seed}:pencil") for _ in range(2))
        got = checks._draw_pencils(rng, draws)
        want = _former_draw_pencils(reference, draws)
        assert list(got) == list(want)
        assert all(np.array_equal(got[N], want[N]) for N in want)
        assert rng.getstate() == reference.getstate()


def _pencil_check_oracle(rng, draws=200, tol=None):
    """The pencil check as it was written on JacobiPencil objects: each
    draw builds a validated pencil with random.uniform, and each size group
    is stacked from _pencil_bands of its pencils, solved by the band engine
    and summed by the former row-sum pass."""
    tol = 1e-10 if tol is None else tol
    worked = JacobiPencil(
        j3_diag=(0.0, 0.0),
        j3_offdiag=(1.0, 1.0),
        j5_diag=(0.0, 0.0),
        j5_off1=(0.0, 0.0),
        j5_off2=(1.0, 1.0),
        alpha=1.0,
        beta=0.0,
    )
    worst = 0.0
    P = _band_coeff_stack(_pencil_bands(worked, 1)[:, None], [1.0], [0.0], 2)
    if P[0, 2].tolist() != [0.0, 0.0, 1.0]:
        worst = math.inf
    groups = {}
    for _ in range(int(draws)):
        N = rng.randint(2, 12)
        pencils, lams = groups.setdefault(N, ([], []))
        pencils.append(_random_pencil(rng, N))
        lams.append(
            [complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
             for _ in range(20)]
        )
    for N, (pencils, lams) in sorted(groups.items()):
        bands, alpha, beta = _band_stack(pencils, N - 1)
        coeffs = _band_coeff_stack(bands, alpha, beta, N)
        diagonal = np.diagonal(coeffs, axis1=1, axis2=2)
        if np.triu(coeffs, 1).any() or not (diagonal > 0).all():
            worst = math.inf
        total, scale = _former_band_row_sums(bands, coeffs, lams, N - 1)
        ratio = np.abs(total).max(axis=1) / np.maximum(scale.max(axis=1), 1.0)
        worst = float(np.max([worst, ratio.max()]))
    return CheckResult(
        "pencil",
        "PASS" if worst <= tol else "FAIL",
        worst,
        tol,
        f"max residual/scale over {draws} pencils, 20 lambdas each",
    )


@pytest.mark.parametrize("seed", range(40))
def test_pencil_check_equals_the_jacobi_pencil_oracle(seed):
    for draws in (0, 1, 7, 200):
        rng, reference = (random.Random(f"{seed}:pencil") for _ in range(2))
        assert check_pencil(rng, draws) == _pencil_check_oracle(reference, draws)
        assert rng.getstate() == reference.getstate()


def test_pencil_check_is_family_independent():
    # The pencils come from the seed alone, so unrelated families agree.
    families = (HypParams(a=(1.0,), b=(2.0,)),
                HypParams(a=(0.5 + 0.25j, 1.5, 2.0 - 0.5j), b=(1.25 + 0.5j,)))
    first, second = (run_checks(f, 10, 4, ["pencil"], draws=50) for f in families)
    assert first == second
    assert first != run_checks(families[0], 10, 5, ["pencil"], draws=50)


def _record_pencil_calls(monkeypatch, perturb=None):
    """Wrap the band-level solve and residual that check_pencil calls on its
    random draws and, in the solve's last row, the worked p_2 example.
    Returns the lists of solve calls (N, bands, alpha, beta) and of
    row-sum calls (rows, lams); each row-sum call must return what the
    former row-sum pass returns on the same arguments."""
    solves, row_sums = [], []
    solve, sums = checks._band_coeff_stack, checks._band_row_sums

    def recording_solve(bands, alpha, beta, N):
        out = solve(bands, alpha, beta, N)
        if perturb is not None:
            perturb(out)
        solves.append((N, bands, alpha, beta))
        return out

    def recording_row_sums(bands, coeffs, lams, rows):
        row_sums.append((rows, lams))
        out = sums(bands, coeffs, lams, rows)
        want = _former_band_row_sums(bands, coeffs, lams, rows)
        assert all(np.array_equal(o, w) for o, w in zip(out, want))
        return out

    monkeypatch.setattr(checks, "_band_coeff_stack", recording_solve)
    monkeypatch.setattr(checks, "_band_row_sums", recording_row_sums)
    return solves, row_sums


def test_pencil_check_draws_the_same_stream(monkeypatch):
    solves, row_sums = _record_pencil_calls(monkeypatch)
    rng = random.Random("7:pencil")
    assert check_pencil(rng, 200).status == "PASS"
    reference = random.Random("7:pencil")
    want = sorted(_pencil_draws(reference, 200), key=lambda w: w[0])
    assert rng.getstate() == reference.getstate()
    # One solve of every draw, to the largest size: row n reads band
    # entries <= n only, so a pencil of size N reads its first N - 1. The
    # worked pencil is the last row: the padding, alpha 1 and beta 0.
    [(N, bands, alpha, beta)] = solves
    assert N == 12 and bands.shape == (5, 201, 11)
    assert (bands[:, -1] == np.array([[0.0], [1.0], [0.0], [0.0], [1.0]])).all()
    assert (alpha[-1], beta[-1]) == (1.0, 0.0)
    # One row-sum pass per size, in size order, each in draw order.
    assert [rows + 1 for rows, _ in row_sums] == sorted({w[0] for w in want})
    sizes = [rows + 1 for rows, lams in row_sums for _ in lams]
    lams = [row.tolist() for _, lams in row_sums for row in lams]
    got = []
    for i, (size, lam_row) in enumerate(zip(sizes, lams)):
        read = tuple(tuple(band[i, : size - 1].tolist()) for band in bands)
        got.append((size, read, float(alpha[i]), float(beta[i]), lam_row))
        padding = bands[:, i, size - 1 :]
        assert (padding == np.array([[0.0], [1.0], [0.0], [0.0], [1.0]])).all()
    assert got == [(size, tuple(band[: size - 1] for band in drawn), al, be, lam)
                   for size, drawn, al, be, lam in want]


def test_pencil_check_fails_on_one_perturbed_coefficient(monkeypatch):
    # The last drawn pencil, before the worked one, has size 12, so its
    # p_12 is read: the leading coefficient enters row 10 and the degree
    # test.
    def perturb(coeffs):
        coeffs[-2, -1, -1] *= 1 + 1e-6

    _record_pencil_calls(monkeypatch, perturb)
    result = check_pencil(random.Random("7:pencil"), 200)
    assert result.status == "FAIL"
    assert 1e-10 < result.max_residual < 1e-3


@pytest.mark.parametrize("draws", [0, 200])
def test_pencil_check_fails_on_a_wrong_worked_example(monkeypatch, draws):
    # The worked p_2 = x^2 is read from the last row of the solve; its p_3
    # and beyond are read by nothing.
    def perturb(coeffs):
        coeffs[-1, 2, 1] = 1e-300

    _record_pencil_calls(monkeypatch, perturb)
    result = check_pencil(random.Random("7:pencil"), draws)
    assert (result.status, result.max_residual) == ("FAIL", math.inf)
    monkeypatch.undo()
    baseline = check_pencil(random.Random("7:pencil"), draws)
    _record_pencil_calls(monkeypatch, lambda coeffs: coeffs[-1, 3:].fill(-1.0))
    assert check_pencil(random.Random("7:pencil"), draws) == baseline


def test_pencil_check_reads_no_padded_coefficient(monkeypatch):
    # p_12 of the first pencil (size 2) lies past its N: changing it
    # changes nothing.
    def perturb(coeffs):
        coeffs[0, -1, :] = -1.0

    baseline = check_pencil(random.Random("7:pencil"), 200)
    _record_pencil_calls(monkeypatch, perturb)
    assert check_pencil(random.Random("7:pencil"), 200) == baseline


def _axis_rep_by_point(params, n_max):
    """check_axis_rep from the public per-point functions, each of which
    builds the terminating series again."""
    N = min(n_max, 20)
    worst = 0.0
    for n in range(N + 1):
        g = gn_direct(params, n)
        for x in (-0.1, -1.0, -10.0):
            direct, _, scale = horner(g.coeffs, x)
            term = integral_rep_negative_axis(params, n, x)
            denom = abs(direct) if abs(direct) >= 1e-8 * scale else scale
            worst = max(worst, (abs(term - direct) / denom) / 1e-10)
            quad = integral_rep_negative_axis_numeric(params, n, x)
            worst = max(
                worst, abs(term - quad) / (1e-6 * max(1.0, abs(direct)))
            )
    return CheckResult(
        "axis-rep",
        "PASS" if worst <= 1.0 else "FAIL",
        worst,
        1.0,
        f"normalized worst deviation {checks._fmt(worst)} over n <= {N}",
    )


AXIS_FAMILIES = FIXED_SETS + (
    HypParams(a=(0.7 + 0.2j, 1.1 - 0.3j), b=(1.5 + 0.4j, 2.2, 3.1)),
    HypParams(a=(-2.5 + 0.5j,), b=(0.3 - 1.2j, 4.0 + 2.0j)),
)


@pytest.mark.parametrize("n_max", [0, 3, 20, 25])
@pytest.mark.parametrize("params", AXIS_FAMILIES)
def test_axis_rep_check_equals_per_point_reference(params, n_max):
    assert check_axis_rep(_family(params), n_max) == _axis_rep_by_point(params, n_max)


def test_axis_rep_check_builds_each_terminating_series_once(monkeypatch):
    # One table of every degree's terminating series, whose row n is bit
    # for bit the table of degree n alone.
    tables = []

    def recording(params, ns):
        tables.append((list(ns), pfq._terminating_table(params, ns)))
        return tables[-1][1]

    monkeypatch.setattr(checks, "_terminating_table", recording)
    params = AXIS_FAMILIES[-2]
    for n_max, N in ((7, 7), (25, 20)):
        tables.clear()
        assert check_axis_rep(_family(params), n_max).status == "PASS"
        [(degrees, table)] = tables
        assert degrees == list(range(N + 1))
        for n, row in enumerate(table):
            want = pfq._terminating_table(params, [n])[0]
            assert _bits(row[: n + 1].tolist()) == _bits(want.tolist())
            assert not row[n + 1 :].any()


def _former_axis_rep_check(family, n_max):
    """check_axis_rep as it was written degree by degree: the terminating
    series, the quadrature over the three points, and at each point horner
    and the termwise sum, in the former scalar loops of test_pfq."""
    N = checks._degree(n_max, 20)
    seq = family.seq(N)
    measures, values = [], []
    for n in range(N + 1):
        h = _former_terminating_pfq_poly(family.params, n)
        with np.errstate(all="ignore"):
            quads = _former_axis_quadrature(h, n, checks._AXIS_POINTS)
        row = []
        for x, quad in zip(checks._AXIS_POINTS, quads):
            direct, _, scale = horner(seq[: n + 1], x)
            term = _former_axis_termwise(h, n, x)
            size = modulus(direct)
            denom = size if size >= 1e-8 * scale else scale
            row += [modulus(term - direct) / denom / 1e-10,
                    modulus(term - quad) / (1e-6 * max(1.0, size))]
            values.append((x, direct, term, quad))
        measures.append(row)

    def note(n, j):
        x, direct, term, quad = values[n * 3 + j // 2]
        return f", x = {x} (g_{n}(x) = {direct}, termwise {term}, quadrature {quad})"

    worst = checks._worst(measures, "axis-rep", ("termwise", "quadrature"), note=note)
    return CheckResult("axis-rep", "PASS" if worst <= 1.0 else "FAIL", worst, 1.0,
                       f"normalized worst deviation {checks._fmt(worst)} over n <= {N}")


def _former_sobolev_check(family, n_max):
    """check_sobolev with its exactness clause pair by pair, by the former
    node loop of test_sobolev."""
    m = checks._degree(n_max, 15)
    seq, params = family.seq(m), family.params
    gram = np.array(sobolev.sobolev_gram(params, m))
    off, max_diag = sobolev.gram_extremes(gram)
    kappas = [operators._kappa_from_xi(params, n, xi_n) for n, xi_n in enumerate(seq)]
    with np.errstate(over="ignore"):
        target = np.array([1.0 / k**2 for k in modulus(np.array(kappas))])
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = modulus(gram.diagonal() - target) / np.maximum(target, 0.1 * max_diag)
    diag_rel = checks._worst(diag[:, None], "sobolev", ("diagonal",))
    rule = sobolev.QuadratureRule(sobolev.auto_node_count(m, max(params.p, params.q + 1)))
    pairs = [(k, l) for k in range(7) for l in range(7)] + [(rule.n_nodes - 1, 0)]
    defect = max(_former_monomial_quadrature_defect(rule, k, l) for k, l in pairs)
    measured = max(off / (1e-10 * max_diag), diag_rel / 1e-9, defect / 1e-14)
    fmt = checks._fmt
    return CheckResult(
        "sobolev", "PASS" if measured <= 1.0 else "FAIL", measured, 1.0,
        f"offdiag {fmt(off)} vs maxdiag {fmt(max_diag)}, diag rel "
        f"{fmt(diag_rel)}, quad defect {fmt(defect)}")


def _former_monic_comparison(family, N, check):
    """_monic_comparison on the former Poly loop of ri_generate."""
    direct = checks._monic_table(family.seq(N))
    polys, validity = _former_ri_generate(tfraction_from_hyp(family.params, N), N)
    table = coeff_table([list(P.coeffs) for P in polys], N + 1)
    return checks._scaled_coeff_dev(direct, table, check), validity.valid


def _former_recurrence_check(family, n_max):
    """check_recurrence on the former Poly loops of both recurrences."""
    N = checks._degree(n_max, 25)
    dev_G, _ = _former_monic_comparison(family, N, "recurrence")
    rec_g = coeff_table([list(g.coeffs) for g in _former_gn_by_recurrence(family.params, N)], N + 1)
    measured = max(checks._rel_coeff_dev(family.table(N), rec_g), dev_G)
    return CheckResult("recurrence", "PASS" if measured <= 1e-10 else "FAIL", measured, 1e-10, (
        f"max coefficient deviation {checks._fmt(measured)} (g per-coefficient "
        f"relative, G relative to coefficient scale) over n <= {N}"))


def _former_rifrac_check(family, n_max):
    """check_rifrac on the former Poly loop of ri_generate."""
    N = checks._degree(n_max, 25)
    measured, valid = _former_monic_comparison(family, N, "rifrac")
    if not valid:
        measured = math.inf
    return CheckResult("rifrac", "PASS" if measured <= 1e-12 else "FAIL", measured, 1e-12, (
        f"max coefficient deviation {checks._fmt(measured)} from the direct "
        "monic sums, relative to coefficient scale, "
        f"validity {'clean' if valid else 'violated'}, N = {N}"))


# The checks that run their degrees as one array pass or row engine, each
# with the former per-degree loop it replaced.
PER_DEGREE_ORACLES = {
    "axis-rep": (check_axis_rep, _former_axis_rep_check),
    "sobolev": (check_sobolev, _former_sobolev_check),
    "recurrence": (check_recurrence, _former_recurrence_check),
    "rifrac": (check_rifrac, _former_rifrac_check),
}


def _assert_checks_equal_their_oracles(params, n_max):
    """Each array check gives its oracle's CheckResult, or the same error
    type and message (the same first degree, clause and point); returns the
    outcomes. No check PASSes with a nan measure: the oracles refuse one
    (_worst). A RuntimeWarning fails the test."""
    outcomes = []
    for name, (check, oracle) in PER_DEGREE_ORACLES.items():
        got = _check_outcome(check, _family(params), n_max)
        assert got == _check_outcome(oracle, _family(params), n_max), (name, params, n_max)
        if isinstance(got, CheckResult):
            assert not math.isnan(got.max_residual)
        outcomes.append(got.status if isinstance(got, CheckResult) else got[0])
    return outcomes


@pytest.mark.parametrize("seed", range(4))
def test_array_checks_equal_their_per_degree_oracles(seed):
    # Extreme families, every fourth one a mild family.
    rng = random.Random(f"{seed}:per-degree-oracles")
    seen = set()
    for i in range(40):
        params = _extreme_family(rng) if i % 4 else _random_family(rng)
        seen.update(_assert_checks_equal_their_oracles(params, rng.choice((1, 2, 5, 25))))
    assert {"PASS", "DomainError"} <= seen


# (params, n_max, outcomes of axis-rep, sobolev, recurrence, rifrac):
# families whose array passes meet a FAIL or a stage refusal.
ORACLE_EDGE_FAMILIES = [
    # The monic recurrence loses digits: rifrac FAILs at 4.79e-12.
    (HypParams(a=(-3.79 + 1.84j, -2.88 - 1.47j, -5.04 - 0.21j), b=(4.27 + 1.47j,)), 25,
     ["PASS", "PASS", "PASS", "FAIL"]),
    # The quadrature overflows to nan at degree 2: axis-rep refuses it.
    (HypParams(a=(2.1591727072926584e152 - 7.419495869424143e151j,)), 2,
     ["DomainError", "DomainError", "PASS", "PASS"]),
    (HypParams(a=(1.1936179894187185e153 - 1.3402462889824693e153j,),
               b=(1680217685.9134743 - 946698586.9080684j,
                  -1872940909705610.2 + 3300280769800696.5j, -2.32772429875795e25)), 25,
     ["DomainError"] * 4),
]


@pytest.mark.parametrize("params, n_max, outcomes", ORACLE_EDGE_FAMILIES)
def test_array_checks_equal_their_oracles_at_the_edges(params, n_max, outcomes):
    assert _assert_checks_equal_their_oracles(params, n_max) == outcomes


def _circle_rep_by_point(family, n_max, rng, tol=None):
    """check_circle_rep with its direct side taken point by point: each
    g_n built as a Poly from the family record and evaluated at each of the
    16 angles, against the recovered values of the batch route."""
    tol = 1e-8 if tol is None else tol
    N = checks._degree(n_max, 10)
    seq = family.seq(N)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(16)]
    recovered = pfq.integral_rep_circle_batch(family.params, range(N + 1), angles)
    measures = []
    for n, row in enumerate(recovered):
        g = Poly(seq[: n + 1])
        measures.append([modulus(value - g(complex(math.cos(tau), math.sin(tau))))
                         for value, tau in zip(row, angles)])
    worst = checks._worst(measures, "circle-rep", ("quadrature",))
    detail = f"max |quadrature - direct| {checks._fmt(worst)} over n <= {N}, 16 angles"
    return CheckResult("circle-rep", "PASS" if worst <= tol else "FAIL", worst, tol, detail)


CIRCLE_FAMILIES = FIXED_SETS + (
    HypParams(a=(0.5 + 0.3j,), b=(1.2 - 0.4j, 2.1 + 0.2j)),
    HypParams(a=(1 + 0.5j, 3.0), b=(2 + 0.5j, 4.0, 1.5 - 1.0j)),
)


@pytest.mark.parametrize("n_max", [0, 3, 10, 25])
@pytest.mark.parametrize("params", CIRCLE_FAMILIES)
def test_circle_rep_check_equals_per_point_reference(params, n_max):
    got = _check_outcome(check_circle_rep, _family(params), n_max, random.Random("5:circle-rep"))
    want = _check_outcome(_circle_rep_by_point, _family(params), n_max, random.Random("5:circle-rep"))
    assert got == want


def _roots_check_oracle(family, n_max, tol=None):
    """check_roots as it was written degree by degree: each g_n built once
    by gn_direct and solved alone by the per-polynomial finder (test_roots'
    _find_roots_oracle); its location report and its Vieta target are both
    read from it. A nan Vieta measure is refused."""
    params = family.params
    tol = 1.0 if tol is None else tol
    N = checks._degree(n_max, 25)
    worst, min_modulus_seen, boundary = 0.0, math.inf, 0
    degrees = range(2, N + 1)
    if degrees:
        roots._require_positive_conditions(params)
    for n in degrees:
        g = gn_direct(params, n)
        rep = roots._location_report(g, _find_roots_oracle(g, tol=1e-10))
        min_modulus_seen = min(min_modulus_seen, rep.min_modulus)
        boundary += rep.boundary_root_count
        worst = max(worst, max(0.0, 1.0 - rep.min_modulus) / 1e-9)
        if not rep.simple or rep.positive_real_root_found:
            worst = math.inf
        target = (-1) ** n * g.coeff(0) / g.coeff(n)
        prod = math.prod(rep.roots, start=1 + 0j)
        vieta = (modulus(prod - target) / modulus(target)) / 1e-8
        if math.isnan(vieta):
            raise DomainError(
                f"the Vieta clause is nan at degree {n} in the roots check")
        worst = max(worst, vieta)
    return CheckResult(
        "roots",
        "PASS" if worst <= tol else "FAIL",
        worst,
        tol,
        f"min modulus {checks._fmt(min_modulus_seen)}, boundary roots "
        f"{boundary}, n in [2, {N}]",
    )


ROOTS_FAMILIES = [
    EXP,
    HypParams(a=(1.0,), b=(2.0,)),
    HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0)),
    HypParams(a=(), b=(1.3, 2.2)),
]


@pytest.mark.parametrize("params", ROOTS_FAMILIES)
def test_roots_check_builds_each_partial_sum_once(params, monkeypatch):
    # Each g_n is a row of the family record, built once; gn_direct is not
    # called.
    def refuse(*args):
        raise AssertionError("g_n must be read from the family record")

    family = _family(params)
    monkeypatch.setattr(partial_sums, "gn_direct", refuse)
    monkeypatch.setattr(roots, "gn_direct", refuse)
    result = check_roots(family, 30)
    monkeypatch.undo()
    assert not hasattr(checks, "gn_direct")
    assert result == _roots_check_oracle(family, 30)


def _check_outcome(check, *args):
    """A check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__, str(exc)


# Families whose g_n refuse within the roots check's degrees: xi_8 of
# 0F1(;1e40) underflows, xi_2 of 0F2(;1e300,1e300) (xi_1 already), and
# xi_3 of 0F1(;2.2e154), whose xi_2 is subnormal (at n_max 2 its Vieta
# target is inf, and the clause nan).
ROOTS_REFUSED = (
    HypParams(a=(), b=(1e40,)),
    HypParams(a=(), b=(1e300, 1e300)),
    HypParams(a=(), b=(2.2e154,)),
)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 10, 25, 40])
@pytest.mark.parametrize(
    "params", ROOTS_FAMILIES + list(ROOTS_REFUSED) + _admissible_families(7, 12)
)
def test_roots_check_equals_the_per_degree_oracle(params, n_max):
    # Where the family record refuses within the clamp, the check refuses
    # first, with the line --check all prints: for 0F2(;1e300,1e300) that
    # names xi_1, where the per-degree oracle meets gn_direct's xi_2.
    family = _family(params)
    want = _check_outcome(_roots_check_oracle, family, n_max)
    if _refusal(lambda: family.seq(min(n_max, 25))) is not None:
        want = ("DomainError", _refusal(lambda: run_checks(
            params, n_max, 0, CHECK_ORDER, draws=0, skip_inapplicable=True)))
    assert _check_outcome(check_roots, family, n_max) == want


def test_roots_check_raises_the_lowest_degree_failure(monkeypatch):
    # Roots of g_6 and g_9 made to fail the residual gate: the check
    # raises g_6's convergence error, which run_checks reports as a FAIL.
    companion = roots._companion_roots

    def shifted(coeffs):
        w = companion(coeffs)
        return w * 0 + 100.0 if len(coeffs) - 1 in (6, 9) else w

    monkeypatch.setattr(roots, "_companion_roots", shifted)
    with pytest.raises(ConvergenceError) as got:
        check_roots(_family(EXP), 25)
    with pytest.raises(ConvergenceError) as want:
        find_roots(gn_direct(EXP, 6))
    assert str(got.value) == str(want.value)
    [result] = run_checks(EXP, 25, 0, ["roots"])
    assert result.status == "FAIL"
    assert result.detail == f"did not converge: {want.value}"


def test_roots_check_raises_where_location_report_raises():
    # xi_k of 0F1(;1e40) underflows to zero at k = 8.
    params = HypParams(a=(), b=(1e40,))
    location_report(params, 7)
    with pytest.raises(DomainError) as want:
        location_report(params, 8)
    with pytest.raises(DomainError) as got:
        check_roots(_family(params), 25)
    assert str(got.value) == str(want.value)
    # The preconditions are refused as location_report refused them at
    # n = 2; below that degree nothing is checked.
    bad = HypParams(a=(2.0,), b=(1.0,))
    with pytest.raises(DomainError) as want:
        location_report(bad, 2)
    with pytest.raises(DomainError) as got:
        check_roots(_family(bad), 5)
    assert str(got.value) == str(want.value)
    assert check_roots(_family(bad), 1).status == "PASS"


# verify --check all documents: real and complex families at n_max 10 and
# 25, roots applicable (PASS or FAIL) on some and skipped on the others.
DOCUMENT_FAMILIES = (
    (["--p", "0", "--q", "0"], 10, True),
    (["--p", "2", "--q", "3", "--a", "1,1.5", "--b", "2,2.5,3"], 25, True),
    (["--p", "1", "--q", "1", "--a", "1", "--b", "2"], 25, True),
    (["--p", "0", "--q", "2", "--b", "1.3,2.2"], 10, True),
    (["--p", "0", "--q", "1", "--b", "1"], 10, True),  # g_2 has a double root
    (["--p", "1", "--q", "2", "--a", "0.5+0.3i", "--b", "1.2-0.4i,2.1+0.2i"], 25, False),
    (["--p", "3", "--q", "1", "--a", "1,1.5,2", "--b", "2.5"], 25, False),
    (["--p", "2", "--q", "2", "--a", "1+0.5i,3", "--b", "2+0.5i,4"], 10, False),
)


@pytest.mark.parametrize("family, n_max, roots_runs", DOCUMENT_FAMILIES)
def test_verify_document_equals_the_oracle_checks(
    family, n_max, roots_runs, capsys, monkeypatch
):
    # The same run with check_roots and check_pencil swapped for their
    # per-degree and per-size oracles prints the same bytes.
    argv = ["verify", *family, "--check", "all", "--n-max", str(n_max), "--seed", "3"]
    used = []

    def recorded(oracle):
        def run(*args):
            used.append(oracle)
            return oracle(*args)
        return run

    documents = []
    for swap in (False, True):
        if swap:
            monkeypatch.setattr(checks, "check_roots", recorded(_roots_check_oracle))
            monkeypatch.setattr(checks, "check_pencil", recorded(_pencil_check_oracle))
        code = cli.main(argv)
        documents.append((code, capsys.readouterr().out))
    assert documents[0] == documents[1]
    assert documents[0][0] in (0, 4)
    assert _pencil_check_oracle in used
    assert (_roots_check_oracle in used) == roots_runs


def test_rifrac_fails_when_one_delta_is_perturbed(monkeypatch):
    # delta_5 scaled by 1 + 1e-9 wherever hypersum holds delta_k: the
    # T-fraction moves, the direct monic sums do not, and rifrac sees it.
    # The package holds no exported name; it reads each from its module.
    original = partial_sums.delta_k

    def perturbed(params, k):
        d = original(params, k)
        return d * (1 + 1e-9) if k == 5 else d

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "hypersum" or name.startswith("hypersum."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, perturbed)
                    patched.append(name)
    assert {"hypersum.partial_sums", "hypersum.ri_pencils"} <= set(patched)
    result = check_rifrac(_family(HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0))), 25)
    assert result.status == "FAIL"
    assert 1e-10 < result.max_residual < 1e-8


# A family on which ode, circle-rep and roots all PASS at n_max 10.
SOUND_1F2 = HypParams(a=(1.0,), b=(2.0, 3.0))


def _poison(out, value, where, mask=None):
    """A copy of the array out holding value at its first, middle or last
    entry (of those mask selects, if given)."""
    out = np.array(out, dtype=complex)
    spots = np.flatnonzero(np.ones(out.shape, dtype=bool) if mask is None else mask)
    out.reshape(-1)[spots[{"first": 0, "middle": len(spots) // 2, "last": -1}[where]]] = value
    return out


# Each engine a check reads, the call of it that is poisoned, and how one
# entry of its output is poisoned: the image of R and of theta∘R (the first
# and second _apply_stack call), the recovered values, the direct values,
# the roots.
POISONED_ENGINES = {
    "ode, R g_n": ("ode", checks, "_apply_stack", 0, _poison),
    "ode, theta(R g_n)": ("ode", checks, "_apply_stack", 1, _poison),
    "circle-rep, recovered": ("circle-rep", checks, "integral_rep_circle_batch", 0,
                              lambda out, v, w: _poison(out, v, w).tolist()),
    "circle-rep, direct": ("circle-rep", checks, "horner_rows", 0,
                           lambda out, v, w: (_poison(out[0], v, w), out[1])),
    "roots, root table": ("roots", roots, "_root_table", 0,
                          lambda out, v, w: (_poison(out[0], v, w, out[1]), out[1])),
}


def test_the_poisoned_checks_pass_when_nothing_is_poisoned():
    results = run_checks(SOUND_1F2, 10, 0, ["ode", "circle-rep", "roots"])
    assert [r.status for r in results] == ["PASS"] * 3


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("engine", list(POISONED_ENGINES))
def test_a_non_finite_intermediate_never_passes(engine, value, where, monkeypatch):
    # One entry of one engine output is not finite: the check FAILs or
    # refuses naming its stage, never PASSes.
    check, module, name, call, poison = POISONED_ENGINES[engine]
    original, calls = getattr(module, name), []

    def poisoned(*args):
        out = original(*args)
        calls.append(name)
        return poison(out, value, where) if len(calls) == call + 1 else out

    monkeypatch.setattr(module, name, poisoned)
    try:
        [result] = run_checks(SOUND_1F2, 10, 0, [check])
    except DomainError as exc:
        assert str(exc).endswith(f"in the {check} check"), str(exc)
    else:
        assert result.status == "FAIL", result
    assert len(calls) > call  # the poisoned call was made
