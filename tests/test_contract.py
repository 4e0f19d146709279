"""Seeded contract over numeric entry points at extreme magnitudes: r_action,
the operator routes (build_R, op_compose, op_apply, kappa, r_image,
verify_ode), both negative-axis routes and Poly arithmetic; then the
coefficient and partial-sum routes, the Sobolev Gram, the root finder and
its report, the series and its circle representation, the T-fraction and
run_checks; then the pencil routes, the Chebyshev pieces, the quadrature
rule and the Sobolev form's helpers.

Every call returns a finite value or raises DomainError or
ConvergenceError; no other exception and no numpy warning escapes. The
draws are moduli 10^u, u uniform in [-3, 300], 40% of them complex with a
uniform phase, the others real of either sign; a fixed seed keeps the
draws the same on every run. The one documented exception: pencil_residual
reports values that overflow as an inf or nan residual.
"""

import cmath
import math
import random
import warnings
from dataclasses import astuple, is_dataclass

import numpy as np
import pytest

from hypersum import CHECK_ORDER
from hypersum.checks import run_checks
from hypersum.errors import ConvergenceError, DomainError
from hypersum.operators import (LinDiffOp, build_R, kappa, op_apply, op_compose, op_theta,
                                r_action, r_image, verify_ode)
from hypersum.partial_sums import (Gn_by_recurrence, Gn_monic, HypParams, PowerSeriesCoeffs,
                                   delta_k, gn_by_recurrence, gn_direct, hyp_coeff)
from hypersum.pfq import (convergence_report, integral_rep_circle_batch,
                          integral_rep_negative_axis, integral_rep_negative_axis_numeric,
                          pfq_eval)
from hypersum.polycore import Poly
from hypersum.ri_pencils import (JacobiPencil, chebyshev_eval, kernel_decompose,
                                 pencil_polynomials, pencil_residual, pencil_row_terms,
                                 ri_generate, tfraction_from_hyp)
from hypersum.roots import enestrom_kakeya_bounds, find_roots, location_report
from hypersum.sobolev import (QuadratureRule, auto_node_count, build_sobolev_form,
                              monomial_quadrature_defect, sobolev_gram)

DRAWS = 1500


def _number(rng: random.Random, high: float = 300.0) -> complex:
    r = 10.0 ** rng.uniform(-3.0, high)
    if rng.random() < 0.4:
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))
    return complex(r if rng.random() < 0.5 else -r)


def _numbers(value) -> list:
    """The numbers a returned value holds, flattened; a Python int is exact
    and has none that could fail to be finite."""
    if isinstance(value, int):
        return []
    if is_dataclass(value):
        return _numbers(astuple(value))
    if isinstance(value, LinDiffOp):
        return [c for f in value.coeffs for c in f.coeffs]
    if isinstance(value, Poly):
        return list(value.coeffs)
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return [value]


def _finite(value) -> bool:
    return bool(np.isfinite(np.asarray(_numbers(value), dtype=complex)).all())


def _holds(call, *args, refusals=None) -> bool:
    """The contract for one call: False if it returned a non-finite value;
    a warning or any other exception propagates and fails the test. The
    message of a refusal is appended to refusals, if given."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(*args)
        except (DomainError, ConvergenceError) as exc:
            if refusals is not None:
                refusals.append(str(exc))
            return True
    return _finite(value)


def _family(rng: random.Random):
    a = [_number(rng) for _ in range(rng.randint(0, 3))]
    b = [_number(rng) for _ in range(rng.randint(0, 3))]
    try:
        return HypParams(a=tuple(a), b=tuple(b))
    except DomainError:
        return None


def _poly(rng: random.Random) -> Poly:
    if rng.random() < 0.05:  # moderate, so that a product meets the degree cap
        return Poly([_number(rng, 0.0) for _ in range(100)])
    return Poly([_number(rng) for _ in range(rng.randint(1, 8))])


def test_extreme_draws_return_finite_values_or_refuse():
    rng = random.Random("contract")
    broken, stage_refusals = [], []
    for draw in range(DRAWS):
        params = _family(rng)
        if params is not None:
            coeffs = [_number(rng) for _ in range(rng.randint(1, 8))]
            calls = [("r_action", r_action, params, coeffs)]
            n = rng.randint(0, 4)
            try:
                calls.append(("r_action on g_n", r_action, params, gn_direct(params, n).coeffs))
            except DomainError:
                pass
            # The operator routes, on the same family, n and coefficients.
            calls += [(route.__name__, route, params, n) for route in (kappa, r_image, verify_ode)]
            calls.append(("build_R", build_R, params))
            try:
                R = build_R(params)
                calls += [("op_compose", op_compose, op_theta(), R),
                          ("op_apply", op_apply, R, Poly(coeffs))]
            except DomainError:
                pass
            # Half the points where the representation is usable, |x| < 1e3.
            x = -abs(_number(rng, 3.0 if rng.random() < 0.5 else 300.0))
            n = rng.randint(0, 40)
            calls += [(route.__name__, route, params, n, x) for route in (
                integral_rep_negative_axis, integral_rep_negative_axis_numeric)]
            for name, call, *args in calls:
                refusals = stage_refusals if name in ("r_image", "verify_ode") else None
                if not _holds(call, *args, refusals=refusals):
                    broken.append((draw, name, params, *args[1:]))
        f, h, c = _poly(rng), _poly(rng), _number(rng)
        for name, call, *args in (("add", Poly.__add__, f, h), ("sub", Poly.__sub__, f, h),
                                  ("mul", Poly.__mul__, f, h), ("scale", Poly.scale, f, c),
                                  ("derivative", Poly.derivative, f)):
            if not _holds(call, *args):
                broken.append((draw, name))
    assert broken == []
    # r_image and verify_ode name the stage that overflowed, never only
    # op_apply's bare coefficient (150 of their refusals name R g_n).
    assert not [m for m in stage_refusals if m.startswith("non-finite coefficient:")]
    assert sum(m.startswith("R g_") for m in stage_refusals) == 150


# The second contract: fewer draws, since a draw runs every route to a
# degree up to the cap, and run_checks.
SERIES_DRAWS = 150
ORDERS = (0, 1, 2, 5, 25, 60, 100, 169, 170, 171)
CIRCLE_POINTS = tuple(cmath.exp(1j * t) for t in (0.0, 2.0, -1.1))


def _parameter(rng: random.Random, high: float) -> complex:
    if rng.random() < 0.15:  # within 1e-6 of {0, -1, ..., -5}
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -6.0)
        return complex(-rng.randint(0, 5) + offset)
    return _number(rng, high)


def _report_numbers(report):
    """The roots and annulus of a RootReport; min_pair_distance is inf
    below two roots."""
    return report.roots, report.ek_annulus or ()


def _converged_sups(report):
    """The sup errors of a ConvergenceReport where every sample converged;
    a report with failed samples keeps nan for what it could not measure."""
    return [row.sup_error for row in report.rows] if report.all_samples_converged else []


def _passed_residuals(results):
    """run_checks may FAIL with an inf residual or SKIP with a nan one; a
    PASS measured a finite residual."""
    assert {r.status for r in results} <= {"PASS", "FAIL", "SKIP"}
    return [r.max_residual for r in results if r.status == "PASS"]


def _series_calls(params: HypParams, n: int, rng: random.Random) -> list:
    """(name, call) for every route of the second contract at one family and
    order; a call returns the numbers that must be finite."""
    z, tau = rng.choice(CIRCLE_POINTS) * rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)
    return [
        ("gn_direct", lambda: gn_direct(params, n)),
        ("Gn_monic", lambda: Gn_monic(params, n)),
        ("hyp_coeff", lambda: hyp_coeff(params, n)),
        ("delta_k", lambda: delta_k(params, n)),
        ("gn_by_recurrence", lambda: gn_by_recurrence(params, n)),
        ("Gn_by_recurrence", lambda: Gn_by_recurrence(params, n)),
        ("sobolev_gram", lambda: sobolev_gram(params, n)),
        ("find_roots", lambda: find_roots(gn_direct(params, n))),
        ("location_report", lambda: _report_numbers(location_report(params, n))),
        ("enestrom_kakeya_bounds", lambda: enestrom_kakeya_bounds(gn_direct(params, n))),
        ("convergence_report",
         lambda: _converged_sups(convergence_report(params, [n], CIRCLE_POINTS))),
        ("integral_rep_circle_batch", lambda: integral_rep_circle_batch(params, [n], [tau])),
        ("pfq_eval", lambda: pfq_eval(params, z).value),
        ("tfraction_from_hyp", lambda: astuple(tfraction_from_hyp(params, n))),
        ("ri_generate", lambda: ri_generate(tfraction_from_hyp(params, n), n)[0]),
        ("run_checks", lambda: _passed_residuals(
            run_checks(params, n, 0, CHECK_ORDER, draws=20, skip_inapplicable=True))),
    ]


def test_extreme_draws_of_the_series_routes_return_finite_values_or_refuse():
    rng = random.Random("contract:series")
    broken, returned = [], set()
    for draw in range(SERIES_DRAWS):
        high = rng.choice((3.0, 300.0))
        try:
            params = HypParams(a=tuple(_parameter(rng, high) for _ in range(rng.randint(0, 3))),
                               b=tuple(_parameter(rng, high) for _ in range(rng.randint(0, 3))))
        except DomainError:
            continue
        n = rng.choice(ORDERS)
        for name, call in _series_calls(params, n, rng):
            refused = []
            if not _holds(call, refusals=refused):
                broken.append((draw, name, params, n))
            if not refused:
                returned.add(name)
    assert broken == []
    assert len(returned) == 16  # every route returned on some draw


@pytest.mark.parametrize("route", [r_image, verify_ode])
def test_an_overflowed_image_names_its_stage_and_degree(route):
    # op_apply alone refuses with its bare "non-finite coefficient: ...".
    params = HypParams(a=(-4.4810582340121845e67,
                          6.1915671155585905e63 + 5.858324877220088e64j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            route(params, 2)
    assert str(exc.value) == ("R g_2 overflowed double precision: "
                              "non-finite coefficient: (nan+nanj)")


def test_the_quadrature_refuses_where_it_overflows():
    # Both routes at one point of 3F0: the termwise sum is finite; the
    # quadrature's integrand overflows, and it read (nan+nanj) with a
    # RuntimeWarning.
    params = HypParams(a=(26.16272180038001, -0.15023353824995503, 22.093236646071905))
    x = -27.72048686396505
    assert integral_rep_negative_axis(params, 60, x) == -1.2794583823973646e288
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            integral_rep_negative_axis_numeric(params, 60, x)
    assert str(exc.value) == (
        "the Gauss-Legendre quadrature of g_60 at x = -27.72048686396505 "
        "overflowed double precision: (nan+nanj)")


@pytest.mark.parametrize("route, name", [
    (integral_rep_negative_axis, "termwise integral"),
    (integral_rep_negative_axis_numeric, "Gauss-Legendre quadrature"),
])
def test_a_power_of_x_beyond_the_float_range_is_a_domain_error(route, name):
    # Python's float pow of x raised OverflowError in both routes.
    with pytest.raises(DomainError) as exc:
        route(HypParams(), 3, -1e200)
    assert str(exc.value) == (f"the {name} of g_3 at x = -1e+200 overflowed "
                              "double precision: a power of x exceeds the float range")


def test_r_action_refuses_an_overflowing_coefficient():
    # 1F0(6.3e141) on g_2: (a + 2)·xi_2 overflows; it returned -inf with a
    # RuntimeWarning. In a stack the error names the row.
    params = HypParams(a=(6.296544026157422e141,))
    g = gn_direct(params, 2).coeffs
    for coeffs, subject in ((g, "R f"), (np.tril(np.ones((3, 3))) * g, "R applied to row 2")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                r_action(params, coeffs)
        assert str(exc.value) == (f"{subject} overflowed double precision at its "
                                  "coefficient of z^2: (-inf-0j)")


# The third contract: the pencil routes, the Chebyshev pieces, the
# quadrature rule and the Sobolev form's helpers. Orders, indices and node
# counts are drawn from ints of every size and sign and from the floats
# int() cannot take.
FORM_DRAWS = 200
INDICES = (0, 1, 2, 3, 5, 12, 60, 170, 171, -1, 10**400, math.nan, -math.inf)
EXPONENTS = (0, 1, 6, 63, 64, 101, -5, 10**18, 10**400, -(10**400), math.nan)
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)
# pencil_residual's documented non-finite report of an overflow.
NON_FINITE_REPORTS = {"pencil_residual"}


def _real(rng: random.Random, high: float, positive: bool = False) -> float:
    """A real of modulus 10^u, positive or of either sign."""
    r = 10.0 ** rng.uniform(-3.0, high)
    return r if positive or rng.random() < 0.5 else -r


def _pencil_fields(rng: random.Random, high: float) -> tuple[dict, int]:
    """The fields of a pencil with `size` entries per band, and the size;
    one draw in five makes one entry zero, negative or not finite."""
    size = rng.choice((0, 1, 2, 5, 12, 169))
    fields = {name: [_real(rng, high, name in ("j3_offdiag", "j5_off2")) for _ in range(size)]
              for name in ("j3_diag", "j3_offdiag", "j5_diag", "j5_off1", "j5_off2")}
    fields.update(alpha=[_real(rng, high, True)], beta=[_real(rng, high)])
    if rng.random() < 0.2:
        band = fields[rng.choice([name for name, v in fields.items() if v])]
        band[rng.randrange(len(band))] = rng.choice(SPECIAL + (-1.0,))
    fields["alpha"], fields["beta"] = fields["alpha"][0], fields["beta"][0]
    return fields, size


def _index(rng: random.Random, size: int):
    """An order or index that a pencil of `size` entries per band can
    serve, 7 in 10 times; otherwise any of INDICES."""
    return rng.randint(0, size + 1) if rng.random() < 0.7 else rng.choice(INDICES)


def _form_calls(rng: random.Random, high: float) -> list:
    """(name, call) for every route of the third contract at one draw."""
    fields, size = _pencil_fields(rng, high)
    N, rows, n = (_index(rng, size) for _ in range(3))
    lams = [_number(rng, high) for _ in range(rng.randint(1, 4))]
    # p_0..p_{n+2} at lambda for row n, 8 in 10 times.
    fits = type(n) is int and 0 <= n <= 172 and rng.random() < 0.8
    values = [_number(rng, high) for _ in range(n + 3 if fits else rng.choice((0, 3)))]
    kind = rng.choice(("first", "second", "third"))
    k, x = rng.choice(INDICES), (rng.choice(SPECIAL) if rng.random() < 0.1 else _real(rng, high))
    # kernel_decompose takes positive real coefficients: 9 in 10 are, and
    # one draw in four holds 200 of them.
    d = [_real(rng, high, True) if rng.random() < 0.9 else _number(rng, high)
         for _ in range(rng.randint(0, 8) if rng.random() < 0.75 else 200)]
    n_max, rho, count = rng.choice(INDICES), rng.choice(INDICES), rng.choice(INDICES)
    nodes, e1, e2 = rng.choice((1, 2, 8, 64, 256)), rng.choice(EXPONENTS), rng.choice(EXPONENTS)
    # The residual reads the pencil's own polynomials, or any where it has none.
    others = [Poly([_number(rng, high) for _ in range(rng.randint(1, 4))])
              for _ in range(rng.randint(0, 14))]
    params = _family(rng)

    def pencil():
        return JacobiPencil(**fields)

    def residual():
        try:
            polys = pencil_polynomials(pencil(), min(size + 1, 170))
        except DomainError:
            polys = others
        return pencil_residual(pencil(), polys, lams, rows)

    calls = [
        ("JacobiPencil", pencil),
        ("pencil_polynomials", lambda: pencil_polynomials(pencil(), N)),
        ("pencil_residual", residual),
        ("pencil_row_terms", lambda: pencil_row_terms(pencil(), values, lams[0], n)),
        ("chebyshev_eval", lambda: chebyshev_eval(kind, k, x)),
        ("kernel_decompose", lambda: kernel_decompose(PowerSeriesCoeffs(tuple(d)), n)),
        ("auto_node_count", lambda: auto_node_count(n_max, rho)),
        ("QuadratureRule", lambda: QuadratureRule(count).points),
        ("monomial_quadrature_defect",
         lambda: monomial_quadrature_defect(QuadratureRule(nodes), e1, e2)),
    ]
    if params is not None:
        calls.append(("build_sobolev_form", lambda: build_sobolev_form(params)))
    return calls


def test_extreme_draws_of_the_pencil_and_form_routes_return_finite_values_or_refuse():
    rng = random.Random("contract:pencil-and-form")
    broken, reports, returned = [], [], set()
    for draw in range(FORM_DRAWS):
        for name, call in _form_calls(rng, rng.choice((3.0, 300.0))):
            refused = []
            if not _holds(call, refusals=refused):
                (reports if name in NON_FINITE_REPORTS else broken).append((draw, name))
            if not refused:
                returned.add(name)
    assert broken == []
    assert len(returned) == 10  # every route returned on some draw
    assert reports  # pencil_residual reported an overflow on some draw
