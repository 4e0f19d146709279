"""Seeded contract over numeric entry points at extreme magnitudes: r_action,
the operator routes (build_R, op_compose, op_apply, kappa, r_image,
verify_ode), both negative-axis routes and Poly arithmetic.

Every call returns a finite value or raises DomainError or
ConvergenceError; no other exception and no numpy warning escapes. The
draws are moduli 10^u, u uniform in [-3, 300], 40% of them complex with a
uniform phase, the others real of either sign; a fixed seed keeps the
draws the same on every run.
"""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from hypersum.errors import ConvergenceError, DomainError
from hypersum.operators import (LinDiffOp, build_R, kappa, op_apply, op_compose, op_theta,
                                r_action, r_image, verify_ode)
from hypersum.partial_sums import HypParams, gn_direct
from hypersum.pfq import integral_rep_negative_axis, integral_rep_negative_axis_numeric
from hypersum.polycore import Poly

DRAWS = 1500


def _number(rng: random.Random, high: float = 300.0) -> complex:
    r = 10.0 ** rng.uniform(-3.0, high)
    if rng.random() < 0.4:
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))
    return complex(r if rng.random() < 0.5 else -r)


def _finite(value) -> bool:
    if isinstance(value, LinDiffOp):
        value = [c for f in value.coeffs for c in f.coeffs]
    if isinstance(value, Poly):
        value = value.coeffs
    return bool(np.isfinite(np.asarray(value, dtype=complex)).all())


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
