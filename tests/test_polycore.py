"""Polynomial core: construction, arithmetic, calculus, trimming."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum.polycore import (
    DEGREE_CAP,
    Poly,
    horner,
    modulus,
    pochhammer,
    trim_tiny,
)


def test_construction_strips_exact_trailing_zeros():
    p = Poly((1, 2, 0, 0))
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1


def test_zero_polynomial():
    z = Poly(())
    assert z.is_zero
    assert z.degree == -1
    assert Poly((0, 0)).is_zero


def test_coeff_beyond_degree_is_zero():
    p = Poly((3, 4))
    assert p.coeff(0) == 3
    assert p.coeff(7) == 0


def test_tiny_trailing_coefficients_are_kept():
    # Only exact zeros are stripped; 1e-30 is a real coefficient.
    p = Poly((1.0, 1e-30))
    assert p.degree == 1


def test_horner_evaluation():
    p = Poly((1, -2, 3))  # 1 - 2z + 3z^2
    assert p(2) == 1 - 4 + 12
    assert p(0) == 1
    assert Poly(())(5) == 0


def test_modulus_is_abs_and_inf_beyond_the_float_range():
    rng = random.Random(11)
    values = [complex(rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300),
                      rng.uniform(-1, 1) * 10 ** rng.uniform(-300, 300))
              for _ in range(20000)]
    values = [w for w in values if math.hypot(w.real, w.imag) < 1.7e308]
    got = modulus(np.array(values)).tolist()
    assert got == [abs(w) for w in values]
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):
        abs(big)
    assert modulus(big) == math.inf


def test_horner_mass_is_inf_where_abs_would_raise():
    # A finite coefficient whose modulus exceeds the float range.
    c = complex(1.5e308, 1.5e308)
    value, derivative, mass = horner((1.0, c), 0.5)
    assert (value, derivative, mass) == (1.0 + 0.5 * c, c, math.inf)
    # So is a scalar point's; then, or at z = 0, inf·0 makes the mass nan.
    assert math.isnan(horner((1.0, 1.0), c)[2])
    assert math.isnan(horner((1.0, c), 0j)[2])


def test_arithmetic_known_values():
    f = Poly((1, 1))  # 1 + z
    g = Poly((-1, 1))  # -1 + z
    assert (f + g).coeffs == (0j, 2 + 0j)
    assert (f - g).coeffs == (2 + 0j,)
    assert (f * g).coeffs == (-1 + 0j, 0j, 1 + 0j)  # z^2 - 1


def test_mul_by_zero():
    assert (Poly((1, 2)) * Poly(())).is_zero


def test_scale_shift_derivative():
    p = Poly((1, 2, 3))
    assert p.scale(2).coeffs == (2 + 0j, 4 + 0j, 6 + 0j)
    assert p.shift_up().coeffs == (0j, 1 + 0j, 2 + 0j, 3 + 0j)
    assert p.derivative().coeffs == (2 + 0j, 6 + 0j)
    assert Poly((5,)).derivative().is_zero


def test_equality_and_hash():
    assert Poly((1, 2)) == Poly((1.0 + 0j, 2.0))
    assert hash(Poly((1, 2))) == hash(Poly((1, 2)))
    assert Poly((1,)) != Poly((1, 1))


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        Poly((1,) * (DEGREE_CAP + 2))


def test_trim_tiny_relative_threshold():
    p = Poly((1.0, 1e-20))
    assert trim_tiny(p).degree == 0
    # Below-threshold interior coefficients survive; only the tail is cut.
    q = Poly((1e-20, 1.0))
    assert trim_tiny(q).degree == 1
    assert trim_tiny(Poly(())).is_zero


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(1, 5) == 120  # (1)_k = k!
    assert pochhammer(-2, 3) == 0  # terminates
    assert pochhammer(0.5, 2) == 0.75


small_coeffs = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=0, max_size=6
)
unit_angle = st.floats(min_value=0.0, max_value=6.28, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs, unit_angle)
def test_addition_is_pointwise(cf, cg, t):
    f, g = Poly(cf), Poly(cg)
    z = cmath.exp(1j * t)
    assert abs((f + g)(z) - (f(z) + g(z))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs, unit_angle)
def test_multiplication_is_pointwise(cf, cg, t):
    f, g = Poly(cf), Poly(cg)
    z = cmath.exp(1j * t)
    scale = max(1.0, abs(f(z)) * abs(g(z)))
    assert abs((f * g)(z) - f(z) * g(z)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_product_rule(cf, cg):
    f, g = Poly(cf), Poly(cg)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    deg = max(lhs.degree, rhs.degree)
    for k in range(deg + 1):
        assert abs(lhs.coeff(k) - rhs.coeff(k)) <= 1e-10 * max(
            1.0, abs(lhs.coeff(k))
        )
