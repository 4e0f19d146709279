"""Polynomial core: construction, arithmetic, calculus, array kernels."""

import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum.errors import DomainError
from hypersum.polycore import (
    DEGREE_CAP,
    Poly,
    coeff_sum,
    horner,
    horner_rows,
    modulus,
    poly_coeffs,
    real_quotient,
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
    # So is a scalar point's: every term but the constant one is infinite.
    assert horner((1.0, 1.0), c)[2] == math.inf
    assert horner((1.0, 1.0), complex(math.inf, 0.0))[2] == math.inf
    # A zero coefficient's term vanishes at |z| = inf, and at z = 0 every
    # term but the constant one vanishes, however large the coefficient.
    assert horner((1.0, 0.0), c)[2] == 1.0
    assert horner((1.0, c), 0j)[2] == 1.0
    assert horner((c, 1.0), 0j)[2] == math.inf
    # The same on an array of points.
    mass = horner((1.0, 1.0), np.array([c, 0j, 2.0]))[2]
    assert mass.tolist() == [math.inf, 1.0, 3.0]
    assert horner((1.0, c), np.array([0j]))[2].tolist() == [1.0]
    # Finite inputs keep the one nested pass, bit for bit.
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) * 10.0 ** rng.randint(-300, 300)
                  for _ in range(rng.randint(1, 8))]
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-40, 40)
        want = 0.0
        for coeff in reversed(coeffs):
            want = want * abs(z) + abs(coeff)
        assert horner(coeffs, z)[2] == want


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
    assert p.derivative().coeffs == (2 + 0j, 6 + 0j)
    assert Poly((5,)).derivative().is_zero


def test_equality_and_hash():
    assert Poly((1, 2)) == Poly((1.0 + 0j, 2.0))
    assert hash(Poly((1, 2))) == hash(Poly((1, 2)))
    assert Poly((1,)) != Poly((1, 1))


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        Poly((1,) * (DEGREE_CAP + 2))
    # A product past the cap is a DomainError (a ValueError), so the CLI
    # maps it to a domain error.
    with pytest.raises(DomainError, match="^degree 198 exceeds the cap 170$"):
        Poly([1.0] * 100) * Poly([1.0] * 100)


def test_max_coeff_refuses_a_modulus_beyond_the_float_range():
    # |1.5e308 + 1.5e308i| exceeds the float range although both parts are
    # finite; Python's abs raised OverflowError from max_coeff.
    p = Poly((1, 1.5e308 + 1.5e308j))
    with pytest.raises(DomainError) as exc:
        p.max_coeff()
    assert str(exc.value) == ("the modulus of the coefficient of z^1 exceeds "
                              "the float range: (1.5e+308+1.5e+308j)")
    assert Poly((1.5e308, 1.0, 1e-300)).max_coeff() == 1.5e308


def test_poly_coeffs_keep_what_poly_keeps():
    # A sum that overflows is no refusal; a non-finite value is Poly's.
    assert poly_coeffs([1e308 + 0j, 1e308 + 0j, 0j]) == [1e308 + 0j] * 2
    assert coeff_sum([1 + 0j, 1 + 0j], [2 + 0j, -1 + 0j]) == [3 + 0j]
    for values in ([1 + 0j, complex(math.inf, 0.0)], [complex(0.0, math.nan)]):
        with pytest.raises(DomainError) as want:
            Poly(values)
        with pytest.raises(DomainError) as got:
            poly_coeffs(list(values))
        assert str(got.value) == str(want.value)


# Poly's arithmetic as it was written, on Poly objects: the oracles of
# polycore's list kernels, which the Poly operators now wrap.
def _former_add(f, g):
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return Poly(out)


def _former_scale(f, s):
    w = complex(s)
    return Poly(c * w for c in f.coeffs)


def _former_sub(f, g):
    return _former_add(f, _former_scale(g, -1.0))


def _former_mul(f, g):
    if f.is_zero or g.is_zero:
        return Poly()
    out = [0j] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, ci in enumerate(f.coeffs):
        for j, cj in enumerate(g.coeffs):
            out[i + j] += ci * cj
    return Poly(out)


def _former_derivative(f):
    return Poly(k * c for k, c in enumerate(f.coeffs) if k > 0)


def hex_bits(values):
    """Every real and imaginary part as float.hex: equal bit for bit,
    signed zeros included."""
    return tuple((complex(c).real.hex(), complex(c).imag.hex()) for c in values)


def outcome(call, *args):
    """("value", the bits of the result) or ("refused", the message)."""
    try:
        return "value", hex_bits(call(*args).coeffs)
    except DomainError as exc:
        return "refused", str(exc)


def number(rng, high=300.0):
    """A modulus 10^u, u uniform in [-3, high]: half complex with a uniform
    phase, half real of either sign; now and then an exact zero."""
    if rng.random() < 0.03:
        return 0j
    r = 10.0 ** rng.uniform(-3.0, high)
    if rng.random() < 0.5:
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))
    return complex(r if rng.random() < 0.5 else -r)


def test_poly_arithmetic_equals_the_former_methods_bit_for_bit():
    # Sum, difference, product, scale and derivative on seeded draws with
    # moduli up to 1e300, so that many of them overflow: each result is the
    # former method's bit for bit, and each refusal carries its message.
    rng = random.Random("poly arithmetic")
    refused = 0
    for _ in range(600):
        high = 300.0 if rng.random() < 0.5 else 3.0
        f, g = (Poly([number(rng, high) for _ in range(rng.randint(0, 7))])
                for _ in range(2))
        s = number(rng, high)
        for new, former, args in ((Poly.__add__, _former_add, (f, g)),
                                  (Poly.__sub__, _former_sub, (f, g)),
                                  (Poly.__mul__, _former_mul, (f, g)),
                                  (Poly.scale, _former_scale, (f, s)),
                                  (Poly.derivative, _former_derivative, (f,))):
            got = outcome(new, *args)
            assert got == outcome(former, *args), (new.__name__, args)
            refused += got[0] == "refused"
    assert refused > 100
    # A product past the degree cap is refused as before.
    big = Poly([1.0] * 100)
    assert outcome(Poly.__mul__, big, big) == outcome(_former_mul, big, big)


def test_real_quotient_rounds_as_python_division():
    rng = random.Random(5)
    parts = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, 1e308]
    values = [complex(rng.choice(parts + [rng.uniform(-9, 9)] * 4),
                      rng.choice(parts + [rng.uniform(-9, 9)] * 4)) for _ in range(2000)]
    divisors = [rng.choice((-21, -3, -1, 1, 7)) for _ in values]
    with np.errstate(all="ignore"):
        got = real_quotient(np.array(values), np.array(divisors)).tolist()
    want = [v / d for v, d in zip(values, divisors)]
    assert [struct.pack("dd", w.real, w.imag) for w in got] == [
        struct.pack("dd", w.real, w.imag) for w in want]


def test_horner_rows_are_horner_on_each_row():
    # Per-row points and shared points; a zero-padded table of g_n-like
    # rows, with a point at 0 and a coefficient of modulus beyond the range.
    rng = random.Random(9)
    rows = [[complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n + 1)]
            for n in range(8)]
    rows[5][2] = complex(1.5e308, 1.5e308)
    table = np.zeros((8, 8), dtype=complex)
    for out, row in zip(table, rows):
        out[: len(row)] = row
    points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in rows]
    points[3] = points[5] = 0j
    def bits(w):
        w = complex(w)
        return struct.pack("dd", w.real, w.imag)

    value, mass = horner_rows(table, np.array(points)[:, None])
    for i, (row, z) in enumerate(zip(rows, points)):
        want_value, _, want_mass = horner(row, z)
        assert bits(value[i, 0]) == bits(want_value) and mass[i, 0] == want_mass
    shared = (-0.1, -1.0, -10.0)
    value, mass = horner_rows(table, shared)
    for i, row in enumerate(rows):
        for j, x in enumerate(shared):
            want_value, _, want_mass = horner(row, x)
            assert bits(value[i, j]) == bits(want_value) and mass[i, j] == want_mass


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
