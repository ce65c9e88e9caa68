"""Exact cyclotomic arithmetic: pinned values and field axioms."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfermat.cyclo import (
    CycloField,
    Cyclotomic,
    FieldMismatchError,
    cyclotomic_polynomial,
)

import _oracles


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@given(st.integers(min_value=1, max_value=40))
def test_cyclotomic_polynomial_degree_is_totient(m):
    coeffs = cyclotomic_polynomial(m)
    assert len(coeffs) == sum(1 for k in range(1, m + 1) if gcd(k, m) == 1) + 1
    assert coeffs[-1] == 1


@given(st.integers(min_value=1, max_value=24))
def test_product_of_cyclotomics_over_divisors_is_t_pow_m_minus_1(m):
    acc = [Fraction(1)]
    for d in range(1, m + 1):
        if m % d == 0:
            phi_d = cyclotomic_polynomial(d)
            out = [Fraction(0)] * (len(acc) + len(phi_d) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            acc = out
    expected = [Fraction(0)] * (m + 1)
    expected[0] = Fraction(-1)
    expected[m] = Fraction(1)
    assert acc == expected


def test_field_interning_and_degree():
    f = CycloField(5)
    assert f is CycloField(5)
    assert f.degree == 4
    assert CycloField(12).degree == 4


def test_zeta_pinned_values():
    f5 = CycloField(5)
    assert f5.zeta(0) == f5.one()
    f4 = CycloField(4)
    assert f4.zeta(2) == -f4.one()
    # zeta_5^4 reduces to -1 - z - z^2 - z^3 in the power basis
    assert f5.zeta(4).coords == (
        Fraction(-1),
        Fraction(-1),
        Fraction(-1),
        Fraction(-1),
    )


def test_zeta_order_and_primitivity():
    for m in (2, 3, 4, 5, 6, 8, 10, 12):
        f = CycloField(m)
        z = f.zeta(1)
        assert z ** m == f.one()
        for k in range(1, m):
            assert z ** k != f.one()


def test_pinned_identities():
    f5 = CycloField(5)
    z = f5.zeta(1)
    assert z * f5.zeta(4) == f5.one()
    assert f5.one() + z + z ** 2 + z ** 3 + z ** 4 == f5.zero()
    f4 = CycloField(4)
    assert f4.zeta(1).inverse() == -f4.zeta(1)


def test_root_of_unity_wraps_modulo_conductor():
    f = CycloField(6)
    assert f.zeta(7) == f.zeta(1)
    assert f.zeta(-1) == f.zeta(5)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def field_elements(draw, conductor=None):
    m = conductor if conductor is not None else draw(st.integers(2, 10))
    f = CycloField(m)
    coords = draw(
        st.lists(small_rationals, min_size=f.degree, max_size=f.degree)
    )
    return f.element(coords)


@given(st.integers(2, 10), st.data())
def test_field_axioms(m, data):
    f = CycloField(m)
    a = data.draw(field_elements(conductor=m))
    b = data.draw(field_elements(conductor=m))
    c = data.draw(field_elements(conductor=m))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero() == a
    assert a * f.one() == a
    assert a + (-a) == f.zero()
    assert a - b == a + (-b)


@given(st.integers(2, 10), st.data())
def test_multiplicative_inverse(m, data):
    a = data.draw(field_elements(conductor=m))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        f = CycloField(m)
        assert a * a.inverse() == f.one()
        assert (f.one() / a) * a == f.one()


@given(st.integers(2, 10), st.integers(-6, 6), st.integers(-6, 6), st.data())
def test_power_laws(m, p, q, data):
    a = data.draw(field_elements(conductor=m))
    if a.is_zero():
        return
    assert a ** p * a ** q == a ** (p + q)
    assert (a ** p) ** q == a ** (p * q)


def test_mixed_field_arithmetic_is_rejected():
    a = CycloField(4).zeta(1)
    b = CycloField(5).zeta(1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


@given(st.data())
def test_json_round_trip(data):
    a = data.draw(field_elements())
    blob = a.to_json()
    field = CycloField(blob["conductor"])
    back = field.element([Fraction(s) for s in blob["coords"]])
    assert back == a


@given(st.integers(2, 10), st.data())
def test_rational_scalars_mix_in(m, data):
    a = data.draw(field_elements(conductor=m))
    f = CycloField(m)
    assert a * 2 == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert f.from_rational(3) == f.one() * 3


def test_int_and_fraction_equality():
    f = CycloField(5)
    assert f.from_rational(Fraction(7, 1)) == f.one() * 7
    assert f.zero() == f.from_rational(0)


@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12]),
    st.one_of(st.integers(-(10**20), 10**20), st.fractions(max_denominator=10**6)),
)
@example(5, 1)
def test_hash_agrees_with_equality_on_rationals(m, value):
    x = CycloField(m).from_rational(value)
    assert x == value and hash(x) == hash(value)
    assert {value: "v"}.get(x) == "v"


def test_basis_string_readable():
    f = CycloField(5)
    s = (f.zeta(1) * 2 - f.one()).basis_string()
    assert "w" in s and "-1" in s


# ------------------------------------------------- root-of-unity fast paths


def _untagged(z):
    """A copy of z that takes the general arithmetic paths."""
    return z.field.element(z.coords)


def _generic_mul(a, b):
    return a.field._mul_coords(a.coords, b.coords)


@given(st.integers(1, 14), st.integers(-30, 30), st.integers(-30, 30), st.data())
def test_root_fast_paths_match_the_generic_kernel(m, a, b, data):
    f = CycloField(m)
    x = data.draw(field_elements(conductor=m))
    za, zb = f.zeta(a), f.zeta(b)
    assert za.root_exp == a % m and x.root_exp is None
    # general times root: the shifted-and-reduced product equals _mul_coords
    assert (x * zb).coords == (zb * x).coords == _generic_mul(x, _untagged(zb))
    assert x.mul_zeta(b).coords == _generic_mul(x, _untagged(zb))
    # root times root stays an interned root
    assert za * zb is f.zeta(a + b)
    assert (za * zb).coords == _generic_mul(_untagged(za), _untagged(zb))
    # inverse and quotients against the extended Euclidean inverse
    assert za.inverse() is f.zeta(-a)
    assert za.inverse().coords == _untagged(za).inverse().coords
    assert (za / zb).coords == _generic_mul(za, _untagged(zb).inverse())
    assert (x / zb).coords == _generic_mul(x, _untagged(zb).inverse())
    assert (1 / zb).coords == _untagged(zb).inverse().coords
    # powers, including negative ones
    for k in (-3, -1, 0, 2, 5):
        assert (za ** k).coords == (_untagged(za) ** k).coords
    # coordinates stay Fractions, so the JSON and printed forms do not change
    for y in (x * zb, za * zb, za / zb, x / zb, za ** -3):
        assert all(type(c) is Fraction for c in y.coords)


def test_root_coordinates_match_repeated_multiplication():
    for m in range(1, 31):
        f = CycloField(m)
        z = _untagged(f.zeta(1))
        acc = _untagged(f.one())
        for e in range(2 * m + 1):
            assert f.zeta(e).coords == acc.coords
            acc = acc * z


# ------------------------------------------------------ sympy cross-check


def _sympy_coords(sympy, poly, degree):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (degree - len(coeffs)))


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 31):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in reversed(expected))


def test_inverses_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(0xC1C)
    for m in range(3, 15):
        f = CycloField(m)
        modulus = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
        elements = [f.zeta(k) for k in range(m)]
        while len(elements) < m + 8:
            a = f.element(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(f.degree))
            if not a.is_zero():
                elements.append(a)
        for a in elements:
            poly = sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coords)],
                x,
                domain="QQ",
            )
            expected = _sympy_coords(sympy, sympy.invert(poly, modulus), f.degree)
            assert a.inverse().coords == expected
            assert _untagged(a).inverse().coords == expected


# ------------------------------------------------- integer-numerator layout


@given(st.integers(3, 16), st.data())
def test_inverse_matches_the_euclid_oracle(m, data):
    a = data.draw(field_elements(conductor=m))
    if a.is_zero():
        return
    assert a.inverse().coords == _oracles.euclid_inverse(a)
    assert a.field.one() / a == a.inverse()


def test_inverse_matches_the_euclid_oracle_on_pinned_elements():
    rng = random.Random(0xB4E)
    for m in range(3, 17):
        f = CycloField(m)
        # one coordinate only, a zero leading pivot, and dense big ones
        cases = [f.element([0] * (f.degree - 1) + [Fraction(-3, 7)])]
        cases.append(f.element([0, 1] + [0] * (f.degree - 2)) + f.from_rational(2))
        cases += [
            f.element(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(f.degree))
            for _ in range(4)
        ]
        for a in cases:
            assert a.inverse().coords == _oracles.euclid_inverse(a)


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums) and len(x.nums) == x.field.degree
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.nums == (0,) * x.field.degree and x.den == 1


_OPS = ("+", "-", "*", "/", "**", "zeta", "neg", "int*", "frac+")


@given(st.integers(1, 16), st.data())
def test_results_stay_canonical_under_random_operation_sequences(m, data):
    f = CycloField(m)
    x = data.draw(field_elements(conductor=m))
    _assert_canonical(x)
    for op in data.draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=8)):
        y = data.draw(st.one_of(field_elements(conductor=m), st.integers(-m, m).map(f.zeta)))
        if op == "+":
            x = x + y
        elif op == "-":
            x = x - y
        elif op == "*":
            x = x * y
        elif op == "/":
            x = x / y if not y.is_zero() else x
        elif op == "**":
            x = x ** data.draw(st.integers(-1 if not x.is_zero() else 0, 2))
        elif op == "zeta":
            x = x.mul_zeta(data.draw(st.integers(-2 * m, 2 * m)))
        elif op == "neg":
            x = -x
        elif op == "int*":
            x = data.draw(st.integers(-6, 6)) * x
        else:
            x = x + data.draw(small_rationals)
        _assert_canonical(x)
    # the subtraction of an element from itself gives the canonical zero
    _assert_canonical(x - x)
    assert (x - x).nums == (0,) * f.degree and (x - x).den == 1


@given(st.data())
def test_boundary_formats_match_fractions(data):
    # an interned root, exponent outside 0..m-1 included, serializes like the
    # untagged element with its numerators: from the field's strings, filled
    # on first use by whichever copy comes first, into a fresh dict and list
    m = data.draw(st.integers(1, 30))
    k = data.draw(st.integers(-3 * m, 3 * m))
    root = CycloField(m).zeta(k)
    plain = Cyclotomic(root.field, root.nums, root.den).to_json()
    root.field._root_coords.pop(root.root_exp, None)
    copy = pickle.loads(pickle.dumps(root))
    assert copy is not root and copy.root_exp == root.root_exp
    assert copy.to_json() == plain
    first, second = root.to_json(), root.to_json()
    assert first == second == plain
    assert first is not second and first["coords"] is not second["coords"]
    first["coords"][0] = "junk"
    first["coords"].append("junk")
    assert root.to_json() == copy.to_json() == plain
    a = data.draw(field_elements())
    assert all(type(c) is Fraction for c in a.coords)
    assert a.to_json()["coords"] == [str(c) for c in a.coords]
    # basis_string as the Fraction coordinates spell it
    parts = []
    for k, c in enumerate(a.coords):
        if c:
            mag = abs(c)
            power = "" if k == 0 else ("w" if k == 1 else f"w^{k}")
            body = str(mag) if not power else (power if mag == 1 else f"{mag}*{power}")
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + body)
    assert a.basis_string() == (" ".join(parts) if parts else "0")
    # an element equal to a rational equals and hashes like the int or Fraction
    r = a.coords[0]
    b = a.field.from_rational(r)
    assert b == r and hash(b) == hash(r)
    if r.denominator == 1:
        assert b == int(r) and hash(b) == hash(int(r))
    assert (a == b) == (a.coords == b.coords)
