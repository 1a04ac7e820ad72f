"""Ring axioms and string formats for the exact scalar types."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit.scalars import (
    GAUSSIAN,
    RATIONAL,
    GaussianRational,
    Quaternion,
    TAU1,
    TAU2,
    TAU3,
    format_gaussian,
    format_quaternion,
    format_rational,
    format_scalar,
    numerators,
    parse_gaussian,
    parse_rational,
    parse_scalar,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
ints = st.integers(min_value=-10**6, max_value=10**6)
gaussians = st.builds(GaussianRational, rationals, rationals)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


@settings(deadline=None, max_examples=60)
@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + GaussianRational(0) == x
    assert x * GaussianRational(1) == x
    assert x + (-x) == GaussianRational(0)


@settings(deadline=None, max_examples=60)
@given(quaternions, quaternions, quaternions)
def test_quaternion_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x
    assert x * Quaternion(1) == x and Quaternion(1) * x == x


@settings(deadline=None, max_examples=60)
@given(gaussians)
def test_gaussian_inverse(x):
    if x:
        assert x * (GaussianRational(1) / x) == GaussianRational(1)


@settings(deadline=None, max_examples=60)
@given(quaternions)
def test_quaternion_inverse(x):
    if x:
        assert x * x.inverse() == Quaternion(1)
        assert x.inverse() * x == Quaternion(1)


@settings(deadline=None, max_examples=60)
@given(quaternions, quaternions)
def test_quaternion_conjugate_antihomomorphism(x, y):
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.norm() == (x * x.conjugate()).a


@settings(deadline=None, max_examples=100)
@given(st.one_of(st.lists(ints), st.lists(rationals), st.lists(st.one_of(ints, rationals))))
def test_numerators_are_ints_over_the_lcm_of_the_denominators(values):
    d, nums = numerators(iter(values))
    lcm = reduce(lambda a, b: a * b // math.gcd(a, b), (Fraction(x).denominator for x in values), 1)
    assert d == lcm and len(nums) == len(values)
    assert all(type(a) is int and Fraction(a, d) == x for a, x in zip(nums, values))


def test_numerators_of_no_values():
    assert numerators([]) == (1, [])


def test_quaternion_unit_relations():
    minus_one = Quaternion(-1)
    assert TAU1 * TAU1 == minus_one
    assert TAU2 * TAU2 == minus_one
    assert TAU3 * TAU3 == minus_one
    assert TAU1 * TAU2 == TAU3
    assert TAU2 * TAU1 == -TAU3
    assert TAU2 * TAU3 == TAU1
    assert TAU3 * TAU1 == TAU2


def test_scalars_mix_with_ints_and_fractions():
    assert GaussianRational(1, 2) * 3 == GaussianRational(3, 6)
    assert 2 + GaussianRational(0, 1) == GaussianRational(2, 1)
    assert Quaternion(1, 1, 0, 0) * Fraction(1, 2) == Quaternion(Fraction(1, 2), Fraction(1, 2))
    assert Fraction(1, 3) * Quaternion(3) == Quaternion(1)


def _embed(z):
    """a + b*i -> a + b*t1: the field embedding of Q(i) into H."""
    return Quaternion(z.re, z.im)


@settings(deadline=None, max_examples=60)
@given(gaussians, gaussians)
def test_gaussian_embedding_into_quaternions_is_a_homomorphism(x, y):
    assert _embed(x + y) == _embed(x) + _embed(y)
    assert _embed(x - y) == _embed(x) - _embed(y)
    assert _embed(x * y) == _embed(x) * _embed(y)
    assert _embed(-x) == -_embed(x)
    assert _embed(x.conjugate()) == _embed(x).conjugate()
    assert _embed(x).norm() == x.norm()
    assert (_embed(x) == _embed(y)) == (x == y)
    if y:
        assert _embed(y.inverse()) == _embed(y).inverse()
        assert _embed(x / y) == _embed(x) / _embed(y)


@pytest.mark.parametrize("zero", [GaussianRational(0), Quaternion(0)], ids=["gaussian", "quaternion"])
def test_division_by_zero_raises(zero):
    one = type(zero)(1)
    for divide in (lambda: one / zero, lambda: one / 0, lambda: 1 / zero,
                   lambda: Fraction(1, 2) / zero, zero.inverse):
        with pytest.raises(ZeroDivisionError):
            divide()


@pytest.mark.parametrize("ring", [GaussianRational, Quaternion])
@pytest.mark.parametrize("real", [0, 3, -2, Fraction(1, 2), Fraction(-7, 3)])
def test_real_elements_equal_and_hash_like_their_rationals(ring, real):
    x = ring(real)
    assert x == real and real == x
    assert not (x != real) and not (real != x)
    assert hash(x) == hash(real) == hash(Fraction(real))
    y = ring(real, 1)
    assert y != real and real != y


def test_rational_keyed_tables_find_real_gaussians():
    table = {Fraction(1, 2): "half", 3: "three"}
    assert table[GaussianRational(Fraction(1, 2))] == "half"
    assert table[GaussianRational(3)] == "three"
    assert GaussianRational(Fraction(1, 2), 1) not in table


def test_immutability():
    with pytest.raises(AttributeError):
        GaussianRational(1).re = Fraction(2)
    with pytest.raises(AttributeError):
        Quaternion(1).a = Fraction(2)


@settings(deadline=None, max_examples=60)
@given(rationals)
def test_rational_format_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@settings(deadline=None, max_examples=60)
@given(gaussians)
def test_gaussian_format_roundtrip(z):
    assert parse_gaussian(format_gaussian(z)) == z


@settings(deadline=None, max_examples=60)
@given(quaternions)
def test_quaternion_format(q):
    assert format_quaternion(q) == [str(q.a), str(q.b), str(q.c), str(q.d)]
    assert format_quaternion(Quaternion(1, -2, Fraction(1, 5), 0)) == ["1", "-2", "1/5", "0"]


def test_gaussian_parse_examples():
    assert parse_gaussian("3/5") == GaussianRational(Fraction(3, 5))
    assert parse_gaussian("1/2+1/3i") == GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert parse_gaussian("-i") == GaussianRational(0, -1)
    assert parse_gaussian("i") == GaussianRational(0, 1)
    assert parse_gaussian("-2/7i") == GaussianRational(0, Fraction(-2, 7))
    with pytest.raises(ValueError):
        parse_gaussian("")
    with pytest.raises(ValueError):
        parse_gaussian("1+i2")


def test_scalar_dispatch():
    assert parse_scalar(RATIONAL, format_scalar(RATIONAL, Fraction(-7, 3))) == Fraction(-7, 3)
    z = GaussianRational(2, -3)
    assert parse_scalar(GAUSSIAN, format_scalar(GAUSSIAN, z)) == z
