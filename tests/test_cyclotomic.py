"""`CharacterValue` (reduced integer numerators over one denominator)
against the `Fraction`-per-coordinate oracle `cyclotomic_oracle`, at
p = 2, 5 and 7: every operation gives the oracle's value, in the
canonical form gcd(den, *nums) = 1, den > 0, zero as all zeros over 1.
hypothesis runs derandomized, with no example database and no deadline,
so the test is deterministic and writes nothing."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twirl.cyclotomic import CharacterValue

from cyclotomic_oracle import FractionValue

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)
PRIMES = (2, 5, 7)

# small numerators and denominators, so sums cancel and reduce often
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def pairs(draw):
    """(p, coords of a, coords of b), a quarter of the coordinates 0."""
    p = draw(st.sampled_from(PRIMES))
    coord = st.one_of(st.just(Fraction(0)), RATIONALS, RATIONALS, RATIONALS)
    a = tuple(draw(coord) for _ in range(p - 1))
    b = tuple(draw(coord) for _ in range(p - 1))
    return p, a, b


def assert_canonical(v: CharacterValue):
    assert v.den > 0
    assert math.gcd(v.den, *v.nums) == 1
    if not any(v.nums):
        assert v.den == 1


def assert_same(v: CharacterValue, w: FractionValue):
    assert_canonical(v)
    assert (v.p, v.coords) == (w.p, w.coords)
    assert v.to_json() == w.to_json()
    assert hash(v) == hash(w)
    assert v.is_zero() == w.is_zero()
    if any(w.coords[1:]):
        with pytest.raises(ValueError):
            v.rational_part()
    else:
        assert v.rational_part() == w.rational_part()


@SETTINGS
@given(pairs(), st.integers(-6, 6), RATIONALS)
def test_operations_match_the_fraction_oracle(case, n, r):
    p, ca, cb = case
    a, b = CharacterValue(p, ca), CharacterValue(p, cb)
    oa, ob = FractionValue(p, ca), FractionValue(p, cb)
    assert_same(a, oa)
    assert_same(b, ob)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(a - a, FractionValue.zero(p))
    assert_same(a.scale(n), oa.scale(n))
    assert_same(a.scale(r), oa.scale(r))
    assert_same(a.scale(r.numerator, r.denominator), oa.scale(r))
    assert_same(a * b, oa * ob)
    assert (a == b) == (oa == ob)
    assert a == CharacterValue(p, ca) and a != ca
    assert len({a, b, a + b - b}) == len({oa, ob, oa + ob - ob})


@SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_constructors_match_the_fraction_oracle(p, data):
    counts = data.draw(st.lists(st.integers(0, 60), min_size=p, max_size=p))
    total = data.draw(st.integers(1, 240))
    assert_same(CharacterValue.from_exponent_counts(p, counts, total),
                FractionValue.from_exponent_counts(p, counts, total))
    r = data.draw(RATIONALS)
    assert_same(CharacterValue.rational(p, r), FractionValue.rational(p, r))
    j = data.draw(st.integers(-p, 2 * p))
    assert_same(CharacterValue.root(p, j), FractionValue.root(p, j))
    assert_same(CharacterValue.zero(p), FractionValue.zero(p))
    assert_same(CharacterValue.one(p), FractionValue.rational(p, 1))


@SETTINGS
@given(pairs())
def test_complex_and_str_read_the_coordinates(case):
    """`complex` gives the bits of the float sum of float(coordinate) z^j,
    z = exp(2 pi i/p), and `str` the nonzero coordinates as str(Fraction)
    prints them."""
    p, ca, _cb = case
    v = CharacterValue(p, ca)
    z = cmath.exp(2j * math.pi / p)
    assert v.complex() == sum(float(c) * z**i for i, c in enumerate(ca))
    parts = [str(c) if i == 0 else f"{c}*z^{i}"
             for i, c in enumerate(ca) if c]
    assert str(v) == (" + ".join(parts) if parts else "0")
