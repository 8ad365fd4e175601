import random
from fractions import Fraction

import pytest

from twirl import (
    DomainError,
    Elem,
    NotEisenstein,
    PrecisionExhausted,
    PrecisionTooSmall,
    Singular,
    additive_char,
    is_square,
    make_field,
    parse_elem,
    square_class_reps,
)
from twirl.cyclotomic import CharacterValue
from twirl.localfield import (LocalFieldCtx, SquareClassSet, _pi_power_poly,
                              card_unit_square_classes, unit_digit_tuples)

from newton_inverse import poly_inv_newton


def ctx5(n=18):
    return make_field(5, 1, (-5, 1), n)


def ctx2(n=24):
    return make_field(2, 2, (-2, 0, 1), n)


def test_make_field_examples():
    assert ctx5(12).from_int(5).val == 1
    c = make_field(2, 2, (-2, 0, 1), 14)
    assert c.from_int(2).val == 2  # 2 in pi^2
    c1 = make_field(2, 1, (-2, 1), 14)
    assert c1.from_int(2).val == 1


def test_one_is_the_stored_form_of_from_int_1():
    """`one()` builds the constant directly; it stores what from_int(1)
    stores, at e = 1, 2 and 3."""
    for c in (ctx5(), ctx2(), make_field(2, 3, (-2, 0, 0, 1), 14)):
        one, ref = c.one(), c.from_int(1)
        assert ((one.vbase, one.coeffs, one.mexp, one._norm)
                == (ref.vbase, ref.coeffs, ref.mexp, ref._norm))


def test_make_field_errors():
    with pytest.raises(NotEisenstein):
        make_field(4, 1, (-4, 1), 12)  # not prime
    with pytest.raises(NotEisenstein):
        make_field(5, 2, (-25, 0, 1), 12)  # constant term valuation 2
    with pytest.raises(NotEisenstein):
        make_field(5, 2, (-5, 1, 1), 12)  # middle coefficient not divisible
    with pytest.raises(PrecisionTooSmall):
        make_field(5, 2, (-5, 5, 1), 5)


def test_ord_examples():
    c = ctx5()
    assert c.from_int(50).val == 2
    assert (c.pi(3) * c.random_unit(random.Random(0))).val == 3
    assert c.zero().val == float("inf")


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_ring_axioms(mk):
    c = mk()
    rng = random.Random(1)
    for _ in range(120):
        x = c.random_elem(rng, -2, 3)
        y = c.random_elem(rng, -2, 3)
        z = c.random_elem(rng, -2, 3)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * c.one() == x
        assert (x - x).is_zero()


@pytest.mark.parametrize("p, e, eis", [
    (2, 2, (-2, 0, 1)),             # x^2 - 2, no middle term (control)
    (2, 2, (-2, 2, 1)),             # x^2 + 2x - 2
    (2, 2, (6, -2, 1)),             # x^2 - 2x + 6
    (3, 2, (-3, 3, 1)),             # x^2 + 3x - 3
    (5, 3, (-5, 5, 0, 1)),          # x^3 + 5x - 5
])
def test_middle_coefficient_arithmetic(p, e, eis):
    """With E = x^e + p (b0 + b1 x + ...), p / pi = -b0^(-1) (pi^(e-1) +
    p (b1 + b2 pi + ...)): the middle terms carry the factor p.  The
    integer p, built as 1 + ... + 1, is pi * (p / pi) and from_int(p);
    products and sums undo exactly."""
    c = make_field(p, e, eis, 20)
    ps = c.zero()
    for _ in range(p):
        ps = ps + c.one()
    assert c.pi() * (ps / c.pi()) == ps
    assert c.from_int(p) == ps
    assert c.from_int(3 * p * p) == c.from_int(3) * ps * ps
    rng = random.Random(1)
    for _ in range(150):
        x = c.random_elem(rng, -2, 3)
        y = c.random_elem(rng, -2, 3)
        assert (x * y) / y == x
        assert (x + y) - y == x


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_ord_is_valuation(mk):
    c = mk()
    rng = random.Random(2)
    for _ in range(1000):
        x = c.random_elem(rng, -3, 5)
        y = c.random_elem(rng, -3, 5)
        assert (x * y).val == x.val + y.val
        s = x + y
        if not s.is_zero():
            assert s.val >= min(x.val, y.val)
        if x.val != y.val:
            assert s.val == min(x.val, y.val)


def test_inverse_and_division():
    c = ctx2()
    rng = random.Random(3)
    for _ in range(60):
        x = c.random_elem(rng, -2, 3)
        assert (x * x.inverse() - c.one()).is_zero() or x * x.inverse() == c.one()
        assert x / x == c.one()


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("precision", [4, 11, 18, 40])
def test_poly_inv_pow_matches_newton(p, precision):
    """At e = 1 `poly_inv` is one `pow` mod p^M; it returns the same
    unique inverse as the Newton route on random units."""
    c = make_field(p, 1, (-p, 1), precision)
    rng = random.Random(p * 100 + precision)
    for _ in range(40):
        u = c.random_unit(rng).coeffs
        assert c.poly_inv(u) == poly_inv_newton(c, u)
        assert c.poly_mul(u, c.poly_inv(u)) == (1,)


@pytest.mark.parametrize("p, eis", [(3, (-3, 1)), (5, (-5, 1)), (5, (-10, 1)),
                                    (7, (-7, 1))])
def test_divide_matches_stepwise_at_e1(p, eis):
    """At e = 1 `Elem._divide(t)` is one division by p^t and one product
    with (p/pi)^t; as an `Elem` it equals t steps of `poly_div_pi`, on
    random unit parts of valuation s >= t at every validity up to M."""
    c = make_field(p, 1, eis, 18)
    rng = random.Random(p * 10 + eis[0])
    for _ in range(300):
        s = rng.randrange(0, 12)
        mexp = rng.randrange(1, c.coeff_exp + 1)
        u = (c.random_unit(rng).coeffs[0] * p ** s % c.coeff_mod,)
        x = Elem(c, rng.randrange(-3, 4), u, False, mexp)
        t = rng.randrange(0, s + 1)
        step = x.coeffs
        for _ in range(t):
            step = c.poly_div_pi(step)
        want = Elem(c, x.vbase + t, step, True, x.mexp - t)
        u, m = x._divide(t)
        got = Elem(c, x.vbase + t, u, True, m)
        assert (got.coeffs, got.mexp) == (want.coeffs, want.mexp)


INVERSE_FIELDS = [(2, (-2, 0, 1)), (2, (-2, 2, 1)), (2, (-2, 0, 0, 1)),
                  (3, (-3, 3, 1)), (5, (-5, 0, 1)), (5, (-5, 1))]


@pytest.mark.parametrize("p, eis", INVERSE_FIELDS)
def test_poly_inv_matches_newton(p, eis):
    """`poly_inv` (the linear solve at e >= 2, `pow` at e = 1) returns
    the unique inverse mod p^M that Newton's iteration finds, on random
    units; a non-unit raises Singular."""
    c = make_field(p, len(eis) - 1, eis, 24)
    one = (1,) + (0,) * (c.e - 1)
    rng = random.Random(p * 1000 + sum(eis))
    for _ in range(300):
        u = c.random_unit(rng).coeffs
        assert c.poly_inv(u) == poly_inv_newton(c, u)
        assert c.poly_mul(u, c.poly_inv(u)) == one
    with pytest.raises(Singular):
        c.poly_inv(c.poly_mul(c.random_unit(rng).coeffs, c.pi_poly()))


@pytest.mark.parametrize("p, eis", [(2, (-2, 0, 1)), (2, (-2, 2, 1)),
                                    (2, (-2, 0, 0, 1)), (3, (-3, 3, 1))])
def test_divide_matches_stepwise_at_e2_e3(p, eis):
    """At e >= 2 `Elem._divide(t)`, t = e s + r, is one division by p^s,
    one product with (p/pi^e)^s and r steps of `poly_div_pi`; as an
    `Elem` it equals t steps of `poly_div_pi`, coefficients and tracked
    validity, on random unit parts times pi^v, v >= t, at every validity
    up to M."""
    c = make_field(p, len(eis) - 1, eis, 18)
    rng = random.Random(p * 10 + len(eis))
    for _ in range(300):
        v = rng.randrange(0, 3 * c.e * 4)
        mexp = rng.randrange(1, c.coeff_exp + 1)
        u = c.poly_mul(c.random_unit(rng).coeffs, _pi_power_poly(c, v))
        x = Elem(c, rng.randrange(-3, 4), u, False, mexp)
        t = rng.randrange(0, v + 1)
        step = x.coeffs
        for _ in range(t):
            step = c.poly_div_pi(step)
        want = Elem(c, x.vbase + t, step, True, x.mexp - -(-t // c.e))
        u, m = x._divide(t)
        got = Elem(c, x.vbase + t, u, True, m)
        assert (got.coeffs, got.mexp) == (want.coeffs, want.mexp)


@pytest.mark.parametrize("p, e, eis", [
    (2, 2, (-2, 0, 1)), (2, 2, (-2, 2, 1)), (2, 2, (2, 0, 1)),
    (2, 3, (-2, 0, 0, 1)), (3, 1, (-3, 1)), (3, 2, (-3, 3, 1)),
    (5, 1, (-5, 1)), (7, 1, (-7, 1)),
])
def test_card_unit_square_classes_closed_form(p, e, eis):
    """|O^x/(O^x)^2| is 2 at odd p and 2^(e + 1) at p = 2: the count of
    unit representatives that `square_class_reps` enumerates."""
    c = make_field(p, e, eis, 24)
    assert card_unit_square_classes(c) == square_class_reps(c).card_units
    assert card_unit_square_classes(c) == (2 if p != 2 else 2 ** (e + 1))


@pytest.mark.parametrize("eis", [(-2, 0, 1), (-2, 0, 0, 1)])
def test_poly_pow_matches_repeated_products(monkeypatch, eis):
    """u^k by binary powering equals k products with u, for k = 0..9 at
    e = 2 and e = 3, and squares only between bits: bit_length(k) - 1
    squarings and popcount(k) products."""
    c = make_field(2, len(eis) - 1, eis, 24)
    u = c.random_unit(random.Random(5)).coeffs
    want = c.one().coeffs
    products = []
    mul = LocalFieldCtx.poly_mul

    def counting(self, a, b):
        products.append(a)
        return mul(self, a, b)

    for k in range(10):
        monkeypatch.setattr(LocalFieldCtx, "poly_mul", counting)
        products.clear()
        got = c.poly_pow(u, k)
        monkeypatch.setattr(LocalFieldCtx, "poly_mul", mul)
        assert got == want, k
        assert len(products) == max(0, k.bit_length() - 1) + bin(k).count("1")
        want = c.poly_mul(want, u)


def _square_class_reps_all_pairs(c):
    """The unit representatives by the all-pairs loop: each new
    representative marks every unit residue of its class as seen."""
    tuples = unit_digit_tuples(2, 2 * c.from_int(2).val + 1)
    reps, seen = [], set()
    for t in tuples:
        if t in seen:
            continue
        u = c.from_digits(0, t)
        reps.append(u)
        for t2 in tuples:
            if is_square(u / c.from_digits(0, t2)):
                seen.add(t2)
    return reps


@pytest.mark.parametrize("eis", [(-2, 0, 1), (-2, 2, 1), (-2, 0, 0, 1),
                                 (2, 0, 1)])
def test_square_class_reps_match_all_pairs(eis):
    """Comparing each unit residue with the representatives found so far
    gives the all-pairs loop's representatives, in the same order."""
    c = make_field(2, len(eis) - 1, eis, 24)
    scs = square_class_reps(c)
    reps = _square_class_reps_all_pairs(c)
    assert [u._key() for u in scs.unit_reps] == [u._key() for u in reps]
    pi = c.pi()
    assert scs == SquareClassSet(c, tuple(reps) + tuple(u * pi for u in reps),
                                 tuple(reps), 2 * len(reps), len(reps))


def test_rational_embedding():
    c = ctx5()
    x = c.from_rational(Fraction(3, 7))
    assert x * c.from_int(7) == c.from_int(3)
    assert c.from_rational(Fraction(50, 2)) == c.from_int(25)


def test_precision_exhausted_on_deep_cancellation():
    c = ctx5(12)
    # x and x perturbed beyond the representation capacity
    deep = c.coeff_exp * c.e  # total digit capacity
    x = c.one()
    y = c.one() + c.pi(deep + 2)  # the perturbation is dropped on addition
    d = y - x
    assert d.is_zero()  # indistinguishable, exact-zero by contract
    # cancellation whose first surviving digit is inside the guard zone
    z = (c.one() + c.pi(deep - 1)) - c.one()
    with pytest.raises(PrecisionExhausted):
        z.normalized()


def _raw_sums(c, rng, count):
    """Unnormalized elements: sums with and without cancellation, zero."""
    out = []
    while len(out) < count:
        x = c.random_elem(rng, -2, 3)
        y = c.random_elem(rng, -2, 3) if rng.random() < 0.5 else \
            -x + c.random_elem(rng, x.val + 1, x.val + 4)
        out.append(x + y)
    out.append(c.one() - c.one())
    return [s for s in out if not s._norm]


@pytest.mark.parametrize("mk", [ctx5, ctx2])
@pytest.mark.parametrize("method", ["_settle", "normalized"])
def test_settling_changes_no_observation(mk, method):
    """After `_settle` or `normalized`, whether it marks the element in
    place or returns a copy, val, unit digits, mexp, == and hash read as
    on an untouched twin."""
    c = mk()
    paths = set()
    for s in _raw_sums(c, random.Random(9), 200):
        twin = Elem(c, s.vbase, s.coeffs, False, s.mexp)
        want = (twin.val, twin.unit_digits(4), hash(twin))
        mexp = s.mexp
        out = getattr(s, method)()
        paths.add(out is s)
        assert s.mexp == mexp
        for z in (s, out):
            assert (z.val, z.unit_digits(4), hash(z)) == want
            assert z == twin and twin == z
    assert paths == {True, False}


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_equal_values_of_different_validity(mk):
    """Equal elements whose mexp differ compare equal and hash equal."""
    c = mk()
    rng = random.Random(10)
    for _ in range(100):
        x = c.random_elem(rng, -2, 3)
        low = Elem(c, x.vbase, x.coeffs, True, x.mexp - 3)
        z = Elem(c, 0, c.random_unit(rng).coeffs, True, x.mexp - 2)
        raw = (x + z) - z
        for y in (low, raw):
            assert y.mexp < x.mexp
            assert x == y and y == x
            assert hash(x) == hash(y)


def test_digit_roundtrip_and_str():
    c = ctx2()
    x = c.from_digits(-2, (1, 0, 1, 1))
    assert x.val == -2
    assert x.unit_digits(4) == (1, 0, 1, 1)
    assert "pi^-2" in str(x)


def test_square_classes_odd():
    c = ctx5()
    scs = square_class_reps(c)
    assert scs.card_units == 2
    assert scs.card_field == 4
    assert is_square(scs.reps[0])
    rng = random.Random(4)
    # partition: each sampled nonzero element lies in exactly one class
    counts = [0] * len(scs.reps)
    for _ in range(500):
        x = c.random_elem(rng, -2, 3)
        hits = [i for i, r in enumerate(scs.reps) if is_square(x / r)]
        assert len(hits) == 1
        counts[hits[0]] += 1
    assert all(n > 0 for n in counts)


def test_square_classes_even_by_enumeration():
    """Brute-force oracle: enumerate unit residues at the Hensel level,
    dedup by the image of the squaring map."""
    c = ctx2()
    level = 2 * c.from_int(2).val + 1
    import itertools

    units = [t for t in itertools.product(range(2), repeat=level) if t[0] == 1]
    squares = {(c.from_digits(0, t) ** 2).residue_digits(level) for t in units}
    classes = []
    seen = set()
    for t in units:
        if t in seen:
            continue
        classes.append(t)
        u = c.from_digits(0, t)
        for t2 in units:
            v = c.from_digits(0, t2)
            # u/v is a square iff its residue lies in the squaring image
            if (u / v).residue_digits(level) in squares:
                seen.add(t2)
    scs = square_class_reps(c)
    assert scs.card_units == len(classes) == 8
    assert scs.card_field == 16


def test_square_class_partition_even():
    c = ctx2()
    scs = square_class_reps(c)
    rng = random.Random(11)
    for _ in range(100):
        x = c.random_elem(rng, -2, 3)
        hits = [i for i, r in enumerate(scs.reps) if is_square(x / r)]
        assert len(hits) == 1
        assert scs.class_index(x) == hits[0] == scs.class_index(x)


def test_additive_char():
    c5 = ctx5()
    one = CharacterValue.one(5)
    assert additive_char(c5.pi(1)) == one  # kernel contains the ideal
    assert additive_char(c5.from_int(2)) == CharacterValue.root(5, 2)
    # additivity, exhaustive over the residue field
    for a in range(5):
        for b in range(5):
            lhs = additive_char(c5.from_int(a + b))
            rhs = additive_char(c5.from_int(a)) * additive_char(c5.from_int(b))
            assert lhs == rhs
    c2 = ctx2()
    assert additive_char(c2.one()) == CharacterValue.rational(2, -1)
    with pytest.raises(DomainError):
        additive_char(c5.pi(-1))


def test_char_factors_through_residue_field():
    c = ctx2()
    rng = random.Random(5)
    for _ in range(50):
        x = c.random_elem(rng, 0, 4)
        y = x + c.pi(1) * c.random_elem(rng, 0, 3)
        assert additive_char(x) == additive_char(y)


def test_parse_elem():
    c = ctx5()
    assert parse_elem(c, "pi^2").val == 2
    assert parse_elem(c, "1+pi") == c.one() + c.pi(1)
    assert parse_elem(c, "-1+pi*u") == -c.one() + c.pi(1) * square_class_reps(c).unit_reps[1]
    assert parse_elem(c, "3/7") == c.from_rational(Fraction(3, 7))
