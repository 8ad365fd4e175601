import random
from fractions import Fraction

import pytest

from twirl.cyclotomic import CharacterValue
from twirl.errors import (DomainError, NotEisenstein, PrecisionExhausted,
                          PrecisionTooSmall, Singular)
from twirl.localfield import (Elem, LocalFieldCtx,
                              _pi_power_poly, additive_char,
                              card_unit_square_classes, is_square, parse_elem,
                              square_class_reps, unit_digit_tuples)

from newton_inverse import poly_inv_newton


def ctx5(n=18):
    return LocalFieldCtx(5, 1, (-5, 1), n)


def ctx2(n=24):
    return LocalFieldCtx(2, 2, (-2, 0, 1), n)


def test_field_examples():
    """The constructor checks and builds the field; the coefficients may
    be any sequence."""
    assert ctx5(12).from_int(5).val == 1
    assert LocalFieldCtx(5, 1, [-5, 1], 12) == ctx5(12)
    assert LocalFieldCtx(5, 1, [-5, 1], 12).eisenstein == (-5, 1)
    c = LocalFieldCtx(2, 2, (-2, 0, 1), 14)
    assert c.from_int(2).val == 2  # 2 in pi^2
    c1 = LocalFieldCtx(2, 1, (-2, 1), 14)
    assert c1.from_int(2).val == 1


def test_field_context_is_a_value():
    """Two contexts are equal, and hash alike, exactly when (p, e,
    eisenstein, precision) agree, whatever their derived slots and
    tables hold; a context equals nothing else, and refuses assignment."""
    a, b = ctx5(12), ctx5(12)
    b.from_int(3).inverse()     # fills b's per-field tables only
    a._memo["probe"] = 1
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for other in (ctx5(13), LocalFieldCtx(5, 1, (-10, 1), 12),
                  LocalFieldCtx(5, 2, (-5, 0, 1), 12), ctx2()):
        assert a != other
    assert a != (5, 1, (-5, 1), 12)
    for name in ("p", "precision", "_memo", "new"):
        with pytest.raises(AttributeError):
            setattr(a, name, 7)
    assert (a.p, a.precision) == (5, 12)


def test_one_is_the_stored_form_of_from_int_1():
    """`one()` builds the constant directly; it stores what from_int(1)
    stores, at e = 1, 2 and 3."""
    for c in (ctx5(), ctx2(), LocalFieldCtx(2, 3, (-2, 0, 0, 1), 14)):
        one, ref = c.one(), c.from_int(1)
        assert ((one.vbase, one.coeffs, one.mexp, one._norm)
                == (ref.vbase, ref.coeffs, ref.mexp, ref._norm))


def test_field_errors():
    with pytest.raises(NotEisenstein):
        LocalFieldCtx(4, 1, (-4, 1), 12)  # not prime
    with pytest.raises(NotEisenstein):
        LocalFieldCtx(5, 2, (-25, 0, 1), 12)  # constant term valuation 2
    with pytest.raises(NotEisenstein):
        LocalFieldCtx(5, 2, (-5, 1, 1), 12)  # middle coefficient not divisible
    with pytest.raises(PrecisionTooSmall):
        LocalFieldCtx(5, 2, (-5, 5, 1), 5)
    with pytest.raises(NotEisenstein,
                       match="^polynomial degree must equal the ramification "
                             "degree$"):
        LocalFieldCtx(5, 1, (-5, 1, 1), 12)
    with pytest.raises(NotEisenstein, match="^polynomial must be monic$"):
        LocalFieldCtx(5, 2, (-5, 0, 2), 12)


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
    c = LocalFieldCtx(p, e, eis, 20)
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
    c = LocalFieldCtx(p, 1, (-p, 1), precision)
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
    c = LocalFieldCtx(p, 1, eis, 18)
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
    c = LocalFieldCtx(p, len(eis) - 1, eis, 24)
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
    c = LocalFieldCtx(p, len(eis) - 1, eis, 18)
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
    c = LocalFieldCtx(p, e, eis, 24)
    assert card_unit_square_classes(c) == len(square_class_reps(c).unit_reps)
    assert card_unit_square_classes(c) == (2 if p != 2 else 2 ** (e + 1))


@pytest.mark.parametrize("p, eis", [(2, (-2, 0, 1)), (2, (-2, 0, 0, 1)),
                                    (3, (-3, 1)), (5, (-5, 1))])
def test_ord2_is_the_valuation_of_2(p, eis):
    c = LocalFieldCtx(p, len(eis) - 1, eis, 24)
    assert c.ord2 == c.from_int(2).val


def test_is_square_refuses_digits_past_the_validity():
    """1 + pi^4 held to 2 coefficient levels over x^2 - 2 has no fifth
    digit, and 1 + pi^4 is not a square: the Hensel level needs 5."""
    c = ctx2()
    one_pi4 = c.from_digits(0, (1, 0, 0, 0, 1))
    assert not is_square(one_pi4)
    short = Elem(c, 0, one_pi4.coeffs, True, 2)
    with pytest.raises(PrecisionExhausted):
        short.residue_digits(5)
    with pytest.raises(PrecisionExhausted):
        is_square(short)


@pytest.mark.parametrize("eis, unit_digits", [
    ((-2, 0, 1), [(1, a, 0, b, c) for a in (0, 1) for b in (0, 1)
                  for c in (0, 1)]),
    ((-2, 0, 0, 1), [(1, a, 0, b, 0, c, d) for a in (0, 1) for b in (0, 1)
                     for c in (0, 1) for d in (0, 1)]),
    ((-5, 1), [(1,), (2,)]),
])
def test_square_class_reps_at_full_validity(eis, unit_digits):
    """The unit representatives, by their digits at the Hensel level."""
    p = 2 if eis[0] == -2 else 5
    c = LocalFieldCtx(p, len(eis) - 1, eis, 24)
    scs = square_class_reps(c)
    level = len(unit_digits[0])     # 2 ord(2) + 1
    assert [u.unit_digits(level) for u in scs.unit_reps] == unit_digits
    assert len(scs.reps) == 2 * len(unit_digits)


@pytest.mark.parametrize("eis", [(-2, 0, 1), (-2, 0, 0, 1)])
def test_poly_pow_matches_repeated_products(monkeypatch, eis):
    """u^k by binary powering equals k products with u, for k = 0..9 at
    e = 2 and e = 3, and squares only between bits: bit_length(k) - 1
    squarings and popcount(k) products."""
    c = LocalFieldCtx(2, len(eis) - 1, eis, 24)
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
    c = LocalFieldCtx(2, len(eis) - 1, eis, 24)
    scs = square_class_reps(c)
    reps = _square_class_reps_all_pairs(c)
    assert ([u._key(u.mexp) for u in scs.unit_reps]
            == [u._key(u.mexp) for u in reps])
    pi = c.pi()
    assert (scs.ctx, scs.reps, scs.unit_reps) == (
        c, tuple(reps) + tuple(u * pi for u in reps), tuple(reps))


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


def test_divisible_by_refuses_past_the_validity():
    """(1 + pi^24) - 1 at p = 5, precision 18, is pi^24 held to 26
    levels: divisibility by pi^24 and pi^25 is decided on the raw
    representative, and by pi^30 it lies beyond the tracked validity."""
    c = ctx5()
    x = (c.one() + c.pi(24)) - c.one()
    assert x.divisible_by(24) and not x.divisible_by(25)
    with pytest.raises(PrecisionExhausted,
                       match="^divisibility by pi\\^30 beyond tracked "
                             "validity$"):
        x.divisible_by(30)


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


def test_normalized_does_not_depend_on_an_earlier_sum():
    """A unit at 2 coefficient levels has no digit the capacity can
    decide: `normalized` raises fresh, and still raises after the element
    was an operand of a sum (which settles it)."""
    c = ctx5()
    b = Elem(c, 0, (7,), False, 2)
    with pytest.raises(PrecisionExhausted):
        b.normalized()
    b + c.one()
    with pytest.raises(PrecisionExhausted):
        b.normalized()


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
    assert len(scs.unit_reps) == card_unit_square_classes(c) == 2
    assert len(scs.reps) == 4
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
    assert len(scs.unit_reps) == len(classes) == 8
    assert len(scs.reps) == 16


def test_square_class_partition_even():
    c = ctx2()
    scs = square_class_reps(c)
    rng = random.Random(11)
    for _ in range(100):
        x = c.random_elem(rng, -2, 3)
        hits = [i for i, r in enumerate(scs.reps) if is_square(x / r)]
        assert len(hits) == 1


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


# (text, (valuation, first six unit digits) or (error, message)) over
# x - 5, as the regular-expression parser of earlier versions read them;
# \u0660, \u0661 and \u0663 are Arabic-Indic digits, \u00b2 a superscript two
_PARSE_CASES = [
    ('pi', (1, (1, 0, 0, 0, 0, 0))),
    ('pi^-2', (-2, (1, 0, 0, 0, 0, 0))),
    ('u', (0, (2, 0, 0, 0, 0, 0))),
    ('3/7', (0, (4, 0, 2, 1, 4, 2))),
    ('-1+pi*3+pi^2*2', (0, (4, 2, 2, 0, 0, 0))),
    ('pi^2', (2, (1, 0, 0, 0, 0, 0))),
    ('1+pi', (0, (1, 1, 0, 0, 0, 0))),
    ('-1+pi*u', (0, (4, 1, 0, 0, 0, 0))),
    (' 1 + pi ^ 2 ', (0, (1, 0, 1, 0, 0, 0))),
    ('0', (None, ())),
    ('-0', (None, ())),
    ('12', (0, (2, 2, 0, 0, 0, 0))),
    ('-3/4', (0, (3, 3, 3, 3, 3, 3))),
    ('pi^0', (0, (1, 0, 0, 0, 0, 0))),
    ('pi^-0', (0, (1, 0, 0, 0, 0, 0))),
    ('u*u', (0, (4, 0, 0, 0, 0, 0))),
    ('+1', (0, (1, 0, 0, 0, 0, 0))),
    ('1+', (0, (1, 0, 0, 0, 0, 0))),
    ('1++pi', (0, (1, 1, 0, 0, 0, 0))),
    ('++', (None, ())),
    ('', ('DomainError', 'empty element expression')),
    (' ', ('DomainError', 'empty element expression')),
    ('pi^', ('DomainError', "cannot parse element factor 'pi^'")),
    ('pi^x', ('DomainError', "cannot parse element factor 'pi^x'")),
    ('pi^+2', ('DomainError', "cannot parse element factor 'pi^+2'")),
    ('pi^2.5', ('DomainError', "cannot parse element factor 'pi^2.5'")),
    ('pi^--1', ('DomainError', "cannot parse element factor 'pi^--1'")),
    ('pi^2^3', ('DomainError', "cannot parse element factor 'pi^2^3'")),
    ('x', ('DomainError', "cannot parse element factor 'x'")),
    ('1/', ('DomainError', "cannot parse element factor '1/'")),
    ('/2', ('DomainError', "cannot parse element factor '/2'")),
    ('--1', ('DomainError', "cannot parse element factor '--1'")),
    ('-', ('DomainError', "cannot parse element factor '-'")),
    ('pi*', ('DomainError', "cannot parse element factor ''")),
    ('*pi', ('DomainError', "cannot parse element factor ''")),
    ('-pi', ('DomainError', "cannot parse element factor '-pi'")),
    ('2/-3', ('DomainError', "cannot parse element factor '2/-3'")),
    ('3/0', ('DomainError', "zero denominator in element factor '3/0'")),
    ('-1/00', ('DomainError', "zero denominator in element factor '-1/00'")),
    ('\u0663/\u0660',
     ('DomainError', "zero denominator in element factor '\u0663/\u0660'")),
    ('1.5', ('DomainError', "cannot parse element factor '1.5'")),
    ('1_0', ('DomainError', "cannot parse element factor '1_0'")),
    ('pi^\u0663', (3, (1, 0, 0, 0, 0, 0))),
    ('\u0661/\u0663', (0, (2, 3, 1, 3, 1, 3))),
    ('\u00b2', ('DomainError', "cannot parse element factor '²'")),
    ('pi+-1', (0, (4, 0, 0, 0, 0, 0))),
    ('pi^-', ('DomainError', "cannot parse element factor 'pi^-'")),
    ('PI', ('DomainError', "cannot parse element factor 'PI'")),
    ('pi^2*', ('DomainError', "cannot parse element factor ''")),
    ('1/2/3', ('DomainError', "cannot parse element factor '1/2/3'")),
    ('pi\t', ('DomainError', "cannot parse element factor 'pi\\t'")),
    ('1\n', ('DomainError', "cannot parse element factor '1\\n'")),
]


def test_parse_elem():
    """The element language and its errors, pinned case by case: + splits
    terms except right after ^, * splits factors, a factor is pi, pi^k,
    u or a rational -n/d with decimal digits (Unicode ones included)."""
    c = ctx5()
    for text, (first, second) in _PARSE_CASES:
        if first == "DomainError":
            with pytest.raises(DomainError) as info:
                parse_elem(c, text)
            assert str(info.value) == second, text
            continue
        got = parse_elem(c, text).normalized()
        assert (None if got.is_zero() else got.val) == first, text
        assert (got.unit_digits(6) if first is not None else ()) == second, text
    assert parse_elem(c, "pi^2").val == 2
    assert parse_elem(c, "1+pi") == c.one() + c.pi(1)
    assert parse_elem(c, "-1+pi*u") == -c.one() + c.pi(1) * square_class_reps(c).unit_reps[1]
    assert parse_elem(c, "3/7") == c.from_rational(Fraction(3, 7))


def test_parse_elem_u_over_x2_minus_2():
    """`u` at p = 2 is the last of the 8 unit square-class representatives
    over x^2 - 2, which `square_class_reps` finds by enumeration (the one
    run of the square-class machinery a CLI run makes).  `u` and 1 + pi u
    are pinned by valuation and first digits, and neither is a square."""
    c = ctx2()
    reps = square_class_reps(c).unit_reps
    assert len(reps) == 8 and parse_elem(c, "u") == reps[-1]
    for text, digits in (("u", (1, 1, 0, 1, 1, 0)),
                         ("1+pi*u", (1, 1, 1, 0, 1, 1))):
        x = parse_elem(c, text).normalized()
        assert (x.val, x.unit_digits(6)) == (0, digits), text
        assert not is_square(x), text


@pytest.mark.parametrize("tok", ["0", "-0", "7", "-1", "25", "007"])
def test_parse_elem_integer_factor_matches_from_rational(tok):
    """An integer factor goes through `from_int` without `Fraction`, and
    gives the element `from_rational(Fraction(tok))` gives, slot for slot,
    at p = 2, 5 and 7."""
    for c in (ctx2(), ctx5(), LocalFieldCtx(7, 1, (-7, 1), 18)):
        got, want = parse_elem(c, tok), c.from_rational(Fraction(tok))
        assert got == want
        assert ([getattr(got, s) for s in got.__slots__]
                == [getattr(want, s) for s in want.__slots__])


@pytest.mark.parametrize("tok", ["3/7", "-6/4", "50/2", "0/3", "-0/9",
                                 "12/18", "007/014"])
def test_parse_elem_fraction_factor_matches_from_rational(tok):
    """An a/b factor is parsed as from_int(a) / from_int(b), with no
    `Fraction` and no gcd: a factor common to a and b cancels exactly, so
    it gives the element `from_rational(Fraction(tok))` gives, slot for
    slot once both are normalized, at p = 2, 3, 5 and 7."""
    for c in (ctx2(), ctx5(), LocalFieldCtx(3, 1, (-3, 1), 18),
              LocalFieldCtx(7, 1, (-7, 1), 18)):
        got = parse_elem(c, tok).normalized()
        want = c.from_rational(Fraction(tok)).normalized()
        assert ([getattr(got, s) for s in got.__slots__]
                == [getattr(want, s) for s in want.__slots__]), (c, tok)


def test_parse_elem_refuses_a_term_beyond_the_window():
    """A term whose digits lie beyond the e * m digits a sum keeps from
    its lowest valuation raises PrecisionExhausted naming the term and the
    window, whichever side of the sum it is on; `Elem.__add__` would drop
    it without a word.  At p = 5, precision 18, m = 26: pi^25 is kept and
    pi^26 is not.  Over x^2 - 2 at precision 30, pi^40 lies inside the 46
    kept digits."""
    c = ctx5()
    assert parse_elem(c, "1+pi^25") == c.one() + c.pi(25)
    for text, lost, lo in (("1+pi^26", "pi^26", 0), ("pi^40+1", "pi^40", 0),
                           ("pi^3+pi^40+2", "pi^40", 3),
                           ("pi^30+pi^31+1", "pi^30+pi^31", 0)):
        with pytest.raises(PrecisionExhausted) as info:
            parse_elem(c, text)
        assert str(info.value) == (
            f"term {lost!r} lies beyond the 26 digits pi^{lo} .. "
            f"pi^{lo + 25} that precision 18 keeps"), text
    c2 = LocalFieldCtx(2, 2, (-2, 0, 1), 30)
    assert parse_elem(c2, "1+pi^40") == c2.one() + c2.pi(40)


def _kernel_operands(c, rng):
    """Random elements, and normalized differences that lose validity:
    (x + pi^t x) - x is pi^t x with its unit part divided by pi^t."""
    pool = [c.random_elem(rng) for _ in range(16)]
    pool += [((x + x.shift(t)) - x).normalized()
             for x, t in zip(pool[:8], range(1, 9))]
    assert len({x.mexp for x in pool}) > 2
    return pool


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_kernel_results_are_reduced(mk):
    """Invariant of `Elem`: the coeffs of every result of +, -, *, unary
    -, `shift`, `normalized` and `inverse` are reduced mod p^mexp, so the
    reducing constructor returns them unchanged (x^2 - 2 at p = 2, x - 5
    at p = 5)."""
    c = mk()
    rng = random.Random(32)
    pool = _kernel_operands(c, rng)
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        for z in (x + y, x - y, x * y, -x, x.shift(rng.randrange(-4, 5)),
                  (x + y).normalized(), (x - y).normalized(), x.inverse()):
            assert z.coeffs == Elem(c, z.vbase, z.coeffs, z._norm,
                                    z.mexp).coeffs


def test_elements_of_two_fields_are_never_equal():
    """x^2 - 2 and x^2 + 2 store pi, pi^2 and 2 with the same digits of
    the same p and e, but pi^2 is 2 in one field and -2 in the other:
    elements of two fields never compare equal, and elements of one
    field (an equal context built twice included) compare as before."""
    a = LocalFieldCtx(2, 2, (-2, 0, 1), 30)
    b = LocalFieldCtx(2, 2, (2, 0, 1), 30)
    assert not a.pi() == b.pi()
    assert not a.pi() * a.pi() == b.pi() * b.pi()
    assert not a.from_int(2) == b.from_int(2)
    assert a.zero() != b.zero()
    twin = LocalFieldCtx(2, 2, (-2, 0, 1), 30)
    assert twin is not a and twin == a
    assert a.pi() == twin.pi() and a.zero() == twin.zero()
    assert a.pi() * a.pi() == twin.from_int(2) == a.from_int(2)
    assert b.pi() * b.pi() == b.from_int(-2)
    assert a.pi() * a.pi() != a.from_int(-2)


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_eq_of_equal_representatives_builds_no_key(mk, monkeypatch):
    """`==` on two normalized representatives with the same vbase, mexp
    and coeffs is True with no `_key` built; equal values of different
    mexp, and unequal values, still compare through the key."""
    c = mk()
    rng = random.Random(11)
    keys = []
    key = Elem._key
    monkeypatch.setattr(Elem, "_key",
                        lambda self, cap=None: keys.append(cap)
                        or key(self, cap))
    for _ in range(50):
        x = c.random_elem(rng, -2, 3)
        assert x == Elem(c, x.vbase, x.coeffs, True, x.mexp)
        assert keys == []
        assert x == Elem(c, x.vbase, x.coeffs, True, x.mexp - 3)
        assert keys == [x.mexp - 3] * 2
        keys.clear()
        assert x != x + c.one().shift(x.vbase + 2)
        assert len(keys) == 2
        keys.clear()
