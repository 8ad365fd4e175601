import random
from fractions import Fraction

import pytest

from twirl import (
    DomainError,
    NotEisenstein,
    PrecisionExhausted,
    PrecisionTooSmall,
    additive_char,
    is_square,
    make_field,
    parse_context,
    parse_elem,
    square_class_reps,
)
from twirl.cyclotomic import CharacterValue


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


def test_context_serialization():
    c = ctx2()
    c2 = parse_context(c.config_block())
    assert c2 == c


def test_parse_elem():
    c = ctx5()
    assert parse_elem(c, "pi^2").val == 2
    assert parse_elem(c, "1+pi") == c.one() + c.pi(1)
    assert parse_elem(c, "-1+pi*u") == -c.one() + c.pi(1) * square_class_reps(c).unit_reps[1]
    assert parse_elem(c, "3/7") == c.from_rational(Fraction(3, 7))
