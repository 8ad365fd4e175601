import random
from fractions import Fraction

import pytest

from twirl import RationalSeries, laurent_at_zero, residue_report
from twirl.cyclotomic import CharacterValue
from twirl.residue import spot_check

import residue_oracle as oracle


def q2(x):
    return CharacterValue.rational(2, Fraction(x))


def test_fit_linear():
    coeffs = [q2(4 * k + 1) for k in range(8)]
    poly, k0 = oracle.fit_polynomial(coeffs, 1)
    assert k0 == 0
    assert poly[0] == q2(1) and poly[1] == q2(4)


def test_fit_constant_and_head():
    coeffs = [q2(7)] * 6
    poly, k0 = oracle.fit_polynomial(coeffs, 1)
    assert k0 == 0 and poly[0] == q2(7) and poly[1].is_zero()
    # anomalous head value
    coeffs2 = [q2(100)] + [q2(2 * k + 3) for k in range(1, 9)]
    poly2, k02 = oracle.fit_polynomial(coeffs2, 1)
    assert k02 == 1
    rs = oracle.closed_form(poly2, k02, coeffs2[:k02])
    assert oracle.verify_expansion(rs, coeffs2)


def test_fit_no_stabilization():
    coeffs = [q2(k * k) for k in range(8)]
    with pytest.raises(oracle.NoStabilization):
        oracle.fit_polynomial(coeffs, 1)


def test_closed_form_geometric():
    poly = [q2(1)]
    rs = oracle.closed_form(poly, 0, [])
    assert rs.pole_power == 1
    assert [c.rational_part() for c in oracle.series(rs, 5)] == [1] * 5


def test_closed_form_4kplus1():
    """sum (4k+1) u^k = (1+3u)/(1-u)^2, from the pair and from the fit."""
    closed = residue_report(q2(1), q2(4), range(10), 2, 5).closed
    assert closed.pole_power == 2
    assert [c.rational_part() for c in closed.num] == [1, 3]
    rs = oracle.closed_form([q2(1), q2(4)], 0, [])
    assert rs.pole_power == 2
    num = [c.rational_part() for c in rs.num]
    while num and num[-1] == 0:
        num.pop()
    assert num == [1, 3]
    got = [c.rational_part() for c in oracle.series(closed, 10)]
    assert got == [4 * k + 1 for k in range(10)]


def test_laurent_benchmark():
    """sum_k u^k = 1/(1-u) has residue 1/(2n ln q) at s = 0 and no other
    pole, by the explicit formula and by the series inverse."""
    for n, q in ((1, 3), (2, 5), (2, 2)):
        rs = RationalSeries((q2(1),), 1)
        for laur in (laurent_at_zero(q2(1), q2(0), n, q),
                     oracle.laurent_at_zero(rs, n, q)):
            princ = laur.principal()
            assert len(princ) == 1
            t = princ[0]
            assert t.s_power == -1 and t.lnq_power == -1
            assert t.value == q2(Fraction(1, 2 * n)) == laur.residue()
            assert spot_check(rs, laur, n, q) <= 1e-6


def test_laurent_double_pole():
    """sum_k k u^k = u/(1-u)^2 leads with 1/(2n)^2 s^-2 (ln q)^-2 and has
    no residue, by the explicit formula and by the series inverse."""
    rs = RationalSeries((q2(0), q2(1)), 2)
    for laur in (laurent_at_zero(q2(0), q2(1), 2, 5),
                 oracle.laurent_at_zero(rs, 2, 5)):
        lead = [t for t in laur.terms if t.s_power == -2]
        assert len(lead) == 1
        assert lead[0].value == q2(Fraction(1, 16)) and lead[0].lnq_power == -2
        assert laur.residue() is None
        assert spot_check(rs, laur, 2, 5) <= 1e-6


def test_laurent_polynomial_no_principal():
    rs = RationalSeries((q2(3), q2(5)), 0)
    laur = oracle.laurent_at_zero(rs, 2, 5)
    assert laur.principal() == []
    assert laur.residue() is None


def test_head_shift_preserves_principal_part():
    """Dropping leading k-terms changes only the holomorphic part."""
    rep = residue_report(q2(1), q2(4), range(10), 2, 5)
    # drop the first two coefficients: subtract the head polynomial
    shifted = [q2(0), q2(0)] + [q2(4 * k + 1) for k in range(2, 10)]
    poly, k0 = oracle.fit_polynomial(shifted, 1)
    rs2 = oracle.closed_form(poly, k0, shifted[:k0])
    laur2 = oracle.laurent_at_zero(rs2, 2, 5)
    princ1 = {(t.s_power, t.lnq_power): t.value for t in rep.laurent.principal()}
    princ2 = {(t.s_power, t.lnq_power): t.value for t in laur2.principal()}
    assert princ1 == princ2


def test_classify_and_report():
    """The regime read from (a, b) is the one the oracle reads from the
    printed c_k."""
    ks = range(8)
    rep = residue_report(q2(1), q2(4), ks, 2, 5)
    assert rep.regime == "odd-factorized"
    assert rep.checks["re_expansion_exact"]
    assert rep.checks["spot_check_ok"]
    den = rep.to_json()["closed_form"]["den"]
    assert den == {"one_minus_u_power": 2, "extra": ["1"]}
    for a, b, regime in ((1, 4, "odd-factorized"), (3, 2, "even-weighted"),
                         (5, 0, "even-weighted"), (0, 0, "zero")):
        coeffs = [q2(a + b * k) for k in ks]
        assert oracle.classify_regime(coeffs) == regime
        assert residue_report(q2(a), q2(b), ks, 2, 5).regime == regime
    repz = residue_report(q2(0), q2(0), ks, 2, 5)
    assert repz.checks == {"identically_zero": True}
    j = rep.to_json()
    assert j["regime"] == "odd-factorized"
    assert j["laurent"][0]["lnq_power"] in (-1, -2)


def test_numeric_eval_against_direct():
    laur = laurent_at_zero(q2(1), q2(4), 2, 5)  # (1+3u)/(1-u)^2
    for s in (1e-3, 1e-4):
        u = 5.0 ** (-4 * s)
        direct = (1 + 3 * u) / (1 - u) ** 2
        approx = laur.eval_float(s)
        assert abs(direct - approx) / abs(direct) <= 1e-6


def test_truncated_series_matches_laurent():
    """Partial sums of c_k q^(-2nks) approach the Laurent data."""
    rep = residue_report(q2(1), q2(4), range(12), 2, 5)
    for s in (0.05, 0.02):
        partial = sum(float((4 * k + 1)) * 5.0 ** (-4 * k * s)
                      for k in range(2000))
        assert abs(partial - rep.laurent.eval_float(s)) / partial <= 1e-3


def _random_value(rng, p):
    if rng.random() < 0.2:
        return CharacterValue.zero(p)
    return CharacterValue(p, tuple(Fraction(rng.randint(-40, 40),
                                            rng.randint(1, 12))
                                   for _ in range(p - 1)))


@pytest.mark.parametrize("p", [2, 5])
def test_report_equals_the_oracle_on_random_pairs(p):
    """Random (a, b) over Q (p = 2) and Q[zeta_5], with the special
    pairs b = 0, a = 0, b = 4a and a = b = 0 among them, at k_max 4..10
    and n in {1, 2}."""
    rng = random.Random(20 + p)
    zero = CharacterValue.zero(p)
    pairs = [(_random_value(rng, p), _random_value(rng, p))
             for _ in range(30)]
    one = CharacterValue.rational(p, Fraction(3, 7))
    pairs += [(one, zero), (zero, one), (one, one.scale(4)), (zero, zero)]
    for a, b in pairs:
        for k_max in range(4, 11):
            for n, q in ((2, p), (1, p)):
                oracle.assert_report_matches(a, b, range(k_max + 1), n, q)
