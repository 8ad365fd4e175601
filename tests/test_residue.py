from fractions import Fraction

import pytest

from twirl import (
    NoStabilization,
    RationalSeries,
    closed_form,
    fit_polynomial,
    laurent_at_zero,
    residue_report,
)
from twirl.cyclotomic import CharacterValue
from twirl.residue import classify_regime, spot_check, verify_expansion


def q2(x):
    return CharacterValue.rational(2, Fraction(x))


def test_fit_linear():
    coeffs = [q2(4 * k + 1) for k in range(8)]
    poly, k0 = fit_polynomial(coeffs, 1)
    assert k0 == 0
    assert poly[0] == q2(1) and poly[1] == q2(4)


def test_fit_constant_and_head():
    coeffs = [q2(7)] * 6
    poly, k0 = fit_polynomial(coeffs, 1)
    assert k0 == 0 and poly[0] == q2(7) and poly[1].is_zero()
    # anomalous head value
    coeffs2 = [q2(100)] + [q2(2 * k + 3) for k in range(1, 9)]
    poly2, k02 = fit_polynomial(coeffs2, 1)
    assert k02 == 1
    rs = closed_form(poly2, k02, coeffs2[:k02])
    assert verify_expansion(rs, coeffs2)


def test_fit_no_stabilization():
    coeffs = [q2(k * k) for k in range(8)]
    with pytest.raises(NoStabilization):
        fit_polynomial(coeffs, 1)


def test_closed_form_geometric():
    poly = [q2(1)]
    rs = closed_form(poly, 0, [])
    assert rs.pole_power == 1
    assert [c.rational_part() for c in rs.series(5)] == [1, 1, 1, 1, 1]


def test_closed_form_4kplus1():
    """sum (4k+1) u^k = (1+3u)/(1-u)^2."""
    poly = [q2(1), q2(4)]
    rs = closed_form(poly, 0, [])
    assert rs.pole_power == 2
    num = [c.rational_part() for c in rs.num]
    while num and num[-1] == 0:
        num.pop()
    assert num == [1, 3]
    got = [c.rational_part() for c in rs.series(10)]
    assert got == [4 * k + 1 for k in range(10)]


def test_laurent_benchmark():
    for n, q in ((1, 3), (2, 5), (2, 2)):
        rs = RationalSeries((q2(1),), 1)
        laur = laurent_at_zero(rs, n, q)
        princ = laur.principal()
        assert len(princ) == 1
        t = princ[0]
        assert t.s_power == -1 and t.lnq_power == -1
        assert t.value == q2(Fraction(1, 2 * n))
        assert spot_check(rs, laur, n, q) <= 1e-6


def test_laurent_double_pole():
    rs = RationalSeries((q2(0), q2(1)), 2)  # u/(1-u)^2
    laur = laurent_at_zero(rs, 2, 5)
    lead = [t for t in laur.terms if t.s_power == -2]
    assert len(lead) == 1
    assert lead[0].value == q2(Fraction(1, 16)) and lead[0].lnq_power == -2
    assert spot_check(rs, laur, 2, 5) <= 1e-6


def test_laurent_polynomial_no_principal():
    rs = RationalSeries((q2(3), q2(5)), 0)
    laur = laurent_at_zero(rs, 2, 5)
    assert laur.principal() == []
    assert laur.residue() is None


def test_head_shift_preserves_principal_part():
    """Dropping leading k-terms changes only the holomorphic part."""
    coeffs = [q2(4 * k + 1) for k in range(10)]
    rep = residue_report(coeffs, 2, 5)
    # drop the first two coefficients: subtract the head polynomial
    shifted = [q2(0), q2(0)] + coeffs[2:]
    poly, k0 = fit_polynomial(shifted, 1)
    rs2 = closed_form(poly, k0, shifted[:k0])
    laur2 = laurent_at_zero(rs2, 2, 5)
    princ1 = {(t.s_power, t.lnq_power): t.value for t in rep.laurent.principal()}
    princ2 = {(t.s_power, t.lnq_power): t.value for t in laur2.principal()}
    assert princ1 == princ2


def test_classify_and_report():
    coeffs = [q2(4 * k + 1) for k in range(8)]
    assert classify_regime(coeffs) == "odd-factorized"
    rep = residue_report(coeffs, 2, 5)
    assert rep.regime == "odd-factorized"
    assert rep.checks["re_expansion_exact"]
    assert rep.checks["spot_check_ok"]
    den = rep.to_json()["closed_form"]["den"]
    assert den == {"one_minus_u_power": 2, "extra": ["1"]}
    affine = [q2(3 + 2 * k) for k in range(8)]
    assert classify_regime(affine) == "even-weighted"
    zero = [q2(0)] * 6
    assert classify_regime(zero) == "zero"
    repz = residue_report(zero, 2, 5)
    assert repz.regime == "zero"
    j = rep.to_json()
    assert j["regime"] == "odd-factorized"
    assert j["laurent"][0]["lnq_power"] in (-1, -2)


def test_numeric_eval_against_direct():
    rs = RationalSeries((q2(1), q2(3)), 2)  # (1+3u)/(1-u)^2
    laur = laurent_at_zero(rs, 2, 5)
    for s in (1e-3, 1e-4):
        u = 5.0 ** (-4 * s)
        direct = (1 + 3 * u) / (1 - u) ** 2
        approx = laur.eval_float(s)
        assert abs(direct - approx) / abs(direct) <= 1e-6


def test_truncated_series_matches_laurent():
    """Partial sums of c_k q^(-2nks) approach the Laurent data."""
    coeffs = [q2(4 * k + 1) for k in range(60)]
    rep = residue_report(coeffs[:12], 2, 5)
    for s in (0.05, 0.02):
        partial = sum(float((4 * k + 1)) * 5.0 ** (-4 * k * s)
                      for k in range(2000))
        assert abs(partial - rep.laurent.eval_float(s)) / partial <= 1e-3
