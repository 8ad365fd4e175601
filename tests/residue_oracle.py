"""The generic residue chain, kept as the oracle of the closed form in
`twirl.residue` and of the pair (a, b) in `twirl.integrator`.

It assumes nothing about c_k: the class weight is applied per
(Delta_1, k) with its clipping below Delta_1 = -2k (`class_weight_from_delta`,
`weigh`), a polynomial of any degree is fitted by finite differences
(`fit_polynomial`), the closed form is built from the kernels
sum_k k^j u^k with a head correction (`closed_form`), and the Laurent
data come from inverting the power series of ((1 - e^(-z))/z)^d
(`laurent_at_zero`).  `residue_report` is the report the library printed
before c_k = a + b k was used, with the same JSON layout and the start
k0 of its fit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from twirl.cyclotomic import CharacterValue
from twirl.residue import residue_report as twirl_report
from twirl.residue import spot_check


class NoStabilization(Exception):
    """Finite differences of the coefficient table never vanish."""


@dataclass(frozen=True)
class RationalSeries:
    """N(u) / (1-u)^pole_power, N with CharacterValue coefficients."""

    num: tuple
    pole_power: int


# -- the class weight per (Delta_1, k) ---------------------------------------------


def class_weight_from_delta(delta1: int, units: int, k: int) -> int:
    """Square-class weight sum at Delta_1 = delta1: the closed volume
    formula w_k = Delta + 2k + 1 (0 below Delta = -2k) summed over the
    representatives alpha of F^x/(F^x)^2 with Delta -> delta1 - ord(alpha).
    `square_class_reps` has `units` representatives of valuation 0 and
    `units` of valuation 1."""
    return units * (max(0, delta1 + 2 * k + 1) + max(0, delta1 + 2 * k))


def weigh(by_delta: dict, p: int, ks, units: int) -> dict:
    """{k: sum over Delta_1 of class_weight_from_delta(Delta_1, units, k)
    * by_delta[Delta_1]}, one class weight per (Delta_1, k)."""
    table = {}
    for k in ks:
        acc = CharacterValue.zero(p)
        for d, total in by_delta.items():
            w = class_weight_from_delta(d, units, k)
            if w:
                acc = acc + total.scale(w)
        table[k] = acc
    return table


# -- small dense polynomial helpers over Fraction --------------------------------


def _padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _pscale(a, r):
    return [x * Fraction(r) for x in a]


# -- exact polynomial fit ---------------------------------------------------------


def _diff(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def fit_polynomial(coeffs, max_degree: int):
    """Exact finite-difference fit: find the first k0 from which the
    (max_degree+1)-th differences vanish identically, and the polynomial
    P with P(k) = c_k for all k >= k0.  Coefficients are CharacterValue;
    the returned P is a list of CharacterValue in the standard k-basis."""
    coeffs = list(coeffs)
    d = max_degree
    if len(coeffs) < d + 3:
        raise NoStabilization(f"need at least {d + 3} coefficients")
    table = [coeffs]
    for _ in range(d + 1):
        table.append(_diff(table[-1]))
    top = table[d + 1]
    k0 = None
    for start in range(len(top) + 1):
        if all(v.is_zero() for v in top[start:]):
            k0 = start
            break
    if k0 is None or len(coeffs) - k0 < d + 3:
        raise NoStabilization("high differences never vanish on the "
                              "computed window")
    p = coeffs[0].p
    # Newton forward form around k0: sum_j D^j c_(k0) * binom(k - k0, j)
    poly = [CharacterValue.zero(p) for _ in range(d + 1)]
    for j in range(d + 1):
        lead = table[j][k0]
        if lead.is_zero():
            continue
        binom = [Fraction(1)]
        for t in range(j):
            binom = _pmul(binom, [Fraction(-k0 - t), Fraction(1)])
        binom = _pscale(binom, Fraction(1, math.factorial(j)))
        for deg, q in enumerate(binom):
            if q:
                poly[deg] = poly[deg] + lead.scale(q)
    for k in range(k0, len(coeffs)):
        if not _poly_eval(poly, k) == coeffs[k]:
            raise NoStabilization("fit does not reproduce the coefficients")
    return poly, k0


def _poly_eval(poly, k: int) -> CharacterValue:
    p = poly[0].p
    acc = CharacterValue.zero(p)
    kk = 1
    for c in poly:
        acc = acc + c.scale(kk)
        kk *= k
    return acc


# -- rational closed form ----------------------------------------------------------


def series(rs: RationalSeries, count: int):
    """Taylor coefficients of N(u)/(1-u)^pole_power at u = 0 (exact)."""
    p = rs.num[0].p
    geo = [Fraction(1)] * count
    out_q = geo
    for _ in range(rs.pole_power - 1):
        out_q = _series_mul_q(out_q, geo, count)
    if rs.pole_power == 0:
        out_q = [Fraction(1)] + [Fraction(0)] * (count - 1)
    out = []
    for k in range(count):
        acc = CharacterValue.zero(p)
        for m, cm in enumerate(rs.num):
            if m > k:
                break
            acc = acc + cm.scale(out_q[k - m])
        out.append(acc)
    return out


def _series_mul_q(a, b, count):
    out = [Fraction(0)] * count
    for i, x in enumerate(a[:count]):
        if x:
            for j, y in enumerate(b[: count - i]):
                if y:
                    out[i + j] += x * y
    return out


def _series_inverse(a, count):
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv0 = Fraction(1) / a[0]
    out = [inv0] + [Fraction(0)] * (count - 1)
    for k in range(1, count):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -inv0 * s
    return out


def closed_form(poly, k0: int, head) -> RationalSeries:
    """sum_(k>=0) c_k u^k where c_k = P(k) for k >= k0 and the head values
    are supplied explicitly; built from the kernels sum_k k^j u^k and a
    finite head correction.  The result re-expands exactly."""
    p = poly[0].p
    d = len(poly) - 1
    one_minus = [Fraction(1), Fraction(-1)]
    # kernels K_j = sum_(k>=0) k^j u^k = A_j(u) / (1-u)^(j+1), built by
    # K_(j+1) = u d/du K_j, i.e. A -> u (A'(1-u) + (j+1) A)
    kernels = [[Fraction(1)]]
    for j in range(d):
        apoly = kernels[-1]
        ap = [Fraction(i) * c for i, c in enumerate(apoly)][1:] or [Fraction(0)]
        newa = _padd(_pmul(ap, one_minus), _pscale(apoly, j + 1))
        kernels.append(_pmul([Fraction(0), Fraction(1)], newa))
    # numerator over the common denominator (1-u)^(d+1)
    num = [CharacterValue.zero(p)]
    for j, cj in enumerate(poly):
        if cj.is_zero():
            continue
        lift = kernels[j]
        for _ in range(d - j):
            lift = _pmul(lift, one_minus)
        for deg, qc in enumerate(lift):
            while len(num) <= deg:
                num.append(CharacterValue.zero(p))
            num[deg] = num[deg] + cj.scale(qc)
    # head correction: add (c_k - P(k)) u^k for k < k0 as a polynomial
    for k in range(k0):
        ck = head[k] - _poly_eval(poly, k)
        if ck.is_zero():
            continue
        lift = [Fraction(0)] * k + [Fraction(1)]
        for _ in range(d + 1):
            lift = _pmul(lift, one_minus)
        for deg, qc in enumerate(lift):
            while len(num) <= deg:
                num.append(CharacterValue.zero(p))
            num[deg] = num[deg] + ck.scale(qc)
    return RationalSeries(tuple(num), d + 1)


def verify_expansion(rs: RationalSeries, coeffs) -> bool:
    got = series(rs, len(coeffs))
    return all(a == b for a, b in zip(got, coeffs))


# -- Laurent data at s = 0 ----------------------------------------------------------


def laurent_at_zero(rs: RationalSeries, n: int) -> list:
    """Substitute u = q^(-2ns) = exp(-z), z = 2n ln(q) s, and expand the
    Laurent series at s = 0 through s^2 by inverting the power series of
    ((1 - e^(-z))/z)^d.  Returns [(m, coefficient of s^m (ln q)^m)] by
    ascending m, zero terms omitted: each an exact rational (vector)."""
    d = rs.pole_power
    count = d + 3
    p = rs.num[0].p
    # N(e^-z) as a z-series with CharacterValue coefficients
    nser = [CharacterValue.zero(p) for _ in range(count)]
    for m, cm in enumerate(rs.num):
        if cm.is_zero():
            continue
        # e^(-mz) = sum_t (-m)^t z^t / t!
        for t in range(count):
            nser[t] = nser[t] + cm.scale(Fraction((-m) ** t, math.factorial(t)))
    # G(z) = (1 - e^-z)/z = sum_t (-1)^t z^t/(t+1)!
    g = [Fraction((-1) ** t, math.factorial(t + 1)) for t in range(count)]
    gd = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for _ in range(d):
        gd = _series_mul_q(gd, g, count)
    wq = _series_inverse(gd, count)
    lser = [CharacterValue.zero(p) for _ in range(count)]
    for i in range(count):
        if nser[i].is_zero():
            continue
        for j in range(count - i):
            if wq[j]:
                lser[i + j] = lser[i + j] + nser[i].scale(wq[j])
    terms = []
    for idx, cv in enumerate(lser):
        spow = idx - d
        if spow > 2:
            break
        if cv.is_zero():
            continue
        terms.append((spow, cv.scale(Fraction(2 * n) ** spow)))
    return terms


# -- the report --------------------------------------------------------------------


def classify_regime(coeffs) -> str:
    if all(c.is_zero() for c in coeffs):
        return "zero"
    c0 = coeffs[0]
    if all(coeffs[k] == c0.scale(4 * k + 1) for k in range(len(coeffs))):
        return "odd-factorized"
    d2 = [coeffs[k + 2] - coeffs[k + 1].scale(2) + coeffs[k]
          for k in range(len(coeffs) - 2)]
    if all(v.is_zero() for v in d2[2:]) and len(d2) > 2:
        return "even-weighted"
    return "unclassified"


def residue_report(coeffs, n: int, q: int) -> dict:
    """coefficient table -> degree-1 polynomial fit -> closed form ->
    Laurent data, with the regime classification and exactness checks,
    as the JSON report."""
    regime = classify_regime(coeffs)
    if regime == "zero":
        zero = CharacterValue.zero(coeffs[0].p)
        poly, k0, rs, terms = [zero], 0, RationalSeries((zero,), 0), []
        checks = {"identically_zero": True}
    else:
        poly, k0 = fit_polynomial(coeffs, 1)
        rs = closed_form(poly, k0, list(coeffs[:k0]))
        assert rs.pole_power == 2
        terms = laurent_at_zero(rs, n)
        err = spot_check(rs.num, terms, n, q)
        checks = {"re_expansion_exact": verify_expansion(rs, coeffs),
                  "spot_check_rel_err": err, "spot_check_ok": err <= 1e-6}
    return {
        "regime": regime,
        "k0": k0,
        "poly": [c.to_json() for c in poly],
        "closed_form": {"num": [c.to_json() for c in rs.num],
                        "den": {"one_minus_u_power": rs.pole_power,
                                "extra": ["1"]}},
        "laurent": [{"order": -m, "rational": v.to_json(), "lnq_power": m}
                    for m, v in terms],
        "checks": checks,
        "coefficients": [c.to_json() for c in coeffs],
    }


def assert_report_matches(a, b, ks, n, q):
    """The report of the pair (a, b) equals, key for key, the oracle's
    report of the printed c_k = a + b k, spot-check bits included.  The
    one difference allowed: when b != 0 the oracle's kernel of k u^k
    appends a zero numerator coefficient, which the pair does not."""
    got = twirl_report(a, b, ks, n, q)
    want = residue_report([a + b.scale(k) for k in ks], n, q)
    if not b.is_zero():
        assert (want["closed_form"]["num"].pop()
                == CharacterValue.zero(a.p).to_json())
    assert got == want
