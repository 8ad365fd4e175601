"""Closed-form summation of sum_k c_k u^k (u = q^(-2ns)) and exact Laurent
principal-part extraction at s = 0.

Laurent coefficients live in Q[zeta_p][(ln q)^(-1)]: each term is an exact
vector of rationals together with an integer power of ln q; ln q is only
evaluated numerically inside the optional floating-point spot check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import CharacterValue
from .errors import NoStabilization

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
        raise NoStabilization(
            "high differences never vanish on the computed window",
            table=[[str(v) for v in row] for row in table],
        )
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


@dataclass(frozen=True)
class RationalSeries:
    """N(u) / (1-u)^pole_power, N with CharacterValue coefficients.  The
    only denominator zero is u = 1, since `closed_form` builds every series
    over (1-u)^(d+1)."""

    num: tuple
    pole_power: int

    @property
    def p(self) -> int:
        return self.num[0].p

    def series(self, count: int):
        """Taylor coefficients at u = 0 (exact)."""
        geo = [Fraction(1)] * count
        out_q = geo
        for _ in range(self.pole_power - 1):
            out_q = _series_mul_q(out_q, geo, count)
        if self.pole_power == 0:
            out_q = [Fraction(1)] + [Fraction(0)] * (count - 1)
        out = []
        for k in range(count):
            acc = CharacterValue.zero(self.p)
            for m, cm in enumerate(self.num):
                if m > k:
                    break
                acc = acc + cm.scale(out_q[k - m])
            out.append(acc)
        return out

    def eval_complex(self, u: float):
        num = sum(c.complex() * u**m for m, c in enumerate(self.num))
        return num / (1 - u) ** self.pole_power


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
    one_minus_q = [Fraction(1), Fraction(-1)]
    # kernels K_j = sum_(k>=0) k^j u^k = A_j(u) / (1-u)^(j+1), built by
    # K_(j+1) = u d/du K_j, i.e. A -> u (A'(1-u) + (j+1) A)
    kernels = [[Fraction(1)]]
    for j in range(d):
        apoly = kernels[-1]
        ap = [Fraction(i) * c for i, c in enumerate(apoly)][1:] or [Fraction(0)]
        newa = _padd(_pmul(ap, one_minus_q), _pscale(apoly, j + 1))
        kernels.append(_pmul([Fraction(0), Fraction(1)], newa))
    # numerator over the common denominator (1-u)^(d+1)
    num = [CharacterValue.zero(p)]
    one_minus = [Fraction(1), Fraction(-1)]
    for j, cj in enumerate(poly):
        if cj.is_zero():
            continue
        scaled = kernels[j]
        lift = scaled
        for _ in range(d - j):
            lift = _pmul(lift, one_minus)
        for deg, qc in enumerate(lift):
            while len(num) <= deg:
                num.append(CharacterValue.zero(p))
            num[deg] = num[deg] + cj.scale(qc)
    rs = RationalSeries(tuple(num), d + 1)
    # head correction: add (c_k - P(k)) u^k for k < k0 as a polynomial
    if k0:
        corr = []
        for k in range(k0):
            corr.append(head[k] - _poly_eval(poly, k))
        num2 = list(rs.num)
        for k, ck in enumerate(corr):
            if ck.is_zero():
                continue
            add = [Fraction(0)] * k + [Fraction(1)]
            lift = add
            for _ in range(d + 1):
                lift = _pmul(lift, one_minus)
            for deg, qc in enumerate(lift):
                while len(num2) <= deg:
                    num2.append(CharacterValue.zero(p))
                num2[deg] = num2[deg] + ck.scale(qc)
        rs = RationalSeries(tuple(num2), d + 1)
    return rs


def verify_expansion(rs: RationalSeries, coeffs) -> bool:
    got = rs.series(len(coeffs))
    return all(a == b for a, b in zip(got, coeffs))


# -- Laurent data at s = 0 ----------------------------------------------------------


@dataclass(frozen=True)
class LaurentTerm:
    s_power: int
    value: CharacterValue
    lnq_power: int


@dataclass
class LaurentData:
    n: int
    q: int
    terms: list  # LaurentTerm, ascending s_power

    def principal(self):
        return [t for t in self.terms if t.s_power < 0]

    def residue(self) -> CharacterValue | None:
        for t in self.terms:
            if t.s_power == -1:
                return t.value
        return None

    def eval_float(self, s: float) -> complex:
        lq = math.log(self.q)
        return sum(t.value.complex() * lq**t.lnq_power * s**t.s_power
                   for t in self.terms)

    def to_json(self):
        return [
            {"order": -t.s_power, "rational": t.value.to_json(),
             "lnq_power": t.lnq_power}
            for t in self.terms
        ]


def laurent_at_zero(rs: RationalSeries, n: int, q: int) -> LaurentData:
    """Substitute u = q^(-2ns) = exp(-z), z = 2n ln(q) s, and expand the
    Laurent series at s = 0 through s^2.  The s^(-m) coefficient is an
    exact rational (vector) times (ln q)^(-m).  The pole at s = 0 comes
    only from the (1-u)^d factor, the one denominator a RationalSeries
    has."""
    d = rs.pole_power
    count = d + 3
    # N(e^-z) as a z-series with CharacterValue coefficients
    p = rs.p
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
        scaled = cv.scale(Fraction(2 * n) ** spow)
        terms.append(LaurentTerm(spow, scaled, spow))
    return LaurentData(n, q, terms)


def spot_check(rs: RationalSeries, laur: LaurentData, n: int, q: int) -> float:
    """Relative error between direct evaluation of the rational function at
    u = q^(-2ns) and the Laurent approximation, maximized over
    s in {1e-3, 1e-4}."""
    worst = 0.0
    for s in (1e-3, 1e-4):
        u = q ** (-2 * n * s)
        direct = rs.eval_complex(u)
        approx = laur.eval_float(s)
        err = abs(direct - approx) / max(abs(direct), 1e-30)
        worst = max(worst, err)
    return worst


# -- full report ---------------------------------------------------------------------


@dataclass
class ResidueSeries:
    """The full chain: coefficient table, fitted polynomial, closed form,
    and Laurent data."""

    n: int
    q: int
    coeffs: list
    poly: list
    k0: int
    closed: RationalSeries
    laurent: LaurentData
    regime: str
    checks: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "regime": self.regime,
            "k0": self.k0,
            "poly": [c.to_json() for c in self.poly],
            "closed_form": {
                "num": [c.to_json() for c in self.closed.num],
                # "extra" is the further denominator factor, always 1
                "den": {"one_minus_u_power": self.closed.pole_power,
                        "extra": ["1"]},
            },
            "laurent": self.laurent.to_json(),
            "checks": self.checks,
            "coefficients": [c.to_json() for c in self.coeffs],
        }


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


def residue_report(coeffs, n: int, q: int) -> ResidueSeries:
    """coefficient table -> degree-1 polynomial fit -> closed form ->
    Laurent data, with the regime classification and exactness checks."""
    regime = classify_regime(coeffs)
    if regime == "zero":
        p = coeffs[0].p
        zero_rs = RationalSeries((CharacterValue.zero(p),), 0)
        return ResidueSeries(n, q, list(coeffs), [CharacterValue.zero(p)], 0,
                             zero_rs, LaurentData(n, q, []), regime,
                             {"identically_zero": True})
    poly, k0 = fit_polynomial(coeffs, 1)
    rs = closed_form(poly, k0, list(coeffs[:k0]))
    ok = verify_expansion(rs, coeffs)
    laur = laurent_at_zero(rs, n, q)
    err = spot_check(rs, laur, n, q)
    checks = {"re_expansion_exact": ok, "spot_check_rel_err": err,
              "spot_check_ok": err <= 1e-6}
    return ResidueSeries(n, q, list(coeffs), poly, k0, rs, laur, regime, checks)
