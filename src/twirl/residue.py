"""The series sum_k c_k q^(-2nks) in closed form, and its exact Laurent
data at s = 0.

Every c_k is affine in k: c_k = a + b k, with a = c_0 and b the slope
(`integrator.CoefficientTable`).  With u = q^(-2ns),

    sum_(k>=0) (a + b k) u^k = a/(1 - u) + b u/(1 - u)^2
                             = (a + (b - a) u) / (1 - u)^2.

Put z = 2n ln(q) s, so u = e^(-z).  Then 1/(1 - e^(-z)) = 1/z + 1/2 +
z/12 + O(z^3), and e^(-z)/(1 - e^(-z))^2, its negated derivative, is
1/z^2 - 1/12 + z^2/240 + O(z^4).  Through s^2 the Laurent series at s = 0
is therefore

    s^-2: b/(2n)^2 (ln q)^-2
    s^-1: a/(2n) (ln q)^-1      (the residue)
    s^0:  a/2 - b/12
    s^1:  2n a/12 ln q
    s^2:  (2n)^2 b/240 (ln q)^2.

Each coefficient is an exact vector of Q[zeta_p] together with an integer
power of ln q; ln q is only evaluated numerically inside the
floating-point spot check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import CharacterValue


@dataclass(frozen=True)
class RationalSeries:
    """N(u) / (1-u)^pole_power, N with CharacterValue coefficients."""

    num: tuple
    pole_power: int

    def eval_complex(self, u: float):
        num = sum(c.complex() * u**m for m, c in enumerate(self.num))
        return num / (1 - u) ** self.pole_power


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


def laurent_at_zero(a: CharacterValue, b: CharacterValue, n: int,
                    q: int) -> LaurentData:
    """The Laurent series of sum_k (a + b k) q^(-2nks) at s = 0 through
    s^2, the five terms of the module docstring; a zero term is omitted.
    The coefficient of z^m, z = 2n ln(q) s, is that of s^m (ln q)^m times
    (2n)^m."""
    by_z = ((-2, b), (-1, a),
            (0, a.scale(Fraction(1, 2)) - b.scale(Fraction(1, 12))),
            (1, a.scale(Fraction(1, 12))), (2, b.scale(Fraction(1, 240))))
    return LaurentData(n, q, [LaurentTerm(m, v.scale(Fraction(2 * n) ** m), m)
                              for m, v in by_z if not v.is_zero()])


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
    """The full chain: coefficient table, the polynomial a + b k, closed
    form, and Laurent data."""

    n: int
    q: int
    coeffs: list
    poly: list
    closed: RationalSeries
    laurent: LaurentData
    regime: str
    checks: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "regime": self.regime,
            "k0": 0,  # c_k = a + b k from k = 0 on
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


def residue_report(a: CharacterValue, b: CharacterValue, ks, n: int,
                   q: int) -> ResidueSeries:
    """c_k = a + b k for k in `ks` -> closed form -> Laurent data, with the
    regime read from (a, b): "zero" when both vanish, "odd-factorized"
    when c_k = (4k + 1) c_0 (b = 4a), "even-weighted" otherwise.  The
    checks re-expand the closed form, (k + 1) n0 + k n1 for the
    numerator n0 + n1 u, against the printed c_k, and compare it with
    the Laurent data in floating point."""
    coeffs = [a + b.scale(k) for k in ks]
    if a.is_zero() and b.is_zero():
        return ResidueSeries(n, q, coeffs, [a], RationalSeries((a,), 0),
                             LaurentData(n, q, []), "zero",
                             {"identically_zero": True})
    regime = "odd-factorized" if b == a.scale(4) else "even-weighted"
    rs = RationalSeries((a, b - a), 2)
    n0, n1 = rs.num
    ok = all(c == n0.scale(k + 1) + n1.scale(k) for k, c in zip(ks, coeffs))
    laur = laurent_at_zero(a, b, n, q)
    err = spot_check(rs, laur, n, q)
    checks = {"re_expansion_exact": ok, "spot_check_rel_err": err,
              "spot_check_ok": err <= 1e-6}
    return ResidueSeries(n, q, coeffs, [a, b], rs, laur, regime, checks)
