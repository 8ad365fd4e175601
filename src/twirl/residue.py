"""The series sum_k c_k q^(-2nks) in closed form, and its exact Laurent
data at s = 0, as the JSON report of the pair (a, b).

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

The report is a function of (a, b) alone: the closed form is the
numerator (a, b - a) over (1 - u)^2, or (a,) over (1 - u)^0 when
a = b = 0, and the Laurent term at s^m is an exact vector of Q[zeta_p]
times (ln q)^m.  ln q is only evaluated numerically inside the
floating-point spot check.
"""

from __future__ import annotations

import math

from .cyclotomic import CharacterValue


def laurent_at_zero(a: CharacterValue, b: CharacterValue, n: int) -> list:
    """The Laurent series of sum_k (a + b k) q^(-2nks) at s = 0 through
    s^2, the five terms of the module docstring, as [(m, coefficient of
    s^m (ln q)^m)] by ascending m; a zero term is omitted.  The
    coefficient of z^m, z = 2n ln(q) s, is that of s^m (ln q)^m times
    (2n)^m."""
    two_n = 2 * n
    by_z = ((-2, b), (-1, a), (0, a.scale(1, 2) - b.scale(1, 12)),
            (1, a.scale(1, 12)), (2, b.scale(1, 240)))
    return [(m, v.scale(two_n ** max(m, 0), two_n ** max(-m, 0)))
            for m, v in by_z if not v.is_zero()]


def spot_check(num, terms, n: int, q: int) -> float:
    """Relative error between num(u)/(1 - u)^2 at u = q^(-2ns), for the
    numerator coefficients `num`, and the Laurent `terms`
    (`laurent_at_zero`), maximized over s in {1e-3, 1e-4}."""
    lq = math.log(q)
    worst = 0.0
    for s in (1e-3, 1e-4):
        u = q ** (-2 * n * s)
        direct = (sum(c.complex() * u**m for m, c in enumerate(num))
                  / (1 - u) ** 2)
        approx = sum(v.complex() * lq**m * s**m for m, v in terms)
        worst = max(worst, abs(direct - approx) / max(abs(direct), 1e-30))
    return worst


def residue_report(a: CharacterValue, b: CharacterValue, ks, n: int,
                   q: int) -> dict:
    """The JSON report of c_k = a + b k for k in `ks`: the closed form
    and the Laurent data at s = 0, with the regime read from (a, b):
    "zero" when both vanish, "odd-factorized" when c_k = (4k + 1) c_0
    (b = 4a), "even-weighted" otherwise.  The checks re-expand the
    closed form, (k + 1) n0 + k n1 for the numerator n0 + n1 u, against
    the printed c_k, and compare it with the Laurent data in floating
    point."""
    coeffs = [a + b.scale(k) for k in ks]
    if a.is_zero() and b.is_zero():
        regime, poly, num, pole, terms = "zero", [a], [a], 0, []
        checks = {"identically_zero": True}
    else:
        regime = "odd-factorized" if b == a.scale(4) else "even-weighted"
        poly, num, pole = [a, b], [a, b - a], 2
        terms = laurent_at_zero(a, b, n)
        ok = all(c == num[0].scale(k + 1) + num[1].scale(k)
                 for k, c in zip(ks, coeffs))
        err = spot_check(num, terms, n, q)
        checks = {"re_expansion_exact": ok, "spot_check_rel_err": err,
                  "spot_check_ok": err <= 1e-6}
    return {
        "regime": regime,
        "k0": 0,  # c_k = a + b k from k = 0 on
        "poly": [c.to_json() for c in poly],
        "closed_form": {
            "num": [c.to_json() for c in num],
            # "extra" is the further denominator factor, always 1
            "den": {"one_minus_u_power": pole, "extra": ["1"]},
        },
        "laurent": [{"order": -m, "rational": v.to_json(), "lnq_power": m}
                    for m, v in terms],
        "checks": checks,
        "coefficients": [c.to_json() for c in coeffs],
    }
