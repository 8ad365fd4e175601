"""Stratified exact evaluation of twisted orbital integrals, the weighted
coefficient integrals, and the coefficient series c_k.

Quotient measure on G/T (G = GL_2): Iwasawa strata kappa n_b a_i with
vol(K) = 1 and each coset b + O carrying mass 1, which is the G-invariant
normalization with vol_T(T cap K) = 1; the b strata of level j >= 1 have
total mass q^j - q^(j-1).  Torus measure: vol(O^x) = 1 via the eigenvalue
coordinate.  Central classes are normalized to volume 1 each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CharacterValue, MeasureValue
from .errors import NotRegular, PrecisionExhausted, TailNonzero
from .localfield import (Elem, INF, LocalFieldCtx, SquareClassSet,
                         square_class_reps, unit_digit_tuples)
from .matlattice import Mat, a_e, mat_ord, n_b, vdash
from .twisted import TorusElem, norm_preimage, twisted_discriminant


@dataclass(frozen=True)
class TruncationSpec:
    """Finite windows for the stratified enumeration; every window is
    either provably exhaustive or reported."""

    b_window: int = 12
    e_window: int = 8
    gamma_depth: int = 5
    k_max: int = 8
    unit_depth: int = 2
    dedup: bool = True


@dataclass(frozen=True)
class TorusStratum:
    alpha: Elem
    vol: Fraction
    label: str
    sign: int = 0
    e: int = 0


def torus_strata(ctx: LocalFieldCtx, trunc: TruncationSpec,
                 include_verification: bool = True):
    """Partition of the integration window in T: residue classes of unit
    alpha away from +-1 (dead by support analysis, kept as verification
    strata), refined strata around +-1 by e = ord(alpha -+ 1), and a few
    non-unit witnesses.  Volumes are exact in the vol(O^x) = 1 measure."""
    p, q = ctx.p, ctx.q
    out = []
    signs = (1,) if p == 2 else (1, -1)
    if include_verification:
        for c in range(2, p - 1):
            out.append(TorusStratum(ctx.from_int(c), Fraction(1, q - 1),
                                    f"unit-class-{c}"))
        for t in (1, 2, -1):
            out.append(TorusStratum(ctx.pi(t), Fraction(1),
                                    f"noncompact-pi^{t}"))
    ud = trunc.unit_depth
    for sign in signs:
        base = ctx.from_int(sign)
        for e in range(1, trunc.gamma_depth + 1):
            for digits in unit_digit_tuples(p, ud):
                v = ctx.from_digits(0, digits)
                alpha = base * (ctx.one() + v.shift(e))
                vol = Fraction(1, q ** (e + ud - 1) * (q - 1))
                out.append(TorusStratum(alpha, vol, f"sign{sign}-e{e}",
                                        sign=sign, e=e))
    return out


# -- coset strata of G/T ---------------------------------------------------------


@dataclass(frozen=True)
class OrbitStratum:
    i: int
    b_level: int
    b_digits: tuple
    weight: int          # number of b cosets this representative stands for
    delta1: int
    f_avg: CharacterValue
    dead: str | None = None


_orbit_cache: dict = {}


def _b_orbit_reps(ctx: LocalFieldCtx, j: int, dedup: bool):
    """Representatives of the level-j cosets of F/O (leading digit nonzero),
    optionally deduplicated by the unit-square action b -> u^2 b mod O with
    exact orbit weights."""
    if j == 0:
        return [((), 1)]
    key = (ctx.p, ctx.e, ctx.eisenstein, j, dedup)
    got = _orbit_cache.get(key)
    if got is not None:
        return got
    tuples = unit_digit_tuples(ctx.p, j)
    if not dedup:
        out = [(t, 1) for t in tuples]
        _orbit_cache[key] = out
        return out
    # orbit of the digit tuple under multiplication by unit squares mod pi^j;
    # the units mod pi^j have the same digit tuples as the cosets
    reps = []
    seen = set()
    for t in tuples:
        if t in seen:
            continue
        b = ctx.from_digits(0, t)
        orbit = set()
        for u in tuples:
            s = ctx.from_digits(0, u)
            orbit.add((s * s * b).residue_digits(j))
        orbit = {o for o in orbit if o[0] != 0}
        seen |= orbit
        reps.append((t, len(orbit)))
    _orbit_cache[key] = reps
    return reps


class Coset(NamedTuple):
    """One (i, b) coset stratum g0 = n_b a_i of G/T and the argument
    y = g0 x g0^vdash it hands to f; `dead` is the support prefilter's
    reason, or None when the stratum is live."""

    i: int
    j: int
    digits: tuple
    weight: int
    g0: Mat
    y: Mat
    dead: str | None


def coset_strata(data, form, x: Mat, b_window: int, dedup: bool):
    """Walk the (i, b) Iwasawa coset strata of G/T for f(g x g^vdash),
    x diagonal, in lexicographic order: i ascending over the exponents the
    det-valuation support of f forces, then b level j = 0 .. jmax, then
    the digits of b.  For x = diag(x0, x1) the (0, 1) entry of y is
    pi^i b (x0 + x1), so y integral forces j <= i + ord(x0 + x1) = jmax;
    a jmax beyond `b_window` raises TailNonzero before level 0 of that i."""
    ctx = data.ctx
    if not (x.rows[0][1].is_zero() and x.rows[1][0].is_zero()):
        raise ValueError("orbit strata require a diagonal argument")
    d = x.det().val
    if d is INF:
        raise NotRegular("singular argument")
    trace_ord = (x.rows[0][0] + x.rows[1][1]).val
    for target in sorted(data.detval_support):
        if (target - d) % 2 != 0:
            continue
        i = (target - d) // 2
        jmax = b_window if trace_ord is INF else max(0, i + trace_ord)
        if jmax > b_window:
            raise TailNonzero(
                f"b window {b_window} below hard bound {jmax}",
                stratum=(i, jmax),
            )
        for j in range(0, jmax + 1):
            for digits, weight in _b_orbit_reps(ctx, j, dedup):
                b = ctx.from_digits(-j, digits) if j else ctx.zero()
                g0 = n_b(ctx, b) * a_e(ctx, i)
                y = g0 * x * vdash(g0, form)
                yield Coset(i, j, digits, weight, g0, y,
                            data.support_prefilter(y, form))


def orbit_strata(data, form, x: Mat, trunc: TruncationSpec):
    """Strata of G/T (Iwasawa i and b windows) for the integrand
    f(g X g^t), X diagonal.  The i window is forced by the determinant
    valuations in the support of f; the b window is a hard integrality
    bound.  Returns OrbitStratum entries including dead strata."""
    out = []
    for c in coset_strata(data, form, x, trunc.b_window, trunc.dedup):
        if abs(c.i) > trunc.e_window:
            raise TailNonzero(
                f"Iwasawa exponent window {trunc.e_window} below the forced "
                f"level {c.i}",
                stratum=("i", c.i),
            )
        favg = None if c.dead else data.kappa_average(c.y, form)
        out.append(OrbitStratum(c.i, c.j, c.digits, c.weight,
                                _delta1_coset(c.i, c.j), favg, dead=c.dead))
    return out


def _delta1_coset(i: int, j: int) -> int:
    """Delta_1(n_b a_i) = ord(col_1) + ord(col_2) = i + min(ord b, 0)."""
    return i - j


def class_weight_from_delta(delta1: int, scs: SquareClassSet, k: int) -> int:
    """Square-class weight sum evaluated through the closed volume formula:
    sum over representatives alpha of w_k with
    Delta_1 -> Delta_1 - ord(alpha)."""
    total = 0
    for rep in scs.reps:
        dd = delta1 - rep.val
        if dd >= -2 * k:
            total += dd + 2 * k + 1
    return total


# -- the integrals ----------------------------------------------------------------


def orbit_weight_integral(data, form, gamma: TorusElem, ks, trunc: TruncationSpec,
                          scs: SquareClassSet | None = None):
    """psi_k(gamma) = integral over G/T of f(g S(gamma)^(-1) g^t) W_k(g)
    for each k in ks; returns {k: CharacterValue} plus the strata."""
    if not gamma.regular:
        raise NotRegular("gamma must be regular")
    ctx = data.ctx
    if scs is None:
        scs = square_class_reps(ctx)
    x = norm_preimage(gamma, form).inverse()
    strata = orbit_strata(data, form, x, trunc)
    table = {}
    for k in ks:
        acc = CharacterValue.zero(ctx.p)
        for s in strata:
            if s.dead or s.f_avg is None or s.f_avg.is_zero():
                continue
            w = class_weight_from_delta(s.delta1, scs, k)
            if w:
                acc = acc + s.f_avg.scale(s.weight * w)
        table[k] = acc
    return table, strata


def orbital_twisted(data, form, delta: Mat, trunc: TruncationSpec
                    ) -> MeasureValue:
    """Normalized twisted orbital integral
    |D_eps(delta)|^(1/2) * integral over G/(twisted centralizer) of
    f(g delta g^t)."""
    rep = twisted_discriminant(delta, form)
    if not rep.regular:
        raise NotRegular("delta is not eps-regular")
    ctx = data.ctx
    strata = orbit_strata(data, form, delta, trunc)
    acc = CharacterValue.zero(ctx.p)
    for s in strata:
        if s.dead or s.f_avg is None:
            continue
        acc = acc + s.f_avg.scale(s.weight)
    return MeasureValue(acc, half_q_power=-rep.ord_value)


@dataclass
class CoefficientTable:
    ks: tuple
    values: dict            # k -> CharacterValue
    per_stratum: list       # (label, e, sign, vol, dict k -> CharacterValue)
    metadata: dict = field(default_factory=dict)

    def per_e_increments(self, k: int = 0):
        agg: dict = {}
        for _label, e, _sign, _vol, tab in self.per_stratum:
            if e:
                agg[e] = tab[k] if e not in agg else agg[e] + tab[k]
        return dict(sorted(agg.items()))

    def to_json(self):
        return {
            "ks": list(self.ks),
            "values": {str(k): v.to_json() for k, v in self.values.items()},
            "metadata": self.metadata,
        }


def _regular_preimage(form, alpha: Elem, label: str):
    """x = S(gamma)^(-1) for gamma = diag(alpha, alpha^(-1)) and its
    twisted discriminant report.  x is regular for every torus stratum
    (its twisted centralizer is the torus), so a report that says
    otherwise means the working precision could not decide a discriminant
    digit: raise rather than use its valuation."""
    x = norm_preimage(TorusElem(alpha), form).inverse()
    drep = twisted_discriminant(x, form)
    if not drep.regular:
        raise PrecisionExhausted(
            f"twisted discriminant at {label} has kernel dim "
            f"{drep.kernel_dim} at precision {alpha.ctx.precision}")
    return x, drep


def _gamma_contribution(data, form, stratum, ks, trunc, scs):
    _x, drep = _regular_preimage(form, stratum.alpha, stratum.label)
    scale = stratum.vol * Fraction(data.ctx.q) ** (-drep.ord_value)
    table, strata = orbit_weight_integral(data, form, TorusElem(stratum.alpha),
                                          ks, trunc, scs)
    # factor 2: T\H^+ has two classes and W_k(g, w) = W_k(g, 1); |W(T)| = 1
    out = {k: table[k].scale(2 * scale) for k in ks}
    return out, strata


def assemble_coefficients(data, form, trunc: TruncationSpec) -> CoefficientTable:
    """The coefficient table c_k of the series sum_k c_k q^(-2nks):
    c_k = 2 sum over torus strata of vol * |D_eps| * psi_k."""
    ctx = data.ctx
    scs = square_class_reps(ctx)
    ks = tuple(range(0, trunc.k_max + 1))
    strata = torus_strata(ctx, trunc)
    results = [_gamma_contribution(data, form, s, ks, trunc, scs)
               for s in strata]
    values = {k: CharacterValue.zero(ctx.p) for k in ks}
    per_stratum = []
    for stratum, (tab, _audit) in zip(strata, results):
        for k in ks:
            values[k] = values[k] + tab[k]
        per_stratum.append((stratum.label, stratum.e, stratum.sign,
                            stratum.vol, tab))
    meta = {
        "normalizations": {
            "vol(GL2(O))": "1",
            "vol(O^x) on T": "1",
            "vol(Z_k)": "1",
            "vol(A cap K)": "1",
        },
        "additive_character": "zeta_p^(x mod p-ideal)",
        "q": ctx.q,
        "two_n": 4,
        "card_unit_square_classes": scs.card_units,
        "gamma_depth": trunc.gamma_depth,
        "unit_depth": trunc.unit_depth,
    }
    return CoefficientTable(ks, values, per_stratum, meta)


def rg_term(data, form, trunc: TruncationSpec) -> CharacterValue:
    """The k-independent factor of the odd-characteristic pipeline:
    integral over T of |D_eps(gamma)| times the K-average of
    f(kappa S(gamma)^(-1) kappa^t)."""
    ctx = data.ctx
    acc = CharacterValue.zero(ctx.p)
    for stratum in torus_strata(ctx, trunc, include_verification=False):
        x, drep = _regular_preimage(form, stratum.alpha, stratum.label)
        if mat_ord(x) < 0 or x.det().val not in (0,):
            continue
        dead = data.support_prefilter(x, form)
        if dead is not None:
            continue
        favg = data.kappa_average(x, form)
        acc = acc + favg.scale(stratum.vol * Fraction(ctx.q) ** (-drep.ord_value))
    return acc


def coefficient_A_B(data, form, trunc: TruncationSpec):
    """The weight-only constants of the even-residue-characteristic series:
    A integrates (2[e + ord b] + 1) over the interior shell strata, B is 4
    times the shell volume integral, both against |D_eps| on the unit torus
    region.  Returns (A, B, per-e increment list) as exact Fractions."""
    ctx = data.ctx
    if ctx.p != 2 or ctx.e < 2:
        raise NotRegular("weight-only constants require p = 2 with 2 in pi^2")
    q = ctx.q
    a_total = Fraction(0)
    b_total = Fraction(0)
    increments = []
    for e in range(1, trunc.gamma_depth + 1):
        _x, drep = _regular_preimage(form, ctx.one() + ctx.pi(e), f"1+pi^{e}")
        deps = Fraction(q) ** (-drep.ord_value)
        vol = Fraction(1, q ** e)
        # interior shell: b levels j = 0 .. e-1; level j has q^j - q^(j-1)
        # cosets (one coset for j = 0); ord(b) = -j so the weight count is
        # 2(e - j) + 1
        a_inc = Fraction(0)
        shell_vol = Fraction(0)
        for j in range(0, e):
            count = 1 if j == 0 else q ** j - q ** (j - 1)
            a_inc += count * (2 * (e - j) + 1)
            shell_vol += count
        a_inc = vol * deps * a_inc
        b_inc = 4 * vol * deps * shell_vol
        a_total += a_inc
        b_total += b_inc
        increments.append((e, a_inc, b_inc))
    return a_total, b_total, increments
