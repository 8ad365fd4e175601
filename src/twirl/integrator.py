"""Stratified exact evaluation of twisted orbital integrals, the weighted
coefficient integrals, and the coefficient series c_k.

Quotient measure on G/T (G = GL_2): Iwasawa strata kappa n_b a_i with
vol(K) = 1 and each coset b + O carrying mass 1, which is the G-invariant
normalization with vol_T(T cap K) = 1; the b strata of level j >= 1 have
total mass q^j - q^(j-1).  Torus measure: vol(O^x) = 1 via the eigenvalue
coordinate.  Central classes are normalized to volume 1 each.

The torus strata near +-1 are alpha = sign (1 + pi^e v), one per class
of the unit v mod pi^m, where m is the number of digits of v that the
integrand can see (`torus_strata`): 0 when every K-average vanishes,
and residue_level - e - s otherwise.  `unit_depth` only caps m; it
changes no output of `CuspidalData`, whose m is at most 1.

One pass per torus stratum gamma: `regular_preimage` gives x =
S(gamma)^(-1) (one `Elem` inverse) and |D_eps(gamma)| as an integer read
off ord(alpha - 1) and ord(alpha), `orbit_strata` the
(i, j) levels of G/T in closed form (one prefilter call per forced i), and
`_delta_totals` sums weight * K-average of f over the live classes of b per
Delta_1 = i - j >= 0.  There the closed square-class weight is units
(2 Delta_1 + 1 + 4k), so a table {Delta_1: T} gives c_k = a + b k with
a = units sum (2 Delta_1 + 1) T and b = 4 units sum T (`_pair`):
`assemble_coefficients` adds the scaled per-Delta_1 totals of every
stratum into one run-wide table and reduces it to that pair once per
run.  `support_scan` takes x the same way and reads the same level
records: one walk of G/T in the library.

An integrand whose K-averages all vanish (`kappa_vanishes`: `CuspidalData`
at odd p) walks no levels: `_delta_totals` runs only the trace guard of
`_forced_levels` on x and adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CharacterValue
from .errors import (DomainError, NotRegular, PrecisionExhausted,
                     SingularGammaMinusOne)
from .localfield import (Elem, INF, LocalFieldCtx, card_unit_square_classes,
                         unit_digit_tuples)
from .matlattice import Mat, a_e, n_b
from .matlattice import vdash  # unused; a tracer lookup point of perfbench/spans.py
from .twisted import TorusElem, norm_preimage, twisted_discriminant


@dataclass(frozen=True)
class TruncationSpec:
    """Finite windows of the pipeline: `k_max` is how many c_k are
    printed (c_k = a + b k for every k), `gamma_depth` bounds the torus
    strata, and `unit_depth` caps the digits of v a torus stratum fixes
    (`torus_strata`).  The G/T walk needs none (`orbit_strata`).  `gamma_depth` is not proved exhaustive:
    the torus strata beyond it contribute, and nothing reports that tail
    yet."""

    gamma_depth: int = 5
    k_max: int = 8
    unit_depth: int = 2


@dataclass(frozen=True)
class TorusStratum:
    alpha: Elem
    vol: Fraction
    label: str
    sign: int = 0
    e: int = 0


def torus_strata(data, form, trunc: TruncationSpec):
    """Partition of the integration window in T: residue classes of unit
    alpha away from +-1 (dead by support analysis, kept as verification
    strata), refined strata around +-1, and a few non-unit witnesses.
    Volumes are exact in the vol(O^x) = 1 measure.  Every alpha is
    regular by construction: a unit class c in 2 .. p - 2 and a power of
    pi are not +-1, and `_stratum_alpha` keeps the refined
    representatives off +-1.

    Around +-1, alpha = sign (1 + pi^e v) with v a unit and e = 1 ..
    `gamma_depth`; each (sign, e) has volume q^(-e) and one stratum per
    class of v mod pi^m, m = `_digits_seen`, carrying the class's whole
    volume.  Its representative v has the class's digits and no others
    (v = 1 when m = 0), so the strata at m = `unit_depth` are one per
    unit-digit tuple.

    Why one stratum per class suffices.  Take v = v' mod pi^m in one
    (sign, e) and c = (alpha - 1)/(alpha' - 1), a unit with 1 - c in
    pi^(e + m - ord(alpha - 1)).
    - x0 = (alpha - 1)^(-1) and x1 = -1 - x0 (`regular_preimage`), so
      x0' = c x0, and k = diag(c, 1) in K (k^vdash = diag(1, c)) twists
      y(v, b) = pi^i [[x0, -b], [0, x1]] to
      y(v', c^2 b) + pi^i diag(0, 1 - c).
    - pi^i (1 - c) lies in pi^(i + e + m - ord(alpha - 1)), inside
      pi^level since i - ord(alpha - 1) >= s for every forced i.
    - b -> c^2 b permutes the cosets of each b-level.
    - f_avg is a K-average that reads y mod pi^level, and the forced
      levels, their b-bounds and |D_eps| depend only on (sign, e).
    So the stratum totals are the same for every v of the class."""
    ctx = data.ctx
    p, q = ctx.p, ctx.q
    out = []
    signs = (1,) if p == 2 else (1, -1)
    for c in range(2, p - 1):
        out.append(TorusStratum(ctx.from_int(c), Fraction(1, q - 1),
                                f"unit-class-{c}"))
    for t in (1, 2, -1):
        out.append(TorusStratum(ctx.pi(t), Fraction(1), f"noncompact-pi^{t}"))
    ud = trunc.unit_depth
    for sign in signs:
        for e in range(1, trunc.gamma_depth + 1):
            classes = unit_digit_tuples(p, _digits_seen(data, form, e, ud))
            vol = Fraction(1, q ** e * len(classes))
            for digits in classes:
                v = ctx.from_digits(0, digits or (1,))
                out.append(TorusStratum(_stratum_alpha(ctx, sign, e, v, ud),
                                        vol, f"sign{sign}-e{e}",
                                        sign=sign, e=e))
    return out


def _digits_seen(data, form, e: int, cap: int) -> int:
    """m, the digits of v in alpha = sign (1 + pi^e v) that the stratum
    totals of the integrand read, capped at `cap` (`unit_depth`): 0 when
    every K-average vanishes (`data.kappa_vanishes`), and otherwise
    level - e - s, level = `data.residue_level` and s = i_min -
    ord(alpha - 1), i_min the least forced i.  For a unit alpha,
    ord det x = -2 ord(alpha - 1), so the forced i are t/2 + ord(alpha - 1)
    over the even t of `data.detval_support` (`_forced_levels`), and s is
    the least such t/2; with no even t no level is forced, and m = 0."""
    if data.kappa_vanishes(form):
        return 0
    halves = [t // 2 for t in data.detval_support if t % 2 == 0]
    if not halves:
        return 0
    return min(cap, max(0, data.residue_level - e - min(halves)))


def _stratum_alpha(ctx: LocalFieldCtx, sign: int, e: int, v: Elem,
                   depth: int) -> Elem:
    """The representative of the torus stratum alpha = sign (1 + pi^e v),
    v a unit, mod pi^(e + depth); it is never +-1.  sign (1 + pi^e v) is
    +-1 only if pi^e v is 0 or -2, and a unit v leaves only -2, at e =
    ord(2) (over x^2 + 2, 1 + pi^2 = -1).  There the representative is
    sign (1 + pi^e v) + sign pi^(e + depth), which stays in the class and
    is regular."""
    alpha = ctx.one() + v.shift(e)
    if sign < 0:
        alpha = -alpha
    # ord(2) is e at p = 2 and 0 at odd p, so only p = 2 reaches the test
    if e == ctx.e * (ctx.p == 2) and alpha == ctx.from_int(-sign):
        return alpha + ctx.from_int(sign).shift(e + depth)
    return alpha


# -- level strata of G/T ---------------------------------------------------------


class Coset(NamedTuple):
    """One record of `orbit_strata`: the (i, b) coset strata g0 = n_b a_i
    of G/T (b of level j, so Delta_1(g0) = i - j) whose b start with
    `digits` (all of level j on a dead level, one class of b on a live
    one), `weight` cosets in all, and the argument y = g0 x g0^vdash of f
    at b = pi^(-j) digits; `dead` is the support prefilter's reason, or
    None when the strata are live.  `g0` rebuilds n_b a_i at those digits
    for `support_scan`'s witness."""

    i: int
    j: int
    digits: tuple
    weight: int
    y: Mat
    dead: str | None

    @property
    def g0(self) -> Mat:
        ctx = self.y.ctx
        b = ctx.from_digits(-self.j, self.digits)
        return n_b(ctx, b) * a_e(ctx, self.i)


def _forced_levels(data, x: Mat):
    """The trace x0 + x1 of x = diag(x0, x1), normalized, and the Iwasawa
    exponents i that the det-valuation support of f forces, each with its
    b-level bound: y = pi^i [[x0, b(x0 + x1)], [0, x1]], so an integral y
    forces j <= jmax = max(0, i + ord(x0 + x1)).  A zero trace raises: x
    is not regular (its orbital integral diverges) or, for x = S(gamma)^(-1)
    whose trace is -1, the precision could not decide the sum."""
    if not (x.rows[0][1].is_zero() and x.rows[1][0].is_zero()):
        raise ValueError("orbit strata require a diagonal argument")
    d = x.det().val
    if d is INF:
        raise NotRegular("singular argument")
    trace = (x.rows[0][0] + x.rows[1][1]).normalized()
    if trace.is_zero():
        raise PrecisionExhausted(
            f"trace x0 + x1 reads 0 at precision {x.ctx.precision}: x is "
            "not regular, or the precision cannot decide the trace")
    forced = [(target - d) // 2 for target in sorted(data.detval_support)
              if (target - d) % 2 == 0]
    return trace, [(i, max(0, i + trace.vbase)) for i in forced]


def orbit_strata(data, form, x: Mat):
    """The (i, j) levels of G/T for the integrand f(g x g^vdash), x =
    diag(x0, x1), as a list of `Coset` records, one per dead level and
    one per live class of b.

    On the coset n_b a_i, y = pi^i [[x0, b(x0 + x1)], [0, x1]] (vdash of
    n_b is n_b, of a_i is diag(1, pi^i)).  The det support of f forces i,
    and integrality bounds j (`_forced_levels`), so y01 is 0 at j = 0 and
    of valuation u = i - j + t >= 0 at j >= 1, t = ord(x0 + x1).  The
    prefilter reads integrality, ord det y = ord y00 y11 and y11 - y00 mod
    p (vdash swaps y00 and y11), none of which depends on j, so it runs
    once per i, at b = 0; a dead level is one record of weight
    (q-1) q^(j-1) (1 at j = 0), at b = pi^(-j).  f reads y only mod
    pi^level, level = `data.residue_level`, and y01 mod pi^level reads the
    first n = min(j, max(1, level - u)) digits of b, so a live level splits
    into the classes of those digits, weight q^(j-n) each."""
    if form.kind != "orthogonal":
        raise DomainError("the closed form of y needs the orthogonal twist")
    ctx = data.ctx
    q, level, zero = ctx.q, data.residue_level, ctx.zero()
    trace, levels = _forced_levels(data, x)
    out = []
    for i, jmax in levels:
        y00, y11 = x.rows[0][0].shift(i), x.rows[1][1].shift(i)
        dead = data.support_prefilter(Mat.diag(ctx, [y00, y11]), form)
        for j in range(0, jmax + 1):
            n = min(j, max(1, level - (i - j + trace.vbase)))
            classes = unit_digit_tuples(ctx.p, n)
            if dead is not None:  # one record, at b = pi^(-j)
                y01 = trace.shift(i - j) if j else zero
                out.append(Coset(i, j, classes[0],
                                 (q - 1) * q ** (j - 1) if j else 1,
                                 Mat(ctx, [[y00, y01], [zero, y11]]), dead))
                continue
            for digits in classes:
                y01 = ctx.from_digits(i - j, digits) * trace
                out.append(Coset(i, j, digits, q ** (j - n),
                                 Mat(ctx, [[y00, y01], [zero, y11]]), None))
    return out


# -- the integrals ----------------------------------------------------------------


def _delta_totals(data, form, x: Mat, label: str) -> dict:
    """{Delta_1: sum of weight * f_avg} over the live orbit strata of x =
    S(gamma)^(-1) at the torus stratum `label`, f_avg the K-average of f
    at the record's y; a zero average adds no key.  When every K-average
    vanishes (`data.kappa_vanishes`) no level is walked: the table is
    empty, and only the trace guard of `_forced_levels` runs on x.

    Every key is Delta_1 >= 0, and `_pair` relies on it.  x0 + x1 = -1,
    so jmax = max(0, i) (`_forced_levels`): Delta_1 = i - j >= 0 at
    i >= 0, and j = 0 at i < 0.  There one of x0, x1 has ord <= 0, as
    their sum is -1, so y = pi^i x is not integral; an integrand reads y
    only mod pi^`residue_level`, so it is 0 there.  A nonzero total at
    Delta_1 < 0 raises DomainError naming the stratum; a PrecisionExhausted
    of the trace guard names it too."""
    by_delta: dict = {}
    try:
        if data.kappa_vanishes(form):
            _forced_levels(data, x)
            return by_delta
        for s in orbit_strata(data, form, x):
            if s.dead is not None:
                continue
            f_avg = data.kappa_average(s.y, form)
            if not f_avg.is_zero():
                d, t = s.i - s.j, f_avg.scale(s.weight)
                by_delta[d] = by_delta[d] + t if d in by_delta else t
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"{label}: {exc}") from exc
    for d, total in by_delta.items():
        if d < 0 and not total.is_zero():
            raise DomainError(f"{label}: nonzero total at Delta_1 = {d} < 0; "
                              "c_k = a + b k needs an integrand that is 0 "
                              "off the integral y")
    return by_delta


def _pair(by_delta: dict, p: int, units: int):
    """(a, b) with c_k = a + b k for a {Delta_1: total} table, every
    Delta_1 >= 0 (`_delta_totals`): the square-class weight there is
    units (2 Delta_1 + 1 + 4k), so a = units sum (2 Delta_1 + 1) T and
    b = 4 units sum T."""
    s0 = s1 = CharacterValue.zero(p)
    for d, total in by_delta.items():
        s0 = s0 + total
        s1 = s1 + total.scale(2 * d + 1)
    return s1.scale(units), s0.scale(4 * units)


def _affine(a: CharacterValue, b: CharacterValue, ks) -> dict:
    """{k: a + b k} for k in ks."""
    return {k: a + b.scale(k) for k in ks}


def orbit_weight_integral(data, form, gamma: TorusElem, ks,
                          label: str = "gamma"):
    """psi_k(gamma) = integral over G/T of f(g S(gamma)^(-1) g^vdash) W_k(g)
    for each k in ks, as {k: CharacterValue}, read off the pair of the
    per-Delta_1 totals (`_pair`).  gamma must be regular: x comes from
    `regular_preimage`, whose exact zero tests of alpha -+ 1 raise
    NotRegular naming `label`, and a trace x0 + x1 the precision cannot
    decide raises PrecisionExhausted naming it."""
    x, _dexp = regular_preimage(form, gamma.alpha, label)
    units = card_unit_square_classes(data.ctx)
    by_delta = _delta_totals(data, form, x, label)
    return _affine(*_pair(by_delta, data.ctx.p, units), ks)


@dataclass
class CoefficientTable:
    """c_k = a + b k for k in `ks`.  `stratum_totals` holds each torus
    stratum's per-Delta_1 totals, already times 2 vol |D_eps|; (a, b) is
    the pair of their run-wide sum, and `per_stratum` reads each
    stratum's own pair."""

    ks: tuple
    stratum_totals: list    # (label, e, sign, vol, dict Delta_1 -> CharacterValue)
    p: int
    units: int              # |O^x/(O^x)^2|, read by `_pair`
    a: CharacterValue       # c_0
    b: CharacterValue       # the slope c_(k+1) - c_k
    metadata: dict = field(default_factory=dict)

    @property
    def values(self) -> dict:
        """{k: c_k} for k in `ks`."""
        return _affine(self.a, self.b, self.ks)

    @property
    def per_stratum(self):
        """(label, e, sign, vol, dict k -> CharacterValue) per torus
        stratum: its share of each c_k."""
        return [(label, e, sign, vol,
                 _affine(*_pair(totals, self.p, self.units), self.ks))
                for label, e, sign, vol, totals in self.stratum_totals]

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


def _preimage_inverse(gamma: TorusElem, form) -> Mat:
    """x = S(gamma)^(-1).  On the split form S(gamma) = diag(alpha - 1,
    alpha^(-1) - 1): x0 = (alpha - 1)^(-1) is one `Elem` inverse, and x1 =
    (alpha^(-1) - 1)^(-1) = alpha/(1 - alpha) = -alpha x0, a product (the
    sum -(1 + x0) can lose a validity level).  Other forms: `Mat.inverse`."""
    if not form.split:
        return norm_preimage(gamma, form).inverse()
    s0 = (gamma.alpha - gamma.ctx.one()).normalized()
    if s0.is_zero():
        raise SingularGammaMinusOne("gamma - 1 is singular")
    x0 = s0.inverse()
    return Mat.diag(gamma.ctx, [x0, -(gamma.alpha * x0)])


def regular_preimage(form, alpha: Elem, label: str):
    """x = S(gamma)^(-1) for gamma = diag(alpha, alpha^(-1)) on the split
    form, and the exponent d with |D_eps(gamma)| = q^(-d).  gamma must be
    regular: alpha = 1 or -1 raises NotRegular naming the stratum.

    x0 = (alpha - 1)^(-1) and x1 = -alpha x0 (`_preimage_inverse`), so
    the trace x0 + x1 is -1 exactly and the lowest coefficient of the
    twisted charpoly, 2 s^2/(x0 x1) at s = -1 (`twisted_discriminant`), is
    -2 (alpha - 1)^2/alpha: d = ord 2 + 2 ord(alpha - 1) - ord(alpha), an
    integer read off alpha.  No digit of the trace enters d;
    `_forced_levels` sums the trace and raises PrecisionExhausted when it
    reads 0, and a digit of alpha - 1 the precision cannot decide raises
    here, naming the stratum."""
    ctx = alpha.ctx
    if not form.split:
        raise DomainError("the closed-form |D_eps| needs the split "
                          "orthogonal form")
    where = _where(label, ctx)
    try:
        if (alpha + ctx.one()).normalized().is_zero():
            raise NotRegular(f"gamma must be regular at {label}")
        x = _preimage_inverse(TorusElem(alpha), form)
    except SingularGammaMinusOne:
        raise NotRegular(f"gamma must be regular at {label}") from None
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"{where}: {exc}") from exc
    # ord(alpha - 1) = -ord(x0), x0 normalized by the inverse
    dexp = ctx.e * (ctx.p == 2) - 2 * x.rows[0][0].vbase - alpha.val
    return x, dexp


def discriminant_report(form, alpha: Elem, label: str):
    """x = S(gamma)^(-1) (`regular_preimage`) and its `twisted_discriminant`
    report, for `dtwist` and `coefficient_A_B`, which walk no (i, j)
    levels: the report is their check on the trace x0 + x1 = -1.  A trace
    that reads 0 (kernel dim 3) or a digit the precision cannot decide
    raises PrecisionExhausted naming `label`."""
    x, _dexp = regular_preimage(form, alpha, label)
    where = _where(label, alpha.ctx)
    try:
        drep = twisted_discriminant(x, form)
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"{where}: {exc}") from exc
    if not drep.regular:
        raise PrecisionExhausted(f"{where}: kernel dim {drep.kernel_dim}")
    return x, drep


def _where(label: str, ctx: LocalFieldCtx) -> str:
    return (f"twisted discriminant of S(gamma)^(-1) at {label}, "
            f"precision {ctx.precision}")


def assemble_coefficients(data, form, trunc: TruncationSpec) -> CoefficientTable:
    """The coefficient table c_k of the series sum_k c_k q^(-2nks):
    c_k = 2 sum over torus strata of vol * |D_eps| * psi_k.  Each stratum
    builds x = S(gamma)^(-1) and |D_eps| once, in `regular_preimage`, and
    adds its per-Delta_1 totals (`_delta_totals`), times 2 vol |D_eps|,
    into one run-wide {Delta_1: total}.  psi_k is linear in those totals,
    so the run reduces them once to the pair (a, b) of c_k = a + b k
    (`_pair`).  The trace check of `_forced_levels` is the guard on x,
    also when no level is walked: a trace the precision cannot decide
    raises PrecisionExhausted naming the stratum."""
    ctx = data.ctx
    units = card_unit_square_classes(ctx)
    ks = tuple(range(0, trunc.k_max + 1))
    run: dict = {}
    stratum_totals = []
    for stratum in torus_strata(data, form, trunc):
        x, dexp = regular_preimage(form, stratum.alpha, stratum.label)
        by_delta = _delta_totals(data, form, x, stratum.label)
        # factor 2: T\H^+ has two classes and W_k(g, w) = W_k(g, 1); |W(T)| = 1
        scale = 2 * stratum.vol * Fraction(ctx.q) ** (-dexp)
        totals = {d: t.scale(scale) for d, t in by_delta.items()}
        for d, t in totals.items():
            run[d] = run[d] + t if d in run else t
        stratum_totals.append((stratum.label, stratum.e, stratum.sign,
                               stratum.vol, totals))
    a, b = _pair(run, ctx.p, units)
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
        "card_unit_square_classes": units,
        "gamma_depth": trunc.gamma_depth,
        "unit_depth": trunc.unit_depth,
    }
    return CoefficientTable(ks, stratum_totals, ctx.p, units, a, b, meta)


def coefficient_A_B(data, form, trunc: TruncationSpec):
    """The weight-only constants of the even-residue-characteristic series:
    A integrates (2[e + ord b] + 1) over the interior shell strata, B is 4
    times the shell volume integral, both against |D_eps| on the unit torus
    region.  Returns (A, B, per-e increment list) as exact Fractions."""
    ctx = data.ctx
    if ctx.p != 2 or ctx.e < 2:
        raise DomainError("weight-only constants require p = 2 with 2 in pi^2")
    q = ctx.q
    a_total = Fraction(0)
    b_total = Fraction(0)
    increments = []
    for e in range(1, trunc.gamma_depth + 1):
        alpha = _stratum_alpha(ctx, 1, e, ctx.one(), 1)
        # |D_eps| is q^-(ord 2 + 2e) here; the report route keeps one
        # twisted_discriminant call per e on the p = 2 residue run, the
        # span that perfbench/tests/test_selfcheck.py looks for
        _x, drep = discriminant_report(form, alpha, f"1+pi^{e}")
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
