"""Stratified exact evaluation of twisted orbital integrals, the weighted
coefficient integrals, and the coefficient series c_k, for the split
orthogonal twist of GL_2: the chain's one twist, which no function takes
as an argument.

An integrand has three attributes and two methods: `detval_support`
(the ord det of its support), `residue_level` (f reads its argument mod
pi^level), the bool `kappa_vanishes` (every K-average is 0),
`support_prefilter(y00, y11)` (a reason string when no K-twisted
conjugate of y = diag(y00, y11) meets the support, else None) and
`kappa_average(key)` (the K-average at `Coset.key`).  `CuspidalData` is
the paper's; the tests add the indicator of M_2(O).

Quotient measure on G/T (G = GL_2): Iwasawa strata kappa n_b a_i with
vol(K) = 1 and each coset b + O carrying mass 1, which is the G-invariant
normalization with vol_T(T cap K) = 1; the b strata of level j >= 1 have
total mass q^j - q^(j-1).  Torus measure: vol(O^x) = 1 via the eigenvalue
coordinate.  Central classes are normalized to volume 1 each.

The torus strata near +-1 are alpha = sign (1 + pi^e v), one per class
of the unit v mod pi^m, where m is the number of digits of v that the
integrand can see (`torus_strata`): 0 when every K-average vanishes,
and residue_level - e - s otherwise.  `unit_depth` only caps m, so it
changes no value: `CuspidalData` reads at most 1 digit of v, and
`unit_depth` >= 1.  The metadata prints it, and it picks the extra digit
of the alpha = -1 representative at e = ord 2 (`_stratum_alpha`).  The
noncompact torus, ord alpha != 0, has no stratum: it adds 0 by the proof
in `torus_strata`, whose certificate (`_certify_noncompact`) asks the
integrand's prefilter about a few fixed y once per run, and refuses an
integrand that cannot certify the region.

One pass per torus stratum gamma = diag(alpha, alpha^(-1)), given as
alpha: `regular_preimage` gives the entries (x0, x1) of the diagonal
x = S(gamma)^(-1) (one `Elem` inverse) and |D_eps(gamma)| as an integer
read off ord(alpha - 1) and ord(alpha), `orbit_strata` the (i, j)
levels of G/T in closed form (one prefilter call per forced i) with the
K-average key of each live class of b, and `_delta_totals` sums weight
* K-average of f over those classes per Delta_1 = i - j >= 0.  There
the closed square-class weight is units (2 Delta_1 + 1 + 4k), so a
table {Delta_1: T} gives c_k = a + b k with a = units sum (2 Delta_1 +
1) T and b = 4 units sum T (`_pair`): `assemble_coefficients` adds the
scaled per-Delta_1 totals of every stratum into one run-wide table and
reduces it to that pair once per run.  `support_scan` takes x the same
way and reads the same level records: one walk of G/T in the library.

An integrand whose K-averages all vanish (`kappa_vanishes`: `CuspidalData`
at odd p) walks no levels: `_delta_totals` runs only the trace guard of
`_forced_levels` on x and adds nothing.
"""

from __future__ import annotations

from .cyclotomic import CharacterValue
from .errors import (DomainError, NotRegular, PrecisionExhausted,
                     Singular, TwirlError)
from .localfield import (Elem, INF, LocalFieldCtx, card_unit_square_classes,
                         unit_digit_tuples)
from .twisted import twisted_discriminant
# unused; tracer lookup points of perfbench/spans.py
from .matlattice import vdash
from .twisted import norm_preimage


class TruncationSpec:
    """Finite windows of the pipeline: `k_max` is how many c_k are
    printed (c_k = a + b k for every k), `gamma_depth` bounds the torus
    strata, and `unit_depth` caps the digits of v a torus stratum fixes
    (`torus_strata`).  The G/T walk needs none (`orbit_strata`).
    `gamma_depth` is not proved exhaustive: the torus strata beyond it
    contribute, and nothing reports that tail yet.  `__slots__` is the
    list of windows, which `cli.WINDOW_KEYS` reads as the [pipeline]
    keys."""

    __slots__ = ("gamma_depth", "k_max", "unit_depth")

    def __init__(self, gamma_depth: int = 5, k_max: int = 8,
                 unit_depth: int = 2):
        self.gamma_depth = gamma_depth
        self.k_max = k_max
        self.unit_depth = unit_depth


class TorusStratum:
    """One torus stratum of `torus_strata`: its representative alpha, its
    volume 1/`vol_den`, its label, and its (sign, e) around +-1 (0 and 0
    on a unit class)."""

    __slots__ = ("alpha", "vol_den", "label", "sign", "e")

    def __init__(self, alpha: Elem, vol_den: int, label: str, sign: int = 0,
                 e: int = 0):
        self.alpha = alpha
        self.vol_den = vol_den
        self.label = label
        self.sign = sign
        self.e = e


def torus_strata(data, trunc: TruncationSpec):
    """Partition of the integration window in T: residue classes of unit
    alpha away from +-1 (odd p only) and refined strata around +-1.  The
    noncompact torus, alpha = pi^t u with t != 0 and u a unit, adds 0
    (proof below), so it has no stratum: `_certify_noncompact` asks the
    integrand the one fact the proof needs, once per call, and raises
    DomainError for an integrand that cannot certify it.

    The unit classes add 0 for `CuspidalData`, whose K-averages vanish
    at odd p, but not for every integrand: at alpha = c, x = diag(1/(c -
    1), -c/(c - 1)) is integral of unit determinant, and the indicator of
    M_2(O) gives `unit-class-c` a nonzero Delta_1 = 0 total at p = 5 and
    7.  Volumes are exact in the vol(O^x) = 1 measure.  Every alpha is
    regular by construction: a unit class c in 2 .. p - 2 is not +-1, and
    `_stratum_alpha` keeps the refined representatives off +-1.

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
    So the stratum totals are the same for every v of the class.

    Why the noncompact torus adds 0.  Let ord alpha = t != 0.
    - x0 = (alpha - 1)^(-1) and x1 = -alpha x0 (`regular_preimage`).  At
      t > 0, alpha - 1 = -1 mod pi, so x0 = -1 mod pi and ord x1 = t.  At
      t < 0, ord x0 = -t and x1 = -1 - x0 = -1 mod pi.  So the valuations
      of x0 and x1 are {0, |t|}, the unit one is -1 mod pi, and
      ord det x = |t|.
    - The trace x0 + x1 is -1, so a forced i has b-levels j <= max(0, i)
      (`_forced_levels`), and y = pi^i [[x0, b(x0 + x1)], [0, x1]] is
      integral only if its diagonal is: at i >= 0, where
      ord det y = 2i + |t|.
    - Off the integral y the integrand must be 0: `_delta_totals` needs
      that for c_k = a + b k, and the certificate asks the prefilter to
      kill a y that is not integral, at each ord det y of
      `detval_support`.
    - With `detval_support` within {0, 1}, an integral y has 2i + |t| =
      1: i = 0 and |t| = 1, so j = 0 and y = x.  That y is diag(-1, 0)
      (t = 1) or diag(0, -1) (t = -1) mod pi, with ord det y = 1.
    - The prefilter reads y only through its integrality, ord det y and
      y mod pi (`CuspidalData.support_prefilter`).  So its verdicts on
      diag(-1, pi) and diag(pi, -1) are its verdicts on every such y,
      and its verdict on diag(-pi^-1, pi^(d + 1)) is its verdict on every
      y of ord det d that is not integral.
    So the region adds 0 when every K-average vanishes
    (`data.kappa_vanishes`), and otherwise when `detval_support` lies in
    {0, 1} and the prefilter gives a reason on each of those patterns.
    `CuspidalData` kills diag(-1, pi) and diag(pi, -1) as not
    eps-symmetric mod p, and the indicator of M_2(O) (det support {0})
    is asked only about a y that is not integral."""
    _certify_noncompact(data)
    ctx = data.ctx
    p, q = ctx.p, ctx.q
    out = []
    signs = (1,) if p == 2 else (1, -1)
    for c in range(2, p - 1):
        out.append(TorusStratum(ctx.from_int(c), q - 1, f"unit-class-{c}"))
    ud = trunc.unit_depth
    for sign in signs:
        for e in range(1, trunc.gamma_depth + 1):
            classes = unit_digit_tuples(p, _digits_seen(data, e, ud))
            vol_den = q ** e * len(classes)
            for digits in classes:
                v = ctx.from_digits(0, digits) if digits else ctx.one()
                out.append(TorusStratum(_stratum_alpha(ctx, sign, e, v, ud),
                                        vol_den, f"sign{sign}-e{e}",
                                        sign=sign, e=e))
    return out


def _certify_noncompact(data) -> None:
    """Check that the noncompact torus adds 0 for the integrand, by the
    proof in `torus_strata`: it does when every K-average vanishes;
    otherwise `detval_support` must lie in {0, 1}, and
    `data.support_prefilter` must give a reason on diag(-pi^-1,
    pi^(d + 1)) for each d of the support and, when 1 is in it, on
    diag(-1, pi) and diag(pi, -1).  Anything else raises DomainError
    naming what failed."""
    if data.kappa_vanishes:
        return
    support = data.detval_support
    if not support <= {0, 1}:
        raise DomainError(f"noncompact torus: det support {sorted(support)} "
                          "is not within {0, 1}, which its proof needs")
    ctx = data.ctx
    one, pi = ctx.one(), ctx.pi(1)
    patterns = [(f"diag(-pi^-1, pi^{d + 1})", -ctx.pi(-1), ctx.pi(d + 1))
                for d in sorted(support)]
    if 1 in support:
        patterns += [("diag(-1, pi)", -one, pi), ("diag(pi, -1)", pi, -one)]
    for name, y00, y11 in patterns:
        if data.support_prefilter(y00, y11) is None:
            raise DomainError(f"noncompact torus: the support prefilter "
                              f"keeps y = {name}, so the region cannot be "
                              "certified to add 0")


def _digits_seen(data, e: int, cap: int) -> int:
    """m, the digits of v in alpha = sign (1 + pi^e v) that the stratum
    totals of the integrand read, capped at `cap` (`unit_depth`): 0 when
    every K-average vanishes (`data.kappa_vanishes`), and otherwise
    level - e - s, level = `data.residue_level` and s = i_min -
    ord(alpha - 1), i_min the least forced i.  For a unit alpha,
    ord det x = -2 ord(alpha - 1), so the forced i are t/2 + ord(alpha - 1)
    over the even t of `data.detval_support` (`_forced_levels`), and s is
    the least such t/2; with no even t no level is forced, and m = 0."""
    if data.kappa_vanishes:
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
    if e == ctx.ord2 and alpha == ctx.from_int(-sign):
        return alpha + ctx.from_int(sign).shift(e + depth)
    return alpha


# -- level strata of G/T ---------------------------------------------------------


class Coset:
    """One record of `orbit_strata`: the (i, b) coset strata g0 = n_b a_i
    of G/T (b of level j, so Delta_1(g0) = i - j) whose b start with
    `digits` (all of level j on a dead level, one class of b on a live
    one), `weight` cosets in all; `dead` is the support prefilter's
    reason, or None when the strata are live.  `key` is what the
    K-average of f reads of the argument y = g0 x g0^vdash: the digit
    tuples of the entries of y mod pi^level and the parity of ord det y,
    read off the record (`orbit_strata`).  It is None on a dead record,
    and on a live one whose y is not integral."""

    __slots__ = ("i", "j", "digits", "weight", "key", "dead")

    def __init__(self, i: int, j: int, digits: tuple, weight: int,
                 key: tuple | None, dead: str | None):
        self.i = i
        self.j = j
        self.digits = digits
        self.weight = weight
        self.key = key
        self.dead = dead


def _forced_levels(data, x0: Elem, x1: Elem):
    """The trace x0 + x1 of x = diag(x0, x1), normalized, and the Iwasawa
    exponents i that the det-valuation support of f forces, each with its
    b-level bound: y = pi^i [[x0, b(x0 + x1)], [0, x1]], so an integral y
    forces j <= jmax = max(0, i + ord(x0 + x1)).  A zero trace raises: x
    is not regular (its orbital integral diverges) or, for x = S(gamma)^(-1)
    whose trace is -1, the precision could not decide the sum."""
    d = x0.val + x1.val  # ord det x
    if d == INF:
        raise NotRegular("singular argument")
    trace = (x0 + x1).normalized()
    if trace.is_zero():
        raise PrecisionExhausted(
            f"trace x0 + x1 reads 0 at precision {x0.ctx.precision}: x is "
            "not regular, or the precision cannot decide the trace")
    forced = [(target - d) // 2 for target in sorted(data.detval_support)
              if (target - d) % 2 == 0]
    return trace, [(i, max(0, i + trace.vbase)) for i in forced]


def orbit_strata(data, x0: Elem, x1: Elem):
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
    into the classes of those digits, weight q^(j-n) each.

    The key of a live record (`Coset.key`) is read off the record, with
    no `Mat`, det or residue key per class:
    - y10 = 0, and y00 = pi^i x0, y11 = pi^i x1 do not depend on b, so
      their digits mod pi^level and the parity of ord det y = ord y00 +
      ord y11 (y is upper-triangular) are read once per forced i.  A level
      whose diagonal is not integral has no key.
    - Write b = pi^(-j) b' and x0 + x1 = pi^t t', with b' the class
      representative and t' units.  Then y01 = pi^u b' t'.  Let b'' and
      t'' be b' and t' cut to their first m = level - u digits, so that
      b' = b'' and t' = t'' mod pi^m.  Then y01 = pi^u b'' t'' mod
      pi^(u + m) = pi^level: y01 mod pi^level reads only those digits,
      and is 0 when u >= level.  `_y01_digits` keeps it per field and
      (u, b'', t''), so a run computes each product once.
    y00 and y11 are read as they are, and t' as the product 1 t', which
    has the validity of y01 = pi^u b' t' and is normalized as y01 is; so
    a digit the precision cannot decide raises here, as it does when the
    key is read off y as a `Mat` (the tests' `kappa_key`;
    `test_undecidable_discriminant_raises`)."""
    ctx = data.ctx
    q, level = ctx.q, data.residue_level
    trace, levels = _forced_levels(data, x0, x1)
    t = trace.vbase
    unit = trace.shift(-t)
    t_digits: dict = {}     # m -> the first m digits of t'
    zeros = (0,) * level
    out = []
    for i, jmax in levels:
        y00, y11 = x0.shift(i), x1.shift(i)
        dead = data.support_prefilter(y00, y11)
        diagonal = None
        if dead is None and y00.val >= 0 and y11.val >= 0:
            diagonal = (y00.residue_digits(level), y11.residue_digits(level),
                        (y00.val + y11.val) % 2)
        for j in range(0, jmax + 1):
            u = i - j + t
            n = min(j, max(1, level - u))
            classes = unit_digit_tuples(ctx.p, n)
            if dead is not None:  # one record, at b = pi^(-j)
                out.append(Coset(i, j, classes[0],
                                 (q - 1) * q ** (j - 1) if j else 1,
                                 None, dead))
                continue
            for digits in classes:
                key = None
                if diagonal is not None:
                    d00, d11, parity = diagonal
                    d01 = zeros
                    if j and u < level:
                        m = level - u
                        if m not in t_digits:
                            t_digits[m] = (ctx.one() * unit) \
                                .residue_digits(m)
                        d01 = _y01_digits(ctx, u, digits[:m], t_digits[m])
                    key = ((d00, d01, zeros, d11), parity)
                out.append(Coset(i, j, digits, q ** (j - n), key, None))
    return out


def _y01_digits(ctx: LocalFieldCtx, u: int, b: tuple, t: tuple) -> tuple:
    """The digits of pi^u b t mod pi^(u + len(t)), b and t units given
    by their first digits (b may have fewer), kept per field: y01 mod
    pi^level of `orbit_strata`."""
    key = ("y01", u, b, t)
    got = ctx._memo.get(key)
    if got is None:
        got = (ctx.from_digits(u, b) * ctx.from_digits(0, t)) \
            .residue_digits(u + len(t))
        ctx._memo[key] = got
    return got


# -- the integrals ----------------------------------------------------------------


def _delta_totals(data, x0: Elem, x1: Elem) -> dict:
    """{Delta_1: sum of weight * f_avg} over the live orbit strata of x =
    S(gamma)^(-1), f_avg the integrand's K-average at the record's key
    (`Coset`); a zero average adds no entry.  When every K-average
    vanishes (`data.kappa_vanishes`) no level is walked: the table is
    empty, and only the trace guard of `_forced_levels` runs on x.

    Every Delta_1 of the table is >= 0, and `_pair` relies on it.
    x0 + x1 = -1, so jmax = max(0, i) (`_forced_levels`): Delta_1 = i - j
    >= 0 at i >= 0, and j = 0 at i < 0.  There one of x0, x1 has ord <= 0,
    as their sum is -1, so y = pi^i x is not integral; an integrand reads
    y only mod pi^`residue_level`, so it is 0 there.  Such a live record
    has no key (None); an integrand that averages it anyway to a nonzero
    total at Delta_1 < 0 raises DomainError."""
    by_delta: dict = {}
    if data.kappa_vanishes:
        _forced_levels(data, x0, x1)
        return by_delta
    for s in orbit_strata(data, x0, x1):
        if s.dead is not None:
            continue
        f_avg = data.kappa_average(s.key)
        if not f_avg.is_zero():
            d, t = s.i - s.j, f_avg.scale(s.weight)
            by_delta[d] = by_delta[d] + t if d in by_delta else t
    for d, total in by_delta.items():
        if d < 0 and not total.is_zero():
            raise DomainError(f"nonzero total at Delta_1 = {d} < 0; c_k = "
                              "a + b k needs an integrand that is 0 off the "
                              "integral y")
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


def orbit_weight_integral(data, alpha: Elem, ks):
    """psi_k(gamma) = integral over G/T of f(g S(gamma)^(-1) g^vdash) W_k(g)
    for each k in ks, as {k: CharacterValue}, read off the pair of the
    per-Delta_1 totals (`_pair`).  gamma must be regular: x comes from
    `regular_preimage`, whose exact zero tests of alpha -+ 1 raise
    NotRegular, and a trace x0 + x1 the precision cannot decide raises
    PrecisionExhausted."""
    (x0, x1), _dexp = regular_preimage(alpha)
    units = card_unit_square_classes(data.ctx)
    by_delta = _delta_totals(data, x0, x1)
    return _affine(*_pair(by_delta, data.ctx.p, units), ks)


class CoefficientTable:
    """c_k = a + b k for k in `ks`.  `stratum_totals` holds each torus
    stratum with its per-Delta_1 totals, already times 2 vol |D_eps|;
    (a, b) is the pair of their run-wide sum, and `per_stratum` reads
    each stratum's own pair."""

    __slots__ = ("ks", "stratum_totals", "units", "a", "b", "metadata")

    def __init__(self, ks: tuple,
                 stratum_totals: list,  # (TorusStratum, {Delta_1: value})
                 units: int,            # |O^x/(O^x)^2|, read by `_pair`
                 a: CharacterValue,     # c_0
                 b: CharacterValue,     # the slope c_(k+1) - c_k
                 metadata: dict | None = None):
        self.ks = ks
        self.stratum_totals = stratum_totals
        self.units = units
        self.a = a
        self.b = b
        self.metadata = {} if metadata is None else metadata

    @property
    def values(self) -> dict:
        """{k: c_k} for k in `ks`."""
        return _affine(self.a, self.b, self.ks)

    @property
    def per_stratum(self):
        """(TorusStratum, dict k -> CharacterValue) per torus stratum:
        its share of each c_k."""
        return [(s, _affine(*_pair(totals, self.a.p, self.units), self.ks))
                for s, totals in self.stratum_totals]

    def per_e_increments(self, k: int = 0):
        agg: dict = {}
        for s, tab in self.per_stratum:
            if s.e:
                agg[s.e] = tab[k] if s.e not in agg else agg[s.e] + tab[k]
        return dict(sorted(agg.items()))

    def to_json(self):
        return {
            "ks": list(self.ks),
            "values": {str(k): v.to_json() for k, v in self.values.items()},
            "metadata": self.metadata,
        }


def _preimage_inverse(alpha: Elem):
    """The entries (x0, x1) of x = S(gamma)^(-1), where S(gamma) =
    diag(alpha - 1, alpha^(-1) - 1) (`norm_preimage`): x0 = (alpha - 1)^(-1)
    is one `Elem` inverse, and x1 = (alpha^(-1) - 1)^(-1) = alpha/(1 -
    alpha) = -alpha x0, a product (the sum -(1 + x0) can lose a validity
    level).  Every alpha path of the library runs here, and here alpha = 0
    raises Singular and alpha = 1 NotRegular."""
    if alpha.is_zero():
        raise Singular("inverse of zero")
    s0 = (alpha - alpha.ctx.one()).normalized()
    if s0.is_zero():
        raise NotRegular("gamma - 1 is singular")
    x0 = s0.inverse()
    return x0, -(alpha * x0)


def regular_preimage(alpha: Elem):
    """The entries (x0, x1) of x = S(gamma)^(-1) for gamma = diag(alpha,
    alpha^(-1)), and the exponent d with |D_eps(gamma)| = q^(-d).  gamma
    must be regular: alpha = 1 (refused by `_preimage_inverse`) or -1
    raises NotRegular.

    x0 = (alpha - 1)^(-1) and x1 = -alpha x0 (`_preimage_inverse`), so
    the trace x0 + x1 is -1 exactly and the lowest coefficient of the
    twisted charpoly, 2 s^2/(x0 x1) at s = -1 (`twisted_discriminant`), is
    -2 (alpha - 1)^2/alpha: d = ord 2 + 2 ord(alpha - 1) - ord(alpha), an
    integer read off alpha.  No digit of the trace enters d;
    `_forced_levels` sums the trace and raises PrecisionExhausted when it
    reads 0, and a digit of alpha -+ 1 the precision cannot decide raises
    here.  `discriminant_report` skips the -1 test."""
    ctx = alpha.ctx
    if (alpha + ctx.one()).normalized().is_zero():
        raise NotRegular("gamma + 1 is singular")
    x = _preimage_inverse(alpha)
    # ord(alpha - 1) = -ord(x0), x0 normalized by the inverse
    dexp = ctx.ord2 - 2 * x[0].vbase - alpha.val
    return x, dexp


def discriminant_report(alpha: Elem):
    """The `twisted_discriminant` report of x = S(gamma)^(-1)
    (`_preimage_inverse`, which refuses alpha = 0 and 1), for `dtwist` and
    `coefficient_A_B`, which walk no (i, j) levels: the report is their
    check on the trace x0 + x1 = -1.  A trace that reads 0 (kernel dim 3)
    or a digit the precision cannot decide raises PrecisionExhausted."""
    drep = twisted_discriminant(*_preimage_inverse(alpha))
    if not drep.regular:
        raise PrecisionExhausted(
            f"twisted discriminant of S(gamma)^(-1) has kernel dim "
            f"{drep.kernel_dim} at precision {alpha.ctx.precision}")
    return drep


def assemble_coefficients(data, trunc: TruncationSpec) -> CoefficientTable:
    """The coefficient table c_k of the series sum_k c_k q^(-2nks):
    c_k = 2 sum over torus strata of vol * |D_eps| * psi_k.  The strata
    are those of `torus_strata`, which covers the noncompact torus by
    proof, not by a stratum, and raises DomainError for an integrand that
    cannot certify it.  Each stratum builds x = S(gamma)^(-1) and |D_eps|
    once, in `regular_preimage`, and adds its per-Delta_1 totals
    (`_delta_totals`), times 2 vol |D_eps| = 2 vol q^(-d) as the ratio of
    two ints, into one run-wide {Delta_1: total}.  psi_k is linear in
    those totals, so the run reduces them once to the pair (a, b) of
    c_k = a + b k (`_pair`).  The trace check of `_forced_levels` is the
    guard on x, also when no level is walked: a trace the precision
    cannot decide raises PrecisionExhausted.  An error of a stratum is
    raised again as its own type, with the stratum's label in front."""
    ctx = data.ctx
    units = card_unit_square_classes(ctx)
    ks = tuple(range(0, trunc.k_max + 1))
    run: dict = {}
    stratum_totals = []
    for stratum in torus_strata(data, trunc):
        try:
            (x0, x1), dexp = regular_preimage(stratum.alpha)
            totals = _delta_totals(data, x0, x1)
        except TwirlError as exc:
            raise type(exc)(f"{stratum.label}: {exc}") from exc
        # an empty table needs no scale: every stratum's, when the
        # K-averages vanish (`kappa_vanishes`)
        if totals:
            # factor 2: T\H^+ has two classes and W_k(g, w) = W_k(g, 1);
            # |W(T)| = 1
            # 2 vol |D_eps| = 2 vol q^(-dexp), dexp >= 0 as alpha is a unit
            den = stratum.vol_den * ctx.q ** dexp
            totals = {d: t.scale(2, den) for d, t in totals.items()}
            for d, t in totals.items():
                run[d] = run[d] + t if d in run else t
        stratum_totals.append((stratum, totals))
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
    return CoefficientTable(ks, stratum_totals, units, a, b, meta)


def coefficient_A_B(data, trunc: TruncationSpec):
    """The weight-only constants of the even-residue-characteristic series:
    A integrates (2[e + ord b] + 1) over the interior shell strata, B is 4
    times the shell volume integral, both against |D_eps| on the unit torus
    region.  Returns (A, B, [(e, A_e, B_e)] per shell e), each constant
    an exact rational as a p = 2 `CharacterValue`, whose `str` is that of
    the `Fraction`.

    On the stratum alpha = 1 + pi^e, |D_eps| = q^-(ord 2 + 2e), the
    exponent of `regular_preimage` at ord(alpha - 1) = e and ord alpha = 0.
    One `discriminant_report`, at the deepest e = gamma_depth, checks the
    trace x0 + x1 = -1 there: a digit the precision cannot decide raises
    PrecisionExhausted with `1+pi^<gamma_depth>` in front, and the deepest
    stratum is the first to lose one.  A report whose exponent is not
    ord 2 + 2e raises DomainError."""
    ctx = data.ctx
    if ctx.p != 2 or ctx.e < 2:
        raise DomainError("weight-only constants require p = 2 with 2 in pi^2")
    q = ctx.q
    top = trunc.gamma_depth
    place = f"1+pi^{top}"
    try:
        drep = discriminant_report(_stratum_alpha(ctx, 1, top, ctx.one(), 1))
    except TwirlError as exc:
        raise type(exc)(f"{place}: {exc}") from exc
    if drep.ord_value != ctx.ord2 + 2 * top:
        raise DomainError(f"|D_eps| at {place} is q^-{drep.ord_value}, "
                          f"not q^-(ord 2 + 2e) = q^-{ctx.ord2 + 2 * top}")
    increments = []
    a = b = 0   # A and B times q^(3 top + ord 2)
    for e in range(1, top + 1):
        # interior shell: b levels j = 0 .. e-1; level j has q^j - q^(j-1)
        # cosets (one coset for j = 0); ord(b) = -j so the weight count is
        # 2(e - j) + 1
        counts = [1] + [q ** j - q ** (j - 1) for j in range(1, e)]
        weight = sum(n * (2 * (e - j) + 1) for j, n in enumerate(counts))
        # vol(1 + pi^e O) |D_eps| = q^-e q^-(ord 2 + 2e)
        scale = q ** (3 * e + ctx.ord2)
        increments.append((e, _rational(weight, scale),
                           _rational(4 * sum(counts), scale)))
        a += weight * q ** (3 * (top - e))
        b += 4 * sum(counts) * q ** (3 * (top - e))
    den = q ** (3 * top + ctx.ord2)
    return _rational(a, den), _rational(b, den), increments


def _rational(num: int, den: int) -> CharacterValue:
    """num/den, den > 0, as a value of Q[zeta_2] = Q."""
    return CharacterValue.rational(2, num).scale(1, den)
