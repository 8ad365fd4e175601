"""The ramified-induction test function on GL_2(F): subgroup filtration
K > I_0 > I_1 > I_2, the compact support C = O_E^x I_1 {1, pi_E} for
E = F(sqrt(pi)), the level character on I_1, the matrix coefficient psi,
and the cut-off f = psi * 1_C.

pi_E is realized inside M_2(F) as [[0,1],[pi,0]], so pi_E^2 = pi and the
trace entering the level character is F-valued: for g = 1 + [[a,b],[c,d]]
the character value is Lambda_1(b + c/pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CharacterValue
from .errors import DomainError
from .integrator import _preimage_inverse, orbit_strata
from .localfield import INF, Elem, LocalFieldCtx, additive_char
from .matlattice import GroupForm, Mat, mat_ord, vdash
from .ringvec import ResidueRing, iter_gl2
from .twisted import TorusElem, is_eps_symmetric
from .twisted import norm_preimage  # unused; a tracer lookup point of perfbench/spans.py

LEVELS = ("K", "I0", "I1", "I2", "C0", "C")


def pi_e_inverse_power(ctx: LocalFieldCtx, j: int) -> Mat:
    """pi_E^(-j) exactly; pi_E^2 = pi."""
    half, rem = divmod(j, 2)
    out = Mat.identity(ctx, 2).shift(-half)
    if rem:
        z, o = ctx.zero(), ctx.one()
        out = out * Mat(ctx, [[z, o.shift(-1)], [o, z]])
    return out


def member(g: Mat, level: str) -> bool:
    """Exact congruence membership tests for the subgroup filtration."""
    ctx = g.ctx
    one = ctx.one()
    a, b = g.rows[0]
    c, d = g.rows[1]
    if level == "K":
        return mat_ord(g) >= 0 and g.det().val == 0
    if level == "I0":
        return (mat_ord(g) >= 0 and a.val == 0 and d.val == 0 and c.val >= 1)
    if level == "I1":
        return ((a - one).val >= 1 and b.val >= 0 and c.val >= 1
                and (d - one).val >= 1)
    if level == "I2":
        return ((a - one).val >= 2 and b.val >= 1 and c.val >= 2
                and (d - one).val >= 2)
    if level == "C0":
        for r in range(1, ctx.p):
            s = ctx.from_int(r).inverse()
            if member(g.scale(s), "I1"):
                return True
        return False
    if level == "C":
        return member(g, "C0") or member(pi_e_inverse_power(ctx, 1) * g, "C0")
    raise ValueError(f"unknown level {level!r}")


def level_character(g: Mat) -> CharacterValue:
    """The I_2-invariant character of I_1 given by the trace pairing with
    pi_E^(-1): value Lambda_1(b + c/pi)."""
    if not member(g, "I1"):
        raise DomainError("character argument must lie in I1")
    arg = g.rows[0][1] + g.rows[1][0].shift(-1)
    return additive_char(arg)


@dataclass
class CuspidalData:
    """Inducing data: E = F(sqrt(pi)) embedded via pi_E = [[0,1],[pi,0]],
    inducing compact fixed to I_1, central character trivial.  For p = 2 the
    construction requires 2 in pi^2, i.e. ramification degree >= 2."""

    ctx: LocalFieldCtx

    def __post_init__(self):
        if self.ctx.p == 2 and self.ctx.e < 2:
            raise DomainError("even residue characteristic needs 2 in pi^2")
        self._avg_cache: dict = {}

    @property
    def p(self) -> int:
        return self.ctx.p

    # -- pointwise evaluation -------------------------------------------------

    def psi(self, g: Mat) -> CharacterValue:
        """Matrix coefficient: extension by zero of the character on
        E^x I_1.  Factors g = pi_E^j * (unit lift) * h deterministically;
        the value is independent of the chosen unit lift."""
        ctx = self.ctx
        d = g.det()
        if d.val is INF:
            return CharacterValue.zero(self.p)
        j = d.val
        gp = pi_e_inverse_power(ctx, j) * g
        for r in range(1, ctx.p):
            h = gp.scale(ctx.from_int(r).inverse())
            if member(h, "I1"):
                return level_character(h)
        return CharacterValue.zero(self.p)

    def in_support(self, g: Mat) -> bool:
        d = g.det()
        return d.val in (0, 1) and member(g, "C")

    def f(self, g: Mat) -> CharacterValue:
        """f = psi * 1_C, C = O_E^x I_1 {1, pi_E}."""
        if not self.in_support(g):
            return CharacterValue.zero(self.p)
        return self.psi(g)

    # -- support and locality metadata used by the integrator -----------------

    detval_support = frozenset((0, 1))
    # f reads its argument only mod pi^residue_level (`kappa_average`)
    residue_level = 2

    def support_prefilter(self, y: Mat, form: GroupForm) -> str | None:
        """Necessary conditions for some K-twisted conjugate of y to meet
        the support; returns a reason string when the stratum is dead."""
        if mat_ord(y) < 0:
            return "not integral"
        if y.det().val not in self.detval_support:
            return "det valuation outside {0,1}"
        if not is_eps_symmetric(y, form, mod_level=1):
            return "not eps-symmetric mod p"
        return None

    # -- exact averaged evaluation over K --------------------------------------

    def kappa_vanishes(self, form: GroupForm) -> bool:
        """Whether `kappa_average(y, form)` is 0 for every y: at odd p,
        by the argument in `kappa_average`.  The integrator reads it to
        skip the G/T levels whose K-averages it would only add as 0."""
        if form.kind != "orthogonal":
            raise DomainError("kappa_average implements the orthogonal twist "
                              f"only, not {form.kind!r}")
        return self.p != 2

    def kappa_average(self, y: Mat, form: GroupForm) -> CharacterValue:
        """Exact integral over kappa in K = GL_2(O) of f(kappa y kappa^vdash)
        with vol(K) = 1, for integral y and the orthogonal twist.

        Why one level and a character sum over GL_2(O/pi) suffice:
        - f(X) depends only on X mod pi^2 once the parity of ord det X is
          fixed: the support tests are congruences mod pi (after
          X -> pi_E^(-1) X on the odd piece, which reads X mod pi^2), and
          Lambda_1(b + c/pi) has the maximal ideal as its kernel.  So the
          integral is the mean over kappa in GL_2(O/pi^2), on both pieces.
        - Each kappa mod pi^2 is k n with k the digit lift of kappa mod pi
          and n = 1 + pi A in the kernel N of reduction mod pi, and
          n y n^vdash = y + pi L_y(A) mod pi^2, where
          L_y(A) = A y + y A^vdash mod pi is F_p-linear in A.  So the
          N-orbit of y mod pi^2 is the affine set y + pi W, W = Im L_y,
          every point hit |ker L_y| times, and the integral is the mean of
          f(k (y + pi v) k^vdash) over k in GL_2(O/pi) and v in W.  W is
          spanned by the images of the four matrix units, |W| = p^rank.
        - Write X = k y k^vdash and V = T_k v = k v k^vdash mod pi, so that
          k (y + pi v) k^vdash = X + pi V, with the F_p-linear forms
          l_k(v) = V10 = cd v00 + c^2 v01 + d^2 v10 + cd v11 and
          mu_k(v) = V00 + V11 = (ad + bc)(v00 + v11) + 2ac v01 + 2bd v10
          for k = [[a, b], [c, d]] mod pi.  Since k N k^(-1) = N,
          T_k W = Im L_X.
        - Parity 0.  The support test reads X + pi V mod pi = X mod pi, so
          it is `_support_mod_pi` of X and does not see v.  On the support
          X = [[r, z], [0, r]] mod pi with r != 0, and the exponent is
          (s + l_k(v))/r with s = x01 + x10/pi mod pi.  Summed over v in W
          this gives |W| on the exponent s/r when l_k vanishes on W, and
          otherwise |W|/p on every exponent, since l_k then maps W onto
          F_p with fibres of size |W|/p.
        - Parity 1.  f reads pi_E^(-1) (X + pi V); its support needs
          `_support_mod_pi` of X, so X = [[0, r], [0, 0]] mod pi with
          r != 0, and x10/pi + l_k(v) = r mod pi.  The exponent is
          (s + mu_k(v))/r with s = x00/pi + x11/pi mod pi.  Here l_k
          vanishes on W (below), so the condition reads
          t := r - x10/pi = 0 mod pi, for every v or none, and a row with
          t = 0 gives |W| on s/r when mu_k vanishes on W and |W|/p on
          every exponent otherwise.
        - Which way a row goes.  For A = [[a, b], [c, d]] over F_p, Im L_X
          is {[[r(a + d) + zc, 2(rb + za)], [2rc, zc + r(a + d)]]} on
          parity 0 and {r [[c, 2a], [0, c]]} on parity 1.  So l_k vanishes
          on W on parity 1 always, and the form that moves the exponent
          (l_k on parity 0, mu_k on parity 1) vanishes on W exactly when
          p = 2: at odd p every row spreads evenly, which is why every
          K-average is 0 there.
        - So a miss is one pass over GL_2(O/pi) with a few mod-p
          operations per row (`_coset_counts`), and the orbit is never
          listed; the counts are those of f over GL_2(O/pi) x W.

        At odd p the value is therefore 0 for every y (`kappa_vanishes`),
        and it is returned without a pass; `_kappa_average_coset` is the
        pass, run at p = 2 and kept as the tests' odd-p check of that
        zero.  At p = 2 the value depends only on y mod pi^2 and the
        parity of ord det y, which is the cache key.
        `kappa_average_oracle` enumerates all of GL_2(O/pi^level)
        instead, and the tests hold the two equal."""
        if self.kappa_vanishes(form):
            return CharacterValue.zero(self.p)
        parity = y.det().val % 2
        key = (y.residue_key(self.residue_level), parity)
        got = self._avg_cache.get(key)
        if got is None:
            got = self._kappa_average_coset(y, parity)
            self._avg_cache[key] = got
        return got

    def _kappa_average_coset(self, y: Mat, parity: int) -> CharacterValue:
        ring = ResidueRing(self.ctx, self.residue_level)
        counts, total = _coset_counts(ring, _residues(ring, y), parity)
        return _mean(self.p, counts, total)

    def kappa_average_oracle(self, y: Mat, level: int) -> CharacterValue:
        """The same integral by enumerating all of GL_2(O/pi^level),
        orthogonal twist; any level >= 2 gives the exact value.  Kept as
        the test oracle for `kappa_average`."""
        ring = ResidueRing(self.ctx, level)
        counts, total = _oracle_counts(ring, _residues(ring, y),
                                       y.det().val % 2)
        return _mean(self.p, counts, total)


# -- f on residue matrices -------------------------------------------------------
#
# A residue matrix is the tuple (x00, x01, x10, x11) of coefficient arrays of
# shape (..., e); leading shapes broadcast.


def _residues(ring: ResidueRing, x: Mat):
    return tuple(ring.from_elem(v) for row in x.rows for v in row)


def _mat_mul(ring: ResidueRing, m, n):
    m00, m01, m10, m11 = m
    n00, n01, n10, n11 = n

    def dot(u, v, s, t):
        return ring.add(ring.mul(u, v), ring.mul(s, t))

    return (dot(m00, n00, m01, n10), dot(m00, n01, m01, n11),
            dot(m10, n00, m11, n10), dot(m10, n01, m11, n11))


def _vdash(m):
    """The orthogonal twisted transpose w m^t w = [[d, b], [c, a]]."""
    a, b, c, d = m
    return (d, b, c, a)


def _twist(ring: ResidueRing, k, y):
    """k Y k^vdash."""
    return _mat_mul(ring, _mat_mul(ring, k, y), _vdash(k))


def _image_span(y0, p: int):
    """The images L_y(E) = E y + y E^vdash mod pi of the matrix units E00,
    E01, E10, E11, as the rows (v00, v01, v10, v11) of a 4 x 4 array; they
    span Im L_y.  y0 is y mod pi as four residues."""
    y00, y01, y10, y11 = y0
    tr = y00 + y11
    return np.array([[y00, 2 * y01, 0, y11], [y10, tr, 0, y10],
                     [y01, 0, tr, y01], [y00, 0, 2 * y10, y11]]) % p


def _twist_matrix(a, b, c, d):
    """T with k v k^vdash = T v on v = (v00, v01, v10, v11), for
    k = [[a, b], [c, d]] with integer entries; one 4 x 4 matrix per row of
    the arrays a, b, c, d."""
    return np.array([a * d, a * c, b * d, b * c, a * b, a * a, b * b, a * b,
                     c * d, c * c, d * d, c * d, b * c, a * c, b * d, a * d]
                    ).T.reshape(-1, 4, 4)


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a list of integer vectors."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(u - f * v) % p for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _inverses(p: int):
    """v -> v^(-1) mod p as a lookup array, with 0 -> 0."""
    return np.array([0] + [pow(v, -1, p) for v in range(1, p)],
                    dtype=np.int64)


def _support_mod_pi(ring: ResidueRing, x, parity: int):
    """The part of f's support test that reads X mod pi only: a mask that
    holds wherever the mask of `_f_on_residues` does.  Parity 0 needs
    x00 != 0, x10 = 0 and x11 = x00 mod pi; parity 1 needs
    x00 = x10 = x11 = 0 and x01 != 0 mod pi."""
    x00, x01, x10, x11 = (ring.residue_mod_p(z) for z in x)
    if parity:
        return (x00 == 0) & (x10 == 0) & (x11 == 0) & (x01 != 0)
    return (x00 != 0) & (x10 == 0) & (x11 == x00)


def _f_on_residues(ring: ResidueRing, x, parity: int):
    """f on residue matrices X whose ord det has the given parity; reads
    X mod pi^2 only.  Returns (support mask, Lambda_1 exponents mod p); the
    exponents mean something only where the mask holds."""
    p = ring.p
    x00, x01, x10, x11 = x
    live = True
    if parity:
        # X <- pi_E^(-1) X = [[x10/pi, x11/pi], [x00, x01]]
        live = ring.divisible_by_pi(x10) & ring.divisible_by_pi(x11)
        x00, x01, x10, x11 = ring.div_pi(x10), ring.div_pi(x11), x00, x01
    # X = r h with h in I_1 forces r = x00 mod pi; then
    # Lambda_1(h01 + h10/pi) = Lambda_1((x01 + x10/pi) / r)
    r = ring.residue_mod_p(x00)
    mask = (live & (r != 0) & ring.divisible_by_pi(x10)
            & (ring.residue_mod_p(x11) == r))
    arg = ring.residue_mod_p(ring.add(x01, ring.div_pi(x10)))
    return mask, (arg * _inverses(p)[r]) % p


def _count_f(ring: ResidueRing, k, y_res, parity: int, counts) -> int:
    """Add the Lambda_1 exponents of f(k Y k^vdash) over the rows of k to
    `counts`; return the number of rows."""
    mask, exps = _f_on_residues(ring, _twist(ring, k, y_res), parity)
    counts += np.bincount(exps[mask], minlength=ring.p)
    return mask.size


def _coset_counts(ring: ResidueRing, y_res, parity: int):
    """(Lambda_1 exponent counts, rows) of f over GL_2(O/pi) x
    (y + pi Im L_y), y a residue matrix mod pi^2, as the character sums of
    `CuspidalData.kappa_average`: each k that passes the support test adds
    |W| to one exponent when the linear form h (parity 0: l_k, parity 1:
    mu_k) vanishes on W = Im L_y, and |W|/p to every exponent otherwise."""
    p = ring.p
    span = _image_span([int(ring.residue_mod_p(z)) for z in y_res], p)
    size = p ** _rank_mod_p(span.tolist(), p)
    # the rows of GL_2(O/pi) as digits; X = T_k y needs no ring product
    k = [np.concatenate([ring.residue_mod_p(z) for z in col])
         for col in zip(*iter_gl2(1, ring))]
    t_k = _twist_matrix(*k)
    x = tuple(np.moveaxis(t_k @ np.stack(y_res) % ring.pm, 1, 0))
    keep = _support_mod_pi(ring, x, parity)
    x00, x01, x10, x11 = (z[keep] for z in x)
    tw = t_k[keep] @ span.T % p     # T_k w for the spanning vectors w of W
    if parity:
        h = tw[:, 0] + tw[:, 3]
        r = ring.residue_mod_p(x01)
        live = r == ring.residue_mod_p(ring.div_pi(x10))
        base = ring.add(ring.div_pi(x00), ring.div_pi(x11))
    else:
        h = tw[:, 2]
        r = ring.residue_mod_p(x00)
        live = True
        base = ring.add(x01, ring.div_pi(x10))
    flat = ~(h % p).any(axis=1)
    exps = ring.residue_mod_p(base) * _inverses(p)[r] % p
    counts = np.bincount(exps[live & flat], minlength=p) * size
    counts += np.count_nonzero(live & ~flat) * (size // p)
    return counts, k[0].size * size


def _oracle_counts(ring: ResidueRing, y_res, parity: int):
    """(Lambda_1 exponent counts, rows) of f over all of
    GL_2(O/pi^ring.s)."""
    counts = np.zeros(ring.p, dtype=np.int64)
    total = 0
    for k in iter_gl2(ring.s, ring):
        total += _count_f(ring, k, y_res, parity, counts)
    return counts, total


def _mean(p: int, counts, total: int) -> CharacterValue:
    value = CharacterValue.from_exponent_counts(p, counts.tolist())
    return value.scale(Fraction(1, total))


# -- support scanning ----------------------------------------------------------


@dataclass
class ScanStratum:
    i: int
    b_level: int
    b_digits: tuple
    verdict: str


@dataclass
class ScanReport:
    regime: str
    witness: dict | None
    strata: list
    kappa_level: int

    def found(self) -> bool:
        return self.witness is not None

    def to_json(self):
        return {
            "regime": self.regime,
            "witness": self.witness,
            "strata_searched": [
                {"i": s.i, "b_level": s.b_level, "b": list(s.b_digits),
                 "verdict": s.verdict}
                for s in self.strata
            ],
            "kappa_level": self.kappa_level,
        }


def _classify_regime(ctx: LocalFieldCtx, alpha: Elem) -> str:
    v = alpha.val
    if v != 0:
        return "alpha-noncompact"
    r = alpha.residue()
    if r != 1 % ctx.p and r != (-1) % ctx.p:
        return "alpha-not-pm1-mod-p"
    if ctx.p != 2:
        return "alpha-minus1-mod-p" if r == (-1) % ctx.p else "alpha-plus1-mod-p"
    return "alpha-unit-even"


def support_scan(data: CuspidalData, form: GroupForm,
                 gamma: TorusElem) -> ScanReport:
    """Search for g = kappa n_b a_i with f(g S(gamma)^(-1) g^t) != 0.

    Reads the (i, j) level records of `integrator.orbit_strata`, the walk
    the pipeline integrates over: the det-valuation support forces i,
    integrality bounds the b level j, a dead level is one stratum with the
    prefilter's reason, and a live level is one stratum per class of b
    that y mod pi^`data.residue_level` sees.  A live class is settled by
    exact enumeration of kappa mod pi^2 (`_kappa_witness`), which is
    exhaustive over all of K on both parities (see
    `CuspidalData.kappa_average`) and reads y only mod pi^2, the same for
    every coset of the class.  The class representative (the first digits
    of b, then zeros) is the lexicographically first coset of its class,
    so the first witness is the lexicographic one; its `b` is padded with
    zeros to `b_level` digits.

    Every live class holds a witness, so the first live class ends the
    scan.  A live record has an integral, upper-triangular y =
    pi^i [[x0, b(x0 + x1)], [0, x1]] with ord det y in {0, 1} and
    y00 = y11 mod p (the prefilter).  Both diagonal entries are
    integral, so ord det y = 1 would make their valuations 0 and 1 and
    y00 - y11 a unit.  Hence ord det y = 0, both are units, and
    y = [[r, z], [0, r]] mod pi with r != 0.  That passes f's support
    test at parity 0 (`_f_on_residues`), so f(y) != 0 and kappa = 1 is a
    witness.  `kappa_level` is `data.residue_level` once a live stratum
    was scanned, 0 otherwise."""
    ctx = data.ctx
    x = _preimage_inverse(gamma, form)
    regime = _classify_regime(ctx, gamma.alpha)
    strata: list[ScanStratum] = []
    witness = None
    kappa_level = 0
    for c in orbit_strata(data, form, x):
        if c.dead is not None:
            strata.append(ScanStratum(c.i, c.j, c.digits, c.dead))
            continue
        kappa_level = data.residue_level
        kap = _kappa_witness(data, c.y)
        strata.append(ScanStratum(c.i, c.j, c.digits, "witness"))
        gw = kap * c.g0
        witness = {
            "i": c.i,
            "b_level": c.j,
            "b": list(c.digits) + [0] * (c.j - len(c.digits)),
            "kappa": kap.to_digit_lists(4),
            "value": data.f(gw * x * vdash(gw, form)).to_json(),
        }
        break
    if witness is None and regime == "alpha-unit-even":
        regime_out = "even-none"
    elif witness is None:
        regime_out = regime
    else:
        regime_out = regime + "-witness"
    return ScanReport(regime_out, witness, strata, kappa_level)


def _kappa_witness(data: CuspidalData, y: Mat) -> Mat:
    """First kappa mod pi^2 (lexicographic digit order) with
    f(kappa y kappa^t) != 0, for the y of a live `orbit_strata` record:
    kappa = 1 is one (`support_scan`), so the search ends."""
    ctx = data.ctx
    ring = ResidueRing(ctx, data.residue_level)
    y_res = _residues(ring, y)
    parity = y.det().val % 2
    rows = ((k, _f_on_residues(ring, _twist(ring, k, y_res), parity)[0])
            for k in iter_gl2(ring.s, ring))
    k, mask = next((k, mask) for k, mask in rows if mask.any())
    a, b, c, d = (_lift(ring, z[np.argmax(mask)]) for z in k)
    return Mat(ctx, [[a, b], [c, d]])


def _lift(ring: ResidueRing, coeff_vec) -> Elem:
    return Elem(ring.ctx, 0, tuple(int(v) for v in coeff_vec), False)
