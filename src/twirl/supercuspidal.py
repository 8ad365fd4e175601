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
from .integrator import coset_strata
from .localfield import INF, Elem, LocalFieldCtx, additive_char
from .matlattice import GroupForm, Mat, mat_ord, vdash
from .ringvec import ResidueRing, iter_gl2
from .twisted import TorusElem, is_eps_symmetric, norm_preimage

LEVELS = ("K", "I0", "I1", "I2", "C0", "C")


def pi_e_matrix(ctx: LocalFieldCtx) -> Mat:
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[z, o], [o.shift(1), z]])


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

    def kappa_average(self, y: Mat, form: GroupForm) -> CharacterValue:
        """Exact integral over kappa in K = GL_2(O) of f(kappa y kappa^vdash)
        with vol(K) = 1, for integral y and the orthogonal twist.

        Why one level and GL_2(O/pi) x (y + pi Im L_y) suffice:
        - f(X) depends only on X mod pi^2 once the parity of ord det X is
          fixed: the support tests are congruences mod pi (after
          X -> pi_E^(-1) X on the odd piece, which reads X mod pi^2), and
          Lambda_1(b + c/pi) has the maximal ideal as its kernel.  So the
          integral is the mean over kappa in GL_2(O/pi^2), on both pieces.
        - Each kappa mod pi^2 is k n with k the digit lift of kappa mod pi
          and n = 1 + pi A in the kernel N of reduction mod pi, and
          n y n^vdash = y + pi L_y(A) mod pi^2, where
          L_y(A) = A y + y A^vdash mod pi is F_p-linear in A.
        - So the N-orbit of y mod pi^2 is the affine set y + pi Im L_y,
          every point of it hit |ker L_y| times, and the integral is the
          mean of f(k (y + pi v) k^vdash) over k in GL_2(O/pi) (digit
          lifts) and v in Im L_y.

        The value depends only on y mod pi^2 and the parity of ord det y,
        which is the cache key.  `kappa_average_oracle` enumerates all of
        GL_2(O/pi^level) instead, and the tests hold the two equal."""
        if form.kind != "orthogonal":
            raise DomainError("kappa_average implements the orthogonal twist "
                              f"only, not {form.kind!r}")
        parity = y.det().val % 2
        key = (y.residue_key(2), parity)
        got = self._avg_cache.get(key)
        if got is None:
            got = self._kappa_average_coset(y, parity)
            self._avg_cache[key] = got
        return got

    def _kappa_average_coset(self, y: Mat, parity: int) -> CharacterValue:
        p = self.p
        ring = ResidueRing(self.ctx, 2)
        y_orbit = _n_orbit(ring, _residues(ring, y))
        counts = np.zeros(p, dtype=np.int64)
        total = 0
        # one chunk per residue of kappa_00 keeps memory flat in p
        for k in iter_gl2(1, ring):
            k = tuple(z[:, None, :] for z in k)
            total += _count_f(ring, k, y_orbit, parity, counts)
        return _mean(p, counts, total)

    def kappa_average_oracle(self, y: Mat, level: int) -> CharacterValue:
        """The same integral by enumerating all of GL_2(O/pi^level),
        orthogonal twist; any level >= 2 gives the exact value.  Kept as
        the test oracle for `kappa_average`."""
        ring = ResidueRing(self.ctx, level)
        y_res = _residues(ring, y)
        parity = y.det().val % 2
        counts = np.zeros(self.p, dtype=np.int64)
        total = 0
        for k in iter_gl2(level, ring):
            total += _count_f(ring, k, y_res, parity, counts)
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


def _n_orbit(ring: ResidueRing, y):
    """The orbit y + pi Im L_y of y mod pi^2 under y -> n y n^vdash,
    n in 1 + pi M_2(O), one row per point.  Im L_y is found by applying
    L_y(A) = A y + y A^vdash mod pi to all p^4 matrices A mod pi; no rank
    is assumed."""
    p = ring.p
    a = tuple(ring.from_digit_grid(1)[i]
              for i in np.indices((p,) * 4).reshape(4, -1))
    image = zip(_mat_mul(ring, a, y), _mat_mul(ring, y, _vdash(a)))
    image = np.unique(np.stack([ring.residue_mod_p(ring.add(u, v))
                                for u, v in image]), axis=1)
    pi = ring.pi_pows[1]
    return tuple(ring.add(y_ij, (v_ij[:, None] * pi) % ring.pm)
                 for y_ij, v_ij in zip(y, image))


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
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    arg = ring.residue_mod_p(ring.add(x01, ring.div_pi(x10)))
    return mask, (arg * inv[r]) % p


def _count_f(ring: ResidueRing, k, y_res, parity: int, counts) -> int:
    """Add the Lambda_1 exponents of f(k Y k^vdash) over the rows of k to
    `counts`; return the number of rows."""
    mask, exps = _f_on_residues(ring, _twist(ring, k, y_res), parity)
    counts += np.bincount(exps[mask], minlength=ring.p)
    return mask.size


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


def support_scan(data: CuspidalData, form: GroupForm, gamma: TorusElem,
                 b_window: int = 12) -> ScanReport:
    """Search for g = kappa n_b a_i with f(g S(gamma)^(-1) g^t) != 0.

    Walks every (i, b) coset stratum (`integrator.coset_strata`, no
    deduplication, so the first witness is the lexicographic one); the
    det-valuation parity forces i, integrality bounds the b level, and a
    bound beyond `b_window` raises TailNonzero.  The prefilters are
    kappa-free.  Surviving strata are settled by exact enumeration of
    kappa mod pi^2, which is exhaustive over all of K on both parities
    (see `CuspidalData.kappa_average`).  In practice every live stratum
    has ord det y = 0: y = pi^i [[x0, b(x0 + x1)], [0, x1]] for diagonal
    x, so an integral y with ord det y = 1 has {ord y00, ord y11} = {0, 1},
    y00 - y11 is a unit, and the prefilter finds y not eps-symmetric mod p.
    `kappa_level` is 2 once a live stratum was scanned, 0 otherwise."""
    ctx = data.ctx
    x = norm_preimage(gamma, form).inverse()
    regime = _classify_regime(ctx, gamma.alpha)
    strata: list[ScanStratum] = []
    witness = None
    kappa_level = 0
    for c in coset_strata(data, form, x, b_window, dedup=False):
        if c.dead is not None:
            strata.append(ScanStratum(c.i, c.j, c.digits, c.dead))
            continue
        kappa_level = 2
        kap = _kappa_witness(data, c.y)
        if kap is None:
            strata.append(ScanStratum(c.i, c.j, c.digits, "kappa scan empty"))
            continue
        strata.append(ScanStratum(c.i, c.j, c.digits, "witness"))
        gw = kap * c.g0
        witness = {
            "i": c.i,
            "b_level": c.j,
            "b": list(c.digits),
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


def _kappa_witness(data: CuspidalData, y: Mat) -> Mat | None:
    """First kappa mod pi^2 (lexicographic digit order) with
    f(kappa y kappa^t) != 0, or None if there is none."""
    ctx = data.ctx
    ring = ResidueRing(ctx, 2)
    y_res = _residues(ring, y)
    parity = y.det().val % 2
    for k in iter_gl2(2, ring):
        mask, _ = _f_on_residues(ring, _twist(ring, k, y_res), parity)
        idx = np.flatnonzero(mask)
        if idx.size:
            a, b, c, d = (_lift(ring, z[idx[0]]) for z in k)
            return Mat(ctx, [[a, b], [c, d]])
    return None


def _lift(ring: ResidueRing, coeff_vec) -> Elem:
    return Elem(ring.ctx, 0, tuple(int(v) for v in coeff_vec), False)
