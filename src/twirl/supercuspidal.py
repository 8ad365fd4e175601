"""The ramified-induction test function on GL_2(F): subgroup filtration
K > I_0 > I_1 > I_2, the compact support C = O_E^x I_1 {1, pi_E} for
E = F(sqrt(pi)), the level character on I_1, the matrix coefficient psi,
and the cut-off f = psi * 1_C.

pi_E is realized inside M_2(F) as [[0,1],[pi,0]], so pi_E^2 = pi and the
trace entering the level character is F-valued: for g = 1 + [[a,b],[c,d]]
the character value is Lambda_1(b + c/pi).
"""

from __future__ import annotations

from .cyclotomic import CharacterValue
from .errors import DomainError
from .integrator import _preimage_inverse, orbit_strata
from .localfield import INF, Elem, LocalFieldCtx, additive_char
from .matlattice import Mat
from .matlattice import vdash  # unused; a tracer lookup point of perfbench/spans.py
from .ringvec import ResidueRing, iter_gl2
from .twisted import norm_preimage  # unused; a tracer lookup point of perfbench/spans.py


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
    if level in ("K", "I0"):
        if min(a.val, b.val, c.val, d.val) < 0:  # not integral
            return False
        if level == "K":
            return g.det().val == 0
        return a.val == 0 and d.val == 0 and c.val >= 1
    if level == "I1":
        return ((a - one).val >= 1 and b.val >= 0 and c.val >= 1
                and (d - one).val >= 1)
    if level == "I2":
        return ((a - one).val >= 2 and b.val >= 1 and c.val >= 2
                and (d - one).val >= 2)
    raise ValueError(f"unknown level {level!r}")


def level_character(g: Mat) -> CharacterValue:
    """The I_2-invariant character of I_1 given by the trace pairing with
    pi_E^(-1): value Lambda_1(b + c/pi)."""
    if not member(g, "I1"):
        raise DomainError("character argument must lie in I1")
    arg = g.rows[0][1] + g.rows[1][0].shift(-1)
    return additive_char(arg)


class CuspidalData:
    """Inducing data: E = F(sqrt(pi)) embedded via pi_E = [[0,1],[pi,0]],
    inducing compact fixed to I_1, central character trivial.  For p = 2 the
    construction requires 2 in pi^2, i.e. ramification degree >= 2.
    `kappa_vanishes` is p != 2: at odd p every K-average is 0, by the
    argument in `kappa_average`, and the integrator reads it to skip the
    G/T levels whose K-averages it would only add as 0."""

    __slots__ = ("ctx", "kappa_vanishes", "_avg_cache", "_table")

    def __init__(self, ctx: LocalFieldCtx):
        if ctx.p == 2 and ctx.e < 2:
            raise DomainError("even residue characteristic needs 2 in pi^2")
        self.ctx = ctx
        self.kappa_vanishes = ctx.p != 2
        self._avg_cache: dict = {}
        self._table: PassTable | None = None

    # -- pointwise evaluation -------------------------------------------------

    def psi(self, g: Mat) -> CharacterValue:
        """Matrix coefficient: extension by zero of the character on
        E^x I_1.  Factors g = pi_E^j * (unit lift) * h deterministically;
        the value is independent of the chosen unit lift."""
        ctx = self.ctx
        d = g.det()
        if d.val is INF:
            return CharacterValue.zero(ctx.p)
        j = d.val
        gp = pi_e_inverse_power(ctx, j) * g
        for r in range(1, ctx.p):
            h = gp.scale(ctx.from_int(r).inverse())
            if member(h, "I1"):
                return level_character(h)
        return CharacterValue.zero(ctx.p)

    def f(self, g: Mat) -> CharacterValue:
        """f = psi * 1_C, C = O_E^x I_1 {1, pi_E} = C_0 u pi_E C_0 with
        C_0 = F_p^x I_1: psi where ord det g is 0 or 1, and 0 elsewhere.
        At j = ord det g, psi searches for r with pi_E^(-j) g / r in I_1,
        the membership test of C_0 (j = 0) or pi_E C_0 (j = 1), so
        1_C(g) = [ord det g in {0, 1}] [psi(g) != 0]."""
        if g.det().val not in self.detval_support:
            return CharacterValue.zero(self.ctx.p)
        return self.psi(g)

    # -- support and locality metadata used by the integrator -----------------

    detval_support = frozenset((0, 1))
    # f reads its argument only mod pi^residue_level (`kappa_average`)
    residue_level = 2

    def support_prefilter(self, y00: Elem, y11: Elem) -> str | None:
        """Necessary conditions for some K-twisted conjugate of y =
        diag(y00, y11) to meet the support; returns a reason string when
        the stratum is dead.  The runtime asks only about diagonal y
        (b = 0 in `orbit_strata`, and the patterns of
        `_certify_noncompact`).  It reads y only through its integrality,
        ord det y = ord y00 + ord y11 and y mod pi, which the noncompact
        proof of `integrator.torus_strata` needs: y is eps-symmetric mod
        pi when y11 - y00 is 0 mod pi, the one pair of entries the
        orthogonal vdash moves.

        The det-valuation reason is kept as the integrand's own contract,
        though no run reaches it: `orbit_strata` forces i so that ord
        det y lies in `detval_support` before it asks, and
        `_certify_noncompact` asks only about y of such ord det.  The
        proof leans on `detval_support`, and this reason keeps the
        prefilter true to it for a caller that does not force i first;
        `test_support_prefilter_reasons` calls it on such a y."""
        v0, v1 = y00.val, y11.val
        if v0 < 0 or v1 < 0:
            return "not integral"
        if v0 + v1 not in self.detval_support:
            return "det valuation outside {0,1}"
        if not (y11 - y00).divisible_by(1):
            return "not eps-symmetric mod p"
        return None

    # -- exact averaged evaluation over K --------------------------------------

    def kappa_average(self, key) -> CharacterValue:
        """Exact integral over kappa in K = GL_2(O) of f(kappa y kappa^vdash)
        with vol(K) = 1, for integral y and the orthogonal twist, at the
        key of y: the digit tuples of its entries mod pi^residue_level
        and the parity of ord det y (`Coset.key`).

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
        - Reading the key's digits.  The key holds y = y0 + pi y1 mod
          pi^2, y0 and y1 the integer vectors of the entries' first and
          second digits.  k is a row of digits, so T_k has integer
          entries, and X = T_k y0 + pi T_k y1 mod pi^2 with N = T_k y0 an
          integer vector.  So X mod pi is N mod p.  Where X = 0 mod pi, p
          divides N, and N = p (N div p) = pi (p/pi) (N div p), so
          X/pi = T_k y1 + (N div p)(p/pi) mod pi, which reads p/pi only
          mod pi.  ord(p/pi) = e - 1, so p/pi mod pi is 0 unless e = 1.
          At e = 1 the carry (N div p)(p/pi mod pi) is part of the
          counts: at odd p it decides which parity-1 rows pass
          t = 0 mod pi (at p = 3, y = [[1, 2], [2, 1]] has y1 = 0, so
          x10/pi is the carry alone, and without it no parity-1 row
          passes).  It moves no value at odd p, where every kept row
          spreads evenly (below), and it would move an exponent at
          p = 2, e = 1, a field this integrand refuses.  The tests hold
          the counts, carry included, to the enumeration at p = 2, 3 and
          5 over x - p.
        - So a miss is one pass over GL_2(O/pi) with a few integer
          operations per row (`_coset_counts`), and the orbit is never
          listed; the counts are those of f over GL_2(O/pi) x W.

        At odd p the value is therefore 0 for every y (`kappa_vanishes`),
        and it is returned without a pass; `_kappa_average_coset` is the
        pass, run at p = 2 and kept as the tests' odd-p check of that
        zero.  At p = 2 the value depends only on y mod pi^2 and the
        parity of ord det y, which is the key: the G/T walk reads it off
        each `orbit_strata` record without building y.  A miss runs the
        pass in plain integers on the digits of the key, over the
        GL_2(F_p) rows of the integrand's `PassTable`.  The test oracle
        `kappa_average_oracle` (`tests/kappa_oracle.py`) enumerates all of
        GL_2(O/pi^level) instead, and the tests hold the two equal."""
        if self.kappa_vanishes:
            return CharacterValue.zero(self.ctx.p)
        got = self._avg_cache.get(key)
        if got is None:
            got = self._kappa_average_coset(*key)
            self._avg_cache[key] = got
        return got

    def _kappa_average_coset(self, digits, parity: int) -> CharacterValue:
        """The pass `_coset_counts` for the y whose entries have the
        digit tuples `digits` mod pi^2, over the integrand's `PassTable`,
        which the first pass builds and every later one reads."""
        if self._table is None:
            self._table = pass_table(ResidueRing(self.ctx,
                                                 self.residue_level))
        counts, total = _coset_counts(self._table, digits, parity)
        return CharacterValue.from_exponent_counts(self.ctx.p, counts, total)


# -- the K-average pass over GL_2(F_p) ------------------------------------------
#
# Plain integers: y mod pi^2 is the digit tuples (y0, y1) of its key, k in
# GL_2(F_p) a digit row (a, b, c, d) of the `PassTable`, and every other
# quantity an integer read mod p (`CuspidalData.kappa_average`).  The
# enumeration of f over all of GL_2(O/pi^level), the pass's oracle, is in
# `tests/kappa_oracle.py`.


def _support_mod_pi(x, parity: int):
    """The part of f's support test that reads X mod pi only, on the
    entries (x00, x01, x10, x11) of X mod pi (ints, or arrays for a mask):
    it holds wherever f is nonzero (the mask of the oracle's
    `_f_on_residues`).  Parity 0 needs x00 != 0, x10 = 0 and x11 = x00;
    parity 1 needs x00 = x10 = x11 = 0 and x01 != 0.  The parity-1 return
    runs only in the tests: every key a CLI run passes has parity 0, for
    the reason `_coset_counts` gives."""
    x00, x01, x10, x11 = x
    if parity:
        return (x00 == 0) & (x10 == 0) & (x11 == 0) & (x01 != 0)
    return (x00 != 0) & (x10 == 0) & (x11 == x00)


class PassTable:
    """What the K-average pass reads of O/pi^2, in plain ints: p, p/pi
    mod pi (0 unless e = 1), and the digit rows (a, b, c, d) of GL_2(F_p)
    in the order of `iter_gl2`."""

    __slots__ = ("p", "pop", "rows")

    def __init__(self, p: int, pop: int, rows: list):
        self.p = p
        self.pop = pop
        self.rows = rows


def pass_table(ring: ResidueRing) -> PassTable:
    """The `PassTable` of `ring`, its rows read once from
    `iter_gl2(ring)`: a level-1 entry has the digit as its coefficient
    at pi^0.  p/pi mod pi is the coefficient of p/pi at pi^0, mod p."""
    rows = [row for chunk in iter_gl2(ring)
            for row in zip(*(z[:, 0].tolist() for z in chunk))]
    return PassTable(ring.p, int(ring.p_over_pi[0]) % ring.p, rows)


def _kept_rows(table: PassTable, digits, parity: int):
    """The kept rows of one pass over the digit rows k = (a, b, c, d) of
    GL_2(F_p), in the order of `iter_gl2`, for the y whose digit
    tuples mod pi^2 are `digits` (the key's).  X = k y k^vdash is T_k y,
    with T_k the 4 x 4 matrix of v -> k v k^vdash on v = (v00, v01, v10,
    v11); N = T_k y0 is the integer vector of the first digits y0, X = N
    mod pi, and the row is kept when N mod p passes `_support_mod_pi`.  A
    kept row is (T_k, N)."""
    p = table.p
    y00, y01, y10, y11 = (z[0] for z in digits)
    kept = []
    for a, b, c, d in table.rows:
        t = ((a * d, a * c, b * d, b * c), (a * b, a * a, b * b, a * b),
             (c * d, c * c, d * d, c * d), (b * c, a * c, b * d, a * d))
        n = [u0 * y00 + u1 * y01 + u2 * y10 + u3 * y11
             for u0, u1, u2, u3 in t]
        if _support_mod_pi([v % p for v in n], parity):
            kept.append((t, n))
    return kept


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _image_span(y0, p: int):
    """The images L_y(E) = E y + y E^vdash mod pi of the matrix units E00,
    E01, E10, E11, as vectors (v00, v01, v10, v11) mod p; they span
    Im L_y.  y0 is y mod pi as four residues."""
    y00, y01, y10, y11 = y0
    tr = y00 + y11
    return [[v % p for v in w]
            for w in ((y00, 2 * y01, 0, y11), (y10, tr, 0, y10),
                      (y01, 0, tr, y01), (y00, 0, 2 * y10, y11))]


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


def _coset_counts(table: PassTable, digits, parity: int):
    """(Lambda_1 exponent counts as a list, rows) of f over GL_2(O/pi) x
    (y + pi Im L_y), for the y whose digit tuples mod pi^2 are `digits`,
    as the character sums of `CuspidalData.kappa_average`.  Each row that
    `_kept_rows` keeps (and, at parity 1, whose t = x01 - x10/pi is 0 mod
    pi) adds |W| to one exponent when the linear form h (parity 0: l_k,
    the row of T_k for V10; parity 1: mu_k, the sum of the rows for V00
    and V11) vanishes on the span of W = Im L_y, and |W|/p to every
    exponent otherwise.  The exponent is s/r mod p; s needs the entries
    X/pi mod pi, T_k y1 + (N div p)(p/pi mod pi) (`div_pi`).

    A CLI run reaches only parity 0 with no spread.  Every live
    `orbit_strata` record has ord det y = 0, by `support_scan`'s
    argument, so every key a run passes has parity 0; and the pass runs
    only at p = 2 (`kappa_vanishes`), where h vanishes on W for every
    kept row (`CuspidalData.kappa_average`).  The parity-1 body and the
    spread serve the pass's contract on any integral y, at any p, which
    the tests hold to the enumeration of `tests/kappa_oracle.py`."""
    p, pop = table.p, table.pop
    y1 = [z[1] for z in digits]

    def div_pi(t_row, n):
        """X_ij / pi mod pi for X_ij = 0 mod pi, from its row of T_k and
        its entry n of N = T_k y0."""
        return _dot(t_row, y1) + (n // p) * pop

    span = _image_span([z[0] for z in digits], p)
    size = p ** _rank_mod_p(span, p)
    counts = [0] * p
    spread = 0
    for t, x in _kept_rows(table, digits, parity):
        if parity:
            r = x[1] % p
            if (div_pi(t[2], x[2]) - r) % p:
                continue
            h = [u + v for u, v in zip(t[0], t[3])]
            s = div_pi(t[0], x[0]) + div_pi(t[3], x[3])
        else:
            r = x[0] % p
            h = t[2]
            s = x[1] + div_pi(t[2], x[2])
        if any(_dot(h, w) % p for w in span):
            spread += 1
        else:
            counts[s * pow(r, -1, p) % p] += size
    return [n + spread * (size // p) for n in counts], len(table.rows) * size


# -- support scanning ----------------------------------------------------------


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


def support_scan(data: CuspidalData, alpha: Elem) -> dict:
    """Search for g = kappa n_b a_i with f(g S(gamma)^(-1) g^vdash) != 0,
    and return the report: `regime`, `witness`, `strata_searched` and
    `kappa_level`.

    Reads the (i, j) level records of `integrator.orbit_strata`, the walk
    the pipeline integrates over: the det-valuation support forces i,
    integrality bounds the b level j, a dead level is one record with the
    prefilter's reason, and a live level is one record per class of b
    that y mod pi^`data.residue_level` sees.  `strata_searched` lists each
    record read, in order, as its i, its j as `b_level`, its digits as
    `b` and `dead or "witness"` as its verdict.  The first live record
    ends the scan with the witness below, which is proved here, so a scan
    evaluates neither f nor a K-average.

    - The first live record.  A live record has an integral,
      upper-triangular y = pi^i [[x0, b(x0 + x1)], [0, x1]] with ord det
      y in {0, 1} and y00 = y11 mod p (the prefilter).  Both diagonal
      entries are integral, so ord det y = 1 would make their valuations
      0 and 1 and y00 - y11 a unit.  Hence ord det y = 0, both are units,
      and y = [[r, z], [0, r]] mod pi with r != 0 passes f's support test
      at parity 0 (`_support_mod_pi`): every live class holds a witness,
      and the first ends the scan.  The prefilter reads only the
      diagonal, so at a forced i its verdict holds for every j, and
      `orbit_strata` lists j = 0 first, as one class with b = 0.  So the
      first live record has j = 0, b = () and y = diag(y00, y11) with
      y00 = y11 != 0 mod pi.
    - Kappa.  f reads its argument mod pi^2 (`CuspidalData.kappa_average`),
      so the first kappa mod pi^2 with f(kappa y kappa^vdash) != 0, in the
      digit order of GL_2(O/pi^2), stands for all of K.  At parity 0 f's
      support test is `_support_mod_pi`, which reads kappa mod pi only,
      and f is a root of unity on its support; the order lists the
      single-digit lifts first, so the witness is the lift of the first
      row of GL_2(F_p) that passes.  The first row of GL_2(F_p) in
      lexicographic order is w = [[0, 1], [1, 0]], and w^vdash = w, so
      w y w^vdash = diag(y11, y00), which passes.  So kappa = w, whatever
      p and e; its entries are printed as `Mat.to_digit_lists(4)` prints
      them, (None, ()) for 0 and (0, (1, 0, 0, 0)) for 1.
    - The value.  diag(y11, y00) / r lies in I_1 for r = y11 mod pi, so
      f(diag(y11, y00)) = Lambda_1(0) = 1 = zeta_p^0.
    - Every unit alpha at p = 2 has a witness, so its regime is
      `alpha-unit-even-witness`.  The residue field is F_2, so alpha != 1
      has t = ord(alpha - 1) >= 1, and ord det x = -2t, so the support's
      ord det 0 forces i = t.
      There y00 = pi^t x0 and y11 = -alpha y00 are units, and y11 - y00 =
      -(alpha + 1) y00 lies in pi O, as alpha + 1 = (alpha - 1) + 2.  So
      y is integral of ord det 0 and y11 = y00 mod pi: the prefilter
      keeps it, and the record (t, 0) is live.

    The tests hold this witness to the per-coset scan, which enumerates
    GL_2(O/pi^2) and evaluates f by `Mat` products.  `kappa_level` is
    `data.residue_level`, the level mod which kappa is the first witness,
    once a live stratum was scanned, else 0."""
    ctx = data.ctx
    x0, x1 = _preimage_inverse(alpha)
    regime = _classify_regime(ctx, alpha)
    searched, witness, kappa_level = [], None, 0
    for c in orbit_strata(data, x0, x1):
        searched.append({"i": c.i, "b_level": c.j, "b": list(c.digits),
                         "verdict": c.dead or "witness"})
        if c.dead is None:
            kappa_level = data.residue_level
            zero, one = (None, ()), (0, (1, 0, 0, 0))
            witness = {"i": c.i, "b_level": 0, "b": [],
                       "kappa": [[zero, one], [one, zero]],
                       "value": CharacterValue.root(ctx.p, 0).to_json()}
            break
    if witness is not None:
        regime += "-witness"
    return {"regime": regime, "witness": witness,
            "strata_searched": searched, "kappa_level": kappa_level}
