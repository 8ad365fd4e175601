"""Matrices over F, norms and valuations, the standard lattices
pi^(-i) M_n(O), the defining forms, the twisted transpose, and Iwasawa
coordinates on GL_2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrecisionExhausted, RelationViolated, Singular
from .localfield import INF, Elem, LocalFieldCtx


class Mat:
    """Square matrix with Elem entries sharing one context."""

    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx: LocalFieldCtx, rows):
        self.ctx = ctx
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ints(ctx: LocalFieldCtx, rows) -> "Mat":
        return Mat(ctx, [[ctx.from_rational(x) for x in r] for r in rows])

    @staticmethod
    def identity(ctx: LocalFieldCtx, n: int) -> "Mat":
        z, o = ctx.zero(), ctx.one()
        return Mat(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(ctx: LocalFieldCtx, n: int) -> "Mat":
        z = ctx.zero()
        return Mat(ctx, [[z] * n for _ in range(n)])

    @staticmethod
    def diag(ctx: LocalFieldCtx, entries) -> "Mat":
        n = len(entries)
        z = ctx.zero()
        return Mat(ctx, [[entries[i] if i == j else z for j in range(n)]
                         for i in range(n)])

    @staticmethod
    def random(ctx: LocalFieldCtx, n: int, rng, vmin: int = -2, vmax: int = 3,
               invertible: bool = True) -> "Mat":
        while True:
            m = Mat(ctx, [[ctx.random_elem(rng, vmin, vmax) for _ in range(n)]
                          for _ in range(n)])
            if not invertible:
                return m
            try:
                if m.det().val is not INF:
                    return m
            except PrecisionExhausted:
                continue

    @staticmethod
    def random_integral(ctx: LocalFieldCtx, n: int, rng,
                        unit_det: bool = False) -> "Mat":
        while True:
            m = Mat(ctx, [[ctx.random_elem(rng, 0, 4) for _ in range(n)]
                          for _ in range(n)])
            d = m.det().val
            if d is INF:
                continue
            if not unit_det or d == 0:
                return m

    # -- basics ---------------------------------------------------------------

    def column(self, j):
        return [self.rows[i][j] for i in range(self.n)]

    def __mul__(self, other: "Mat") -> "Mat":
        n = self.n
        z = self.ctx.zero()
        out = [[z] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                a = self.rows[i][k]
                if a.is_zero():
                    continue
                for j in range(n):
                    b = other.rows[k][j]
                    if not b.is_zero():
                        out[i][j] = out[i][j] + a * b
        return Mat(self.ctx, out)

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(self.ctx, [[a + b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.ctx, [[a - b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat(self.ctx, [[-a for a in r] for r in self.rows])

    def scale(self, s: Elem) -> "Mat":
        return Mat(self.ctx, [[s * a for a in r] for r in self.rows])

    def shift(self, k: int) -> "Mat":
        """Multiply by pi^k (exact)."""
        return Mat(self.ctx, [[a.shift(k) for a in r] for r in self.rows])

    def transpose(self) -> "Mat":
        return Mat(self.ctx, [[self.rows[j][i] for j in range(self.n)]
                              for i in range(self.n)])

    def det(self) -> Elem:
        n = self.n
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            (a, b), (c, d) = self.rows
            if b.is_zero() or c.is_zero():
                return a * d
            return a * d - b * c
        if n == 3:
            a = self.rows
            return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                    - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                    + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        det, _ = self._gauss()
        return det

    def _gauss(self):
        """Gaussian elimination with minimal-valuation pivoting.
        Returns (det, inverse) where inverse is None for singular input."""
        n = self.n
        ctx = self.ctx
        a = [[x for x in r] for r in self.rows]
        inv = Mat.identity(ctx, n).rows
        det = ctx.one()
        for col in range(n):
            piv, pv = None, INF
            for r in range(col, n):
                v = a[r][col].val
                if v < pv:
                    piv, pv = r, v
            if piv is None or pv is INF:
                return ctx.zero(), None
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                inv[col], inv[piv] = inv[piv], inv[col]
                det = -det
            p = a[col][col]
            det = det * p
            pinv = p.inverse()
            a[col] = [pinv * x for x in a[col]]
            inv[col] = [pinv * x for x in inv[col]]
            for r in range(n):
                if r == col:
                    continue
                f = a[r][col]
                if f.is_zero():
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return det, Mat(ctx, inv)

    def inverse(self) -> "Mat":
        if self.n == 2:
            d = self.det()
            if d.val is INF:
                raise Singular("matrix is singular")
            di = d.inverse()
            a, b = self.rows[0]
            c, e = self.rows[1]
            return Mat(self.ctx, [[di * e, -(di * b)], [-(di * c), di * a]])
        det, inv = self._gauss()
        if inv is None:
            raise Singular("matrix is singular")
        return inv

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return all(a == b for r, s in zip(self.rows, other.rows)
                   for a, b in zip(r, s))

    def __hash__(self):
        return hash(tuple(a._key() for r in self.rows for a in r))

    def residue_key(self, m: int):
        """Digit tuples of all entries mod pi^m (entries must be integral)."""
        return tuple(a.residue_digits(m) for r in self.rows for a in r)

    def to_digit_lists(self, count: int = 8):
        return [[(x.val, x.unit_digits(count)) if x.val is not INF else (None, ())
                 for x in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


# -- norms and lattices --------------------------------------------------------


def mat_ord(x: Mat):
    """ord(X) = min over entries; -log_q of the max-entry norm."""
    best = INF
    for r in x.rows:
        for a in r:
            v = a.val
            if v < best:
                best = v
    return best


def gnorm(g: Mat) -> Fraction:
    """||g|| = max(|g|, |det g|^(-1)) as an exact power of q."""
    d = g.det()
    if d.val is INF:
        raise Singular("gnorm needs an invertible matrix")
    expo = max(-mat_ord(g), d.val)
    return Fraction(g.ctx.q) ** expo


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice pi^(-i) M_n(O); stable under GL_n(O) on both sides."""

    i: int

    def contains(self, x: Mat) -> bool:
        return mat_ord(x) >= -self.i


def lattice_ord(lat: LatticeSpec) -> int:
    return -lat.i


def scaled_lattice_ord(g: Mat, lat: LatticeSpec, h: Mat | None = None):
    """ord(g L h) computed from the images of the matrix-unit generators."""
    ctx = g.ctx
    n = g.n
    best = INF
    for r in range(n):
        for s in range(n):
            gen = Mat.zero(ctx, n)
            gen.rows[r][s] = ctx.pi(-lat.i)
            img = g * gen if h is None else g * gen * h
            v = mat_ord(img)
            if v < best:
                best = v
    return best


def scaled_lattice_ord_star(g: Mat, lat: LatticeSpec, h: Mat | None = None):
    """ord_*(g L h) = min { i : pi^i M_n(O) inside g L h }, computed by
    pulling the matrix-unit generators back through g and h."""
    gi = g.inverse()
    hi = None if h is None else h.inverse()
    ctx = g.ctx
    n = g.n
    worst = -10 ** 9
    for r in range(n):
        for s in range(n):
            gen = Mat.zero(ctx, n)
            gen.rows[r][s] = ctx.one()
            img = gi * gen if hi is None else gi * gen * hi
            # pi^i gen lands in L iff i + mat_ord(img) >= -lat.i
            need = -lat.i - mat_ord(img)
            if need > worst:
                worst = need
    return worst


# -- forms and the twisted transpose -------------------------------------------


def antidiag_w(ctx: LocalFieldCtx, n: int) -> Mat:
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[o if i + j == n - 1 else z for j in range(n)]
                     for i in range(n)])


def antidiag_u(ctx: LocalFieldCtx, n: int) -> Mat:
    """The alternating antidiagonal form, sign (-1)^(n-i) in row i."""
    if n % 2 != 0:
        raise ValueError("alternating form needs even size")
    z = ctx.zero()
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1 - i] = ctx.from_int((-1) ** (n - i))
    return Mat(ctx, rows)


@dataclass(frozen=True)
class GroupForm:
    """Form data (J, w) defining the twisted transpose and the group H.
    `split` is decided once: the 2x2 orthogonal form with J = w, where
    w J^(-1) = 1 and `norm_preimage` is closed-form."""

    kind: str  # "orthogonal" | "symplectic"
    n: int
    J: Mat
    w: Mat  # always antidiag_w(ctx, n); `vdash` relies on it
    split: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.w == antidiag_w(self.J.ctx, self.n):
            raise ValueError("w must be the antidiagonal antidiag_w")
        jt = self.J.transpose()
        if self.kind == "orthogonal":
            if not jt == self.J:
                raise ValueError("orthogonal form must be symmetric")
        elif self.kind == "symplectic":
            if not jt == -self.J:
                raise ValueError("symplectic form must be antisymmetric")
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if self.J.det().val is INF:
            raise Singular("form matrix must be invertible")
        object.__setattr__(self, "split", self.kind == "orthogonal"
                           and self.n == 2 and self.J == self.w)


def orthogonal_form(ctx: LocalFieldCtx, n: int, lam: Mat | None = None) -> GroupForm:
    """J of size n built from a 2x2 invertible symmetric block, with
    antidiagonal corners; the default block is split ([[0,1],[1,0]])."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    if lam is None:
        lam = antidiag_w(ctx, 2)
    i = (n - 2) // 2
    z = ctx.zero()
    rows = [[z] * n for _ in range(n)]
    for r in range(i):
        rows[r][n - 1 - r] = ctx.one()
        rows[n - 1 - r][r] = ctx.one()
    for r in range(2):
        for c in range(2):
            rows[i + r][i + c] = lam.rows[r][c]
    return GroupForm("orthogonal", n, Mat(ctx, rows), antidiag_w(ctx, n))


def symplectic_form(ctx: LocalFieldCtx, n: int) -> GroupForm:
    u = antidiag_u(ctx, n)
    return GroupForm("symplectic", n, u, antidiag_w(ctx, n))


def vdash(g: Mat, form: GroupForm) -> Mat:
    """The twisted transpose: w tg w^(-1) (orthogonal), u tg u^(-1)
    (symplectic).  Anti-homomorphism and involution.  w is the antidiagonal
    `antidiag_w`, so the orthogonal case is the transpose across the
    antidiagonal, (i, j) -> (n-1-j, n-1-i), with no arithmetic."""
    if form.kind == "orthogonal":
        n, rows = g.n, g.rows
        return Mat(g.ctx, [[rows[n - 1 - j][n - 1 - i] for j in range(n)]
                           for i in range(n)])
    return form.J * g.transpose() * form.J.inverse()


def eps(g: Mat, form: GroupForm) -> Mat:
    """The involution eps(g) = (g^(-1))^vdash of GL_n."""
    return vdash(g.inverse(), form)


def nu(g: Mat, form: GroupForm) -> Mat:
    """nu(g) = eps(g) g."""
    return eps(g, form) * g


def big_form(form: GroupForm) -> Mat:
    """The 3n x 3n form in n-block structure: [[0,0,C],[0,J,0],[C,0,0]]
    with C = w_n (orthogonal) or C = J = u_n (symplectic)."""
    ctx = form.J.ctx
    n = form.n
    corner = form.w if form.kind == "orthogonal" else form.J
    mid = form.J
    z = ctx.zero()
    rows = [[z] * (3 * n) for _ in range(3 * n)]
    for r in range(n):
        for c in range(n):
            rows[r][2 * n + c] = corner.rows[r][c]
            rows[2 * n + r][c] = corner.rows[r][c]
            rows[n + r][n + c] = mid.rows[r][c]
    return Mat(ctx, rows)


def n_of(x: Mat, y: Mat, form: GroupForm) -> Mat:
    """Build the unipotent block element from (X, Y), computing X' by the
    form's rule and checking Y + Y^vdash = X X'.  Raises RelationViolated
    with the residual on failure."""
    ctx = x.ctx
    n = form.n
    if form.kind == "orthogonal":
        xp = -(form.J * x.transpose() * form.w)
    else:
        xp = form.J * x.transpose() * form.J
    resid = y + vdash(y, form) - x * xp
    if not resid == Mat.zero(ctx, n):
        raise RelationViolated("Y + Y^t does not equal X X'", residual=resid)
    z = ctx.zero()
    rows = [[z] * (3 * n) for _ in range(3 * n)]
    for r in range(3 * n):
        rows[r][r] = ctx.one()
    for r in range(n):
        for c in range(n):
            rows[r][n + c] = x.rows[r][c]
            rows[r][2 * n + c] = y.rows[r][c]
            rows[n + r][2 * n + c] = xp.rows[r][c]
    return Mat(ctx, rows)


# -- Iwasawa coordinates on GL_2 ------------------------------------------------


@dataclass(frozen=True)
class CosetRep:
    """Iwasawa coordinates kappa * n_b * a_e of a point of G/T, G = GL_2.
    kappa is in GL_2(O), b is a principal part (all stored digits have
    negative exponent), a_e = diag(pi^e, 1)."""

    kappa: Mat
    b: Elem
    e: int

    def to_matrix(self) -> Mat:
        ctx = self.kappa.ctx
        return self.kappa * n_b(ctx, self.b) * a_e(ctx, self.e)


def n_b(ctx: LocalFieldCtx, b: Elem) -> Mat:
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[o, b], [z, o]])


def a_e(ctx: LocalFieldCtx, e: int) -> Mat:
    return Mat.diag(ctx, [ctx.pi(e), ctx.one()])


def principal_part(x: Elem) -> Elem:
    """The negative-exponent digits of x (so x - principal_part(x) is in O)."""
    ctx = x.ctx
    v = x.val
    if v is INF or v >= 0:
        return ctx.zero()
    return ctx.from_digits(v, x.unit_digits(-v))


def iwasawa(g: Mat):
    """Write g in GL_2 as kappa * n_b * a_e * t exactly, t = diag(alpha,
    alpha^(-1)).  Returns (CosetRep, t).  Reconstruction is exact."""
    ctx = g.ctx
    if g.n != 2:
        raise ValueError("Iwasawa coordinates implemented for GL_2 only")
    a, b = g.rows[0]
    c, d = g.rows[1]
    one, zero = ctx.one(), ctx.zero()
    # Left K-operations making the matrix upper triangular
    if c.val is INF:
        kappa = Mat.identity(ctx, 2)
        r1, y, r2 = a, b, d
    elif a.val is INF or a.val > c.val:
        # swap rows, then eliminate
        s = a / c
        # kappa0 = [[0,1],[1,0]] then [[1,0],[-s,1]]; kappa = inverse product
        kappa = Mat(ctx, [[s, one], [one, zero]])
        r1, y, r2 = c, d, b - s * d
    else:
        s = c / a
        kappa = Mat(ctx, [[one, zero], [s, one]])
        r1, y, r2 = a, b, d - s * b
    if r1.val is INF or r2.val is INF:
        raise Singular("matrix is singular")
    e = r1.val + r2.val
    alpha = r2.inverse()
    v = (r1 * r2).shift(-e)  # unit
    x = (y / r2) / v
    xp = principal_part(x)
    xint = x - xp
    vmat = Mat.diag(ctx, [v, one])
    kappa = kappa * vmat * n_b(ctx, xint)
    t = Mat.diag(ctx, [alpha, alpha.inverse()])
    return CosetRep(kappa, xp, e), t


def delta(g: Mat, i: int) -> int:
    """Column-valuation weight Delta_i(g) = ord(col_i) + ord(col_(n+1-i)),
    1-based i up to n/2.  Invariant under left GL_n(O)."""
    n = g.n
    c1 = min(x.val for x in g.column(i - 1))
    c2 = min(x.val for x in g.column(n - i))
    if c1 is INF or c2 is INF:
        raise Singular("Delta_i of a matrix with a zero column")
    return c1 + c2


def delta_vector(g: Mat, r: int):
    return tuple(delta(g, i) for i in range(1, r + 1))
