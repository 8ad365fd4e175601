"""Matrices over F, valuations, the defining forms, the twisted
transpose, and the Iwasawa factors n_b and a_e of GL_2.
"""

from __future__ import annotations

from .errors import Singular
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
        """In closed form for a 2x2 (every `Mat` of a run), else `_gauss`."""
        if self.n == 2:
            (a, b), (c, d) = self.rows
            if b.is_zero() or c.is_zero():
                return a * d
            return a * d - b * c
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

    def to_digit_lists(self, count: int = 8):
        return [[(x.val, x.unit_digits(count)) if x.val is not INF else (None, ())
                 for x in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


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


class GroupForm:
    """The form J defining the twisted transpose and the group H; its
    size is J.n.  `kind` is "orthogonal" or "symplectic"."""

    __slots__ = ("kind", "J")

    def __init__(self, kind: str, J: Mat):
        jt = J.transpose()
        if kind == "orthogonal":
            if not jt == J:
                raise ValueError("orthogonal form must be symmetric")
        elif kind == "symplectic":
            if not jt == -J:
                raise ValueError("symplectic form must be antisymmetric")
        else:
            raise ValueError(f"unknown form kind {kind!r}")
        if J.det().val is INF:
            raise Singular("form matrix must be invertible")
        self.kind = kind
        self.J = J


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
    return GroupForm("orthogonal", Mat(ctx, rows))


def symplectic_form(ctx: LocalFieldCtx, n: int) -> GroupForm:
    return GroupForm("symplectic", antidiag_u(ctx, n))


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


# -- the Iwasawa factors of GL_2 -----------------------------------------------


def n_b(ctx: LocalFieldCtx, b: Elem) -> Mat:
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[o, b], [z, o]])


def a_e(ctx: LocalFieldCtx, e: int) -> Mat:
    return Mat.diag(ctx, [ctx.pi(e), ctx.one()])
