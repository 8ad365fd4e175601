"""Norm correspondence, eps-symmetry, and the twisted discriminant with
its oracles."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotRegular, Singular, SingularGammaMinusOne
from .localfield import INF, Elem, LocalFieldCtx
from .matlattice import GroupForm, Mat, vdash


@dataclass(frozen=True)
class TorusElem:
    """gamma = diag(alpha, alpha^(-1)) in the split torus of H;
    regular means alpha is not +-1.  alpha = 0 raises Singular."""

    alpha: Elem

    def __post_init__(self):
        if self.alpha.is_zero():
            raise Singular("inverse of zero")

    @property
    def ctx(self) -> LocalFieldCtx:
        return self.alpha.ctx

    @property
    def regular(self) -> bool:
        one = self.ctx.one()
        return not (self.alpha == one or self.alpha == -one)

    def matrix(self) -> Mat:
        return Mat.diag(self.ctx, [self.alpha, self.alpha.inverse()])

    def __repr__(self):
        return f"TorusElem(alpha={self.alpha})"


def norm_preimage(gamma: TorusElem, form: GroupForm) -> Mat:
    """S(gamma) = w J^(-1) (gamma - 1), the preimage of the class of gamma
    under the norm correspondence.  On the split form w J^(-1) = 1, so
    S(gamma) = diag(alpha - 1, alpha^(-1) - 1) in closed form;
    `norm_preimage_general` is the matrix route for every other form and
    the test oracle of the closed form."""
    if not form.split:
        return norm_preimage_general(gamma, form)
    ctx = gamma.ctx
    one = ctx.one()
    s0, s1 = gamma.alpha - one, gamma.alpha.inverse() - one
    if (s0 * s1).val is INF:  # det(gamma - 1), as the general route reads it
        raise SingularGammaMinusOne("gamma - 1 is singular")
    return Mat.diag(ctx, [s0, s1])


def norm_preimage_general(gamma: TorusElem, form: GroupForm) -> Mat:
    """S(gamma) = w J^(-1) (gamma - 1) by `Mat` products, for any form."""
    ctx = gamma.ctx
    gm = gamma.matrix() - Mat.identity(ctx, form.n)
    if gm.det().val is INF:
        raise SingularGammaMinusOne("gamma - 1 is singular")
    return form.w * form.J.inverse() * gm


def is_eps_symmetric(x: Mat, form: GroupForm, mod_level: int | None = None) -> bool:
    """X^vdash = X, exactly or modulo pi^mod_level.  The mod test works on
    raw representatives (entrywise divisibility), so it never needs to
    normalize a difference that is exactly zero.  The orthogonal vdash is
    the permutation (i, j) -> (n-1-j, n-1-i), so only the entries it moves
    are compared, each pair once in row-major order (one subtraction for
    a 2x2); the entries it fixes have X^vdash - X exactly 0."""
    if form.kind != "orthogonal":
        diffs = (e for r in (vdash(x, form) - x).rows for e in r)
    else:
        n, rows = x.n, x.rows
        diffs = (rows[n - 1 - j][n - 1 - i] - rows[i][j]
                 for i in range(n) for j in range(n)
                 if i * n + j < (n - 1 - j) * n + (n - 1 - i))
    if mod_level is None:
        return all(d.normalized().is_zero() for d in diffs)
    return all(d.divisible_by(mod_level) for d in diffs)


@dataclass(frozen=True)
class DiscriminantReport:
    """The twisted discriminant D_eps(delta): the determinant of the
    operator X -> -delta X^vdash delta^(-1) - X induced on the quotient of
    the matrix algebra by its kernel, the twisted-centralizer Lie algebra.
    `kernel_dim` is the dimension of that Lie algebra, which is the number
    of vanishing low-degree coefficients of the operator's characteristic
    polynomial; `charpoly_lowterm` is the first nonvanishing coefficient,
    D_eps(delta) up to sign, and |D_eps(delta)| = q^(-ord_value).
    `regular` means kernel_dim = n/2: the twisted centralizer is a torus."""

    ord_value: int
    kernel_dim: int
    charpoly_lowterm: Elem
    regular: bool

    def to_json(self):
        from fractions import Fraction

        return {
            "abs_value_q_exponent": str(Fraction(-self.ord_value)),
            "kernel_dim": self.kernel_dim,
            "regular": self.regular,
        }


def twisted_discriminant(delta: Mat, form: GroupForm) -> DiscriminantReport:
    """The twisted discriminant of delta = diag(x0, x1) under an orthogonal
    form, in closed form.  The twisted transpose swaps the diagonal entries
    of X = [[a, b], [c, d]] and fixes b and c, so the operator
    X -> -delta X^vdash delta^(-1) - X acts on (a, d) as
    [[-1, -1], [-1, -1]] (eigenvalues 0 and -2), on b as
    -(x0 + x1)/x1 and on c as -(x0 + x1)/x0.  Its characteristic
    polynomial is t (t + 2) (t + s/x1) (t + s/x0), s = x0 + x1: the lowest
    nonvanishing coefficient is 2 s^2 / (x0 x1) at kernel dim 1, or 2 at
    kernel dim 3 when s is 0.  A digit of x0, x1 or s the precision cannot
    decide raises PrecisionExhausted.  `twisted_discriminant_charpoly` and
    `twisted_discriminant_oracle` are the general routes that check it."""
    if form.kind != "orthogonal":
        raise DomainError("the closed-form discriminant needs the orthogonal "
                          "twist")
    if delta.n != 2 or not (delta.rows[0][1].is_zero()
                            and delta.rows[1][0].is_zero()):
        raise ValueError("the closed-form discriminant needs a diagonal 2x2 "
                         "argument")
    x0, x1 = delta.rows[0][0], delta.rows[1][1]
    inv = (x0 * x1).inverse()  # a zero entry is Singular, not kernel dim 3
    s = x0 + x1
    two = delta.ctx.from_int(2)
    if s.val is INF:
        return DiscriminantReport(two.val, 3, two, False)
    low = two * s * s * inv
    return DiscriminantReport(low.val, 1, low, True)


# -- test oracles: the general operator routes -----------------------------------


def charpoly(a, ctx: LocalFieldCtx):
    """Coefficients of det(t*I - A), lowest degree first, over the exact
    element ring.  Division-free (Berkowitz 1984), so valid at p = 2 as
    well."""
    n = len(a)
    one, zero = ctx.one(), ctx.zero()
    # vector of charpoly coefficients of the leading 1x1 minor, highest first
    poly = [one, -a[0][0]]
    for r in range(1, n):
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        arr = a[r][r]
        # q = (1, -a_rr, -(row.col), -(row.M.col), ...), M the leading minor
        q = [one, -arr]
        cur = col
        for _ in range(r):
            q.append(-sum((row[i] * cur[i] for i in range(r)), zero))
            cur = [sum((a[i][j] * cur[j] for j in range(r)), zero)
                   for i in range(r)]
        # lower-triangular Toeplitz multiply: new[i] = sum_j q[i-j] poly[j]
        new = []
        for i in range(r + 2):
            s = zero
            for j in range(max(0, i - r - 1), min(i, r) + 1):
                if 0 <= i - j < len(q):
                    s = s + q[i - j] * poly[j]
            new.append(s)
        poly = new
    poly.reverse()
    return poly


def _twist_operator(delta: Mat, form: GroupForm):
    """Matrix of X -> -delta X^vdash delta^(-1) - X on the n^2-dimensional
    space of matrices, in the matrix-unit basis (row-major)."""
    ctx = delta.ctx
    n = delta.n
    dinv = delta.inverse()
    cols = []
    for k in range(n):
        for l in range(n):
            eb = Mat.zero(ctx, n)
            eb.rows[k][l] = ctx.one()
            img = -(delta * vdash(eb, form) * dinv) - eb
            cols.append([img.rows[i][j] for i in range(n) for j in range(n)])
    m = n * n
    return [[cols[c][r] for c in range(m)] for r in range(m)]


def _trailing_zeros(coeffs, cutoff: int):
    """Number of leading (low-degree) coefficients that vanish at working
    precision, and the first surviving coefficient.  A coefficient whose
    valuation the precision cannot decide raises PrecisionExhausted."""
    for i, c in enumerate(coeffs):
        v = c.val
        if v is not INF and v < cutoff:
            return i, c
    raise NotRegular("all characteristic coefficients vanish at precision")


def twisted_discriminant_charpoly(delta: Mat, form: GroupForm) -> DiscriminantReport:
    """Test oracle for any delta and form: the lowest nonzero
    characteristic-polynomial coefficient of the defining operator, by
    Berkowitz.  The charpoly loses digits, so a coefficient of valuation
    at least precision - 2e counts as zero."""
    ctx = delta.ctx
    op = _twist_operator(delta, form)
    coeffs = charpoly(op, ctx)
    cutoff = ctx.precision - 2 * ctx.e
    r, low = _trailing_zeros(coeffs, cutoff)
    return DiscriminantReport(
        ord_value=low.val,
        kernel_dim=r,
        charpoly_lowterm=low,
        regular=(r == delta.n // 2),
    )


def twisted_discriminant_oracle(delta: Mat, form: GroupForm) -> DiscriminantReport:
    """Independent route: compute the kernel of the operator, complete a
    saturated kernel basis to a lattice basis, and take the determinant of
    the induced map on the quotient."""
    ctx = delta.ctx
    op = _twist_operator(delta, form)
    m = len(op)
    cutoff = ctx.precision - 2 * ctx.e

    # kernel via row reduction with minimal-valuation pivoting
    rows = [list(r) for r in op]
    pivots = []  # (row, col)
    used_rows: set[int] = set()
    for _ in range(m):
        best = None
        bv = INF
        for i in range(m):
            if i in used_rows:
                continue
            for j in range(m):
                if any(pc == j for _, pc in pivots):
                    continue
                v = rows[i][j].val
                if v < bv:
                    best, bv = (i, j), v
        if best is None or bv is INF or bv >= cutoff:
            break
        i0, j0 = best
        used_rows.add(i0)
        pivots.append((i0, j0))
        pinv = rows[i0][j0].inverse()
        rows[i0] = [pinv * x for x in rows[i0]]
        for i in range(m):
            if i == i0:
                continue
            f = rows[i][j0]
            if not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[i0])]
    rank = len(pivots)
    free_cols = [j for j in range(m) if all(pc != j for _, pc in pivots)]
    kernel = []
    for j in free_cols:
        v = [ctx.zero()] * m
        v[j] = ctx.one()
        for i0, j0 in pivots:
            v[j0] = -rows[i0][j]
        w = min(x.val for x in v)
        kernel.append([x.shift(-w) if not x.is_zero() else x for x in v])

    # complete the saturated kernel basis to a lattice basis: column-reduce
    # to unit pivots in distinct coordinate rows
    kcols = [list(v) for v in kernel]
    kpivots = []
    for c in range(len(kcols)):
        best, bv = None, INF
        for i in range(m):
            if any(i == r0 for r0, _ in kpivots):
                continue
            v = kcols[c][i].val
            if v < bv:
                best, bv = i, v
        if bv != 0:
            # rescale so the pivot is a unit (saturation)
            kcols[c] = [x.shift(-bv) for x in kcols[c]]
        i0 = best
        pinv = kcols[c][i0].inverse()
        kcols[c] = [pinv * x for x in kcols[c]]
        for c2 in range(len(kcols)):
            if c2 == c:
                continue
            f = kcols[c2][i0]
            if not f.is_zero():
                kcols[c2] = [x - f * y for x, y in zip(kcols[c2], kcols[c])]
        kpivots.append((i0, c))
    pivot_rows = [r0 for r0, _ in kpivots]
    comp_rows = [i for i in range(m) if i not in pivot_rows]

    def project(v):
        """Reduce v modulo the kernel columns; return complement coords."""
        v = list(v)
        for r0, c in kpivots:
            f = v[r0]
            if not f.is_zero():
                v = [x - f * y for x, y in zip(v, kcols[c])]
        return [v[i] for i in comp_rows]

    amat = []
    for i in comp_rows:
        image = [op[r][i] for r in range(m)]
        amat.append(project(image))
    # columns of the induced map, indexed by complement basis
    qn = len(comp_rows)
    qmat = Mat(ctx, [[amat[c][r] for c in range(qn)] for r in range(qn)])
    det = qmat.det()
    sign = (-1) ** qn
    lowterm = det if sign == 1 else -det
    return DiscriminantReport(
        ord_value=det.val,
        kernel_dim=m - rank,
        charpoly_lowterm=lowterm,
        regular=(m - rank == delta.n // 2),
    )
