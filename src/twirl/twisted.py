"""Norm correspondence, eps-symmetry, and the twisted discriminant, in
closed form on the split orthogonal form.  A torus element gamma =
diag(alpha, alpha^(-1)) is passed as its eigenvalue alpha."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotRegular
from .localfield import INF, Elem
from .matlattice import GroupForm, Mat, vdash


def norm_preimage(alpha: Elem, form: GroupForm) -> Mat:
    """S(gamma) = w J^(-1) (gamma - 1), the preimage of the class of gamma
    = diag(alpha, alpha^(-1)) under the norm correspondence, on the split
    form: there w J^(-1) = 1, so S(gamma) = diag(alpha - 1, alpha^(-1) - 1)
    in closed form.  Every other form raises DomainError, alpha = 0
    Singular and alpha = 1 NotRegular.  The matrix route for any form,
    `norm_preimage_general`, is the tests' oracle of the closed form
    (`tests/twisted_oracles.py`)."""
    if not form.split:
        raise DomainError("the closed-form S(gamma) needs the split "
                          "orthogonal form")
    ctx = alpha.ctx
    one = ctx.one()
    s0, s1 = alpha - one, alpha.inverse() - one
    if (s0 * s1).val is INF:  # det(gamma - 1)
        raise NotRegular("gamma - 1 is singular")
    return Mat.diag(ctx, [s0, s1])


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
        return {
            "abs_value_q_exponent": str(-self.ord_value),
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
    decide raises PrecisionExhausted.  The general routes that check it,
    `twisted_discriminant_charpoly` and `twisted_discriminant_oracle`,
    are test oracles (`tests/twisted_oracles.py`)."""
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
