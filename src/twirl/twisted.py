"""The norm correspondence and the twisted discriminant of the split
orthogonal twist of GL_2, in closed form.  A torus element gamma =
diag(alpha, alpha^(-1)) is passed as its eigenvalue alpha, and a
diagonal x = diag(x0, x1) as its two entries."""

from __future__ import annotations

from .errors import NotRegular
from .localfield import INF, Elem
from .matlattice import Mat


def norm_preimage(alpha: Elem) -> Mat:
    """S(gamma) = w J^(-1) (gamma - 1), the preimage of the class of gamma
    = diag(alpha, alpha^(-1)) under the norm correspondence: on the split
    form w J^(-1) = 1, so S(gamma) = diag(alpha - 1, alpha^(-1) - 1) in
    closed form.  alpha = 0 raises Singular and alpha = 1 NotRegular.  The
    matrix route for any form, `norm_preimage_general`, is the tests'
    oracle of the closed form (`tests/twisted_oracles.py`)."""
    ctx = alpha.ctx
    one = ctx.one()
    s0, s1 = alpha - one, alpha.inverse() - one
    if (s0 * s1).val is INF:  # det(gamma - 1)
        raise NotRegular("gamma - 1 is singular")
    return Mat.diag(ctx, [s0, s1])


class DiscriminantReport:
    """The twisted discriminant D_eps(delta): the determinant of the
    operator X -> -delta X^vdash delta^(-1) - X induced on the quotient of
    the matrix algebra by its kernel, the twisted-centralizer Lie algebra.
    `kernel_dim` is the dimension of that Lie algebra, which is the number
    of vanishing low-degree coefficients of the operator's characteristic
    polynomial; `charpoly_lowterm` is the first nonvanishing coefficient,
    D_eps(delta) up to sign, and |D_eps(delta)| = q^(-ord_value).
    `regular` means kernel_dim = n/2: the twisted centralizer is a torus."""

    __slots__ = ("ord_value", "kernel_dim", "charpoly_lowterm", "regular")

    def __init__(self, ord_value: int, kernel_dim: int,
                 charpoly_lowterm: Elem, regular: bool):
        self.ord_value = ord_value
        self.kernel_dim = kernel_dim
        self.charpoly_lowterm = charpoly_lowterm
        self.regular = regular

    def to_json(self):
        return {
            "abs_value_q_exponent": str(-self.ord_value),
            "kernel_dim": self.kernel_dim,
            "regular": self.regular,
        }


def twisted_discriminant(x0: Elem, x1: Elem) -> DiscriminantReport:
    """The twisted discriminant of delta = diag(x0, x1), in closed form.
    The twisted transpose swaps the diagonal entries of X = [[a, b],
    [c, d]] and fixes b and c, so the operator
    X -> -delta X^vdash delta^(-1) - X acts on (a, d) as
    [[-1, -1], [-1, -1]] (eigenvalues 0 and -2), on b as
    -(x0 + x1)/x1 and on c as -(x0 + x1)/x0.  Its characteristic
    polynomial is t (t + 2) (t + s/x1) (t + s/x0), s = x0 + x1: the lowest
    nonvanishing coefficient is 2 s^2 / (x0 x1) at kernel dim 1, or 2 at
    kernel dim 3 when s is 0.  A digit of x0, x1 or s the precision cannot
    decide raises PrecisionExhausted.  The general routes that check it,
    `twisted_discriminant_charpoly` and `twisted_discriminant_oracle`,
    are test oracles (`tests/twisted_oracles.py`)."""
    inv = (x0 * x1).inverse()  # a zero entry is Singular, not kernel dim 3
    s = x0 + x1
    two = x0.ctx.from_int(2)
    if s.val is INF:
        return DiscriminantReport(two.val, 3, two, False)
    low = two * s * s * inv
    return DiscriminantReport(low.val, 1, low, True)
