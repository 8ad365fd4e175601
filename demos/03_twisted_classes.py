"""Twisted conjugacy: the norm preimage and twisted discriminants.

For gamma = diag(alpha, 1/alpha) in the split torus the norm preimage is
S(gamma) = diag(alpha - 1, 1/alpha - 1), and nu(S(gamma)) = -gamma holds
exactly, nu(g) = eps(g) g with eps(g) = (g^(-1))^vdash.  The twisted
discriminant of delta = S(gamma)^(-1) = diag(x0, x1) is the lowest
nonzero characteristic-polynomial coefficient of
X -> -delta X^vdash delta^(-1) - X, in closed form
2 (x0 + x1)^2 / (x0 x1).  Kernel dimension 1 means the twisted
centralizer of delta is the one-dimensional torus.  The test
`tests/test_twisted.py::test_twisted_discriminant_routes` holds the
closed form to an independent kernel/quotient determinant.
"""

from twirl.localfield import LocalFieldCtx
from twirl.matlattice import Mat, orthogonal_form, vdash
from twirl.twisted import norm_preimage, twisted_discriminant

ctx = LocalFieldCtx(5, 1, (-5, 1), 18)
form = orthogonal_form(ctx, 2)

alpha = ctx.from_int(3)
s = norm_preimage(alpha)
print("S(gamma) for alpha = 3:", s)
gamma = Mat.diag(ctx, [alpha, alpha.inverse()])
print("nu(S(gamma)) == -gamma:", vdash(s.inverse(), form) * s == -gamma)

print("\ntwisted discriminants |D| = q^(-ord):")
for alpha_desc, alpha in [
    ("unit, not +-1 mod p", ctx.from_int(2)),
    ("close to 1", ctx.one() + ctx.pi(2)),
    ("close to -1", -ctx.one() + ctx.pi(3)),
    ("noncompact", ctx.pi(1)),
]:
    si = norm_preimage(alpha).inverse()
    r = twisted_discriminant(si.rows[0][0], si.rows[1][1])
    print(f"  {alpha_desc:24s} ord = {r.ord_value:3d}  kernel = "
          f"{r.kernel_dim}")
