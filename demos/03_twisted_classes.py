"""Twisted conjugacy: the norm preimage and twisted discriminants.

For gamma = diag(alpha, 1/alpha) in the split torus the norm preimage is
S(gamma) = diag(alpha - 1, 1/alpha - 1), and nu(S(gamma)) = -gamma holds
exactly, nu(g) = eps(g) g with eps(g) = (g^(-1))^vdash.  The twisted
discriminant of delta = S(gamma)^(-1) = diag(x0, x1) is the lowest
nonzero characteristic-polynomial coefficient of
X -> -delta X^vdash delta^(-1) - X, in closed form
2 (x0 + x1)^2 / (x0 x1); an independent kernel/quotient determinant must
agree with it.  Kernel dimension 1 means the twisted centralizer of
delta is the one-dimensional torus.
"""

from twirl import (
    TorusElem,
    make_field,
    norm_preimage,
    orthogonal_form,
    twisted_discriminant,
    twisted_discriminant_oracle,
    vdash,
)

ctx = make_field(5, 1, (-5, 1), 18)
form = orthogonal_form(ctx, 2)

gamma = TorusElem(ctx.from_int(3))
s = norm_preimage(gamma, form)
print("S(gamma) for alpha = 3:", s)
print("nu(S(gamma)) == -gamma:",
      vdash(s.inverse(), form) * s == -gamma.matrix())

print("\ntwisted discriminants |D| = q^(-ord):")
for alpha_desc, alpha in [
    ("unit, not +-1 mod p", ctx.from_int(2)),
    ("close to 1", ctx.one() + ctx.pi(2)),
    ("close to -1", -ctx.one() + ctx.pi(3)),
    ("noncompact", ctx.pi(1)),
]:
    g = TorusElem(alpha)
    si = norm_preimage(g, form).inverse()
    r1 = twisted_discriminant(si, form)
    r2 = twisted_discriminant_oracle(si, form)
    print(f"  {alpha_desc:24s} ord = {r1.ord_value:3d}  kernel = "
          f"{r1.kernel_dim}  (routes agree: {r1.ord_value == r2.ord_value})")
