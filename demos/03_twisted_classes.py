"""Twisted conjugacy: the norm preimage, twisted discriminants, and the
twisted centralizer.

For gamma = diag(alpha, 1/alpha) in the split torus the norm preimage is
S(gamma) = diag(alpha - 1, 1/alpha - 1), and nu(S(gamma)) = -gamma holds
exactly.  The twisted discriminant of delta = S(gamma)^(-1) =
diag(x0, x1) is the lowest nonzero characteristic-polynomial coefficient
of X -> -delta X^vdash delta^(-1) - X, in closed form
2 (x0 + x1)^2 / (x0 x1); an independent kernel/quotient determinant must
agree with it.
"""

import random

from twirl import (
    TorusElem,
    make_field,
    norm_preimage,
    nu_of_norm_check,
    orthogonal_form,
    twisted_centralizer_sample,
    twisted_discriminant,
    twisted_discriminant_oracle,
)

ctx = make_field(5, 1, (-5, 1), 18)
form = orthogonal_form(ctx, 2)
rng = random.Random(1)

gamma = TorusElem(ctx.from_int(3))
s = norm_preimage(gamma, form)
print("S(gamma) for alpha = 3:", s)
print("nu(S(gamma)) == -gamma:", nu_of_norm_check(gamma, form))

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

# the twisted centralizer is the torus: solutions of the congruence
# g S^(-1) g^t = S^(-1) modulo pi^4 all lie in T
rep = twisted_centralizer_sample(TorusElem(ctx.from_int(2)), form, 4, 2000, rng)
print(f"\ncentralizer solution tree: {rep.tree_leaves} leaves at depth 4; "
      f"{rep.sampled} samples all diagonal mod pi^3: {rep.all_in_torus}")
