"""The full coefficient pipeline at odd residue characteristic.

Assembles c_k = 2 int_T |D(gamma)| psi_k(gamma) d gamma over refined torus
strata.  At odd p the weight factor is constant on the support, so
c_k = (4k+1) c_0 exactly; with this inducing datum the signed average over
K cancels structurally, so c_0 itself is 0 (the support is nonempty, the
values sweep all p-th roots of unity uniformly).
"""

from twirl import (
    CuspidalData,
    TruncationSpec,
    assemble_coefficients,
    make_field,
    orthogonal_form,
    residue_report,
)

ctx = make_field(5, 1, (-5, 1), 18)
data = CuspidalData(ctx)
form = orthogonal_form(ctx, 2)
trunc = TruncationSpec(gamma_depth=3, k_max=6, unit_depth=2)

table = assemble_coefficients(data, form, trunc)
print("coefficients c_k:")
for k in table.ks:
    print(f"  c_{k} =", table.values[k])

# c_k = a + b k, so c_k = (4k+1) c_0 for every k exactly when b = 4a
print("c_k = a + b k with a =", table.a, "and b =", table.b)
print("factorization c_k == (4k+1) c_0 (b == 4a):",
      table.b == table.a.scale(4))

rep = residue_report(table.a, table.b, table.ks, n=2, q=ctx.q)
print("report regime:", rep.regime)

# the K-average cancels even though the support is met: look at one stratum
from twirl import TorusElem, norm_preimage

alpha = -ctx.one() + ctx.pi(1)
y = norm_preimage(TorusElem(alpha), form).inverse()
print("\nsample K-average at alpha = -1+pi:", data.kappa_average(y, form),
      "(supported on a third of K, values uniform over the fifth roots)")
