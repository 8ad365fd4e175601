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
    rg_term,
    residue_report,
    square_class_reps,
)

ctx = make_field(5, 1, (-5, 1), 18)
data = CuspidalData(ctx)
form = orthogonal_form(ctx, 2)
trunc = TruncationSpec(gamma_depth=3, k_max=6, unit_depth=2)

table = assemble_coefficients(data, form, trunc)
print("coefficients c_k:")
for k in table.ks:
    print(f"  c_{k} =", table.values[k])

c0 = table.values[0]
print("factorization c_k == (4k+1) c_0:",
      all(table.values[k] == c0.scale(4 * k + 1) for k in table.ks))

rg = rg_term(data, form, trunc)
scs = square_class_reps(ctx)
print("k-independent factor:", rg,
      " and c_0 == 2 |O*/O*^2| rg:", c0 == rg.scale(2 * scs.card_units))

rep = residue_report(table.a, table.b, table.ks, n=2, q=ctx.q)
print("report regime:", rep.regime)

# the K-average cancels even though the support is met: look at one stratum
from twirl import TorusElem, norm_preimage

alpha = -ctx.one() + ctx.pi(1)
y = norm_preimage(TorusElem(alpha), form).inverse()
print("\nsample K-average at alpha = -1+pi:", data.kappa_average(y, form),
      "(supported on a third of K, values uniform over the fifth roots)")
