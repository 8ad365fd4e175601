"""The full coefficient pipeline at odd residue characteristic.

Assembles c_k = 2 int_T |D(gamma)| psi_k(gamma) d gamma over refined torus
strata.  At odd p the weight factor is constant on the support, so
c_k = (4k+1) c_0 exactly; with this inducing datum the signed average over
K cancels structurally, so c_0 itself is 0 (the support is nonempty, the
values sweep all p-th roots of unity uniformly).
"""

from twirl.integrator import TruncationSpec, assemble_coefficients
from twirl.localfield import LocalFieldCtx
from twirl.residue import residue_report
from twirl.supercuspidal import CuspidalData

ctx = LocalFieldCtx(5, 1, (-5, 1), 18)
data = CuspidalData(ctx)
trunc = TruncationSpec(gamma_depth=3, k_max=6, unit_depth=2)

table = assemble_coefficients(data, trunc)
print("coefficients c_k:")
for k in table.ks:
    print(f"  c_{k} =", table.values[k])

# c_k = a + b k, so c_k = (4k+1) c_0 for every k exactly when b = 4a
print("c_k = a + b k with a =", table.a, "and b =", table.b)
print("factorization c_k == (4k+1) c_0 (b == 4a):",
      table.b == table.a.scale(4))

rep = residue_report(table.a, table.b, table.ks, n=2, q=ctx.q)
print("report regime:", rep["regime"])

# the K-average cancels even though the support is met: look at one stratum
from twirl.integrator import orbit_strata
from twirl.twisted import norm_preimage

alpha = -ctx.one() + ctx.pi(1)
x = norm_preimage(alpha).inverse()
# x is integral of unit determinant, so the walk has one record, at y = x
[record] = orbit_strata(data, x.rows[0][0], x.rows[1][1])
print("\nsample K-average at alpha = -1+pi:",
      data.kappa_average(record.key),
      "(supported on a third of K, values uniform over the fifth roots)")
