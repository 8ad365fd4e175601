"""The full coefficient pipeline at even residue characteristic.

Here the interaction between the weight factor and the orbital integral is
genuine: coefficients are affine in k.  With a prime residue field the
slope cancels exactly (the boundary character average is -1/3, not 0, and
the shell sums telescope), leaving a positive constant; the weight-only
shell integrals are also computed and are both positive.  The run totals
give c_k = a + b k, and the closed form and the Laurent data at s = 0 are
explicit in (a, b).
"""

from twirl import (
    CuspidalData,
    TruncationSpec,
    assemble_coefficients,
    coefficient_A_B,
    make_field,
    orthogonal_form,
    residue_report,
)

ctx = make_field(2, 2, (-2, 0, 1), 24)
data = CuspidalData(ctx)
form = orthogonal_form(ctx, 2)
trunc = TruncationSpec(gamma_depth=6, k_max=8, unit_depth=3)

table = assemble_coefficients(data, form, trunc)
print("coefficients c_k:")
for k in table.ks:
    print(f"  c_{k} =", table.values[k])

print("\nper-shell increments of c_0 (geometric decay):")
for e, inc in table.per_e_increments(0).items():
    print(f"  depth {e}: {inc}")

a, b, incs = coefficient_A_B(data, form, trunc)
print("\nweight-only shell constants: A =", a, " B =", b)

rep = residue_report(table.a, table.b, table.ks, n=2, q=ctx.q)
print("\nregime:", rep.regime)
print("c_k = a + b k with a =", table.a, " b =", table.b)
print("closed form numerator:", [str(c) for c in rep.closed.num[:3]],
      f"over (1-u)^{rep.closed.pole_power}")
print("Laurent data at s = 0:")
for t in rep.laurent.terms:
    print(f"  s^{t.s_power}: {t.value} * (ln q)^{t.lnq_power}")
print("numeric spot check rel. err:", rep.checks["spot_check_rel_err"])
