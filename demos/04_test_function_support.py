"""The ramified-induction test function and its twisted support.

f is the matrix coefficient of a compactly induced representation of
GL_2(F), cut off to C = O_E^x I_1 {1, pi_E} for E = F(sqrt pi).  The scan
asks: for which torus parameters alpha does some g make
f(g S(gamma)^(-1) g^t) nonzero?  The answer is decided by determinant
parities, integrality windows and symmetry filters; where they leave a
class alive, kappa = [[0, 1], [1, 0]] is a witness, with f = 1.
"""

from twirl.localfield import LocalFieldCtx, parse_elem
from twirl.matlattice import Mat
from twirl.supercuspidal import (CuspidalData, level_character, member,
                                 support_scan)

ctx2 = LocalFieldCtx(2, 2, (-2, 0, 1), 24)
data2 = CuspidalData(ctx2)

# the level character on the standard unipotent
m = Mat.from_ints(ctx2, [[1, 1], [0, 1]])
print("g = [[1,1],[0,1]]: in I1", member(m, "I1"), "/ in I2", member(m, "I2"))
print("character value:", level_character(m))

print("\nsupport scans (p = 2, pi^2 = 2):")
for spec in ("1+pi^2", "1+pi", "pi", "pi^-1"):
    rep = support_scan(data2, parse_elem(ctx2, spec))
    tag = "none" if rep["witness"] is None else "witness"
    print(f"  alpha = {spec:8s} -> {tag:8s} ({rep['regime']}, "
          f"level records read: {len(rep['strata_searched'])})")

ctx5 = LocalFieldCtx(5, 1, (-5, 1), 18)
data5 = CuspidalData(ctx5)
print("\nsupport scans (p = 5):")
for spec in ("pi", "2", "1+pi", "-1+pi"):
    rep = support_scan(data5, parse_elem(ctx5, spec))
    tag = "none" if rep["witness"] is None else "witness"
    print(f"  alpha = {spec:8s} -> {tag:8s} ({rep['regime']})")
print("\nonly alpha = -1 mod p survives at odd p; every unit survives at p = 2")
