"""Torus volume weight factors.

The weight w_k(g, h) is the torus volume of T intersected with
pi^(-k) g^(-1) L h^(-1).  Under the split-times-compact hypothesis it has
the closed form prod_i (Delta_i(g) + 2k + 1); the counting oracle
enumerates valuation vectors and tests lattice membership directly.
"""

import random

from twirl import (
    Mat,
    WeightQuery,
    make_field,
    square_class_reps,
    square_class_weight,
    weight_closed,
    weight_oracle,
)
from twirl.matlattice import delta_vector

ctx = make_field(5, 1, (-5, 1), 16)
rng = random.Random(0)

# the (2k+1)^r law for the standard lattice
print("vol_T(T cap pi^-k M_n(O)):")
for rank, n in ((1, 2), (2, 4)):
    one = Mat.identity(ctx, n)
    row = [weight_oracle(WeightQuery(one, k, rank)) for k in range(-2, 5)]
    print(f"  rank {rank}:", row)

# closed form against the oracle on random matrices
print("\nclosed form vs counting oracle (n = 2):")
for _ in range(5):
    g = Mat.random(ctx, 2, rng, vmin=-2, vmax=3)
    k = rng.randrange(-1, 4)
    q = WeightQuery(g, k, 1)
    print(f"  Delta = {delta_vector(g, 1)}, k = {k}: "
          f"closed {weight_closed(q)}, oracle {weight_oracle(q)}")

# the square-class weighted sum collapses to |O*/O*^2| (2 Delta_1 + 4k + 1)
scs = square_class_reps(ctx)
one = Mat.identity(ctx, 2)
print("\nsquare-class weight at the identity:")
for k in range(4):
    print(f"  k = {k}: {square_class_weight(one, None, scs, k)}"
          f"  (= 2 (4k+1) = {2 * (4 * k + 1)})")
