"""Seeded random matrices over F, and the matrix valuation `mat_ord`,
for the tests."""

from twirl.errors import PrecisionExhausted
from twirl.localfield import INF
from twirl.matlattice import Mat


def mat_ord(x: Mat):
    """ord(X) = min over entries; -log_q of the max-entry norm."""
    return min(a.val for r in x.rows for a in r)


def random_mat(ctx, n: int, rng, vmin: int = -2, vmax: int = 3,
               invertible: bool = True) -> Mat:
    while True:
        m = Mat(ctx, [[ctx.random_elem(rng, vmin, vmax) for _ in range(n)]
                      for _ in range(n)])
        if not invertible:
            return m
        try:
            if m.det().val is not INF:
                return m
        except PrecisionExhausted:
            continue


def random_integral(ctx, n: int, rng, unit_det: bool = False) -> Mat:
    while True:
        m = Mat(ctx, [[ctx.random_elem(rng, 0, 4) for _ in range(n)]
                      for _ in range(n)])
        d = m.det().val
        if d is INF:
            continue
        if not unit_det or d == 0:
            return m
