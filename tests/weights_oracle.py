"""Torus volume weight factors, kept as the test oracles of the class
weight the pipeline uses in closed form (`integrator._pair`): the column
weights Delta_i, the closed form under the split-times-compact
hypothesis, a counting oracle over valuation vectors, and the
square-class weighted sum."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from twirl.errors import Singular
from twirl.localfield import Elem, INF, SquareClassSet
from twirl.matlattice import Mat, mat_ord


def delta(g: Mat, i: int) -> int:
    """Column-valuation weight Delta_i(g) = ord(col_i) + ord(col_(n+1-i)),
    1-based i up to n/2.  Invariant under left GL_n(O)."""
    n = g.n
    c1 = min(x.val for x in g.column(i - 1))
    c2 = min(x.val for x in g.column(n - i))
    if c1 is INF or c2 is INF:
        raise Singular("Delta_i of a matrix with a zero column")
    return c1 + c2


def delta_vector(g: Mat, r: int):
    return tuple(delta(g, i) for i in range(1, r + 1))


@dataclass(frozen=True)
class WeightQuery:
    """Weight-factor query: vol_T(T cap pi^(-k) g^(-1) L h^(-1)),
    L = M_n(O), for the torus of split rank `rank` with diagonal split part
    diag(a_1..a_r, 1.., a_r^(-1)..a_1^(-1)) and compact part inside the
    lattice stabilizer."""

    g: Mat
    k: int
    rank: int
    h: Mat | None = None


def weight_closed(q: WeightQuery) -> int:
    """Closed form: 0 if some Delta_i(g) < -2k, else
    prod_i (Delta_i(g) + 2k + 1).  Requires h = 1 and the split-times-compact
    hypothesis (with general h the closed product is only a lower bound),
    and raises ValueError otherwise.

    When the split rank is below n/2 the unscaled middle columns must also
    be integral after the pi^k dilation, otherwise the volume is 0; with
    full split rank the condition is vacuous."""
    if q.h is not None:
        raise ValueError("closed form requires h = 1")
    k = q.k
    g = q.g
    for j in range(q.rank, g.n - q.rank):
        if min(x.val for x in g.column(j)) < -k:
            return 0
    total = 1
    for d in delta_vector(g, q.rank):
        if d < -2 * k:
            return 0
        total *= d + 2 * k + 1
    return total


def _scaled(g: Mat, n: int, rank: int, js) -> Mat:
    """g * diag split element with unit parts 1: exact column shifts."""
    rows = [list(r) for r in g.rows]
    for i, j in enumerate(js):
        for r in range(n):
            rows[r][i] = rows[r][i].shift(j)
            rows[r][n - 1 - i] = rows[r][n - 1 - i].shift(-j)
    return Mat(g.ctx, rows)


def weight_oracle(q: WeightQuery) -> int:
    """Count valuation vectors in a window provably containing every
    solution, testing pi^k g t h in L by exact membership.  Normalization:
    vol of the unit-diagonal part is 1 per split coordinate, vol(T_c) = 1.

    The window comes from column valuations (h = 1) or from the norm bound
    via g^(-1), h^(-1); one boundary ring beyond the window is scanned and
    any solution there fails an assertion (it would contradict the
    bound)."""
    g, h, rank = q.g, q.h, q.rank
    n = g.n
    k = q.k
    ranges = []
    if h is None:
        for i in range(rank):
            c1 = min(x.val for x in g.column(i))
            c2 = min(x.val for x in g.column(n - 1 - i))
            lo, hi = -k - c1, k + c2
            ranges.append(range(lo - 1, hi + 2))
    else:
        window = k - mat_ord(g.inverse()) - mat_ord(h.inverse())
        if window < 0:
            window = 0
        ranges = [range(-window - 1, window + 2)] * rank
    count = 0
    for js in itertools.product(*ranges):
        x = _scaled(g, n, rank, js)
        if h is not None:
            x = x * h
        if mat_ord(x) >= -k:
            assert not any(js[i] in (ranges[i][0], ranges[i][-1])
                           for i in range(rank)), \
                f"solution on the window boundary {js}"
            count += 1
    return count


def scaling_block(alpha: Elem, n: int) -> Mat:
    """x_alpha = diag(alpha I_m, I_m) for n = 2m; satisfies
    x_alpha eps(x_alpha)^(-1) = alpha I for the involution
    eps(g) = (g^(-1))^vdash."""
    if alpha.val is INF:
        raise Singular("alpha must be nonzero")
    ctx = alpha.ctx
    m = n // 2
    return Mat.diag(ctx, [alpha] * m + [ctx.one()] * m)


def _omega_values(scs: SquareClassSet, omega):
    if omega is None:
        return [1] * len(scs.reps)
    vals = list(omega)
    if len(vals) != len(scs.reps) or any(v * v != 1 for v in vals):
        raise ValueError("omega must assign +-1 to every square class")
    return vals


def square_class_weight(g: Mat, h: Mat | None, scs: SquareClassSet, k: int,
                        omega=None, rank: int = 1) -> int:
    """Signed sum over square classes of w_k(g x_alpha^(-1), h).  For
    g in GL_2(O), h = 1, trivial omega this is |O^x/(O^x)^2| times
    (2 Delta_1(g) + 4k + 1) when Delta_1(g) >= -2k."""
    vals = _omega_values(scs, omega)
    total = 0
    for w_sign, rep in zip(vals, scs.reps):
        gx = g * scaling_block(rep, g.n).inverse()
        total += w_sign * weight_oracle(WeightQuery(gx, k, rank, h))
    return total
