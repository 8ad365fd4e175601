"""A randomized check that the twisted centralizer of S(gamma)^(-1) is
the torus, kept as the test oracle behind the kernel dimension 1 that
`twirl.twisted.twisted_discriminant` reports for a regular gamma."""

import itertools
from dataclasses import dataclass

from twirl.matlattice import Mat, orthogonal_form, vdash
from twirl.twisted import norm_preimage

from random_mats import mat_ord


@dataclass
class CentralizerReport:
    depth: int
    tree_leaves: int
    sampled: int
    witnesses_outside: list

    @property
    def all_in_torus(self) -> bool:
        return not self.witnesses_outside


def _solve_mod_p(rows, rhs, p):
    """Solve M h = rhs over F_p; return (particular, nullspace basis) or None."""
    m = len(rows)
    n = len(rows[0])
    a = [list(r) + [rhs[i] % p] for i, r in enumerate(rows)]
    piv = []
    rank = 0
    for c in range(n):
        sel = None
        for r in range(rank, m):
            if a[r][c] % p:
                sel = r
                break
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(m):
            if r != rank and a[r][c] % p:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        piv.append(c)
        rank += 1
    for r in range(rank, m):
        if a[r][n] % p:
            return None
    part = [0] * n
    for r, c in enumerate(piv):
        part[c] = a[r][n]
    basis = []
    free = [c for c in range(n) if c not in piv]
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, c in enumerate(piv):
            v[c] = (-a[r][fc]) % p
        basis.append(v)
    return part, basis


def twisted_centralizer_sample(alpha, m: int, trials: int,
                               rng) -> CentralizerReport:
    """Enumerate the solution tree of g X g^vdash = X (X = S(gamma)^(-1),
    gamma = diag(alpha, alpha^(-1))) modulo pi^m by level-one brute force
    plus linear lifting, then sample solutions and test membership in the
    diagonal torus mod pi^(m-1).  vdash is the split orthogonal twist,
    the one `norm_preimage` is taken on."""
    ctx = alpha.ctx
    p = ctx.p
    form = orthogonal_form(ctx, 2)
    x = norm_preimage(alpha).inverse()
    xt = x.shift(max(0, -min(0, mat_ord(x))))  # integral rescaling
    n = form.J.n
    basis = []
    for k in range(n):
        for l in range(n):
            eb = Mat.zero(ctx, n)
            eb.rows[k][l] = ctx.one()
            basis.append(eb)

    def defect(g: Mat) -> Mat:
        return g * xt * vdash(g, form) - xt

    # level 1: brute force over GL_n(O/p)
    nodes = []
    for digs in itertools.product(range(p), repeat=n * n):
        g = Mat.from_ints(ctx, [[digs[i * n + j] for j in range(n)]
                                for i in range(n)])
        if g.det().residue() != 0 and mat_ord(defect(g)) >= 1:
            nodes.append(g)
    for j in range(1, m):
        nxt = []
        pij = ctx.pi(j)
        for g in nodes:
            rhs_mat = defect(g).shift(-j)
            rhs = [(-rhs_mat.rows[i][k].residue()) % p
                   for i in range(n) for k in range(n)]
            cols = []
            for eb in basis:
                t = g * (eb * xt + xt * vdash(eb, form)) * vdash(g, form)
                cols.append([t.rows[i][k].residue() for i in range(n)
                             for k in range(n)])
            rows = [[cols[c][r] for c in range(n * n)] for r in range(n * n)]
            sol = _solve_mod_p(rows, rhs, p)
            if sol is None:
                continue
            part, null = sol
            combos = [part]
            for v in null:
                combos = [[(c0 + t0 * v0) % p for c0, v0 in zip(c, v)]
                          for c in combos for t0 in range(p)]
            for hvec in combos:
                h = Mat.from_ints(ctx, [[hvec[i * n + k] for k in range(n)]
                                        for i in range(n)])
                nxt.append(g * (Mat.identity(ctx, n) + h.scale(pij)))
        nodes = nxt
    level = m - 1
    zeros = (0,) * level
    outside = []
    for _ in range(trials):
        g = nodes[rng.randrange(len(nodes))]
        in_t = (
            g.rows[0][1].residue_digits(level) == zeros
            and g.rows[1][0].residue_digits(level) == zeros
            and (g.rows[0][0] * g.rows[1][1] - ctx.one()).residue_digits(level)
            == zeros
        )
        if not in_t:
            outside.append(g)
    return CentralizerReport(m, len(nodes), trials, outside)
