"""The per-coset walk of G/T, kept as the test oracle of the level walk
`integrator.orbit_strata` and of `supercuspidal.support_scan`."""

from typing import NamedTuple

from twirl.integrator import _forced_levels
from twirl.localfield import unit_digit_tuples
from twirl.matlattice import Mat, a_e, n_b, orthogonal_form, vdash


class CosetRecord(NamedTuple):
    """One coset n_b a_i of the walk, b = pi^(-j) digits, weight 1, with
    the argument y = g0 x g0^vdash built by `Mat` products and the
    prefilter's verdict `dead` on its diagonal (None when live)."""

    i: int
    j: int
    digits: tuple
    weight: int
    y: Mat
    dead: str | None

    @property
    def g0(self) -> Mat:
        ctx = self.y.ctx
        return n_b(ctx, ctx.from_digits(-self.j, self.digits)) * a_e(ctx,
                                                                     self.i)


def coset_strata(data, x0, x1):
    """Walk every (i, b) Iwasawa coset of G/T for f(g x g^vdash), x =
    diag(x0, x1) and vdash the split orthogonal twist, one `CosetRecord`
    each, in lexicographic order: i ascending over the exponents the
    det-valuation support of f forces, then b level j = 0 .. jmax, then
    the digits of b."""
    ctx = data.ctx
    x, form = Mat.diag(ctx, [x0, x1]), orthogonal_form(ctx, 2)
    _t, levels = _forced_levels(data, x0, x1)
    for i, jmax in levels:
        for j in range(0, jmax + 1):
            for digits in unit_digit_tuples(ctx.p, j):
                g0 = n_b(ctx, ctx.from_digits(-j, digits)) * a_e(ctx, i)
                y = g0 * x * vdash(g0, form)
                yield CosetRecord(i, j, digits, 1, y, data.support_prefilter(
                    y.rows[0][0], y.rows[1][1]))
