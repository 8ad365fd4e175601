"""The per-coset walk of G/T, kept as the test oracle of the level walk
`integrator.orbit_strata` and of `supercuspidal.support_scan`."""

from twirl.integrator import Coset, _forced_levels
from twirl.localfield import unit_digit_tuples
from twirl.matlattice import a_e, n_b, vdash


def coset_strata(data, form, x):
    """Walk every (i, b) Iwasawa coset of G/T for f(g x g^vdash), x
    diagonal, one `Coset` of weight 1 each, y by `Mat` products, in
    lexicographic order: i ascending over the exponents the det-valuation
    support of f forces, then b level j = 0 .. jmax, then the digits of b."""
    ctx = data.ctx
    _t, levels = _forced_levels(data, x)
    for i, jmax in levels:
        for j in range(0, jmax + 1):
            for digits in unit_digit_tuples(ctx.p, j):
                g0 = n_b(ctx, ctx.from_digits(-j, digits)) * a_e(ctx, i)
                y = g0 * x * vdash(g0, form)
                yield Coset(i, j, digits, 1, y,
                            data.support_prefilter(y, form))
