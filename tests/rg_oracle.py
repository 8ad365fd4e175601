"""The k-independent factor rg of the odd-characteristic relation
c_k = (4k+1) 2 |O^x/(O^x)^2| rg, kept as a test oracle of the c_k table.

rg integrates |D_eps(gamma)| times the K-average of f at x =
S(gamma)^(-1) itself (i = 0) over the torus strata near +-1.  It reads
the strata through `integrator.torus_strata` at call time, so a test
that puts another strata function there changes rg's strata too."""

from fractions import Fraction

from twirl import integrator
from twirl.cyclotomic import CharacterValue
from twirl.integrator import regular_preimage
from twirl.matlattice import mat_ord


def rg_term(data, form, trunc) -> CharacterValue:
    """Integral over the strata with e != 0 of vol |D_eps(gamma)| times
    the K-average of f(kappa S(gamma)^(-1) kappa^vdash).  Every stratum
    builds x (the regularity checks of `regular_preimage`); x is averaged
    only where it is integral of unit determinant and passes the support
    prefilter, and never when every K-average vanishes
    (`data.kappa_vanishes`)."""
    ctx = data.ctx
    acc = CharacterValue.zero(ctx.p)
    for stratum in integrator.torus_strata(data, form, trunc):
        if not stratum.e:
            continue
        x, dexp = regular_preimage(form, stratum.alpha, stratum.label)
        if (data.kappa_vanishes(form) or mat_ord(x) < 0
                or x.det().val != 0):
            continue
        if data.support_prefilter(x, form) is not None:
            continue
        favg = data.kappa_average(x, form)
        acc = acc + favg.scale(stratum.vol * Fraction(ctx.q) ** (-dexp))
    return acc
