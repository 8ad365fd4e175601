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
from twirl.matlattice import Mat

from kappa_oracle import kappa_key


def rg_term(data, trunc) -> CharacterValue:
    """Integral over the strata with e != 0 of vol |D_eps(gamma)| times
    the K-average of f(kappa S(gamma)^(-1) kappa^vdash).  Every stratum
    builds x (the regularity checks of `regular_preimage`); x is averaged
    only where it is integral of unit determinant and passes the support
    prefilter, and never when every K-average vanishes
    (`data.kappa_vanishes`)."""
    ctx = data.ctx
    acc = CharacterValue.zero(ctx.p)
    for stratum in integrator.torus_strata(data, trunc):
        if not stratum.e:
            continue
        (x0, x1), dexp = regular_preimage(stratum.alpha)
        if (data.kappa_vanishes or x0.val < 0 or x1.val < 0
                or x0.val + x1.val != 0):
            continue
        if data.support_prefilter(x0, x1) is not None:
            continue
        x = Mat.diag(ctx, [x0, x1])
        favg = data.kappa_average(kappa_key(x, data.residue_level))
        acc = acc + favg.scale(Fraction(1, stratum.vol_den)
                                * Fraction(ctx.q) ** (-dexp))
    return acc
