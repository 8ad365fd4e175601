"""The torus strata at one stratum per unit-digit tuple, kept as the test
oracle of `integrator.torus_strata`, which cuts each (sign, e) into the
classes of v mod pi^m that the integrand sees; m = `unit_depth` gives
these strata.  The same signature as `torus_strata`, so a test can put
it in its place; the integrand does not choose the strata here."""

from twirl.integrator import TorusStratum, _stratum_alpha, torus_strata
from twirl.localfield import unit_digit_tuples


def unit_digit_strata(data, trunc):
    """The verification strata of `torus_strata`, then alpha = sign (1 +
    pi^e v) for every unit v mod pi^unit_depth, each of volume
    q^(-e) / |(O/pi^unit_depth)^x|."""
    ctx = data.ctx
    p, q = ctx.p, ctx.q
    out = [s for s in torus_strata(data, trunc) if not s.e]
    ud = trunc.unit_depth
    for sign in ((1,) if p == 2 else (1, -1)):
        for e in range(1, trunc.gamma_depth + 1):
            for digits in unit_digit_tuples(p, ud):
                alpha = _stratum_alpha(ctx, sign, e,
                                       ctx.from_digits(0, digits), ud)
                vol_den = q ** (e + ud - 1) * (q - 1)
                out.append(TorusStratum(alpha, vol_den, f"sign{sign}-e{e}",
                                        sign=sign, e=e))
    return out


def unit_digits(stratum, m):
    """The first m digits of v, read back from alpha = sign (1 + pi^e v)."""
    ctx = stratum.alpha.ctx
    v = (stratum.alpha * ctx.from_int(stratum.sign) - ctx.one()).shift(
        -stratum.e)
    return v.residue_digits(m)
