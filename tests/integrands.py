"""Test integrands beside `CuspidalData`: the indicator of M_2(O) with
unit determinant, nonzero at odd p where every K-average of
`CuspidalData` vanishes, and the same indicator without its
integrality test."""

from twirl.cyclotomic import CharacterValue


class IntegralIndicator:
    """Test function: characteristic function of M_2(O) with unit
    determinant; K-twisted-conjugation invariant, so its K-average is a
    membership bit.  Like `CuspidalData`, it takes the K-average at the
    key of y (`integrator.Coset.key`), which it does not read: the
    prefilter has already settled the bit.  Its prefilter reads y =
    diag(y00, y11), as the walk asks it."""

    detval_support = frozenset((0,))
    residue_level = 2
    kappa_vanishes = False

    def __init__(self, ctx):
        self.ctx = ctx

    def support_prefilter(self, y00, y11):
        if y00.val < 0 or y11.val < 0:
            return "not integral"
        if y00.val + y11.val != 0:
            return "wrong determinant"
        return None

    def kappa_average(self, key):
        return CharacterValue.one(self.ctx.p)


class NonIntegralIndicator(IntegralIndicator):
    """The indicator of M_2(O) with the integrality test dropped from its
    prefilter, so its K-average reads 1 on every y of unit determinant,
    integral or not: unlike an integrand that reads y only mod
    pi^level, it is nonzero off the integral y, where `orbit_strata`
    gives no key (None)."""

    def support_prefilter(self, y00, y11):
        return "wrong determinant" if y00.val + y11.val != 0 else None
