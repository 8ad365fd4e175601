"""Test integrands beside `CuspidalData`: the indicator of M_2(O) with
unit determinant, nonzero at odd p where every K-average of
`CuspidalData` vanishes, and the same indicator without its
integrality test."""

from twirl.cyclotomic import CharacterValue
from twirl.matlattice import mat_ord


class IntegralIndicator:
    """Test function: characteristic function of M_2(O) with unit
    determinant; K-twisted-conjugation invariant, so its K-average is a
    membership bit."""

    detval_support = frozenset((0,))
    residue_level = 2

    def __init__(self, ctx):
        self.ctx = ctx

    def support_prefilter(self, y, form):
        if mat_ord(y) < 0:
            return "not integral"
        if y.det().val != 0:
            return "wrong determinant"
        return None

    def kappa_vanishes(self, form):
        return False

    def kappa_average(self, y, form):
        return CharacterValue.one(self.ctx.p)


class NonIntegralIndicator(IntegralIndicator):
    """The indicator of M_2(O) with the integrality test dropped from its
    prefilter, so its K-average reads 1 on every y of unit determinant,
    integral or not: unlike an integrand that reads y only mod
    pi^level, it is nonzero off the integral y."""

    def support_prefilter(self, y, form):
        return "wrong determinant" if y.det().val != 0 else None
