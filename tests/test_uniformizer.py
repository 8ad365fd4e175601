"""The output does not depend on the uniformizer: Eisenstein polynomials
that define the same field give the same coefficient pair (a, b), the
same per-e increments and the same `dtwist` report."""

import pytest

from twirl.integrator import (TruncationSpec, assemble_coefficients,
                              discriminant_report)
from twirl.localfield import LocalFieldCtx
from twirl.supercuspidal import CuspidalData

from integrands import IntegralIndicator

TRUNC = TruncationSpec(gamma_depth=5, k_max=3)

# each family defines one field: Q_2(sqrt 2), and Q_5
FAMILIES = {
    "Q_2(sqrt 2)": (2, 2, 30, [(-2, 0, 1), (-18, 0, 1), (2, 4, 1)]),
    "Q_5": (5, 1, 18, [(-5, 1), (-10, 1), (5, 1)]),
}

# (a, b) on the family's first polynomial, so a family that agreed on a
# wrong or vanishing answer fails too
PINS = {
    ("Q_2(sqrt 2)", "CuspidalData"): ("7781/12288", "0"),
    ("Q_2(sqrt 2)", "IntegralIndicator"): ("11687/4096", "341/64"),
    ("Q_5", "CuspidalData"): ("0", "0"),
    ("Q_5", "IntegralIndicator"): ("98680143498/30517578125",
                                   "123685416/9765625"),
}


def _reading(p, e, precision, eis, integrand):
    ctx = LocalFieldCtx(p, e, eis, precision)
    table = assemble_coefficients(integrand(ctx), TRUNC)
    report = discriminant_report(ctx.from_int(3))
    return ((str(table.a), str(table.b)),
            {e: str(v) for e, v in table.per_e_increments().items()},
            report.to_json())


@pytest.mark.parametrize("integrand", [CuspidalData, IntegralIndicator],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_output_does_not_depend_on_the_uniformizer(family, integrand):
    p, e, precision, polys = FAMILIES[family]
    first, *rest = [_reading(p, e, precision, eis, integrand)
                    for eis in polys]
    assert first[0] == PINS[family, integrand.__name__]
    for eis, got in zip(polys[1:], rest):
        assert got == first, eis
