from fractions import Fraction

import pytest

from twirl import (
    CuspidalData,
    Mat,
    NotRegular,
    PrecisionExhausted,
    TailNonzero,
    TorusElem,
    TruncationSpec,
    assemble_coefficients,
    coefficient_A_B,
    make_field,
    mat_ord,
    norm_preimage,
    orbit_weight_integral,
    orbital_twisted,
    orthogonal_form,
    rg_term,
    square_class_reps,
)
from twirl import integrator
from twirl.cyclotomic import CharacterValue
from twirl.integrator import class_weight_from_delta, orbit_strata, torus_strata
from twirl.localfield import unit_digit_tuples
from twirl.matlattice import a_e, delta, n_b
from twirl.weights import square_class_weight


def ctx5():
    return make_field(5, 1, (-5, 1), 18)


def ctx2():
    return make_field(2, 2, (-2, 0, 1), 24)


def test_torus_strata_volumes():
    c = ctx5()
    trunc = TruncationSpec(gamma_depth=4, unit_depth=2)
    strata = torus_strata(c, trunc, include_verification=False)
    # the strata at ord(alpha -+ 1) = e tile a set of multiplicative volume
    # q^-e on each sign side
    for sign in (1, -1):
        for e in range(1, 5):
            vol = sum(s.vol for s in strata if s.sign == sign and s.e == e)
            assert vol == Fraction(1, 5 ** e)


def test_class_weight_from_delta():
    units = square_class_reps(ctx5()).card_units
    assert class_weight_from_delta(0, units, 1) == 10
    assert class_weight_from_delta(0, units, 0) == 2
    assert class_weight_from_delta(-3, units, 1) == 0


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_class_weight_matches_counting_oracle(mk):
    """The closed class weight at Delta_1 = i - j equals the counting
    oracle summed over every square class at the coset representative
    n_b a_i, b of level j (first and last leading-digit tuple)."""
    c = mk()
    scs = square_class_reps(c)
    for i in range(-2, 4):
        for j in range(0, 4):
            tuples = unit_digit_tuples(c.p, j)
            bs = ([c.zero()] if j == 0 else
                  [c.from_digits(-j, t) for t in (tuples[0], tuples[-1])])
            for b in bs:
                g = n_b(c, b) * a_e(c, i)
                assert delta(g, 1) == i - j
                for k in range(0, 4):
                    assert (class_weight_from_delta(i - j, scs.card_units, k)
                            == square_class_weight(g, None, scs, k))


def test_orbit_strata_shape_even():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    x = norm_preimage(TorusElem(c.one() + c.pi(3)), form).inverse()
    strata = orbit_strata(data, form, x, TruncationSpec(b_window=12))
    live = [s for s in strata if not s.dead]
    assert all(s.f_avg is None for s in strata if s.dead)
    assert {s.i for s in live} == {3}
    assert {s.j for s in live} == {0, 1, 2, 3}
    # Delta_1 of the coset representative is i - j
    for s in live:
        assert delta(s.g0, 1) == s.i - s.j
    # interior strata away from the two deepest levels average to 1
    for s in live:
        if s.j <= s.i - 2:
            assert s.f_avg == CharacterValue.one(2)


def test_psi_k_vanishing_regimes():
    c = ctx5()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    trunc = TruncationSpec(gamma_depth=3, k_max=2)
    for spec in ("pi", "2"):
        from twirl import parse_elem

        alpha = parse_elem(c, spec)
        table = orbit_weight_integral(
            data, form, TorusElem(alpha), range(3), trunc)
        assert all(table[k].is_zero() for k in range(3))
    with pytest.raises(NotRegular):
        orbit_weight_integral(data, form, TorusElem(c.one()), range(2), trunc)


def test_psi_k_positive_even():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    trunc = TruncationSpec(gamma_depth=4, k_max=3)
    table = orbit_weight_integral(
        data, form, TorusElem(c.one() + c.pi(2)), range(4), trunc)
    for k in range(4):
        assert table[k].rational_part() > 0


def test_one_norm_preimage_per_torus_stratum(monkeypatch):
    """assemble_coefficients builds x = S(gamma)^(-1) once per torus
    stratum."""
    c = ctx2()
    trunc = TruncationSpec(gamma_depth=2, k_max=1, unit_depth=2)
    calls = []

    def counting(gamma, form):
        calls.append(gamma)
        return norm_preimage(gamma, form)

    monkeypatch.setattr(integrator, "norm_preimage", counting)
    assemble_coefficients(CuspidalData(c), orthogonal_form(c, 2), trunc)
    assert len(calls) == len(torus_strata(c, trunc))


def test_dedup_matches_full_enumeration():
    """The square-class deduplicated coset representatives with orbit
    weights give the same coefficients as enumerating every coset."""
    for mk in (ctx5, ctx2):
        c = mk()
        data = CuspidalData(c)
        form = orthogonal_form(c, 2)
        base = dict(gamma_depth=3, k_max=3, unit_depth=2)
        t1 = assemble_coefficients(data, form,
                                   TruncationSpec(dedup=True, **base))
        t2 = assemble_coefficients(data, form,
                                   TruncationSpec(dedup=False, **base))
        for k in t1.ks:
            assert t1.values[k] == t2.values[k]


def test_verification_strata_contribute_zero():
    c = ctx5()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    trunc = TruncationSpec(gamma_depth=2, k_max=2, unit_depth=2)
    table = assemble_coefficients(data, form, trunc)
    for label, e, sign, vol, tab in table.per_stratum:
        if label.startswith("unit-class") or label.startswith("noncompact"):
            assert all(v.is_zero() for v in tab.values())
        if label.startswith("sign1-"):  # odd alpha = 1 mod p side vanishes
            assert all(v.is_zero() for v in tab.values())


class IntegralIndicator:
    """Test function: characteristic function of M_2(O) with unit
    determinant; K-twisted-conjugation invariant, so its K-average is a
    membership bit."""

    detval_support = frozenset((0,))

    def __init__(self, ctx):
        self.ctx = ctx

    def support_prefilter(self, y, form):
        if mat_ord(y) < 0:
            return "not integral"
        if y.det().val != 0:
            return "wrong determinant"
        return None

    def kappa_average(self, y, form):
        return CharacterValue.one(self.ctx.p)


def test_orbital_twisted_indicator():
    """Orbital integral of the K-invariant indicator equals |D_eps|^(1/2)
    times the number of coset strata whose representative stays integral,
    counted independently from the column valuations."""
    c = ctx5()
    form = orthogonal_form(c, 2)
    f = IntegralIndicator(c)
    alpha = c.from_int(2)
    delta = norm_preimage(TorusElem(alpha), form).inverse()
    got = orbital_twisted(f, form, delta, TruncationSpec(b_window=10))
    # independent count: i = 0 forced by det; Y integral iff
    # ord(b) + ord(trace) >= 0, so only the b in O class survives
    tr = delta.rows[0][0] + delta.rows[1][1]
    expected_cosets = 1 + sum(
        (5 ** j - 5 ** (j - 1)) for j in range(1, tr.val + 1))
    assert got.value == CharacterValue.rational(5, expected_cosets)
    from twirl import twisted_discriminant

    assert got.half_q_power == -twisted_discriminant(delta, form).ord_value
    # diag(1, -1) has a three-dimensional twisted centralizer Lie algebra
    singular = Mat.diag(c, [c.one(), -c.one()])
    assert twisted_discriminant(singular, form).kernel_dim == 3
    with pytest.raises(NotRegular):
        orbital_twisted(f, form, singular, TruncationSpec())


def test_orbital_zero_function():
    c = ctx5()
    form = orthogonal_form(c, 2)

    class Zero(IntegralIndicator):
        def kappa_average(self, y, form):
            return CharacterValue.zero(5)

    delta = norm_preimage(TorusElem(c.from_int(2)), form).inverse()
    got = orbital_twisted(Zero(c), form, delta, TruncationSpec())
    assert got.value.is_zero()


def test_tail_nonzero_on_small_window():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    x = norm_preimage(TorusElem(c.one() + c.pi(4)), form).inverse()
    with pytest.raises(TailNonzero):
        orbit_strata(data, form, x, TruncationSpec(b_window=2))
    with pytest.raises(TailNonzero):
        orbit_strata(data, form, x, TruncationSpec(e_window=3))


def test_rg_relation_odd():
    c = ctx5()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    trunc = TruncationSpec(gamma_depth=3, k_max=3, unit_depth=2)
    table = assemble_coefficients(data, form, trunc)
    rg = rg_term(data, form, trunc)
    scs = square_class_reps(c)
    c0 = table.values[0]
    assert c0 == rg.scale(2 * scs.card_units)
    for k in table.ks:
        assert table.values[k] == c0.scale(4 * k + 1)


def test_coefficient_A_B():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    a, b, incs = coefficient_A_B(data, form, TruncationSpec(gamma_depth=5))
    assert a > 0 and b > 0
    avals = [ai for _, ai, _ in incs]
    bvals = [bi for _, _, bi in incs]
    assert all(x > y > 0 for x, y in zip(avals, avals[1:]))
    assert all(x > y > 0 for x, y in zip(bvals, bvals[1:]))
    with pytest.raises(NotRegular):
        coefficient_A_B(CuspidalData(ctx5()), orthogonal_form(ctx5(), 2),
                        TruncationSpec())


def test_even_pipeline_affine_and_positive_constant():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    trunc = TruncationSpec(gamma_depth=4, k_max=5, unit_depth=3)
    table = assemble_coefficients(data, form, trunc)
    vals = [table.values[k] for k in table.ks]
    assert vals[0].rational_part() > 0
    d2 = [vals[k + 2] - vals[k + 1].scale(2) + vals[k]
          for k in range(len(vals) - 2)]
    assert all(v.is_zero() for v in d2)


def test_central_torus_stratum_raises():
    """Over x^2 + 2, 2 = -pi^2, so the representative 1 + pi^2 of the
    torus stratum sign1-e2 is -1: the pipeline refuses it instead of
    integrating at a central gamma."""
    c = make_field(2, 2, (2, 0, 1), 24)
    assert c.one() + c.pi(2) == -c.one()
    trunc = TruncationSpec(gamma_depth=2, unit_depth=3, k_max=1)
    with pytest.raises(NotRegular, match="sign1-e2"):
        assemble_coefficients(CuspidalData(c), orthogonal_form(c, 2), trunc)


@pytest.mark.parametrize("precision, label", [(16, "sign1-e5"),
                                              (18, "sign1-e6")])
def test_undecidable_discriminant_raises(precision, label):
    """Below the precision rule the twisted discriminant of a deep torus
    stratum is not decidable (kernel dim 2 instead of 1): the pipeline
    raises instead of using its valuation."""
    c = make_field(2, 2, (-2, 0, 1), precision)
    trunc = TruncationSpec(gamma_depth=6, unit_depth=3, k_max=2)
    with pytest.raises(PrecisionExhausted, match=label):
        assemble_coefficients(CuspidalData(c), orthogonal_form(c, 2), trunc)
