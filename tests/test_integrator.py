import json
import random
import re
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

from twirl import integrator, twisted
from twirl.cyclotomic import CharacterValue
from twirl.errors import DomainError, NotRegular, PrecisionExhausted, Singular
from twirl.integrator import (TruncationSpec, _delta_totals,
                              assemble_coefficients, coefficient_A_B,
                              discriminant_report, orbit_strata,
                              orbit_weight_integral, regular_preimage,
                              torus_strata)
from twirl.localfield import (Elem, LocalFieldCtx, card_unit_square_classes,
                              parse_elem, square_class_reps,
                              unit_digit_tuples)
from twirl.matlattice import Mat, a_e, n_b, orthogonal_form, vdash
from twirl.supercuspidal import CuspidalData, support_scan
from twirl.twisted import norm_preimage, twisted_discriminant

from coset_walk import coset_strata
from integrands import IntegralIndicator, NonIntegralIndicator
from kappa_oracle import coset_y, kappa_average_oracle, kappa_key
from random_mats import mat_ord
import residue_oracle as oracle
from rg_oracle import rg_term
import twisted_oracles
from twisted_oracles import (is_eps_symmetric, norm_preimage_general,
                             twisted_discriminant_charpoly,
                             twisted_discriminant_oracle)
from unit_digit_strata import unit_digit_strata, unit_digits
from weights_oracle import delta, square_class_weight


def ctx5():
    return LocalFieldCtx(5, 1, (-5, 1), 18)


def ctx2():
    return LocalFieldCtx(2, 2, (-2, 0, 1), 24)


def test_torus_strata_volumes():
    """The strata at ord(alpha -+ 1) = e tile a set of multiplicative
    volume q^-e on each sign side, one stratum per unit class mod pi^m:
    m = 0 where every K-average vanishes (`CuspidalData` at p = 5), and
    m = residue_level - e = 2 - e, capped at unit_depth, for the
    indicator of M_2(O).  Each class representative has its own digits."""
    c = ctx5()
    for ud in (1, 2, 3):
        trunc = TruncationSpec(gamma_depth=4, unit_depth=ud)
        for data in (CuspidalData(c), IntegralIndicator(c)):
            strata = [s for s in torus_strata(data, trunc) if s.e]
            for sign in (1, -1):
                for e in range(1, 5):
                    m = (0 if isinstance(data, CuspidalData)
                         else min(ud, max(0, 2 - e)))
                    here = [s for s in strata if s.sign == sign and s.e == e]
                    assert (sum(Fraction(1, s.vol_den) for s in here)
                            == Fraction(1, 5 ** e))
                    assert len(here) == len(unit_digit_tuples(5, m))
                    assert len({unit_digits(s, m) for s in here}) == len(here)


def test_class_weight_from_delta():
    units = card_unit_square_classes(ctx5())
    assert oracle.class_weight_from_delta(0, units, 1) == 10
    assert oracle.class_weight_from_delta(0, units, 0) == 2
    assert oracle.class_weight_from_delta(-3, units, 1) == 0


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_class_weight_matches_counting_oracle(mk):
    """The closed class weight at Delta_1 = i - j equals the counting
    oracle summed over every square class at the coset representative
    n_b a_i, b of level j (first and last leading-digit tuple).  At
    Delta_1 >= 0 so does a + b k for the pair of the one-key table
    {Delta_1: 1}."""
    c = mk()
    scs = square_class_reps(c)
    one = CharacterValue.one(c.p)
    for i in range(-2, 4):
        for j in range(0, 4):
            tuples = unit_digit_tuples(c.p, j)
            bs = ([c.zero()] if j == 0 else
                  [c.from_digits(-j, t) for t in (tuples[0], tuples[-1])])
            for b in bs:
                g = n_b(c, b) * a_e(c, i)
                assert delta(g, 1) == i - j
                c0, slope = integrator._pair({i - j: one}, c.p,
                                             len(scs.unit_reps))
                for k in range(0, 4):
                    want = square_class_weight(g, None, scs, k)
                    assert oracle.class_weight_from_delta(
                        i - j, len(scs.unit_reps), k) == want
                    if i >= j:
                        assert c0 + slope.scale(k) == CharacterValue.rational(
                            c.p, want)


def test_orbit_strata_shape_even():
    c = ctx2()
    data = CuspidalData(c)
    strata = orbit_strata(data, *integrator._preimage_inverse(c.one()
                                                              + c.pi(3)))
    live = [s for s in strata if not s.dead]
    assert {s.i for s in live} == {3}
    assert {s.j for s in live} == {0, 1, 2, 3}
    # Delta_1 of the coset representative is i - j
    for s in live:
        g0 = n_b(c, c.from_digits(-s.j, s.digits)) * a_e(c, s.i)
        assert delta(g0, 1) == s.i - s.j
    # interior strata away from the two deepest levels average to 1
    for s in live:
        if s.j <= s.i - 2:
            assert data.kappa_average(s.key) == CharacterValue.one(2)


def test_psi_k_vanishing_regimes():
    c = ctx5()
    data = CuspidalData(c)
    for spec in ("pi", "2"):
        alpha = parse_elem(c, spec)
        table = orbit_weight_integral(data, alpha, range(3))
        assert all(table[k].is_zero() for k in range(3))
    with pytest.raises(NotRegular):
        orbit_weight_integral(data, c.one(), range(2))


def test_psi_k_positive_even():
    c = ctx2()
    data = CuspidalData(c)
    table = orbit_weight_integral(data, c.one() + c.pi(2), range(4))
    for k in range(4):
        assert table[k].rational_part() > 0


def test_one_norm_preimage_per_torus_stratum(monkeypatch):
    """assemble_coefficients builds x = S(gamma)^(-1) once per torus
    stratum, by one `Elem` inverse on the split form, and for none of the
    noncompact torus, which has no stratum (`torus_strata`)."""
    c = ctx2()
    trunc = TruncationSpec(gamma_depth=2, k_max=1, unit_depth=2)
    inverses, per_call = [], []
    real_inverse, real_preimage = Elem.inverse, integrator._preimage_inverse

    def counting_inverse(self):
        inverses.append(self)
        return real_inverse(self)

    def counting(alpha):
        before = len(inverses)
        x = real_preimage(alpha)
        per_call.append(len(inverses) - before)
        return x

    monkeypatch.setattr(Elem, "inverse", counting_inverse)
    monkeypatch.setattr(integrator, "_preimage_inverse", counting)
    data = CuspidalData(c)
    assemble_coefficients(data, trunc)
    assert per_call == [1] * 2 == [1] * len(torus_strata(data, trunc))


@pytest.mark.parametrize("p, e, eis, precision, depth, ud, want, n_records", [
    pytest.param(5, 1, (-5, 1), 18, 5, 2, 12, 27, id="odd-p5"),
    pytest.param(2, 2, (-2, 0, 1), 30, 8, 3, 8, 51, id="even-p2"),
])
def test_one_prefilter_call_per_forced_i(monkeypatch, p, e, eis, precision,
                                         depth, ud, want, n_records):
    """On the even-p2 residue config of the benchmark, the c_k table
    calls the support prefilter once per forced Iwasawa exponent i of
    each torus stratum: 8 calls on 8 strata, one per e since every unit
    is 1 mod pi at p = 2 (32 at one stratum per unit-digit tuple), and
    4 more, once per run, for the noncompact certificate
    (`_certify_noncompact`: the two y that are not integral, of ord det
    0 and 1, and diag(-1, pi), diag(pi, -1)).  On the odd-p5 config
    every K-average vanishes and the table makes no call, though
    `orbit_strata` would walk 12 forced i and write 27 records there (51
    on even-p2)."""
    c = LocalFieldCtx(p, e, eis, precision)
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=depth, unit_depth=ud, k_max=8)
    forced = records = 0
    for stratum in torus_strata(data, trunc):
        x, _drep = regular_preimage(stratum.alpha)
        forced += len(integrator._forced_levels(data, *x)[1])
        records += len(orbit_strata(data, *x))
    calls = []
    real = CuspidalData.support_prefilter

    def counting(self, y00, y11):
        calls.append((y00, y11))
        return real(self, y00, y11)

    monkeypatch.setattr(CuspidalData, "support_prefilter", counting)
    assemble_coefficients(data, trunc)
    assert forced == want and records == n_records
    assert len(calls) == (0 if p != 2 else forced + 4)


def test_verification_strata_contribute_zero():
    c = ctx5()
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=2, k_max=2, unit_depth=2)
    table = assemble_coefficients(data, trunc)
    for s, tab in table.per_stratum:
        if s.label.startswith("unit-class"):
            assert all(v.is_zero() for v in tab.values())
        if s.label.startswith("sign1-"):  # odd alpha = 1 mod p side vanishes
            assert all(v.is_zero() for v in tab.values())


# p = 2: x^2 - 2, x^2 + 2x - 2, x^3 - 2; p = 3: x - 3, x^2 + 3x - 3;
# p = 5: x - 5, x - 10; p = 7: x - 7 (with a torus depth each)
LEVEL_WALK_FIELDS = [
    ((2, 2, (-2, 0, 1)), 4), ((2, 2, (-2, 2, 1)), 4), ((2, 3, (-2, 0, 0, 1)), 4),
    ((3, 1, (-3, 1)), 3), ((3, 2, (-3, 3, 1)), 3),
    ((5, 1, (-5, 1)), 3), ((5, 1, (-10, 1)), 3), ((7, 1, (-7, 1)), 2),
]


def _by_level(records):
    out = defaultdict(list)
    for r in records:
        out[r.i, r.j].append(r)
    return out


def test_level_walk_matches_coset_walk():
    """`orbit_strata` against the full `coset_strata` walk grouped by
    (i, j) level, on every torus stratum at the given depth (the
    verification strata included), for `CuspidalData` and the indicator
    of M_2(O): one verdict per level, one record per dead level and at
    most (q-1) q per live one, equal total weights, the closed-form y
    equal to the Mat product at the same b, equal weighted counts of
    the K-average key (the record's `key` against `kappa_key` of the Mat
    product), and equal sums of weight * K-average.  Every odd-p average
    is 0, so there the key counts carry the check."""
    for (p, e, eis), depth in LEVEL_WALK_FIELDS:
        c = LocalFieldCtx(p, e, eis, 20)
        q = c.q
        strata = unit_digit_strata(CuspidalData(c),
                                   TruncationSpec(gamma_depth=depth,
                                                  unit_depth=1))
        for data in (CuspidalData(c), IntegralIndicator(c)):
            for stratum in strata:
                where = (eis, type(data).__name__, stratum.label)
                x = integrator._preimage_inverse(stratum.alpha)
                full = _by_level(coset_strata(data, *x))
                fast = _by_level(orbit_strata(data, *x))
                assert full.keys() == fast.keys(), where
                for (i, j), cosets in full.items():
                    records = fast[i, j]
                    verdicts = {r.dead for r in cosets}
                    assert len(verdicts) == 1, where
                    assert {r.dead for r in records} == verdicts, where
                    assert sum(r.weight for r in records) == len(cosets)
                    assert len(records) <= (1 if verdicts != {None}
                                            else (q - 1) * q), where
                    y_at = {r.digits: r.y for r in cosets}
                    for r in records:
                        pad = (0,) * (j - len(r.digits))
                        assert coset_y(r, *x) == y_at[r.digits + pad], where
                    if verdicts != {None}:
                        continue
                    lvl = data.residue_level
                    keys_full, keys_fast = Counter(), Counter()
                    want = got = CharacterValue.zero(p)
                    for r in cosets:
                        key = kappa_key(r.y, lvl)
                        keys_full[key] += 1
                        want = want + data.kappa_average(key)
                    for r in records:
                        keys_fast[r.key] += r.weight
                        got = got + data.kappa_average(r.key).scale(
                            r.weight)
                    assert keys_fast == keys_full, where
                    assert got == want, where


KEY_FIELDS = [((2, 2, (-2, 0, 1)), 5), ((2, 3, (-2, 0, 0, 1)), 5),
              ((3, 1, (-3, 1)), 3), ((5, 1, (-5, 1)), 3)]


@pytest.mark.parametrize("field, depth", KEY_FIELDS,
                         ids=["x^2-2", "x^3-2", "x-3", "x-5"])
def test_record_key_matches_the_coset_walk(field, depth):
    """The key `orbit_strata` reads off a live record is `kappa_key` of
    y built by `Mat` products (`coset_strata`) at every coset of the
    record's class, on every torus stratum to the given depth:
    `CuspidalData` over x^2 - 2 and x^3 - 2, and the indicator of M_2(O)
    at p = 3 and 5, where `CuspidalData` has no live record.  At p = 2
    the K-average at the key equals the GL_2(O/pi^2) enumeration
    `kappa_average_oracle` at y."""
    p, e, eis = field
    c = LocalFieldCtx(p, e, eis, 20)
    data = CuspidalData(c) if p == 2 else IntegralIndicator(c)
    averaged = set()
    cosets = 0
    for stratum in unit_digit_strata(data, TruncationSpec(gamma_depth=depth,
                                                          unit_depth=1)):
        x = integrator._preimage_inverse(stratum.alpha)
        live = [r for r in orbit_strata(data, *x) if r.dead is None]
        for cos in coset_strata(data, *x):
            if cos.dead is not None:
                continue
            [r] = [r for r in live if (r.i, r.j) == (cos.i, cos.j)
                   and cos.digits[:len(r.digits)] == r.digits]
            key = kappa_key(cos.y, 2)
            assert r.key == key, (eis, stratum.label, cos.digits)
            cosets += 1
            if p == 2 and key not in averaged:
                averaged.add(key)
                assert data.kappa_average(key) == \
                    kappa_average_oracle(data, cos.y, 2), (eis, key)
    assert cosets and (p != 2 or len(averaged) > 1)


def test_orbit_strata_copies_the_prefilter_verdict_to_every_level():
    """On every torus stratum of the level-walk fields, for `CuspidalData`
    and the indicator of M_2(O), `orbit_strata`, which calls the support
    prefilter once per forced i, records on every level j of i the
    verdict that the prefilter gives on the diagonal of that level's y
    (y by the `Mat` product at the first and last b of the level).

    That the prefilter gives one verdict per i holds by construction: it
    reads only (y00, y11), and y00 = pi^i x0, y11 = pi^i x1 at every b
    of a forced i.  The first assertion only restates that; the check is
    the second, that the walk copies the verdict to every level.  Both
    integrands have live i with more than one level (at p = 2 only, for
    `CuspidalData`)."""
    live_deep = Counter()
    for (p, e, eis), depth in LEVEL_WALK_FIELDS:
        c = LocalFieldCtx(p, e, eis, 20)
        form = orthogonal_form(c, 2)
        strata = unit_digit_strata(CuspidalData(c),
                                   TruncationSpec(gamma_depth=depth,
                                                  unit_depth=1))
        for data in (CuspidalData(c), IntegralIndicator(c)):
            name = type(data).__name__
            for stratum in strata:
                where = (eis, name, stratum.label)
                x, _drep = regular_preimage(stratum.alpha)
                recorded = defaultdict(set)
                for r in orbit_strata(data, *x):
                    recorded[r.i].add(r.dead)
                for i, jmax in integrator._forced_levels(data, *x)[1]:
                    verdicts = set()
                    for j in range(0, jmax + 1):
                        tuples = unit_digit_tuples(p, j)
                        for digits in {tuples[0], tuples[-1]}:
                            g0 = n_b(c, c.from_digits(-j, digits)) * a_e(c, i)
                            y = g0 * Mat.diag(c, x) * vdash(g0, form)
                            verdicts.add(data.support_prefilter(y.rows[0][0],
                                                                y.rows[1][1]))
                    assert len(verdicts) == 1, (where, i)
                    assert recorded[i] == verdicts, (where, i)
                    live_deep[name] += jmax > 0 and verdicts == {None}
    assert live_deep["CuspidalData"] and live_deep["IntegralIndicator"]


def test_support_prefilter_reads_the_diagonal_as_the_oracles_do():
    """On seeded y = diag(y00, y11) over the level-walk fields, the
    prefilter's verdict is the one the `Mat` route gives: "not integral"
    when an entry of y has negative valuation, the det reason when ord
    det y lies outside `detval_support`, and the eps reason when the
    general-form oracle `is_eps_symmetric` finds y not eps-symmetric mod
    pi under the split orthogonal form.  Every verdict occurs."""
    seen = set()
    for (p, e, eis), _depth in LEVEL_WALK_FIELDS:
        c = LocalFieldCtx(p, e, eis, 20)
        data, form = CuspidalData(c), orthogonal_form(c, 2)
        rng = random.Random(31 * p + e)
        for n in range(80):
            y00 = c.random_elem(rng, -1, 2)
            y11 = (y00 + c.random_elem(rng, 1, 3) if n % 2
                   else c.random_elem(rng, -1, 2))
            y = Mat.diag(c, [y00, y11])
            if mat_ord(y) < 0:
                want = "not integral"
            elif y.det().val not in data.detval_support:
                want = "det valuation outside {0,1}"
            elif not is_eps_symmetric(y, form, mod_level=1):
                want = "not eps-symmetric mod p"
            else:
                want = None
            assert data.support_prefilter(y00, y11) == want, (eis, y)
            seen.add(want)
    assert seen == {"not integral", "det valuation outside {0,1}",
                    "not eps-symmetric mod p", None}


def test_zero_trace_raises():
    """x = diag(1, -1) has trace 0: not regular, so both walks raise
    instead of reading the b levels as unbounded (a precision-starved
    x = S(gamma)^(-1), whose trace is -1, reads the same way)."""
    c = ctx5()
    x = (c.one(), -c.one())
    for data in (CuspidalData(c), IntegralIndicator(c)):
        with pytest.raises(PrecisionExhausted, match="trace"):
            next(coset_strata(data, *x))
        with pytest.raises(PrecisionExhausted, match="precision 18"):
            orbit_strata(data, *x)
        # CuspidalData walks no level at p = 5, and still checks the trace
        with pytest.raises(PrecisionExhausted,
                           match="^trace x0 \\+ x1 reads 0 at precision 18"):
            integrator._delta_totals(data, *x)


def test_orbital_twisted_indicator():
    """The orbit strata of the K-invariant indicator carry, in weight *
    K-average summed over the live records, the number of coset strata whose
    representative stays integral, counted independently from the column
    valuations."""
    c = ctx5()
    f = IntegralIndicator(c)
    alpha = c.from_int(2)
    delta = integrator._preimage_inverse(alpha)
    assert twisted_discriminant(*delta).regular
    got = CharacterValue.zero(5)
    for s in orbit_strata(f, *delta):
        if s.dead is None:
            got = got + f.kappa_average(s.key).scale(s.weight)
    # independent count: i = 0 forced by det; Y integral iff
    # ord(b) + ord(trace) >= 0, so only the b in O class survives
    tr = delta[0] + delta[1]
    expected_cosets = 1 + sum(
        (5 ** j - 5 ** (j - 1)) for j in range(1, tr.val + 1))
    assert got == CharacterValue.rational(5, expected_cosets)
    # diag(1, -1) has a three-dimensional twisted centralizer Lie algebra
    assert twisted_discriminant(c.one(), -c.one()).kernel_dim == 3


def test_rg_relation_odd():
    """c_k = (4k+1) c_0 and c_0 = 2 |O^x/(O^x)^2| rg at p = 5, gamma_depth
    3 (criterion 8, at gamma_depth 5, is in tests/test_acceptance.py).
    Both hold because every live record of the walk sits at
    Delta_1 = 0, where the class weight is |units| (4k+1): at p = 3, 5
    and 7 every live `orbit_strata` record has i = j = 0 on a sign -1
    torus stratum (the values themselves are all 0, so this is what the
    relations check)."""
    c = ctx5()
    data = CuspidalData(c)
    units = card_unit_square_classes(c)
    trunc = TruncationSpec(gamma_depth=3, k_max=3, unit_depth=2)
    table = assemble_coefficients(data, trunc)
    c0 = table.values[0]
    assert c0 == rg_term(data, trunc).scale(2 * units)
    for k in table.ks:
        assert table.values[k] == c0.scale(4 * k + 1)
    for p, precision, depth, ud in ((3, 18, 5, 2), (5, 18, 5, 2),
                                    (7, 12, 3, 1)):
        c = LocalFieldCtx(p, 1, (-p, 1), precision)
        data = CuspidalData(c)
        live = 0
        trunc = TruncationSpec(gamma_depth=depth, unit_depth=ud)
        for stratum in unit_digit_strata(data, trunc):
            x, _drep = regular_preimage(stratum.alpha)
            for r in orbit_strata(data, *x):
                if r.dead is None:
                    assert (stratum.sign, r.i, r.j) == (-1, 0, 0), (
                        p, stratum.label, r.i, r.j)
                    live += 1
        assert live, p


@pytest.mark.parametrize("p, want", [(3, Fraction(52, 27)),
                                     (5, Fraction(124, 125)),
                                     (7, Fraction(228, 343))],
                         ids=["p3", "p5", "p7"])
def test_rg_relation_on_sign_minus_one_strata(p, want):
    """The rg relation on nonzero values: the indicator of M_2(O) at
    gamma_depth 3, unit_depth 2, precision 18.  On the sign -1 strata
    every live record is i = j = 0, so there the summed `per_stratum`
    shares give c_k = (4k+1) c_0 and c_0 = 2 |O^x/(O^x)^2| rg, with rg
    the rg oracle (whose sign 1 strata have x not integral).  The whole
    table does not factor: its sign 1 strata have live records at
    Delta_1 > 0, and b != 4a."""
    c = LocalFieldCtx(p, 1, (-p, 1), 18)
    data = IntegralIndicator(c)
    trunc = TruncationSpec(gamma_depth=3, unit_depth=2, k_max=4)
    table = assemble_coefficients(data, trunc)
    assert table.b != table.a.scale(4)
    shares = [tab for s, tab in table.per_stratum if s.sign == -1]
    c_k = {k: sum((tab[k] for tab in shares), CharacterValue.zero(p))
           for k in table.ks}
    assert c_k[0] == CharacterValue.rational(p, want)
    assert c_k[0] == rg_term(data, trunc).scale(2 * table.units)
    for k in table.ks:
        assert c_k[k] == c_k[0].scale(4 * k + 1), k


@pytest.mark.parametrize("p", [5, 7], ids=["p5", "p7"])
def test_unit_class_strata_live_for_the_indicator(p):
    """The unit classes alpha = c, 2 <= c <= p - 2, add 0 for
    `CuspidalData` (every odd-p K-average vanishes) but not for every
    integrand: x = diag(1/(c - 1), -c/(c - 1)) is integral of unit
    determinant, so the indicator of M_2(O) gives each `unit-class-c` a
    nonzero total at Delta_1 = 0 alone."""
    c = LocalFieldCtx(p, 1, (-p, 1), 18)
    trunc = TruncationSpec(gamma_depth=3, unit_depth=2, k_max=2)
    for data, live in ((CuspidalData(c), False), (IntegralIndicator(c), True)):
        table = assemble_coefficients(data, trunc)
        units = [totals for s, totals in table.stratum_totals
                 if s.label.startswith("unit-class-")]
        assert len(units) == p - 3
        for totals in units:
            assert (set(totals) == {0} and not totals[0].is_zero()) == live
            assert (totals == {}) != live


@pytest.mark.parametrize("eis", [(-2, 0, 1), (-2, 0, 0, 1)],
                         ids=["x2-2", "x3-2"])
def test_p2_zero_slope_stratum_by_stratum(eis):
    """Criterion 9b's zero slope, b = 0, pinned where it arises: over
    x^2 - 2 and x^3 - 2 at gamma_depth 5, every sign1-e stratum's totals
    sum to exactly 0 over Delta_1 (they are the raw T_{e,d} rows times
    2 vol |D_eps| != 0, so each row sum of T_{e,d} is 0 too), and there
    is no other stratum; b = 4 units sum_d T_d is then 0.  The
    raw rows of `_delta_totals` are pinned exactly, the same at E = 2
    and E = 3: T_1 = {0: -1/3, 1: 1/3}; for e >= 2, T_{e,0} =
    -2^(e-1)/3, T_{e,1} = -2^(e-2)/3, T_{e,d} = 2^(e-1-d) for
    2 <= d < e, and T_{e,e} = 1."""
    c = LocalFieldCtx(2, len(eis) - 1, eis, 24)
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=5, k_max=2)
    table = assemble_coefficients(data, trunc)
    assert table.b.is_zero() and not table.a.is_zero()
    es = []
    for s, totals in table.stratum_totals:
        assert s.label == f"sign1-e{s.e}" and set(totals) == set(range(s.e + 1))
        assert sum(totals.values(), CharacterValue.zero(2)).is_zero(), s.label
        es.append(s.e)
    assert sorted(es) == [1, 2, 3, 4, 5]
    for stratum in torus_strata(data, trunc):
        if stratum.e:
            x, _dexp = regular_preimage(stratum.alpha)
            raw = _delta_totals(data, *x)
            assert raw == _p2_raw_row(stratum.e), stratum.label


def _p2_raw_row(e):
    """The raw p = 2 totals {d: T_{e,d}} of the sign1-e stratum."""
    if e == 1:
        row = {0: Fraction(-1, 3), 1: Fraction(1, 3)}
    else:
        row = {0: Fraction(-2 ** (e - 1), 3), 1: Fraction(-2 ** (e - 2), 3),
               e: Fraction(1)}
        row.update({d: Fraction(2 ** (e - 1 - d)) for d in range(2, e)})
    return {d: CharacterValue.rational(2, t) for d, t in row.items()}


def _A_B_rationals(data, trunc):
    """`coefficient_A_B` with each constant, a p = 2 `CharacterValue`,
    read as a `Fraction`."""
    a, b, incs = coefficient_A_B(data, trunc)
    return (a.rational_part(), b.rational_part(),
            [(e, ai.rational_part(), bi.rational_part())
             for e, ai, bi in incs])


def test_coefficient_A_B():
    """A, B and every per-shell increment are positive p = 2
    `CharacterValue`s, whose `str` is that of the `Fraction`, and the
    increments fall with e."""
    c = ctx2()
    data = CuspidalData(c)
    values = coefficient_A_B(data, TruncationSpec(gamma_depth=5))
    for v in values[:2] + tuple(x for _e, ai, bi in values[2]
                                for x in (ai, bi)):
        assert type(v) is CharacterValue and v.p == 2
        assert str(v) == str(v.rational_part())
    a, b, incs = _A_B_rationals(data, TruncationSpec(gamma_depth=5))
    assert a > 0 and b > 0
    avals = [ai for _, ai, _ in incs]
    bvals = [bi for _, _, bi in incs]
    assert all(x > y > 0 for x, y in zip(avals, avals[1:]))
    assert all(x > y > 0 for x, y in zip(bvals, bvals[1:]))
    # outside p = 2 with 2 in pi^2 the constants are undefined: a field
    # outside their domain, not an irregular element.  CuspidalData
    # refuses p = 2 with e = 1 itself, so the indicator of M_2(O), which
    # builds there, reaches the e < 2 half of the refusal
    want = "^weight-only constants require p = 2 with 2 in pi\\^2$"
    for data in (CuspidalData(ctx5()),
                 IntegralIndicator(LocalFieldCtx(2, 1, (-2, 1), 24))):
        with pytest.raises(DomainError, match=want):
            coefficient_A_B(data, TruncationSpec())


def test_coefficient_A_B_makes_one_report(monkeypatch):
    """`coefficient_A_B` reads |D_eps| = q^-(ord 2 + 2e) in closed form
    and makes one `discriminant_report`, at e = gamma_depth, the first
    stratum to lose a digit: at precision 12 and gamma_depth 12 it raises
    PrecisionExhausted naming 1+pi^12, with the type the report raised.
    The constants equal the sums of a report per e."""
    reports = []
    report = integrator.discriminant_report

    def counted(alpha):
        reports.append(alpha)
        return report(alpha)

    monkeypatch.setattr(integrator, "discriminant_report", counted)
    c = ctx2()
    a, b, incs = _A_B_rationals(CuspidalData(c), TruncationSpec(gamma_depth=5))
    assert reports == [c.one() + c.pi(5)]
    q = Fraction(c.q)
    for e, a_inc, b_inc in incs:
        alpha = c.one() + c.pi(e)
        deps = q ** -report(alpha).ord_value
        shell = [1] + [c.q ** j - c.q ** (j - 1) for j in range(1, e)]
        assert a_inc == q ** -e * deps * sum(
            n * (2 * (e - j) + 1) for j, n in enumerate(shell))
        assert b_inc == 4 * q ** -e * deps * sum(shell)
    assert (a, b) == (sum(i[1] for i in incs), sum(i[2] for i in incs))
    low = LocalFieldCtx(2, 2, (-2, 0, 1), 12)
    with pytest.raises(PrecisionExhausted, match=r"^1\+pi\^12: "):
        coefficient_A_B(CuspidalData(low), TruncationSpec(gamma_depth=12))


def test_even_pipeline_affine_and_positive_constant():
    c = ctx2()
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=4, k_max=5, unit_depth=3)
    table = assemble_coefficients(data, trunc)
    vals = [table.values[k] for k in table.ks]
    assert vals[0].rational_part() > 0
    d2 = [vals[k + 2] - vals[k + 1].scale(2) + vals[k]
          for k in range(len(vals) - 2)]
    assert all(v.is_zero() for v in d2)


def test_central_torus_stratum_raises(monkeypatch):
    """Over x^2 + 2, 2 = -pi^2, so 1 + pi^2 is -1: `regular_preimage`
    refuses that central gamma, and `assemble_coefficients`, given it as
    a representative, names the stratum in front of the reason, with the
    type the reason was raised as.  The torus strata and
    `coefficient_A_B` take 1 + pi^2 + pi^(2 + depth) instead, in the same
    class mod pi^(2 + depth), and the c_k, A and B come out as over
    x^2 - 2."""
    c = LocalFieldCtx(2, 2, (2, 0, 1), 24)
    central = c.one() + c.pi(2)
    assert central == -c.one()
    with pytest.raises(NotRegular, match=r"^gamma \+ 1 is singular$"):
        regular_preimage(central)
    trunc = TruncationSpec(gamma_depth=3, unit_depth=3, k_max=2)
    with monkeypatch.context() as m:
        m.setattr(integrator, "_stratum_alpha",
                  lambda ctx, sign, e, v, depth: ctx.one() + v.shift(e))
        with pytest.raises(NotRegular,
                           match=r"^sign1-e2: gamma \+ 1 is singular$"):
            assemble_coefficients(CuspidalData(c), trunc)
    reps = [s.alpha for s in torus_strata(CuspidalData(c), trunc)
            if s.label == "sign1-e2"]
    assert central not in reps and central + c.pi(5) in reps
    twin = LocalFieldCtx(2, 2, (-2, 0, 1), 24)
    got, want = [
        (assemble_coefficients(CuspidalData(f), trunc).values,
         coefficient_A_B(CuspidalData(f), trunc))
        for f in (c, twin)]
    assert got == want


@pytest.mark.parametrize("precision, depth, label", [(12, 12, "sign1-e11"),
                                                     (16, 14, "sign1-e13")])
def test_undecidable_discriminant_raises(precision, depth, label):
    """Far below the precision rule the entries of x = S(gamma)^(-1) on a
    deep torus stratum carry too few digits to decide x0, x1 or x0 + x1:
    the pipeline raises, naming the stratum, instead of using a
    valuation."""
    c = LocalFieldCtx(2, 2, (-2, 0, 1), precision)
    trunc = TruncationSpec(gamma_depth=depth, unit_depth=1, k_max=2)
    with pytest.raises(PrecisionExhausted, match=label):
        assemble_coefficients(CuspidalData(c), trunc)


def test_closed_form_decides_former_undecidable_inputs():
    """Precision 16 and 18 at gamma_depth 6 left a Berkowitz coefficient
    undecided (kernel dim 2 at sign1-e5, sign1-e6); the closed-form
    discriminant decides them, with the c_k bytes of precision 30."""
    trunc = TruncationSpec(gamma_depth=6, unit_depth=3, k_max=2)
    outs = set()
    for precision in (16, 18, 30):
        c = LocalFieldCtx(2, 2, (-2, 0, 1), precision)
        table = assemble_coefficients(CuspidalData(c), trunc)
        outs.add(json.dumps(table.to_json()["values"], sort_keys=True))
        assert table.values[0].to_json() == ["20791/32768"]
    assert len(outs) == 1


def test_discriminant_routes_on_every_torus_stratum():
    """The closed-form twisted discriminant against the Berkowitz charpoly
    and the kernel-quotient oracle on every torus stratum of the level
    walk fields and of x^2 + 2 at gamma_depth 4 (both signs at odd p, the
    unit classes included), and at the noncompact alpha = pi^t, t = +-1
    and +-2, which no stratum holds: equal valuation, kernel dim and
    exact lowest coefficient, and the integer exponent of
    `regular_preimage`, ord 2 + 2 ord(alpha - 1) - ord(alpha), equals
    that valuation.  Every alpha of `torus_strata` is regular by exact
    zero tests of alpha -+ 1.  diag(1, -1) has kernel dim 3 and lowterm
    2."""
    fields = [f for f, _depth in LEVEL_WALK_FIELDS] + [(2, 2, (2, 0, 1))]
    for p, e, eis in fields:
        c = LocalFieldCtx(p, e, eis, 20)
        form = orthogonal_form(c, 2)
        strata = unit_digit_strata(CuspidalData(c),
                                   TruncationSpec(gamma_depth=4))
        signs = {s.sign for s in strata}
        alphas = [(s.label, s.alpha) for s in strata]
        alphas += [(f"pi^{t}", c.pi(t)) for t in (1, 2, -1, -2)]
        for label, alpha in alphas:
            where = (eis, label)
            assert not any((alpha + c.from_int(t)).normalized()
                           .is_zero() for t in (1, -1)), where
            x = norm_preimage(alpha).inverse()
            closed = twisted_discriminant(x.rows[0][0], x.rows[1][1])
            reports = [route(x, form) for route in (
                twisted_discriminant_charpoly, twisted_discriminant_oracle)]
            assert closed.kernel_dim == 1 and closed.regular
            _x, dexp = regular_preimage(alpha)
            assert dexp == closed.ord_value, where
            for rep in reports:
                assert rep.ord_value == closed.ord_value, where
                assert rep.kernel_dim == closed.kernel_dim, where
                assert rep.charpoly_lowterm == closed.charpoly_lowterm, where
        # sign 0: the unit classes c = 2 .. p - 2, which exist at p >= 5
        want = {1} if p == 2 else {1, -1} | ({0} if p > 3 else set())
        assert signs == want, eis
    c = ctx5()
    rep = twisted_discriminant(c.one(), -c.one())
    assert (rep.kernel_dim, rep.regular) == (3, False)
    assert rep.charpoly_lowterm == c.from_int(2)


def test_pipeline_never_calls_the_charpoly(monkeypatch):
    """assemble_coefficients and coefficient_A_B take every twisted
    discriminant in closed form: no module of the library defines the
    Berkowitz charpoly or any other general route of the test oracles
    (`tests/twisted_oracles.py`), and the pipeline takes one closed-form
    `twisted_discriminant`, in coefficient_A_B, and none in
    assemble_coefficients, which reads |D_eps| off alpha."""
    import twirl
    from twirl import cli, localfield, matlattice, residue, ringvec
    from twirl import supercuspidal

    moved = ("charpoly", "_twist_operator", "_trailing_zeros",
             "norm_preimage_general", "twisted_discriminant_charpoly",
             "twisted_discriminant_oracle")
    assert all(hasattr(twisted_oracles, name) for name in moved)
    for mod in (twirl, cli, integrator, localfield, matlattice, residue,
                ringvec, supercuspidal, twisted):
        assert not any(hasattr(mod, name) for name in moved), mod.__name__
    calls = []
    closed = integrator.twisted_discriminant

    def counting(x0, x1):
        calls.append((x0, x1))
        return closed(x0, x1)

    monkeypatch.setattr(integrator, "twisted_discriminant", counting)
    c = ctx2()
    trunc = TruncationSpec(gamma_depth=3, k_max=1, unit_depth=2)
    assemble_coefficients(CuspidalData(c), trunc)
    assert calls == []
    coefficient_A_B(CuspidalData(c), trunc)
    assert len(calls) == 1


def test_closed_form_preimage_on_every_torus_stratum():
    """On every torus stratum of the level-walk fields, and at alpha = -1,
    the closed-form S(gamma) equals w J^(-1) (gamma - 1) and the x of
    `regular_preimage` (x0 = (alpha - 1)^(-1), x1 = -alpha x0) equals its
    `Mat.inverse`, with at least the general route's tracked validity:
    the closed form loses no digits.  alpha = 1 raises NotRegular on the
    closed form."""
    for (p, e, eis), _depth in LEVEL_WALK_FIELDS:
        c = LocalFieldCtx(p, e, eis, 20)
        form = orthogonal_form(c, 2)
        strata = unit_digit_strata(CuspidalData(c),
                                   TruncationSpec(gamma_depth=4))
        for stratum in strata:
            where = (eis, stratum.label)
            general = norm_preimage_general(stratum.alpha, form)
            assert norm_preimage(stratum.alpha) == general, where
            x, _drep = regular_preimage(stratum.alpha)
            want = general.inverse()
            assert Mat.diag(c, x) == want, where
            for k in (0, 1):
                assert (x[k].normalized().mexp
                        >= want.rows[k][k].normalized().mexp), where
        minus = -c.one()
        general = norm_preimage_general(minus, form)
        assert norm_preimage(minus) == general, eis
        assert Mat.diag(c, integrator._preimage_inverse(minus)) \
            == general.inverse()
        with pytest.raises(NotRegular):
            integrator._preimage_inverse(c.one())


# every function that takes alpha, called on (data, alpha)
ALPHA_ENTRY_POINTS = {
    "norm_preimage": lambda data, a: norm_preimage(a),
    "_preimage_inverse": lambda data, a: integrator._preimage_inverse(a),
    "discriminant_report": lambda data, a: discriminant_report(a),
    "support_scan": lambda data, a: support_scan(data, a),
    "regular_preimage": lambda data, a: regular_preimage(a),
    "orbit_weight_integral":
        lambda data, a: orbit_weight_integral(data, a, range(2)),
}


@pytest.mark.parametrize("entry", list(ALPHA_ENTRY_POINTS))
@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_alpha_zero_and_one_are_refused_on_every_entry_point(mk, entry):
    """alpha = 0 raises Singular("inverse of zero") and alpha = 1
    NotRegular("gamma - 1 is singular") on every function that takes
    alpha, with the reason alone: the caller names the place.
    `regular_preimage`, and `orbit_weight_integral` through it, also
    refuse alpha = -1, as gamma + 1 is singular."""
    c = mk()
    data = CuspidalData(c)
    call = ALPHA_ENTRY_POINTS[entry]
    with pytest.raises(Singular, match="^inverse of zero$"):
        call(data, c.zero())
    with pytest.raises(NotRegular, match="^gamma - 1 is singular$"):
        call(data, c.one())
    if entry in ("regular_preimage", "orbit_weight_integral"):
        with pytest.raises(NotRegular, match=r"^gamma \+ 1 is singular$"):
            call(data, -c.one())


def test_grouped_psi_k_equals_per_record_sum():
    """`orbit_weight_integral` sums weight * f_avg per Delta_1 and reads
    psi_k off the pair (a, b); it equals the sum over live records of
    weight * f_avg * the oracle's class weight, f_avg the K-average at
    the record's y."""
    ks = range(0, 5)
    for (p, e, eis), _depth in LEVEL_WALK_FIELDS[:3]:
        c = LocalFieldCtx(p, e, eis, 20)
        data = CuspidalData(c)
        units = card_unit_square_classes(c)
        nonzero = 0
        for stratum in unit_digit_strata(data, TruncationSpec(gamma_depth=4)):
            x, _drep = regular_preimage(stratum.alpha)
            want = {k: CharacterValue.zero(p) for k in ks}
            for r in orbit_strata(data, *x):
                if r.dead is not None:
                    continue
                f_avg = data.kappa_average(r.key)
                for k in ks:
                    w = oracle.class_weight_from_delta(r.i - r.j, units, k)
                    want[k] = want[k] + f_avg.scale(r.weight * w)
            got = orbit_weight_integral(data, stratum.alpha, ks)
            assert got == want, (eis, stratum.label)
            nonzero += sum(not v.is_zero() for v in got.values())
        assert nonzero


@pytest.mark.parametrize("p, e, eis, integrand, depth, ud, k_max", [
    (2, 2, (-2, 0, 1), CuspidalData, 4, 3, 8),
    (5, 1, (-5, 1), IntegralIndicator, 3, 1, 2),
])
def test_per_stratum_sums_to_values(p, e, eis, integrand, depth, ud, k_max):
    """`values` reads a + b k off the pair of the run-wide per-Delta_1
    totals; `per_stratum` reads each stratum's own pair when read.  For
    every k the per-stratum shares sum to c_k exactly, and some are
    nonzero."""
    c = LocalFieldCtx(p, e, eis, 24)
    trunc = TruncationSpec(gamma_depth=depth, unit_depth=ud, k_max=k_max)
    table = assemble_coefficients(integrand(c), trunc)
    nonzero = 0
    for k in table.ks:
        total = CharacterValue.zero(p)
        for _s, tab in table.per_stratum:
            total = total + tab[k]
            nonzero += not tab[k].is_zero()
        assert total == table.values[k], k
    assert nonzero


def test_indicator_coefficients_pinned():
    """c_0..c_2 of the indicator of M_2(O) with unit determinant at p = 5
    (gamma_depth 3, unit_depth 1): a nonzero odd-p answer that pins the
    scale 2 vol |D_eps| and the class weight together."""
    c = ctx5()
    trunc = TruncationSpec(gamma_depth=3, unit_depth=1, k_max=2)
    table = assemble_coefficients(IntegralIndicator(c), trunc)
    assert [table.values[k].rational_part() for k in table.ks] == [
        Fraction(6300498, 1953125), Fraction(30977498, 1953125),
        Fraction(55654498, 1953125)]


# the fields of LEVEL_WALK_FIELDS but x - 10
PAIR_FIELDS = [field for field, _depth in LEVEL_WALK_FIELDS
               if field != (5, 1, (-10, 1))]


@pytest.mark.parametrize("field", PAIR_FIELDS,
                         ids=[",".join(map(str, f[2])) for f in PAIR_FIELDS])
def test_pair_equals_the_generic_chain(field):
    """For `CuspidalData` and the indicator of M_2(O) at gamma_depth 3 and
    unit_depth 1: every per-Delta_1 key is >= 0, and the smallest key of a
    nonempty run is 0; `values` and `per_stratum` equal the oracle's
    class weight applied per (Delta_1, k) at k_max 10; and the report of
    (a, b) equals the oracle's fit, closed form and series inverse on the
    printed c_k at k_max 4..10.  Every odd-p table of `CuspidalData` is
    0, so there the zero regime is what is compared."""
    c = LocalFieldCtx(*field, 20)
    trunc = TruncationSpec(gamma_depth=3, unit_depth=1, k_max=10)
    for data in (CuspidalData(c), IntegralIndicator(c)):
        table = assemble_coefficients(data, trunc)
        run = {}
        for _s, totals in table.stratum_totals:
            assert min(totals, default=0) >= 0
            for d, t in totals.items():
                run[d] = run[d] + t if d in run else t
        assert min(run, default=0) == 0
        assert (bool(run) == (type(data) is IntegralIndicator or c.p == 2))
        assert table.values == oracle.weigh(run, c.p, table.ks, table.units)
        for (_s, totals), (_s, tab) in zip(table.stratum_totals,
                                           table.per_stratum):
            assert tab == oracle.weigh(totals, c.p, table.ks, table.units)
        for k_max in range(4, 11):
            oracle.assert_report_matches(table.a, table.b,
                                         range(k_max + 1), 2, c.q)


def test_negative_delta_total_raises():
    """At alpha = pi^2, x = S(gamma)^(-1) has ord det 2, so unit
    determinant forces i = -1, j = 0: Delta_1 = -1, where y = pi^(-1) x
    is not integral.  The indicator's prefilter kills that level; without
    its integrality test the total there is nonzero, where the class
    weight is clipped and c_k = a + b k fails (the oracle's c_0 weight is
    0, not units (2 Delta_1 + 1)).  `orbit_weight_integral` raises
    DomainError instead of printing a wrong digit.
    The c_k table walks no noncompact alpha (`torus_strata`); it refuses
    that integrand up front, as its prefilter keeps the y of ord det 0
    that is not integral (`_certify_noncompact`)."""
    c = ctx5()
    trunc = TruncationSpec(gamma_depth=1, unit_depth=1, k_max=2)
    units = card_unit_square_classes(c)
    assert oracle.class_weight_from_delta(-1, units, 0) == 0 != -units
    with pytest.raises(DomainError, match="^nonzero total at Delta_1 = -1 "
                                          "< 0"):
        orbit_weight_integral(NonIntegralIndicator(c), c.pi(2), range(3))
    with pytest.raises(DomainError, match="^noncompact torus: the support "
                       "prefilter keeps y = diag\\(-pi\\^-1, pi\\^1\\), so "
                       "the region cannot be certified to add 0$"):
        assemble_coefficients(NonIntegralIndicator(c), trunc)
    psi = orbit_weight_integral(IntegralIndicator(c), c.pi(2), range(3))
    assert all(v.is_zero() for v in psi.values())
    assemble_coefficients(IntegralIndicator(c), trunc)


# p = 2: x^2 - 2, x^3 - 2; p = 3: x^2 + 3x - 3, x - 3; p = 5: x - 5;
# p = 7: x - 7
NONCOMPACT_FIELDS = [(2, 2, (-2, 0, 1)), (2, 3, (-2, 0, 0, 1)),
                     (3, 2, (-3, 3, 1)), (3, 1, (-3, 1)), (5, 1, (-5, 1)),
                     (7, 1, (-7, 1))]


@pytest.mark.parametrize("p, e, eis", NONCOMPACT_FIELDS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_noncompact_torus_adds_nothing(p, e, eis):
    """The proof in `torus_strata`, swept: at alpha = pi^t u for every t in
    [-6, 6] other than 0 and four seeded units u, every level record of
    the walk over G/T (`orbit_strata`, asked directly, so also at odd p
    where the c_k table skips the walk) is dead, and `_delta_totals` is
    empty, for `CuspidalData` (p = 2 only, where it builds) and the
    indicator of M_2(O).  Both pass the certificate
    (`_certify_noncompact`), which the integrand without an integrality
    test fails."""
    c = LocalFieldCtx(p, e, eis, 20)
    rng = random.Random(13)
    integrands = [IntegralIndicator(c)] + ([CuspidalData(c)] if p == 2
                                           else [])
    for data in integrands:
        integrator._certify_noncompact(data)
        for t in [t for t in range(-6, 7) if t]:
            for _ in range(4):
                u = c.random_unit(rng)
                label = f"pi^{t} u = {u}"
                x, _dexp = regular_preimage(u.shift(t))
                records = orbit_strata(data, *x)
                assert all(r.dead is not None for r in records), label
                assert _delta_totals(data, *x) == {}, label
    with pytest.raises(DomainError, match="^noncompact torus: the support "
                                          "prefilter keeps y"):
        integrator._certify_noncompact(NonIntegralIndicator(c))


@pytest.mark.parametrize("support", [{0, 2}, {1, 3}, {-1, 0, 1, 2}])
def test_noncompact_certificate_refuses_a_wider_det_support(support):
    """An integrand with an ord det y outside {0, 1} in its support meets
    integral y at |t| >= 2, which the proof in `torus_strata` does not
    cover: the c_k table refuses it rather than sample the region."""
    class Wider(IntegralIndicator):
        detval_support = frozenset(support)

    c = ctx5()
    want = f"noncompact torus: det support {sorted(support)} is not within"
    with pytest.raises(DomainError, match="^" + re.escape(want)):
        torus_strata(Wider(c), TruncationSpec())


def test_class_weight_once_per_run(monkeypatch):
    """On the even-p2 residue config of the benchmark, assemble_coefficients
    applies the class weight once per run, not once per torus stratum or
    per k: one reduction of the run-wide per-Delta_1 totals to (a, b)."""
    calls = []
    pair = integrator._pair

    def counting(*args):
        calls.append(args)
        return pair(*args)

    monkeypatch.setattr(integrator, "_pair", counting)
    c = LocalFieldCtx(2, 2, (-2, 0, 1), 30)
    trunc = TruncationSpec(gamma_depth=8, k_max=8, unit_depth=3)
    table = assemble_coefficients(CuspidalData(c), trunc)
    assert len(calls) == 1 and len(calls[0][0]) > 1
    assert (table.a, table.b) == pair(*calls[0])


BENCH_RESIDUE_CONFIGS = [
    # (p, e, eisenstein, precision, gamma_depth, unit_depth), k_max 8
    (2, 2, (-2, 0, 1), 30, 8, 3),
    (5, 1, (-5, 1), 18, 5, 2),
]


@pytest.mark.parametrize("p, e, eis, precision, depth, ud",
                         BENCH_RESIDUE_CONFIGS)
def test_pipeline_never_calls_general_matrix_algebra(monkeypatch, p, e, eis,
                                                     precision, depth, ud):
    """On the residue configs of the benchmark, assemble_coefficients and
    (at p = 2) coefficient_A_B run the torus chain on Elem entries: no
    Mat product, Mat.inverse or Gaussian elimination."""
    calls = Counter()
    for name in ("__mul__", "inverse", "_gauss"):
        method = getattr(Mat, name)

        def counting(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Mat, name, counting)
    c = LocalFieldCtx(p, e, eis, precision)
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=depth, k_max=8, unit_depth=ud)
    assemble_coefficients(data, trunc)
    if p == 2:
        coefficient_A_B(data, trunc)
    assert calls == Counter()
    Mat.diag(c, [c.one(), c.from_int(3)]).inverse()
    assert calls == Counter(inverse=1)


@pytest.mark.parametrize("p, e, eis, precision, depth, ud",
                         BENCH_RESIDUE_CONFIGS)
def test_torus_strata_read_their_closed_forms(monkeypatch, p, e, eis,
                                              precision, depth, ud):
    """On the residue configs of the benchmark, assemble_coefficients takes
    |D_eps| from ord(alpha - 1) and ord(alpha) and every alpha is regular
    by construction: no `twisted_discriminant` call.  At odd p no
    K-average runs the pass `_kappa_average_coset` (every value is 0); at
    p = 2 some do."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for owner in (integrator, twisted):
        monkeypatch.setattr(owner, "twisted_discriminant", counted(
            "twisted_discriminant", twisted.twisted_discriminant))
    monkeypatch.setattr(CuspidalData, "_kappa_average_coset", counted(
        "coset", CuspidalData._kappa_average_coset))
    c = LocalFieldCtx(p, e, eis, precision)
    trunc = TruncationSpec(gamma_depth=depth, k_max=8, unit_depth=ud)
    assemble_coefficients(CuspidalData(c), trunc)
    assert calls["twisted_discriminant"] == 0
    assert (calls["coset"] > 0) == (p == 2)


@pytest.mark.parametrize("p, e, eis, precision, depth, ud",
                         BENCH_RESIDUE_CONFIGS)
def test_vanishing_k_averages_walk_no_levels(monkeypatch, p, e, eis,
                                             precision, depth, ud):
    """On the odd-p5 residue config of the benchmark every K-average is 0
    (`kappa_vanishes`), so `assemble_coefficients`, `rg_term` and
    `orbit_weight_integral` make no `orbit_strata`, `support_prefilter`
    or `kappa_average` call, and every torus stratum keeps an empty
    table.  On the even-p2 config the table walks every torus stratum,
    one per e (8 strata, 32 at one per unit-digit tuple): 51 records,
    8 prefilter calls of the walk, 4 of the noncompact certificate
    (`_certify_noncompact`), and 51 K-averages."""
    calls, records = Counter(), []
    walk = integrator.orbit_strata

    def walking(*args):
        calls["orbit_strata"] += 1
        out = walk(*args)
        records.extend(out)
        return out

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(integrator, "orbit_strata", walking)
    for name in ("support_prefilter", "kappa_average"):
        monkeypatch.setattr(CuspidalData, name,
                            counted(name, getattr(CuspidalData, name)))
    c = LocalFieldCtx(p, e, eis, precision)
    data = CuspidalData(c)
    trunc = TruncationSpec(gamma_depth=depth, k_max=8, unit_depth=ud)
    table = assemble_coefficients(data, trunc)
    run = Counter(calls)
    strata = torus_strata(data, trunc)
    assert len(table.stratum_totals) == len(strata) == (8 if p == 2 else 12)
    if p == 2:
        assert run["orbit_strata"] == len(strata)
        assert (len(records), run["support_prefilter"]) == (51, 8 + 4)
        assert run["kappa_average"] == 51
        return
    assert all(totals == {} for _s, totals in table.stratum_totals)
    assert rg_term(data, trunc).is_zero()
    for spec in ("-1+pi", "-1+pi*u", "-1+pi^2", "2", "pi"):
        psi = orbit_weight_integral(data, parse_elem(c, spec), range(3))
        assert all(v.is_zero() for v in psi.values())
    assert calls == Counter() and records == []


def test_trace_guard_without_the_walk():
    """The odd-p5 residue config of the benchmark at precision 4: every
    K-average vanishes and no level is walked, but the trace x0 + x1 of
    the sign1-e5 stratum is still summed, reads past its validity, and
    raises, naming the stratum."""
    c = LocalFieldCtx(5, 1, (-5, 1), 4)
    data = CuspidalData(c)
    assert data.kappa_vanishes
    trunc = TruncationSpec(gamma_depth=5, k_max=8, unit_depth=2)
    with pytest.raises(PrecisionExhausted, match="sign1-e5"):
        assemble_coefficients(data, trunc)


class ResidueMean(IntegralIndicator):
    """A test integrand that sees every digit of y mod pi^2: f(X) =
    F(X mod pi^2) on integral X of unit determinant, 0 elsewhere, with F
    a seeded random function on M_2(O/pi^2), p = 5 and e = 1.  Its
    K-average is the plain mean over GL_2(Z/25), by numpy.  Unlike the
    indicator of M_2(O), it separates the torus strata that
    `torus_strata` merges only where the rule allows.  A K-average is
    K-invariant, so the means are cached per orbit of y mod pi^2 under
    the diagonal k = diag(c1, c2) of K, which take y to
    [[c1 c2 y00, c1^2 y01], [c2^2 y10, c1 c2 y11]].  The support, the
    prefilter and the residue level are those of the indicator."""

    def __init__(self, ctx):
        assert (ctx.p, ctx.e) == (5, 1)
        super().__init__(ctx)
        self.table = np.random.default_rng(18).integers(0, 8, 25 ** 4)
        digits = np.indices((25,) * 4, dtype=np.int32).reshape(4, -1)
        a, b, c, d = digits[:, (digits[0] * digits[3]
                                - digits[1] * digits[2]) % 5 != 0]
        self.k = a, b, c, d
        units = [u for u in range(25) if u % 5]
        self.diagonal = {(c1 * c2 % 25, c1 * c1 % 25, c2 * c2 % 25)
                         for c1 in units for c2 in units}
        self._cache = {}

    def kappa_average(self, key):
        digits, _parity = key
        y00, y01, y10, y11 = (t[0] + 5 * t[1] for t in digits)
        if (y00 * y11 - y01 * y10) % 5 == 0:    # ord det y != 0
            return CharacterValue.zero(5)
        key = min((s * y00 % 25, u * y01 % 25, w * y10 % 25, s * y11 % 25)
                  for s, u, w in self.diagonal)
        if key not in self._cache:
            self._cache[key] = self._mean(*key)
        return self._cache[key]

    def _mean(self, y00, y01, y10, y11):
        a, b, c, d = self.k
        # k y k^vdash with k^vdash = [[d, b], [c, a]]
        r00, r01 = (a * y00 + b * y10) % 25, (a * y01 + b * y11) % 25
        r10, r11 = (c * y00 + d * y10) % 25, (c * y01 + d * y11) % 25
        x = [(r00 * d + r01 * c) % 25, (r00 * b + r01 * a) % 25,
             (r10 * d + r11 * c) % 25, (r10 * b + r11 * a) % 25]
        idx = ((x[0] * 25 + x[1]) * 25 + x[2]) * 25 + x[3]
        return CharacterValue.rational(
            5, Fraction(int(self.table[idx].sum()), a.size))


def _run(monkeypatch, data, trunc, strata_fn):
    """(c_k table, rg_term) with `strata_fn` as the torus strata."""
    monkeypatch.setattr(integrator, "torus_strata", strata_fn)
    return assemble_coefficients(data, trunc), rg_term(data, trunc)


def _same_run(monkeypatch, data, trunc):
    """Compare one stratum per class against one per unit-digit tuple:
    equal c_k, per-e increments and rg_term, and per-tuple totals that
    agree within each class of v mod pi^m.  Returns the oracle's
    per-tuple totals by (sign, e)."""
    fast, fast_rg = _run(monkeypatch, data, trunc, torus_strata)
    slow, slow_rg = _run(monkeypatch, data, trunc, unit_digit_strata)
    assert fast.values == slow.values
    for k in fast.ks:
        assert fast.per_e_increments(k) == slow.per_e_increments(k), k
    assert fast_rg == slow_rg
    by_class, by_e = defaultdict(set), defaultdict(set)
    for stratum, totals in slow.stratum_totals:
        if stratum.e:
            m = integrator._digits_seen(data, stratum.e,
                                        trunc.unit_depth)
            key = (stratum.sign, stratum.e)
            frozen = tuple(sorted(totals.items()))
            by_class[key + (unit_digits(stratum, m),)].add(frozen)
            by_e[key].add(frozen)
    assert all(len(v) == 1 for v in by_class.values())
    return by_e


@pytest.mark.parametrize("field, depth", LEVEL_WALK_FIELDS
                         + [((2, 2, (2, 0, 1)), 4)])
def test_class_strata_match_the_unit_digit_oracle(monkeypatch, field, depth):
    """On the level-walk fields and x^2 + 2, for `CuspidalData` and the
    indicator of M_2(O), at unit_depth 1 to 3: one torus stratum per
    class of v mod pi^m gives the c_k, per-e increments and rg_term of
    one stratum per unit-digit tuple exactly, and the oracle's
    per-tuple totals agree within each class."""
    c = LocalFieldCtx(*field, 20)
    for ud in (1, 2, 3):
        trunc = TruncationSpec(gamma_depth=depth, unit_depth=ud, k_max=2)
        for data in (CuspidalData(c), IntegralIndicator(c)):
            _same_run(monkeypatch, data, trunc)


def test_digits_seen_is_sharp_on_a_residue_mean(monkeypatch):
    """The random mean over GL_2(Z/25) at p = 5: one stratum per class of
    v mod pi^(2 - e) (1 digit at e = 1, none at e = 2) gives the oracle's
    c_k, increments and rg_term at unit_depth 1 and 2, and the rule is
    not vacuous: at e = 1 the per-tuple totals differ between the classes
    mod pi on both signs, so no coarser cut would do."""
    c = LocalFieldCtx(5, 1, (-5, 1), 18)
    data = ResidueMean(c)
    assert [integrator._digits_seen(data, e, 2) for e in (1, 2, 3)] \
        == [1, 0, 0]
    for ud in (1, 2):
        trunc = TruncationSpec(gamma_depth=2, unit_depth=ud, k_max=2)
        by_e = _same_run(monkeypatch, data, trunc)
        for sign in (1, -1):
            assert len(by_e[sign, 1]) > 1, (ud, sign)
            assert len(by_e[sign, 2]) == 1, (ud, sign)
