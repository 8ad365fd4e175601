import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from twirl import matlattice, supercuspidal
from twirl.cyclotomic import CharacterValue
from twirl.errors import DomainError
from twirl.integrator import (_preimage_inverse, orbit_strata,
                              orbit_weight_integral)
from twirl.localfield import (LocalFieldCtx, additive_char, parse_elem,
                              unit_digit_tuples)
from twirl.matlattice import Mat, orthogonal_form, symplectic_form, vdash
from twirl.supercuspidal import (CuspidalData, PassTable, _classify_regime,
                                 _coset_counts, _support_mod_pi,
                                 level_character, member, pass_table,
                                 pi_e_inverse_power, support_scan)
from twirl.twisted import norm_preimage

from coset_walk import coset_strata
from kappa_oracle import (OracleRing, _count_f, _f_on_residues, _gl2_chunks,
                          _mat_mul, _oracle_counts, _residues, _vdash,
                          coset_y, kappa_average_oracle, kappa_key,
                          residue_key)
from random_mats import random_integral
from witness_oracle import kappa_witness_oracle, lift


def pi_e_matrix(ctx):
    """pi_E = [[0, 1], [pi, 0]], whose square is pi."""
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[z, o], [o.shift(1), z]])


def ctx5():
    return LocalFieldCtx(5, 1, (-5, 1), 18)


def ctx2():
    return LocalFieldCtx(2, 2, (-2, 0, 1), 24)


def ctx3():
    return LocalFieldCtx(3, 1, (-3, 1), 12)


def ctx7():
    return LocalFieldCtx(7, 1, (-7, 1), 12)


def ctx2_e1():
    """p = 2 over x - 2.  `CuspidalData` needs e >= 2 at p = 2, but the
    K-average pass and its oracles are defined here, and only here does
    the carry (N div p)(p/pi mod pi) of the pass move an exponent: at odd
    p no exponent is read (every row spreads), and at e >= 2 p/pi is 0
    mod pi."""
    return LocalFieldCtx(2, 1, (-2, 1), 12)


# e = 1 fields with p/pi = 1/2, 1/2 and 1/3, so 2, 3 and 2 mod pi, where
# the carry of the pass is not the plain N div p that it is over x - p
def ctx3_x6():
    return LocalFieldCtx(3, 1, (-6, 1), 12)


def ctx5_x10():
    return LocalFieldCtx(5, 1, (-10, 1), 12)


def ctx5_x15():
    return LocalFieldCtx(5, 1, (-15, 1), 12)


def rand_i1(c, rng):
    return Mat(c, [[c.one() + c.random_elem(rng, 1, 4), c.random_elem(rng, 0, 3)],
                   [c.random_elem(rng, 1, 4), c.one() + c.random_elem(rng, 1, 4)]])


def rand_i2(c, rng):
    return Mat(c, [[c.one() + c.random_elem(rng, 2, 5), c.random_elem(rng, 1, 4)],
                   [c.random_elem(rng, 2, 5), c.one() + c.random_elem(rng, 2, 5)]])


def test_pi_e_square():
    c = ctx2()
    pe = pi_e_matrix(c)
    assert pe * pe == Mat.identity(c, 2).shift(1)
    assert (pi_e_inverse_power(c, 2) * pe * pe) == Mat.identity(c, 2)


def test_member_filtration():
    c = ctx2()
    data = CuspidalData(c)
    one = Mat.identity(c, 2)
    pe = pi_e_matrix(c)
    for lv in ("I2", "I1", "I0", "K"):
        assert member(one, lv)
    m = Mat.from_ints(c, [[1, 1], [0, 1]])
    assert member(m, "I1") and not member(m, "I2")
    rng = random.Random(0)
    for _ in range(60):
        h = rand_i1(c, rng)
        assert member(h, "I1") and member(h, "I0") and member(h, "K")
        # O_E^x I_1 {1, pi_E} is the support of f
        a = c.random_unit(rng)
        b = c.random_elem(rng, 0, 3)
        u = Mat(c, [[a, b], [b.shift(1), a]])  # a + b pi_E
        assert not data.f(u * h).is_zero()
        assert not data.f(pe * u * h).is_zero()


def _in_c0(g):
    """g in C_0 = F_p^x I_1: g / r lies in I_1 for some r = 1..p-1."""
    ctx = g.ctx
    return any(member(g.scale(ctx.from_int(r).inverse()), "I1")
               for r in range(1, ctx.p))


def _in_support(g):
    """g in C = O_E^x I_1 {1, pi_E} = C_0 u pi_E C_0, by membership tests
    alone: the reference of the support of `CuspidalData.f`, which reads
    it off psi."""
    return (g.det().val in (0, 1)
            and (_in_c0(g) or _in_c0(pi_e_inverse_power(g.ctx, 1) * g)))


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_f_is_psi_times_the_support_indicator(mk):
    """f(g) = psi(g) 1_C(g), with 1_C the membership route `_in_support`,
    on seeded g: points of E^x I_1 (psi != 0) at every ord det from -1 to
    3, and diag(pi^s, pi^k) m for random integral m, integral at every
    ord det from 0 to 3 and not integral at every one from -1 to 3."""
    c = mk()
    data = CuspidalData(c)
    rng = random.Random(31)
    pe = pi_e_matrix(c)
    wanted = ([(d, "E^x I_1") for d in range(-1, 4)]
              + [(d, "integral") for d in range(0, 4)]
              + [(d, "not integral") for d in range(-1, 4)])
    seen = Counter()
    while min(seen[w] for w in wanted) < 4:
        if rng.random() < 0.5:
            u = c.random_unit(rng)
            g = Mat.diag(c, [u, u]) * rand_i1(c, rng)
            if rng.random() < 0.5:
                g = pe * g
            g = g.scale(c.one().shift(rng.randrange(-1, 2)))
            kind = "E^x I_1"
        else:
            g = Mat.diag(c, [c.pi(rng.randrange(-1, 1)),
                             c.pi(rng.randrange(0, 3))]) \
                * random_integral(c, 2, rng)
            integral = min(a.val for r in g.rows for a in r) >= 0
            kind = "integral" if integral else "not integral"
        d = g.det().val
        seen[d, kind] += 1
        want = data.psi(g) if _in_support(g) else CharacterValue.zero(c.p)
        assert data.f(g) == want, (d, kind)
        if kind == "E^x I_1":
            assert not data.psi(g).is_zero()
            assert _in_support(g) == (d in (0, 1))


def test_data_requires_deep_two():
    with pytest.raises(DomainError):
        CuspidalData(LocalFieldCtx(2, 1, (-2, 1), 14))
    CuspidalData(ctx5())  # odd p fine with e = 1


def test_level_character_values():
    c = ctx2()
    m = Mat.from_ints(c, [[1, 1], [0, 1]])
    assert level_character(m) == CharacterValue.rational(2, Fraction(-1))
    iota = Mat(c, [[c.one() + c.pi(2), c.pi(1)], [c.pi(2), c.one() + c.pi(3)]])
    assert member(iota, "I2")
    assert level_character(iota) == CharacterValue.one(2)
    with pytest.raises(DomainError):
        level_character(Mat.diag(c, [c.pi(1), c.one()]))


@pytest.mark.parametrize("mk", [ctx2, ctx5])
def test_level_character_is_character(mk):
    """lambda is multiplicative on I_1 (200 products from seed 1),
    lambda^2 = 1 at p = 2 (50 samples), and lambda is invariant under
    right I_2 (50 samples)."""
    c = mk()
    rng = random.Random(1)
    one = CharacterValue.one(c.p)
    for _ in range(200):
        g1, g2 = rand_i1(c, rng), rand_i1(c, rng)
        assert level_character(g1 * g2) == level_character(g1) * level_character(g2)
    if c.p == 2:
        for _ in range(50):
            lam = level_character(rand_i1(c, rng))
            assert lam * lam == one
    for _ in range(50):
        g, iota = rand_i1(c, rng), rand_i2(c, rng)
        assert member(iota, "I2")
        lam = level_character(g)
        assert level_character(g * iota) == lam
        assert c.p != 2 or lam * lam == one


@pytest.mark.parametrize("mk", [ctx2, ctx5])
def test_psi_factorization_independence(mk):
    """psi(gamma h) = lambda(h), independent of the chosen unit lift."""
    c = mk()
    data = CuspidalData(c)
    rng = random.Random(2)
    pe = pi_e_matrix(c)
    for _ in range(60):
        h = rand_i1(c, rng)
        u = c.random_unit(rng)
        g = Mat.diag(c, [u, u]) * h
        assert data.psi(g) == level_character(h)
        # the same coset entered through pi_E and a central shift
        z = c.random_unit(rng).shift(2 * rng.randrange(-1, 2))
        g2 = (pe * g).scale(z)
        v = data.psi(g2)
        assert not v.is_zero()
        assert data.psi(g2.scale(c.random_unit(rng))) == v


def test_psi_outside_support():
    c = ctx2()
    data = CuspidalData(c)
    assert data.psi(Mat.diag(c, [c.pi(2), c.one()])).is_zero()
    assert data.f(Mat.diag(c, [c.pi(2), c.one()])).is_zero()
    assert data.f(Mat.identity(c, 2)) == CharacterValue.one(2)
    # pi C and C are disjoint by determinant valuation
    assert data.f(Mat.identity(c, 2).shift(1)).is_zero()


@pytest.mark.parametrize("mk", [ctx2, ctx5])
def test_central_reconstruction(mk):
    """Sum over central classes of f(zg) recovers psi(g)."""
    c = mk()
    data = CuspidalData(c)
    rng = random.Random(3)
    pe = pi_e_matrix(c)
    depth = 3

    def central_sum(g):
        jd = g.det().val
        total = CharacterValue.zero(c.p)
        tuples = [t for t in itertools.product(range(c.p), repeat=depth)
                  if t[0] != 0]
        for k in range(-3, 4):
            if (jd + 2 * k) not in (0, 1):
                continue
            acc = CharacterValue.zero(c.p)
            for t in tuples:
                u = c.from_digits(0, t)
                acc = acc + data.f(g.scale(u.shift(k)))
            total = total + acc.scale(Fraction(1, len(tuples)))
        return total

    for _ in range(15):
        h = rand_i1(c, rng)
        u = c.random_unit(rng)
        g = (pe if rng.random() < 0.5 else Mat.identity(c, 2)) * Mat.diag(
            c, [u, u]) * h
        g = g.scale(c.random_unit(rng).shift(rng.randrange(-2, 3)))
        assert central_sum(g) == data.psi(g)


def test_kappa_average_matches_bruteforce():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    alpha = c.one() + c.pi(2)
    x = norm_preimage(alpha).inverse()
    from twirl.matlattice import a_e, n_b

    def brute(y, level):
        tuples = list(itertools.product(range(2), repeat=level))
        total = CharacterValue.zero(2)
        cnt = 0
        for da in tuples:
            for db in tuples:
                for dc in tuples:
                    for dd in tuples:
                        kap = Mat(c, [
                            [c.from_digits(0, da), c.from_digits(0, db)],
                            [c.from_digits(0, dc), c.from_digits(0, dd)],
                        ])
                        if kap.det().val != 0:
                            continue
                        total = total + data.f(kap * y * vdash(kap, form))
                        cnt += 1
        return total.scale(Fraction(1, cnt))

    # level 2 is the locality level, so the finite average already equals
    # the Haar integral; the pure-element route here is independent of the
    # vectorized enumeration
    for j, digits in [(0, ()), (1, (1,)), (2, (1, 0))]:
        b = c.from_digits(-j, digits) if j else c.zero()
        g0 = n_b(c, b) * a_e(c, 2)
        y = g0 * x * vdash(g0, form)
        want = brute(y, 2)
        assert kappa_average_oracle(data, y, 2) == want
        assert data.kappa_average(kappa_key(y, 2)) == want


def test_kappa_average_level_stability():
    """The enumeration oracle one or two congruence levels deeper gives the
    same exact value (the integrand is right-invariant at level 2)."""
    c = ctx2()
    data = CuspidalData(c)
    alpha = c.one() + c.pi(2)
    y = norm_preimage(alpha).inverse().shift(2)
    v2 = kappa_average_oracle(data, y, 2)
    assert v2 == kappa_average_oracle(data, y, 3)
    assert v2 == kappa_average_oracle(data, y, 4)
    assert v2 == data.kappa_average(kappa_key(y, 2))


class _RecordingData(CuspidalData):
    """Records the key of every y the pipeline averages over."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.seen = []

    def kappa_average(self, key):
        self.seen.append(key)
        return super().kappa_average(key)


@pytest.mark.parametrize("mk, specs", [
    (ctx2, ("1+pi^2", "1+pi^3", "1+pi+pi^2")),
    (ctx5, ("-1+pi", "-1+pi*u", "-1+pi^2")),
])
def test_kappa_average_matches_oracle_on_live_strata(mk, specs):
    """The coset evaluation equals the GL_2(O/pi^2) enumeration on every
    live orbit stratum.  The pipeline averages over exactly the keys of
    those records at p = 2, and over none where every K-average vanishes
    (odd p); each record's key is `kappa_key` of its y."""
    c = mk()
    data = _RecordingData(c)
    live = []
    for spec in specs:
        alpha = parse_elem(c, spec)
        x = _preimage_inverse(alpha)
        live += [(r, coset_y(r, *x)) for r in orbit_strata(data, *x)
                 if r.dead is None]
        orbit_weight_integral(data, alpha, range(1))
    assert live
    assert data.seen == ([] if data.kappa_vanishes
                         else [r.key for r, _y in live])
    fresh = CuspidalData(c)
    for r, y in live:
        assert r.key == kappa_key(y, 2)
        assert fresh.kappa_average(r.key) == \
            kappa_average_oracle(data, y, 2)


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5, ctx7])
def test_pass_table_rows_follow_iter_gl2(mk):
    """The plain-int rows of `pass_table` are the digit rows of
    `iter_gl2` in its order, which are those of the digit-grid route
    `_gl2_chunks(1, .)` of the oracle: |GL_2(F_p)| rows in all.  The
    table holds p, p/pi mod pi (1 over x - p, 0 over x^2 - 2) and the
    rows, and nothing else."""
    c = mk()
    p = c.p
    ring = OracleRing(c, 2)
    rows = [tuple(int(z[n, 0]) for z in chunk)
            for chunk in _gl2_chunks(1, ring)
            for n in range(chunk[0].shape[0])]
    table = pass_table(ring)
    assert table.rows == rows
    assert len(rows) == (p * p - 1) * (p * p - p)
    assert PassTable.__slots__ == ("p", "pop", "rows")
    assert (table.p, table.pop) == (p, int(c.e == 1))


@pytest.mark.parametrize("mk, count", [(ctx2, 8), (ctx3, 3)])
def test_kappa_average_odd_piece_matches_level_three(mk, count):
    """On det-valuation-1 y, level 2 suffices: the coset evaluation equals
    the GL_2(O/pi^3) enumeration."""
    c = mk()
    data = CuspidalData(c)
    rng = random.Random(11)
    ys = [pi_e_matrix(c)]
    while len(ys) < count:
        y = random_integral(c, 2, rng)
        if y.det().val == 1:
            ys.append(y)
    values = [data.kappa_average(kappa_key(y, 2)) for y in ys]
    assert values == [kappa_average_oracle(data, y, 3) for y in ys]
    if c.p == 2:
        assert values[0] == CharacterValue.rational(2, Fraction(1, 3))


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_n_orbit_matches_conjugation(mk):
    """y + pi Im L_y is exactly {n y n^vdash mod pi^2 : n in 1 + pi M_2(O)}."""
    c = mk()
    form = orthogonal_form(c, 2)
    ring = OracleRing(c, 2)
    rng = random.Random(14)
    digits = [c.from_digits(1, (d,)) if d else c.zero() for d in range(c.p)]
    for _ in range(2):
        y = random_integral(c, 2, rng)
        want = set()
        for a in itertools.product(digits, repeat=4):
            n = Mat.identity(c, 2) + Mat(c, [list(a[:2]), list(a[2:])])
            want.add(residue_key(n * y * vdash(n, form), 2))
        rows = _n_orbit(ring, _residues(ring, y))
        got = {residue_key(Mat(c, [[lift(ring, z[i]) for z in rows[:2]],
                                   [lift(ring, z[i]) for z in rows[2:]]]), 2)
               for i in range(rows[0].shape[0])}
        assert got == want


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_support_mod_pi_keeps_every_row_f_reads(mk, parity):
    """On every X in M_2(O/pi^2), f's support mask implies
    `_support_mod_pi`, so the row filter of the K-average never drops a
    row that f is nonzero on."""
    c = mk()
    ring = OracleRing(c, 2)
    table = ring.from_digit_grid(2)
    x = tuple(table[i] for i in np.indices((table.shape[0],) * 4)
              .reshape(4, -1))
    mask, _ = _f_on_residues(ring, x, parity)
    keep = _support_mod_pi(tuple(ring.residue_mod_p(z) for z in x), parity)
    assert mask.any()
    assert not (mask & ~keep).any()


@pytest.mark.parametrize("mk", [ctx5, ctx2])
@pytest.mark.parametrize("diag, reason", [
    ((-1, 0), "not integral"),
    ((2, 0), "det valuation outside {0,1}"),
    ((1, 0), "not eps-symmetric mod p"),
    ((0, 0), None),
])
def test_support_prefilter_reasons(mk, diag, reason):
    """The prefilter's verdict on y = diag(pi^i0, pi^i1), one per reason.
    The walk forces i into `detval_support`, so it never meets the det
    valuation 2 of diag(pi^2, 1); a direct call does."""
    c = mk()
    data = CuspidalData(c)
    assert data.support_prefilter(*(c.pi(i) for i in diag)) == reason


def _integral_of_parity(c, rng, parity):
    """A random integral y with ord det y = parity and y00 = y11 mod pi:
    eps-symmetric mod pi, so its K-orbit can meet the support of f."""
    while True:
        (a, b), (cc, _) = random_integral(c, 2, rng).rows
        y = Mat(c, [[a, b], [cc, a + c.random_elem(rng, 1, 3)]])
        if y.det().val == parity:
            return y


def _n_orbit(ring, y):
    """The orbit oracle: y + pi Im L_y of y mod pi^2 under
    y -> n y n^vdash, n in 1 + pi M_2(O), one row per point.  Im L_y is
    found by applying L_y(A) = A y + y A^vdash mod pi to all p^4 matrices
    A mod pi; no rank is assumed.  Each image (d0, d1, d2, d3) is marked
    by its code d0 + p d1 + p^2 d2 + p^3 d3 in a table of size p^4, so
    every point comes once."""
    p = ring.p
    a = tuple(ring.from_digit_grid(1)[i]
              for i in np.indices((p,) * 4).reshape(4, -1))
    image = zip(_mat_mul(ring, a, y), _mat_mul(ring, y, _vdash(a)))
    seen = np.zeros(p ** 4, dtype=bool)
    seen[sum(ring.residue_mod_p(ring.add(u, v)) * p ** t
             for t, (u, v) in enumerate(image))] = True
    codes = np.flatnonzero(seen)
    pi = ring.pi_pows[1]
    return tuple(ring.add(y_ij, ((codes // p ** t % p)[:, None] * pi)
                          % ring.pm)
                 for t, y_ij in enumerate(y))


def _unfiltered_coset_counts(ring, y_res, parity):
    """The counts of `_coset_counts` by running f on every k against
    every point of the orbit oracle `_n_orbit`."""
    y_orbit = _n_orbit(ring, y_res)
    counts = np.zeros(ring.p, dtype=np.int64)
    total = 0
    for k in _gl2_chunks(1, ring):
        total += _count_f(ring, tuple(z[:, None, :] for z in k), y_orbit,
                          parity, counts)
    return counts.tolist(), total


# parity-1 y whose counts the carry (N div p)(p/pi mod pi) decides, by
# Eisenstein polynomial: y1 = 0, so x10/pi is the carry alone; over x - p
# no row passes t = 0 mod pi without it, and over x - 6, x - 10 and
# x - 15, where p/pi != 1 mod pi, a carry read as N div p passes rows
# that the true carry does not.  With it, (counts, rows) of the pass
_Y3, _Y5 = [[1, 2], [2, 1]], [[1, 2], [3, 1]]
_CARRY_YS = {(-3, 1): (_Y3, ([36] * 3, 432)),
             (-6, 1): (_Y3, ([0] * 3, 432)),
             (-5, 1): (_Y5, ([200] * 5, 12000)),
             (-10, 1): (_Y5, ([0] * 5, 12000)),
             (-15, 1): (_Y5, ([0] * 5, 12000))}


@pytest.mark.parametrize("mk, count", [(ctx2, 4), (ctx3, 4), (ctx5, 2),
                                       (ctx7, 1), (ctx2_e1, 4),
                                       (ctx3_x6, 2), (ctx5_x10, 1),
                                       (ctx5_x15, 1)])
def test_coset_counts_match_oracle_counts(mk, count):
    """The filtered coset enumeration, the unfiltered one and the
    GL_2(O/pi^2) enumeration give the same Lambda_1 exponent counts up to
    the factor |ker L_y|.  Means alone cannot see a dropped row at odd p,
    where every K-average is 0.  Over x - 2 (`ctx2_e1`) the carry
    (N div p)(p/pi mod pi) of the pass moves exponents, and over x - 3,
    x - 6, x - 5, x - 10 and x - 15 it decides which parity-1 rows pass
    (`_CARRY_YS`)."""
    c = mk()
    ring = OracleRing(c, 2)
    rng = random.Random(31)
    for parity in (0, 1):
        hits = 0
        for _ in range(count):
            hits += _check_pass(ring, _integral_of_parity(c, rng, parity),
                                parity)
        assert hits
    if tuple(c.eisenstein) in _CARRY_YS:
        rows, want = _CARRY_YS[tuple(c.eisenstein)]
        y = Mat.from_ints(c, rows)
        assert y.det().val == 1
        assert _pass_counts(ring, y, 1) == want
        assert _check_pass(ring, y, 1) == sum(want[0])


def _pass_counts(ring, y, parity):
    """The counts of the K-average pass `_coset_counts` on y, as a miss
    takes them: on the digits of `residue_key(y, 2)`, over the
    `pass_table` of the ring."""
    return _coset_counts(pass_table(ring), residue_key(y, 2), parity)


def _check_pass(ring, y, parity, full=True):
    """Assert that the pass, the unfiltered coset enumeration and (when
    `full`) the GL_2(O/pi^2) enumeration give the same counts up to
    |ker L_y|; return the pass's count of hits."""
    y_res = _residues(ring, y)
    counts, total = _pass_counts(ring, y, parity)
    assert (counts, total) == _unfiltered_coset_counts(ring, y_res, parity)
    if full:
        every, every_total = _oracle_counts(ring, y_res, parity)
        factor = every_total // total
        assert every_total == factor * total
        assert every == [factor * n for n in counts]
    return sum(counts)


@pytest.mark.parametrize("p, e, eis", [(2, 3, (-2, 0, 0, 1)),
                                       (2, 2, (-2, 2, 1)),
                                       (3, 2, (-3, 0, 1))],
                         ids=["x3-2", "x2+2x-2", "x2-3"])
def test_coset_counts_match_oracles_at_e_above_one(p, e, eis):
    """The integer pass reads X mod pi^2 off the key's digits, with the
    carry (N div p)(p/pi mod pi) of N = T_k y0 into X/pi mod pi, which is
    0 over x^3 - 2, x^2 + 2x - 2 and x^2 - 3 though N carries.  The pass
    is held to the unfiltered coset enumeration on 100 y of each parity,
    and to the GL_2(O/pi^2) enumeration on the first 10."""
    c = LocalFieldCtx(p, e, eis, 20)
    ring = OracleRing(c, 2)
    rng = random.Random(37)
    for parity in (0, 1):
        hits = sum(_check_pass(ring, _integral_of_parity(c, rng, parity),
                               parity, full=n < 10)
                   for n in range(100))
        assert hits


def _orbit_vectors(ring, y_res):
    """W = Im L_y as vectors (v00, v01, v10, v11) mod p, read off the
    points y + pi v of the orbit oracle."""
    coords = (ring.residue_mod_p(ring.div_pi(ring.sub(z, y_ij))).tolist()
              for z, y_ij in zip(_n_orbit(ring, y_res), y_res))
    return list(zip(*coords))


def _mul2(m, n, p):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (((a * e + b * g) % p, (a * f + b * h) % p),
            ((c * e + d * g) % p, (c * f + d * h) % p))


def _parity_one_cases(c, y, ring):
    """For every k in GL_2(F_p) whose k y k^vdash passes the parity-1
    support test mod pi, the case of the character sum over
    {v in W : l_k(v) = t}: "l_k != 0" (l_k = (k v k^vdash)_10 is not 0
    on W), "t != 0", "mu_k = 0" or "mu_k != 0" (mu_k = (k v k^vdash)_00
    + (k v k^vdash)_11 on W).  Built from `Mat` products and the orbit
    oracle, not from the closed form."""
    p = c.p
    form = orthogonal_form(c, 2)
    w = _orbit_vectors(ring, _residues(ring, y))
    cases = []
    for a, b, cc, d in itertools.product(range(p), repeat=4):
        if (a * d - b * cc) % p == 0:
            continue
        k = ((a, b), (cc, d))
        kv = ((d, b), (cc, a))
        kap = Mat(c, [[c.from_int(a), c.from_int(b)],
                      [c.from_int(cc), c.from_int(d)]])
        (x00, x01), (x10, x11) = (kap * y * vdash(kap, form)).rows
        if min(x00.val, x10.val, x11.val) < 1 or x01.val != 0:
            continue
        images = [_mul2(_mul2(k, ((v[0], v[1]), (v[2], v[3])), p), kv, p)
                  for v in w]
        t = (x01.residue() - x10.shift(-1).residue()) % p
        if any(im[1][0] for im in images):
            cases.append("l_k != 0")
        elif t:
            cases.append("t != 0")
        elif any((im[0][0] + im[1][1]) % p for im in images):
            cases.append("mu_k != 0")
        else:
            cases.append("mu_k = 0")
    return cases


@pytest.mark.parametrize("mk, reached", [
    (ctx2, {"mu_k = 0"}),
    (ctx3, {"t != 0", "mu_k != 0"}),
    (ctx5, {"t != 0", "mu_k != 0"}),
])
def test_parity_one_character_sum_cases(mk, reached):
    """Every case of the parity-1 character sum that a kept row can reach
    is reached, and the closed-form counts equal the GL_2(O/pi^2) counts
    up to |ker L_y| on those y.  l_k never fails to vanish on W for a kept
    row (the lemma of `kappa_average`), mu_k vanishes on W at p = 2 and
    never at odd p, and at p = 2 ord det y = 1 forces t = 0 (x10/pi is
    a unit, so it is 1 = r mod pi).  Counts, not means: at odd p every
    mean is 0."""
    c = mk()
    ring = OracleRing(c, 2)
    rng = random.Random(41)
    seen = set()
    for _ in range(4):
        y = _integral_of_parity(c, rng, 1)
        seen.update(_parity_one_cases(c, y, ring))
        _check_pass(ring, y, 1)
    assert seen == reached


_RESIDUE_P2 = """[field]
p = 2
e = 2
eisenstein = -2,0,1
precision = 30

[pipeline]
regime = even
k_max = 8
gamma_depth = 8
unit_depth = 3
"""

_RESIDUE_P5 = """[field]
p = 5
e = 1
eisenstein = -5,1
precision = 18

[pipeline]
regime = odd
k_max = 8
gamma_depth = 5
unit_depth = 2
"""

_PSIK_P7 = """[field]
p = 7
e = 1
eisenstein = -7,1
precision = 18

[pipeline]
regime = odd
k_max = 8
"""


@pytest.mark.parametrize("config, argv, rows, misses", [
    pytest.param(_RESIDUE_P2, ["residue"], 6, 6, id="residue-p2"),
    pytest.param(_RESIDUE_P5, ["residue"], None, 0, id="residue-p5"),
    pytest.param(_PSIK_P7, ["psik", "--alpha=-1+pi*3+pi^2*2"], None, 0,
                 id="psik-p7"),
])
def test_kappa_average_misses_take_the_closed_form(monkeypatch, tmp_path,
                                                   config, argv, rows,
                                                   misses):
    """A cold `residue` run at p = 2 computes every K-average miss by the
    closed form (f is evaluated row by row only in the test oracle,
    `tests/kappa_oracle.py`); on the benchmark's config it makes 6 misses
    (12 at one torus stratum per unit-digit tuple, where more y mod pi^2
    occur).  The first miss reads GL_2(F_p) once from `iter_gl2`, exactly
    |GL_2(F_p)| rows, into the integrand's `PassTable`, and the later
    misses read that table.  A cold `residue` run at p = 5 and a cold
    `psik` run at p = 7 make no pass at all: every odd-p K-average is 0
    (`CuspidalData.kappa_average`)."""
    from twirl import cli

    reads, passes = [], []
    gl2 = supercuspidal.iter_gl2

    def counted(ring):
        reads.append([len(passes), 0])
        for chunk in gl2(ring):
            reads[-1][1] += chunk[0].shape[0]
            yield chunk

    coset = CuspidalData._kappa_average_coset

    def miss(self, digits, parity):
        passes.append(parity)
        return coset(self, digits, parity)

    monkeypatch.setattr(supercuspidal, "iter_gl2", counted)
    monkeypatch.setattr(CuspidalData, "_kappa_average_coset", miss)
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    assert cli.main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 0
    assert len(passes) == misses
    assert reads == ([[1, rows]] if misses else [])


def test_cold_p2_residue_builds_one_ring_and_one_table(monkeypatch,
                                                      tmp_path):
    """A cold `residue` run at p = 2 builds one `ResidueRing` (the
    integrand's), enumerates GL_2(F_p) with numpy once and reads it from
    `iter_gl2` once, into one `PassTable`.  No miss builds residues from
    `Elem`s, and no K-average key is read off a `Mat`: the walk reads
    each key off its record, and the library holds neither route (they
    are the oracles of `tests/kappa_oracle.py`)."""
    from twirl import cli, ringvec

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ringvec.ResidueRing, "__init__", counted(
        "ring", ringvec.ResidueRing.__init__))
    monkeypatch.setattr(ringvec, "_gl2_fp_chunks", counted(
        "build", ringvec._gl2_fp_chunks))
    monkeypatch.setattr(supercuspidal, "iter_gl2", counted(
        "read", supercuspidal.iter_gl2))
    monkeypatch.setattr(supercuspidal, "pass_table", counted(
        "table", supercuspidal.pass_table))
    cfg = tmp_path / "run.ini"
    cfg.write_text(_RESIDUE_P2)
    assert cli.main(["residue", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert Counter(calls) == Counter(ring=1, build=1, read=1, table=1)


@pytest.mark.parametrize("mk", [ctx2, ctx5])
def test_f_depends_on_residue_mod_pi_squared(mk):
    """f(X) = f(X + pi^2 Z) for integral X with ord det X in {0, 1} and
    integral Z: the lemma behind the (y mod pi^2, parity) cache key."""
    c = mk()
    data = CuspidalData(c)
    ring = OracleRing(c, 2)
    rng = random.Random(12)
    pe = pi_e_matrix(c)
    done = nonzero = 0
    while done < 80:
        if rng.random() < 0.5:
            # a point of the support, so the character values get tested
            u = c.random_unit(rng)
            x = Mat.diag(c, [u, u]) * rand_i1(c, rng)
            if rng.random() < 0.5:
                x = pe * x
        else:
            x = random_integral(c, 2, rng)
        if x.det().val not in (0, 1):
            continue
        z = random_integral(c, 2, rng).shift(2)
        v = data.f(x)
        assert data.f(x + z) == v
        # the vectorized evaluation agrees pointwise
        rows = tuple(z[None] for z in _residues(ring, x))
        mask, exps = _f_on_residues(ring, rows, x.det().val % 2)
        assert v == (CharacterValue.root(c.p, int(exps[0])) if mask[0]
                     else CharacterValue.zero(c.p))
        done += 1
        nonzero += not v.is_zero()
    assert nonzero >= 20


def test_symplectic_twist_averages_the_identity_to_one():
    """`kappa_average` is the K-average of the orthogonal twist.  With the
    symplectic form k y k^vdash = det(k) y for y = 1, so f(k y k^vdash) =
    1 on K and the symplectic average is 1, the value a symplectic
    K-average must reproduce, while the orthogonal one is 0 at p = 3."""
    c = ctx3()
    data = CuspidalData(c)
    y = Mat.identity(c, 2)
    sf = symplectic_form(c, 2)
    rng = random.Random(13)
    for _ in range(5):
        kap = random_integral(c, 2, rng, unit_det=True)
        assert data.f(kap * y * vdash(kap, sf)) == CharacterValue.one(3)
    assert data.kappa_average(kappa_key(y, 2)).is_zero()


def test_kappa_average_conjugation_invariance():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    rng = random.Random(4)
    alpha = c.one() + c.pi(3)
    y = norm_preimage(alpha).inverse().shift(3)
    for _ in range(5):
        kap = random_integral(c, 2, rng, unit_det=True)
        y2 = kap * y * vdash(kap, form)
        assert data.kappa_average(kappa_key(y, 2)) == \
            data.kappa_average(kappa_key(y2, 2))


def test_kappa_congruence_sharpness():
    """kappa kappa^t = det kappa mod I_2 needs 2 in pi^2."""
    c2 = ctx2()
    form2 = orthogonal_form(c2, 2)
    rng = random.Random(5)
    for _ in range(100):
        kap = random_integral(c2, 2, rng, unit_det=True)
        t = (kap * vdash(kap, form2)).scale(kap.det().inverse())
        assert member(t, "I2")
    c1 = LocalFieldCtx(2, 1, (-2, 1), 14)
    form1 = orthogonal_form(c1, 2)
    witness = Mat.from_ints(c1, [[1, 0], [1, 1]])
    t = (witness * vdash(witness, form1)).scale(witness.det().inverse())
    assert not member(t, "I2")


def test_support_scan_regimes():
    c5 = ctx5()
    d5 = CuspidalData(c5)
    for spec in ("pi", "pi^2", "pi^-1", "2", "1+pi"):
        rep = support_scan(d5, parse_elem(c5, spec))
        assert rep["witness"] is None, spec
    rep = support_scan(d5, parse_elem(c5, "-1+pi"))
    assert rep["witness"] is not None
    c2 = ctx2()
    rep2 = support_scan(CuspidalData(c2), parse_elem(c2, "1+pi^2"))
    assert rep2["witness"] is not None
    assert rep2["witness"]["i"] == 2
    assert rep2["regime"].endswith("witness")


@pytest.mark.parametrize("e, eis", [(2, (-2, 0, 1)), (3, (-2, 0, 0, 1))],
                         ids=["x2-2", "x3-2"])
def test_every_unit_at_p2_has_a_witness(e, eis):
    """`support_scan`'s proof that a p = 2 unit alpha != 1 has a witness,
    swept over every unit mod pi^6 on x^2 - 2 and x^3 - 2: the regime is
    `alpha-unit-even-witness`, and the witness sits at i = ord(alpha - 1),
    b = 0.  The per-coset scan, which keeps an `even-none` regime for a
    unit with no witness, agrees."""
    c = LocalFieldCtx(2, e, eis, 24)
    data = CuspidalData(c)
    for digits in unit_digit_tuples(2, 6):
        alpha = c.from_digits(0, digits)
        if alpha == c.one():
            continue
        rep = support_scan(data, alpha)
        assert rep["regime"] == "alpha-unit-even-witness", digits
        assert rep["witness"]["i"] == (alpha - c.one()).val, digits
        assert rep["strata_searched"][-1]["b_level"] == 0, digits
        assert _coset_scan(data, alpha)[0] == rep["regime"], digits


def test_support_scan_makes_no_kappa_average_call(monkeypatch):
    """The scan ends at the first live class with a witness in closed
    form: the level records it reads carry no K-average, so a scan that
    reaches a witness (p = 2 `1+pi^2`, p = 5 `-1+pi`) computes none."""
    calls = []
    monkeypatch.setattr(CuspidalData, "kappa_average",
                        lambda self, key: calls.append(key))
    for c, spec in ((ctx2(), "1+pi^2"), (ctx5(), "-1+pi")):
        rep = support_scan(CuspidalData(c), parse_elem(c, spec))
        assert rep["witness"] is not None, spec
    assert calls == []


SCAN_SHA256 = {
    (ctx5, "pi"): "95db047d7229f02a2adb395ac259725986869d80d250519df7e208843dfbebc1",
    (ctx5, "pi^2"): "664380ba1a977b2ddd4142e0c891f1244d3d5ef78110807e0bf84029275dc449",
    (ctx5, "pi^-1"): "95db047d7229f02a2adb395ac259725986869d80d250519df7e208843dfbebc1",
    (ctx5, "2"): "10f57a2459ae6194459bf19853786ca51fc36a639aa418d0b9849586b09c501f",
    (ctx5, "1+pi"): "d1b458bddecde042329036f1400a100fa02638922d42748357b25631fb059f18",
    (ctx5, "-1+pi"): "7e4059857791acd59739aab60edea78e0be899908b984e34ef45c482a2531828",
    (ctx2, "1+pi^2"): "4f33b5e2a6db32f2757b927cf7568042122098fdf4884cb8947ad66428aa76fc",
}


@pytest.mark.parametrize("mk, spec", list(SCAN_SHA256))
def test_support_scan_golden_bytes(mk, spec):
    """The scan report bytes (searched strata, verdicts, witness) are
    pinned; "pi^2" has a non-integral diagonal on its only stratum, and
    "1+pi" one record for each of its two dead b levels."""
    c = mk()
    rep = support_scan(CuspidalData(c), parse_elem(c, spec))
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_SHA256[mk, spec]


def test_support_scan_raises_on_short_b_window():
    """alpha = 1 + pi^4 forces b levels up to 4, and the scan reads every
    one of them without finding a witness."""
    c = LocalFieldCtx(5, 1, (-5, 1), 30)
    rep = support_scan(CuspidalData(c), parse_elem(c, "1+pi^4"))
    assert rep["witness"] is None
    assert max(s["b_level"] for s in rep["strata_searched"]) == 4


def test_support_scan_deep_alpha_reads_levels():
    """alpha = 1 + pi^8 at p = 5 forces b levels up to 8 on i = 8, and
    every level is dead: the scan returns the 9 level records of
    `orbit_strata` (a per-coset walk visits 5^8 cosets)."""
    c = LocalFieldCtx(5, 1, (-5, 1), 40)
    data = CuspidalData(c)
    alpha = parse_elem(c, "1+pi^8")
    rep = support_scan(data, alpha)
    x = _preimage_inverse(alpha)
    searched = rep["strata_searched"]
    assert len(searched) == len(orbit_strata(data, *x)) == 9
    assert rep["witness"] is None
    assert [s["b_level"] for s in searched] == list(range(9))


def _random_scan_alphas(c):
    """The random alphas of the three vanishing regimes at p = 5:
    noncompact, unit away from +-1 mod p, and 1 mod p."""
    rng = random.Random(9)
    noncompact, away, near_one = [], [], []
    for _ in range(50):
        v = rng.choice([-2, -1, 1, 2])
        noncompact.append(c.random_unit(rng).shift(v))
    while len(away) < 50:
        alpha = c.random_unit(rng)
        if alpha.residue() not in (1, 4):
            away.append(alpha)
    for _ in range(50):
        e = rng.randrange(1, 5)
        near_one.append(c.one() + c.random_unit(rng).shift(e))
    return noncompact, away, near_one


def test_support_scan_randomized_regimes():
    """The three vanishing regimes hold across >= 50 random gamma each."""
    c = ctx5()
    d = CuspidalData(c)
    for alphas in _random_scan_alphas(c):
        for alpha in alphas:
            assert support_scan(d, alpha)["witness"] is None


def _coset_scan(data, alpha):
    """The per-coset scan: every coset of `coset_strata` in lexicographic
    order, each live one settled by the GL_2(O/pi^2) enumeration
    `kappa_witness_oracle`, up to the first witness.  Returns (regime,
    witness, kappa_level, [(coset, verdict)]) with the cosets visited
    before the witness."""
    x = _preimage_inverse(alpha)
    form = orthogonal_form(data.ctx, 2)
    visited, witness, kappa_level = [], None, 0
    for c in coset_strata(data, *x):
        if c.dead is not None:
            visited.append((c, c.dead))
            continue
        kappa_level = data.residue_level
        kap = kappa_witness_oracle(data, c.y)
        gw = kap * c.g0
        witness = {"i": c.i, "b_level": c.j, "b": list(c.digits),
                   "kappa": kap.to_digit_lists(4),
                   "value": data.f(gw * Mat.diag(data.ctx, x)
                                   * vdash(gw, form)).to_json()}
        break
    regime = _classify_regime(data.ctx, alpha)
    if witness is not None:
        regime += "-witness"
    elif regime == "alpha-unit-even":
        regime = "even-none"
    return regime, witness, kappa_level, visited


def _scan_cases():
    """(ctx, alpha): the golden alphas, two at p = 3, and a seeded sample
    of the random ones."""
    cases = [(c, parse_elem(c, spec)) for c, spec in
             [(mk(), spec) for mk, spec in SCAN_SHA256]
             + [(ctx3(), "1+pi^2"), (ctx3(), "-1+pi")]]
    c5 = ctx5()
    pool = [a for alphas in _random_scan_alphas(c5) for a in alphas]
    cases += [(c5, a) for a in random.Random(13).sample(pool, 15)]
    return cases


def test_scan_matches_coset_scan():
    """The level-record scan against the per-coset scan: the same
    witness, regime and kappa level; every coset visited before the
    witness carries the verdict of its dead level record; the scan's
    entries are the leading `orbit_strata` records, whose weights sum to
    the number of cosets.  Every live class holds a witness
    (`support_scan`), so the first live coset ends both scans.  The
    per-coset scan finds its kappa by enumerating GL_2(O/pi^2) and its
    value by `Mat` products, so this holds the closed-form witness on
    the 96 `_witness_cases`, over every field family there."""
    cases = _witness_cases()
    assert len(cases) == 96
    for c, alpha in cases:
        data = CuspidalData(c)
        where = (c.p, str(alpha))
        rep = support_scan(data, alpha)
        regime, witness, kappa_level, visited = _coset_scan(data, alpha)
        assert (rep["regime"], rep["witness"], rep["kappa_level"]) == \
            (regime, witness, kappa_level), where
        x = _preimage_inverse(alpha)
        records = orbit_strata(data, *x)
        searched = rep["strata_searched"]
        assert [(s["i"], s["b_level"], tuple(s["b"])) for s in searched] == \
            [(r.i, r.j, r.digits) for r in records[:len(searched)]], where
        assert sum(r.weight for r in records) == \
            sum(1 for _ in coset_strata(data, *x)), where
        for cos, verdict in visited:
            assert [s["verdict"] for s in searched
                    if (s["i"], s["b_level"]) == (cos.i, cos.j)] == \
                [verdict], where


def test_scan_strata_are_the_leading_walk_records():
    """A scan lists the `orbit_strata` records it read as they are: its
    entries are the leading records of the walk on the same alpha, each
    with the record's i, j (`b_level`), digits (`b`) and prefilter
    reason (`verdict`, "witness" on a live record), every one dead but a
    last live one, which holds the witness.  The scan keeps no record,
    so a record's `weight` and `key` are checked by the walk tests."""
    for c, alpha in _scan_cases():
        data = CuspidalData(c)
        where = (c.p, str(alpha))
        rep = support_scan(data, alpha)
        records = orbit_strata(data, *_preimage_inverse(alpha))
        searched = rep["strata_searched"]
        assert [(s["i"], s["b_level"], tuple(s["b"]), s["verdict"])
                for s in searched] == \
            [(r.i, r.j, r.digits, r.dead or "witness")
             for r in records[:len(searched)]], where
        assert all(s["verdict"] != "witness" for s in searched[:-1]), where
        assert (searched[-1]["verdict"] == "witness") == \
            (rep["witness"] is not None), where


def _witness_cases():
    """(ctx, alpha): `_scan_cases()` and, over x - 3, x - 7, x^3 - 2,
    x^2 + 2x - 2, x^2 + 2 and x^2 - 5, twelve seeded alpha =
    +-(1 + pi^e v) each, e = 1..3 and v a unit: 96 cases."""
    cases = _scan_cases()
    rng = random.Random(41)
    for p, eis in ((3, (-3, 1)), (7, (-7, 1)), (2, (-2, 0, 0, 1)),
                   (2, (-2, 2, 1)), (2, (2, 0, 1)), (5, (-5, 0, 1))):
        c = LocalFieldCtx(p, len(eis) - 1, eis, 24)
        for sign, e, _ in itertools.product((1, -1), (1, 2, 3), range(2)):
            alpha = c.one() + c.random_unit(rng).shift(e)
            cases.append((c, alpha if sign > 0 else -alpha))
    return cases


def test_kappa_witness_matches_gl2_enumeration():
    """The closed form of `support_scan`'s witness, record by record: on
    the first live `orbit_strata` record of each of the 96
    `_witness_cases`, j = 0 and b = (), the GL_2(O/pi^2) enumeration
    `kappa_witness_oracle` gives w = [[0, 1], [1, 0]], and the pointwise f
    at w y w^vdash is 1."""
    cases = _witness_cases()
    assert len(cases) == 96
    live = 0
    for c, alpha in cases:
        data = CuspidalData(c)
        x = _preimage_inverse(alpha)
        first = next((r for r in orbit_strata(data, *x) if r.dead is None),
                     None)
        if first is None:
            continue
        where = (c.p, str(alpha))
        assert (first.j, first.digits) == (0, ()), where
        y = coset_y(first, *x)
        w = Mat.from_ints(c, [[0, 1], [1, 0]])
        assert kappa_witness_oracle(data, y) == w, where
        assert data.f(w * y * vdash(w, orthogonal_form(c, 2))) == \
            CharacterValue.one(c.p), where
        live += 1
    assert live == 57


@pytest.mark.parametrize("mk, spec", [(ctx2, "1+pi^2"), (ctx3, "-1+pi"),
                                      (ctx5, "-1+pi"), (ctx5, "1+pi")])
def test_support_scan_reads_no_gl2_and_no_pointwise_f(monkeypatch, mk,
                                                      spec):
    """A scan calls `iter_gl2` zero times, and enters no `matlattice`
    function and no part of the pointwise f (`psi`, `f`, `member`,
    `level_character`, `pi_e_inverse_power`, `additive_char`): its
    witness is proved (`support_scan`), whether it finds one (the first
    three) or not (p = 5 `1+pi`)."""
    reads = []
    gl2 = supercuspidal.iter_gl2

    def counted(ring):
        reads.append(ring)
        return gl2(ring)

    monkeypatch.setattr(supercuspidal, "iter_gl2", counted)
    pointwise = {fn.__code__ for fn in (
        CuspidalData.psi, CuspidalData.f, member, level_character,
        pi_e_inverse_power, additive_char)}
    entered = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and (code in pointwise or code.co_filename
                                == matlattice.__file__):
            entered.append(code.co_name)

    c = mk()
    data, alpha = CuspidalData(c), parse_elem(c, spec)
    sys.setprofile(profile)
    try:
        rep = support_scan(data, alpha)
    finally:
        sys.setprofile(None)
    assert (reads, entered) == ([], [])
    assert (rep["witness"] is not None) == (spec != "1+pi")


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_odd_det_valuation_strata_are_dead(mk):
    """y = pi^i [[x0, b(x0 + x1)], [0, x1]] with ord det y = 1 has y00 - y11
    a unit, so the prefilter kills every such coset, and a scan only ever
    seeks kappa at parity 0.  Every live `orbit_strata` record then has
    f(y) != 0, so kappa = 1 is a witness and every live class holds one
    (`support_scan`)."""
    c = mk()
    data = CuspidalData(c)
    rng = random.Random(21)
    levels = set()
    live = 0
    alphas = [c.pi(1), c.pi(-1), c.pi(3), c.one() + c.pi(1),
              c.pi(1) - c.one(), c.pi(3) - c.one()]
    while len(alphas) < 14:
        a = c.random_elem(rng, -2, 3)
        if not (a.is_zero() or a == c.one() or a == -c.one()):
            alphas.append(a)
    for alpha in alphas:
        x = _preimage_inverse(alpha)
        for cos in coset_strata(data, *x):
            if cos.y.det().val % 2:
                assert cos.dead is not None, alpha
        for r in orbit_strata(data, *x):
            if r.dead is None:
                assert not data.f(coset_y(r, *x)).is_zero(), alpha
                live += 1
        levels.add(support_scan(data, alpha)["kappa_level"])
    assert levels == {0, 2} and live


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5, ctx7])
def test_kappa_average_vanishes_at_odd_p(mk):
    """N = 1 + pi M_2(O) lies in I_1 and f(n X n^vdash) = Lambda(n)^2 f(X);
    at odd p Lambda^2 is nontrivial on N, so every K-average is 0.  At
    p = 2 the factor is 1 and some average is not 0.  `kappa_average`
    returns that 0 at odd p without a pass, and `kappa_vanishes` says so
    to the integrator; this checks the pass itself,
    `_kappa_average_coset`, on y of both parities: 0 at every odd p, and
    equal to the full enumeration of `kappa_average_oracle` at p = 3."""
    c = mk()
    data = CuspidalData(c)
    assert data.kappa_vanishes == (c.p != 2)
    rng = random.Random(23)
    values = {0: [], 1: []}
    want = 20 if c.p == 2 else 5
    while min(len(v) for v in values.values()) < want:
        y = random_integral(c, 2, rng)
        parity = y.det().val % 2
        if y.det().val in (0, 1) and len(values[parity]) < want:
            values[parity].append(
                data._kappa_average_coset(residue_key(y, 2), parity))
            assert values[parity][-1] == data.kappa_average(
                kappa_key(y, 2))
            if c.p == 3:
                assert values[parity][-1] == kappa_average_oracle(data, y, 2)
    values = values[0] + values[1]
    if c.p == 2:
        assert any(not v.is_zero() for v in values)
    else:
        assert all(v.is_zero() for v in values)
