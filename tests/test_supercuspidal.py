import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from twirl import (
    CuspidalData,
    DomainError,
    Mat,
    TorusElem,
    level_character,
    make_field,
    member,
    norm_preimage,
    orbit_weight_integral,
    orthogonal_form,
    parse_elem,
    support_scan,
    symplectic_form,
    vdash,
)
from twirl import supercuspidal
from twirl.cyclotomic import CharacterValue
from twirl.integrator import _preimage_inverse, orbit_strata
from twirl.ringvec import ResidueRing, iter_gl2
from twirl.supercuspidal import (
    _classify_regime,
    _coset_counts,
    _count_f,
    _f_on_residues,
    _lift,
    _mat_mul,
    _oracle_counts,
    _residues,
    _support_mod_pi,
    _vdash,
    pi_e_inverse_power,
)

from coset_walk import coset_strata


def pi_e_matrix(ctx):
    """pi_E = [[0, 1], [pi, 0]], whose square is pi."""
    z, o = ctx.zero(), ctx.one()
    return Mat(ctx, [[z, o], [o.shift(1), z]])


def ctx5():
    return make_field(5, 1, (-5, 1), 18)


def ctx2():
    return make_field(2, 2, (-2, 0, 1), 24)


def ctx3():
    return make_field(3, 1, (-3, 1), 12)


def ctx7():
    return make_field(7, 1, (-7, 1), 12)


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
    one = Mat.identity(c, 2)
    for lv in ("I2", "I1", "I0", "K", "C0", "C"):
        assert member(one, lv)
    m = Mat.from_ints(c, [[1, 1], [0, 1]])
    assert member(m, "I1") and not member(m, "I2")
    rng = random.Random(0)
    for _ in range(60):
        h = rand_i1(c, rng)
        assert member(h, "I1") and member(h, "I0") and member(h, "K")
        # O_E^x times I_1 stays in C0
        a = c.random_unit(rng)
        b = c.random_elem(rng, 0, 3)
        u = Mat(c, [[a, b], [b.shift(1), a]])  # a + b pi_E
        assert member(u * h, "C0")


def test_data_requires_deep_two():
    with pytest.raises(DomainError):
        CuspidalData(make_field(2, 1, (-2, 1), 14))
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
    x = norm_preimage(TorusElem(alpha), form).inverse()
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
        assert data.kappa_average_oracle(y, 2) == want
        assert data.kappa_average(y, form) == want


def test_kappa_average_level_stability():
    """The enumeration oracle one or two congruence levels deeper gives the
    same exact value (the integrand is right-invariant at level 2)."""
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    alpha = c.one() + c.pi(2)
    y = norm_preimage(TorusElem(alpha), form).inverse().shift(2)
    v2 = data.kappa_average_oracle(y, 2)
    assert v2 == data.kappa_average_oracle(y, 3)
    assert v2 == data.kappa_average_oracle(y, 4)
    assert v2 == data.kappa_average(y, form)


class _RecordingData(CuspidalData):
    """Records every y the pipeline averages over."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def kappa_average(self, y, form):
        self.seen.append(y)
        return super().kappa_average(y, form)


@pytest.mark.parametrize("mk, specs", [
    (ctx2, ("1+pi^2", "1+pi^3", "1+pi+pi^2")),
    (ctx5, ("-1+pi", "-1+pi*u", "-1+pi^2")),
])
def test_kappa_average_matches_oracle_on_live_strata(mk, specs):
    """The coset evaluation equals the GL_2(O/pi^2) enumeration on every
    live orbit stratum.  The pipeline averages over exactly those y at
    p = 2, and over none where every K-average vanishes (odd p)."""
    c = mk()
    form = orthogonal_form(c, 2)
    data = _RecordingData(c)
    live = []
    for spec in specs:
        gamma = TorusElem(parse_elem(c, spec))
        live += [r.y for r in orbit_strata(data, form,
                                           _preimage_inverse(gamma, form))
                 if r.dead is None]
        orbit_weight_integral(data, form, gamma, range(1))
    assert live
    assert data.seen == ([] if data.kappa_vanishes(form) else live)
    fresh = CuspidalData(c)
    for y in live:
        assert fresh.kappa_average(y, form) == data.kappa_average_oracle(y, 2)


@pytest.mark.parametrize("mk, count", [(ctx2, 8), (ctx3, 3)])
def test_kappa_average_odd_piece_matches_level_three(mk, count):
    """On det-valuation-1 y, level 2 suffices: the coset evaluation equals
    the GL_2(O/pi^3) enumeration."""
    c = mk()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    rng = random.Random(11)
    ys = [pi_e_matrix(c)]
    while len(ys) < count:
        y = Mat.random_integral(c, 2, rng)
        if y.det().val == 1:
            ys.append(y)
    values = [data.kappa_average(y, form) for y in ys]
    assert values == [data.kappa_average_oracle(y, 3) for y in ys]
    if c.p == 2:
        assert values[0] == CharacterValue.rational(2, Fraction(1, 3))


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_n_orbit_matches_conjugation(mk):
    """y + pi Im L_y is exactly {n y n^vdash mod pi^2 : n in 1 + pi M_2(O)}."""
    c = mk()
    form = orthogonal_form(c, 2)
    ring = ResidueRing(c, 2)
    rng = random.Random(14)
    digits = [c.from_digits(1, (d,)) if d else c.zero() for d in range(c.p)]
    for _ in range(2):
        y = Mat.random_integral(c, 2, rng)
        want = set()
        for a in itertools.product(digits, repeat=4):
            n = Mat.identity(c, 2) + Mat(c, [list(a[:2]), list(a[2:])])
            want.add((n * y * vdash(n, form)).residue_key(2))
        rows = _n_orbit(ring, _residues(ring, y))
        got = {Mat(c, [[_lift(ring, z[i]) for z in rows[:2]],
                       [_lift(ring, z[i]) for z in rows[2:]]]).residue_key(2)
               for i in range(rows[0].shape[0])}
        assert got == want


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_support_mod_pi_keeps_every_row_f_reads(mk, parity):
    """On every X in M_2(O/pi^2), f's support mask implies
    `_support_mod_pi`, so the row filter of the K-average never drops a
    row that f is nonzero on."""
    c = mk()
    ring = ResidueRing(c, 2)
    table = ring.from_digit_grid(2)
    x = tuple(table[i] for i in np.indices((table.shape[0],) * 4)
              .reshape(4, -1))
    mask, _ = _f_on_residues(ring, x, parity)
    keep = _support_mod_pi(ring, x, parity)
    assert mask.any()
    assert not (mask & ~keep).any()


def _integral_of_parity(c, rng, parity):
    """A random integral y with ord det y = parity and y00 = y11 mod pi:
    eps-symmetric mod pi, so its K-orbit can meet the support of f."""
    while True:
        (a, b), (cc, _) = Mat.random_integral(c, 2, rng).rows
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
    for k in iter_gl2(1, ring):
        total += _count_f(ring, tuple(z[:, None, :] for z in k), y_orbit,
                          parity, counts)
    return counts, total


@pytest.mark.parametrize("mk, count", [(ctx2, 4), (ctx3, 4), (ctx5, 2),
                                       (ctx7, 1)])
def test_coset_counts_match_oracle_counts(mk, count):
    """The filtered coset enumeration, the unfiltered one and the
    GL_2(O/pi^2) enumeration give the same Lambda_1 exponent counts up to
    the factor |ker L_y|.  Means alone cannot see a dropped row at odd p,
    where every K-average is 0."""
    c = mk()
    ring = ResidueRing(c, 2)
    rng = random.Random(31)
    for parity in (0, 1):
        hits = 0
        for _ in range(count):
            y_res = _residues(ring, _integral_of_parity(c, rng, parity))
            counts, total = _coset_counts(ring, y_res, parity)
            plain, plain_total = _unfiltered_coset_counts(ring, y_res, parity)
            assert (counts.tolist(), total) == (plain.tolist(), plain_total)
            full, full_total = _oracle_counts(ring, y_res, parity)
            factor = full_total // total
            assert full_total == factor * total
            assert full.tolist() == (factor * counts).tolist()
            hits += int(counts.sum())
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
    ring = ResidueRing(c, 2)
    rng = random.Random(41)
    seen = set()
    for _ in range(4):
        y = _integral_of_parity(c, rng, 1)
        seen.update(_parity_one_cases(c, y, ring))
        y_res = _residues(ring, y)
        counts, total = _coset_counts(ring, y_res, 1)
        full, full_total = _oracle_counts(ring, y_res, 1)
        factor = full_total // total
        assert full_total == factor * total
        assert full.tolist() == (factor * counts).tolist()
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
    closed form: each miss reads GL_2(F_p) once from `iter_gl2(1, .)`,
    exactly |GL_2(F_p)| rows, and no f evaluation (`_f_on_residues`,
    `_count_f`, `_oracle_counts`) runs; on the benchmark's config it makes
    6 misses (12 at one torus stratum per unit-digit tuple, where more
    y mod pi^2 occur).  A cold `residue` run at p = 5
    and a cold `psik` run at p = 7 make no pass at all: every odd-p
    K-average is 0 (`CuspidalData.kappa_average`)."""
    from twirl import cli

    reads = []
    gl2 = supercuspidal.iter_gl2

    def counted(level, ring):
        reads[-1].append([level, 0])
        for chunk in gl2(level, ring):
            reads[-1][-1][1] += chunk[0].shape[0]
            yield chunk

    average = CuspidalData.kappa_average

    def traced(self, y, form):
        reads.append([])
        return average(self, y, form)

    def forbidden(*args):
        raise AssertionError("a K-average evaluated f row by row")

    monkeypatch.setattr(supercuspidal, "iter_gl2", counted)
    monkeypatch.setattr(CuspidalData, "kappa_average", traced)
    for name in ("_f_on_residues", "_count_f", "_oracle_counts"):
        monkeypatch.setattr(supercuspidal, name, forbidden)
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    assert cli.main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 0
    assert [r for r in reads if r] == [[[1, rows]]] * misses


@pytest.mark.parametrize("mk", [ctx2, ctx5])
def test_f_depends_on_residue_mod_pi_squared(mk):
    """f(X) = f(X + pi^2 Z) for integral X with ord det X in {0, 1} and
    integral Z: the lemma behind the (y mod pi^2, parity) cache key."""
    c = mk()
    data = CuspidalData(c)
    ring = ResidueRing(c, 2)
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
            x = Mat.random_integral(c, 2, rng)
        if x.det().val not in (0, 1):
            continue
        z = Mat.random_integral(c, 2, rng).shift(2)
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


def test_kappa_average_rejects_symplectic_form():
    """kappa_average implements the orthogonal twist only.  With the
    symplectic form k y k^vdash = det(k) y for y = 1, so the true average
    is 1, while the orthogonal evaluation gives 0.  `kappa_vanishes`,
    which states that 0, and `support_scan`, whose `_kappa_witness`
    enumerates the orthogonal twist too, refuse as well."""
    c = ctx3()
    data = CuspidalData(c)
    y = Mat.identity(c, 2)
    sf = symplectic_form(c, 2)
    rng = random.Random(13)
    for _ in range(5):
        kap = Mat.random_integral(c, 2, rng, unit_det=True)
        assert data.f(kap * y * vdash(kap, sf)) == CharacterValue.one(3)
    assert data.kappa_average(y, orthogonal_form(c, 2)).is_zero()
    with pytest.raises(DomainError):
        data.kappa_average(y, sf)
    with pytest.raises(DomainError):
        data.kappa_vanishes(sf)
    with pytest.raises(DomainError):
        support_scan(data, sf, TorusElem(parse_elem(c, "-1+pi")))


def test_kappa_average_conjugation_invariance():
    c = ctx2()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
    rng = random.Random(4)
    alpha = c.one() + c.pi(3)
    y = norm_preimage(TorusElem(alpha), form).inverse().shift(3)
    for _ in range(5):
        kap = Mat.random_integral(c, 2, rng, unit_det=True)
        y2 = kap * y * vdash(kap, form)
        assert data.kappa_average(y, form) == data.kappa_average(y2, form)


def test_kappa_congruence_sharpness():
    """kappa kappa^t = det kappa mod I_2 needs 2 in pi^2."""
    c2 = ctx2()
    form2 = orthogonal_form(c2, 2)
    rng = random.Random(5)
    for _ in range(100):
        kap = Mat.random_integral(c2, 2, rng, unit_det=True)
        t = (kap * vdash(kap, form2)).scale(kap.det().inverse())
        assert member(t, "I2")
    c1 = make_field(2, 1, (-2, 1), 14)
    form1 = orthogonal_form(c1, 2)
    witness = Mat.from_ints(c1, [[1, 0], [1, 1]])
    t = (witness * vdash(witness, form1)).scale(witness.det().inverse())
    assert not member(t, "I2")


def test_support_scan_regimes():
    c5 = ctx5()
    d5 = CuspidalData(c5)
    f5 = orthogonal_form(c5, 2)
    for spec in ("pi", "pi^2", "pi^-1", "2", "1+pi"):
        rep = support_scan(d5, f5, TorusElem(parse_elem(c5, spec)))
        assert not rep.found(), spec
    rep = support_scan(d5, f5, TorusElem(parse_elem(c5, "-1+pi")))
    assert rep.found()
    c2 = ctx2()
    rep2 = support_scan(CuspidalData(c2), orthogonal_form(c2, 2),
                        TorusElem(parse_elem(c2, "1+pi^2")))
    assert rep2.found()
    assert rep2.witness["i"] == 2
    j = rep2.to_json()
    assert j["regime"].endswith("witness")


def test_support_scan_makes_no_kappa_average_call(monkeypatch):
    """The scan settles each live class by `_kappa_witness` alone: the
    level records it reads carry no K-average, so a scan that reaches a
    witness (p = 2 `1+pi^2`, p = 5 `-1+pi`) computes none."""
    calls = []
    monkeypatch.setattr(CuspidalData, "kappa_average",
                        lambda self, y, form: calls.append(y))
    for c, spec in ((ctx2(), "1+pi^2"), (ctx5(), "-1+pi")):
        rep = support_scan(CuspidalData(c), orthogonal_form(c, 2),
                           TorusElem(parse_elem(c, spec)))
        assert rep.found(), spec
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
    rep = support_scan(CuspidalData(c), orthogonal_form(c, 2),
                       TorusElem(parse_elem(c, spec)))
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_SHA256[mk, spec]


def test_support_scan_raises_on_short_b_window():
    """alpha = 1 + pi^4 forces b levels up to 4, and the scan reads every
    one of them without finding a witness."""
    c = make_field(5, 1, (-5, 1), 30)
    rep = support_scan(CuspidalData(c), orthogonal_form(c, 2),
                       TorusElem(parse_elem(c, "1+pi^4")))
    assert not rep.found()
    assert max(s.b_level for s in rep.strata) == 4


def test_support_scan_deep_alpha_reads_levels():
    """alpha = 1 + pi^8 at p = 5 forces b levels up to 8 on i = 8, and
    every level is dead: the scan returns the 9 level records of
    `orbit_strata` (a per-coset walk visits 5^8 cosets)."""
    c = make_field(5, 1, (-5, 1), 40)
    data, form = CuspidalData(c), orthogonal_form(c, 2)
    gamma = TorusElem(parse_elem(c, "1+pi^8"))
    rep = support_scan(data, form, gamma)
    x = norm_preimage(gamma, form).inverse()
    assert len(rep.strata) == len(orbit_strata(data, form, x)) == 9
    assert not rep.found()
    assert [s.b_level for s in rep.strata] == list(range(9))


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
    form = orthogonal_form(c, 2)
    for alphas in _random_scan_alphas(c):
        for alpha in alphas:
            assert not support_scan(d, form, TorusElem(alpha)).found()


def _coset_scan(data, form, gamma):
    """The per-coset scan: every coset of `coset_strata` in lexicographic
    order, each live one settled by the module's `_kappa_witness`, up to
    the first witness.  Returns (regime, witness, kappa_level,
    [(coset, verdict)]) with the cosets visited before the witness."""
    x = norm_preimage(gamma, form).inverse()
    visited, witness, kappa_level = [], None, 0
    for c in coset_strata(data, form, x):
        if c.dead is not None:
            visited.append((c, c.dead))
            continue
        kappa_level = data.residue_level
        kap = supercuspidal._kappa_witness(data, c.y)
        gw = kap * c.g0
        witness = {"i": c.i, "b_level": c.j, "b": list(c.digits),
                   "kappa": kap.to_digit_lists(4),
                   "value": data.f(gw * x * vdash(gw, form)).to_json()}
        break
    regime = _classify_regime(data.ctx, gamma.alpha)
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
    records are the leading `orbit_strata` records, whose weights sum to
    the number of cosets.  Every live class holds a witness
    (`support_scan`), so the first live coset ends both scans."""
    for c, alpha in _scan_cases():
        data, form = CuspidalData(c), orthogonal_form(c, 2)
        gamma = TorusElem(alpha)
        where = (c.p, str(alpha))
        rep = support_scan(data, form, gamma)
        regime, witness, kappa_level, visited = _coset_scan(data, form, gamma)
        assert (rep.regime, rep.witness, rep.kappa_level) == \
            (regime, witness, kappa_level), where
        x = norm_preimage(gamma, form).inverse()
        records = orbit_strata(data, form, x)
        assert [(s.i, s.b_level, s.b_digits) for s in rep.strata] == \
            [(r.i, r.j, r.digits) for r in records[:len(rep.strata)]], where
        assert sum(r.weight for r in records) == \
            sum(1 for _ in coset_strata(data, form, x)), where
        for cos, verdict in visited:
            assert [s.verdict for s in rep.strata
                    if (s.i, s.b_level) == (cos.i, cos.j)] == [verdict], where


@pytest.mark.parametrize("mk", [ctx2, ctx3, ctx5])
def test_odd_det_valuation_strata_are_dead(mk):
    """y = pi^i [[x0, b(x0 + x1)], [0, x1]] with ord det y = 1 has y00 - y11
    a unit, so the prefilter kills every such coset, and a scan only ever
    enumerates kappa mod pi^2.  Every live `orbit_strata` record then has
    f(y) != 0, so kappa = 1 is a witness and `_kappa_witness` always
    finds one."""
    c = mk()
    data = CuspidalData(c)
    form = orthogonal_form(c, 2)
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
        x = norm_preimage(TorusElem(alpha), form).inverse()
        for cos in coset_strata(data, form, x):
            if cos.y.det().val % 2:
                assert cos.dead is not None, alpha
        for r in orbit_strata(data, form, x):
            if r.dead is None:
                assert not data.f(r.y).is_zero(), alpha
                live += 1
        levels.add(support_scan(data, form, TorusElem(alpha)).kappa_level)
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
    form = orthogonal_form(c, 2)
    assert data.kappa_vanishes(form) == (c.p != 2)
    rng = random.Random(23)
    values = {0: [], 1: []}
    want = 20 if c.p == 2 else 5
    while min(len(v) for v in values.values()) < want:
        y = Mat.random_integral(c, 2, rng)
        parity = y.det().val % 2
        if y.det().val in (0, 1) and len(values[parity]) < want:
            values[parity].append(data._kappa_average_coset(y, parity))
            assert values[parity][-1] == data.kappa_average(y, form)
            if c.p == 3:
                assert values[parity][-1] == data.kappa_average_oracle(y, 2)
    values = values[0] + values[1]
    if c.p == 2:
        assert any(not v.is_zero() for v in values)
    else:
        assert all(v.is_zero() for v in values)
