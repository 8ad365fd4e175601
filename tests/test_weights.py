import random

import pytest

from twirl.localfield import LocalFieldCtx, square_class_reps
from twirl.matlattice import Mat, antidiag_w, orthogonal_form, vdash

from random_mats import mat_ord, random_integral, random_mat
from weights_oracle import (WeightQuery, delta_vector, scaling_block,
                            square_class_weight, weight_closed, weight_oracle)


def ctx5():
    return LocalFieldCtx(5, 1, (-5, 1), 18)


def ctx2():
    return LocalFieldCtx(2, 2, (-2, 0, 1), 24)


def test_closed_form_examples():
    c = ctx5()
    one = Mat.identity(c, 2)
    assert weight_closed(WeightQuery(one, 2, 1)) == 5  # 2k+1
    assert weight_closed(WeightQuery(one, -1, 1)) == 0
    g = Mat(c, [[c.pi(1), c.one()], [c.zero(), c.one()]])  # Delta_1 = 1
    assert weight_closed(WeightQuery(g, 2, 1)) == 6
    g2 = Mat.diag(c, [c.pi(-3), c.one()])  # Delta_1 = -3
    assert weight_closed(WeightQuery(g2, 1, 1)) == 0
    with pytest.raises(ValueError, match="h = 1"):
        weight_closed(WeightQuery(one, 1, 1, h=one))


def test_cap_volume_law():
    """vol_T(T cap pi^(-k) M_n(O)) = (2k+1)^r for k >= 0, 0 for k < 0."""
    for mk in (ctx5, ctx2):
        c = mk()
        for rank, n in ((1, 2), (2, 4)):
            for k in range(-3, 6):
                want = (2 * k + 1) ** rank if k >= 0 else 0
                q = WeightQuery(Mat.identity(c, n), k, rank)
                assert weight_oracle(q) == want


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_closed_equals_oracle(mk):
    c = mk()
    rng = random.Random(0)
    for n, rank in ((2, 1), (4, 2), (4, 1)):
        for _ in range(40):
            g = random_mat(c, n, rng, vmin=-2, vmax=3)
            k = rng.randrange(-2, 4)
            q = WeightQuery(g, k, rank)
            assert weight_closed(q) == weight_oracle(q)


def test_monotone_in_k():
    c = ctx5()
    rng = random.Random(2)
    w = antidiag_w(c, 2)
    for _ in range(30):
        g = random_mat(c, 2, rng)
        beta = c.random_elem(rng, -1, 2)
        h = Mat.diag(c, [beta, beta.inverse()])
        if rng.random() < 0.5:
            h = w * h
        vals = [weight_oracle(WeightQuery(g, k, 1, h)) for k in range(-2, 4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_lower_bound():
    """Delta_1(g) + Delta_1(h^t) + 2k + 1 <= w_k(g, h) on 60 in-domain
    samples."""
    c = ctx5()
    rng = random.Random(3)
    w = antidiag_w(c, 2)
    done = 0
    while done < 60:
        g = random_mat(c, 2, rng)
        beta = c.random_elem(rng, -2, 3)
        h = Mat.diag(c, [beta, beta.inverse()])
        if rng.random() < 0.5:
            h = w * h
        k = rng.randrange(-1, 4)
        d = delta_vector(g, 1)[0] + delta_vector(h.transpose(), 1)[0]
        if d + 2 * k < 0:
            continue
        assert d + 2 * k + 1 <= weight_oracle(WeightQuery(g, k, 1, h))
        done += 1


def _split(c, j, u):
    """The split torus element diag(u pi^j, u^(-1) pi^(-j))."""
    return Mat.diag(c, [u.shift(j), u.inverse().shift(-j)])


def test_unit_probe():
    """The oracle counts valuation vectors only: for each solution j of
    its window (unit part 1), g diag(u pi^j, u^(-1) pi^(-j)) stays in
    pi^(-k) M_2(O) for random units u, and the solutions are its count."""
    c = ctx2()
    rng = random.Random(4)
    found = 0
    for _ in range(10):
        g = random_mat(c, 2, rng)
        k = rng.randrange(0, 3)
        lo = -k - min(x.val for x in g.column(0))
        hi = k + min(x.val for x in g.column(1))
        sols = [j for j in range(lo - 1, hi + 2)
                if mat_ord(g * _split(c, j, c.one())) >= -k]
        assert len(sols) == weight_oracle(WeightQuery(g, k, 1))
        for j in sols:
            for _ in range(3):
                assert mat_ord(g * _split(c, j, c.random_unit(rng))) >= -k
        found += len(sols)
    assert found


def test_scaling_block():
    c = ctx5()
    form = orthogonal_form(c, 2)
    assert scaling_block(c.one(), 2) == Mat.identity(c, 2)
    rng = random.Random(5)
    for _ in range(20):
        a = c.random_elem(rng, -2, 3)
        x = scaling_block(a, 2)
        got = x * vdash(x.inverse(), form).inverse()  # x eps(x)^(-1)
        assert got == Mat.diag(c, [a, a])


def test_square_class_weight_examples():
    c = ctx5()
    scs = square_class_reps(c)
    one = Mat.identity(c, 2)
    assert square_class_weight(one, None, scs, 1) == 10  # 2*3 + 2*2
    for k in range(0, 4):
        assert square_class_weight(one, None, scs, k) == 2 * (4 * k + 1)
    # K-invariance
    rng = random.Random(6)
    for _ in range(10):
        g = random_mat(c, 2, rng)
        kap = random_integral(c, 2, rng, unit_det=True)
        assert (square_class_weight(kap * g, None, scs, 1)
                == square_class_weight(g, None, scs, 1))
    # closed-form collapse for integral g
    g = random_integral(c, 2, rng, unit_det=True)
    d1 = delta_vector(g, 1)[0]
    for k in range(0, 3):
        assert (square_class_weight(g, None, scs, k)
                == len(scs.unit_reps) * (2 * d1 + 4 * k + 1))


def test_omega_signs():
    c = ctx5()
    scs = square_class_reps(c)
    omega = [1, -1, 1, -1]
    one = Mat.identity(c, 2)
    got = square_class_weight(one, None, scs, 1, omega=omega)
    # unit classes contribute +3, -3; pi classes +2, -2
    assert got == 0
    with pytest.raises(ValueError):
        square_class_weight(one, None, scs, 1, omega=[2, 1, 1, 1])

