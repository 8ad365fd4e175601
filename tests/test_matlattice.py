import random
from fractions import Fraction

import pytest

from twirl import (
    LatticeSpec,
    Mat,
    RelationViolated,
    delta,
    eps,
    gnorm,
    iwasawa,
    lattice_ord,
    make_field,
    mat_ord,
    n_of,
    orthogonal_form,
    symplectic_form,
    vdash,
)
from twirl.localfield import is_square
from twirl.matlattice import big_form, scaled_lattice_ord
from twirl.supercuspidal import member

INF = float("inf")


def ctx5():
    return make_field(5, 1, (-5, 1), 18)


def ctx2():
    return make_field(2, 2, (-2, 0, 1), 24)


def test_mat_ord_examples():
    c = ctx5()
    x = Mat(c, [[c.pi(1), c.one()], [c.pi(2), c.pi(-1)]])
    assert mat_ord(x) == -1
    assert mat_ord(Mat.identity(c, 2)) == 0


def test_mat_ord_product_inequality():
    c = ctx2()
    rng = random.Random(0)
    for _ in range(150):
        x = Mat.random(c, 2, rng, invertible=False)
        y = Mat.random(c, 2, rng, invertible=False)
        assert mat_ord(x * y) >= mat_ord(x) + mat_ord(y)


def test_lattice_ords():
    assert lattice_ord(LatticeSpec(0)) == 0
    assert lattice_ord(LatticeSpec(3)) == -3


def test_scaled_lattice_inequalities():
    from twirl.matlattice import scaled_lattice_ord_star

    c = ctx5()
    rng = random.Random(1)
    for _ in range(500):
        g = Mat.random(c, 2, rng)
        h = Mat.random(c, 2, rng)
        lat = LatticeSpec(rng.randrange(0, 3))
        got = scaled_lattice_ord(g, lat, h)
        assert got >= mat_ord(g) + mat_ord(h) + lattice_ord(lat)
        star = scaled_lattice_ord_star(g, lat, h)
        assert star <= lattice_ord(lat) - mat_ord(g.inverse()) - \
            mat_ord(h.inverse())
        assert got <= star  # L inside pi^ord L_0 and pi^ord* L_0 inside L


def test_gnorm():
    c = ctx5()
    assert gnorm(Mat.identity(c, 2)) == 1
    assert gnorm(Mat.diag(c, [c.pi(1), c.one()])) == 5
    rng = random.Random(2)
    for _ in range(80):
        g = Mat.random(c, 2, rng)
        gi = g.inverse()
        other = Fraction(5) ** max(-mat_ord(g), -mat_ord(gi))
        # exact identity whenever det is integral-or-unit scaled
        # (|det| >= 1); in general the two norms are equivalent:
        # ||g|| <= max(|g|, |g^-1|) <= ||g||^2
        if g.det().val <= 0:
            assert gnorm(g) == other
        assert gnorm(g) <= other ** 2 and other <= gnorm(g) ** 2


@pytest.mark.parametrize("mk,formf", [(ctx5, orthogonal_form),
                                      (ctx2, orthogonal_form),
                                      (ctx5, symplectic_form)])
def test_vdash_laws(mk, formf):
    c = mk()
    form = formf(c, 2)
    rng = random.Random(3)
    for _ in range(40):
        g = Mat.random(c, 2, rng)
        h = Mat.random(c, 2, rng)
        assert vdash(vdash(g, form), form) == g
        assert vdash(g * h, form) == vdash(h, form) * vdash(g, form)
        assert eps(eps(g, form), form) == g


def test_vdash_orthogonal_explicit():
    c = ctx5()
    form = orthogonal_form(c, 2)
    g = Mat.from_ints(c, [[1, 2], [3, 4]])
    t = vdash(g, form)
    # [[a,b],[c,d]] -> [[d,b],[c,a]]
    assert t == Mat.from_ints(c, [[4, 2], [3, 1]])
    assert vdash(Mat.identity(c, 2), form) == Mat.identity(c, 2)


@pytest.mark.parametrize("mk,nonsquare", [(ctx2, 3), (ctx5, 2)])
def test_vdash_is_antidiagonal_transpose(mk, nonsquare):
    """The orthogonal vdash, an index permutation, equals w tg w on random
    matrices, for n = 2 and 4 and for the split block and the anisotropic
    block diag(1, -d), d a non-square unit."""
    c = mk()
    d = c.from_int(nonsquare)
    assert not is_square(d)
    anisotropic = Mat.diag(c, [c.one(), -d])
    rng = random.Random(6)
    for n in (2, 4):
        for lam in (None, anisotropic):
            form = orthogonal_form(c, n, lam)
            for _ in range(20):
                g = Mat.random(c, n, rng, invertible=False)
                assert vdash(g, form) == form.w * g.transpose() * form.w


def test_iwasawa_examples():
    c = ctx5()
    g = Mat.diag(c, [c.pi(1), c.one()])
    rep, t = iwasawa(g)
    assert rep.e == 1 and rep.b.is_zero()
    assert rep.kappa == Mat.identity(c, 2)
    assert t == Mat.identity(c, 2)
    g2 = Mat.diag(c, [c.pi(2), c.pi(1)])
    rep2, t2 = iwasawa(g2)
    assert rep2.e == 3
    assert t2 == Mat.diag(c, [c.pi(-1), c.pi(1)])


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_iwasawa_reconstruction(mk):
    c = mk()
    rng = random.Random(4)
    for _ in range(80):
        g = Mat.random(c, 2, rng)
        rep, t = iwasawa(g)
        assert rep.to_matrix() * t == g
        assert member(rep.kappa, "K")
        bv = rep.b.val
        assert bv == INF or bv < 0
        assert rep.e == g.det().val


def test_delta_examples():
    c = ctx5()
    g = Mat(c, [[c.pi(1), c.one()], [c.zero(), c.one()]])
    assert delta(g, 1) == 1
    assert delta(Mat.identity(c, 4), 1) == 0
    assert delta(Mat.identity(c, 4), 2) == 0
    rng = random.Random(5)
    for _ in range(40):
        g = Mat.random(c, 2, rng)
        k = rng.randrange(0, 3)
        assert delta(g.shift(k), 1) == delta(g, 1) + 2 * k


def test_delta_left_k_invariance():
    c = ctx2()
    rng = random.Random(6)
    for _ in range(40):
        g = Mat.random(c, 2, rng)
        kappa = Mat.random_integral(c, 2, rng, unit_det=True)
        assert delta(kappa * g, 1) == delta(g, 1)


def _solve_y(c, x, form):
    """Constructive solver for Y + Y^t = X X' (upper part), division free."""
    if form.kind == "orthogonal":
        xp = -(form.J * x.transpose() * form.w)
    else:
        xp = form.J * x.transpose() * form.J
    p = x * xp
    z = c.zero()
    return Mat(c, [[p.rows[0][0], p.rows[0][1] * c.from_rational(Fraction(1, 2))
                    if c.p != 2 else z], [z, z]]), xp


@pytest.mark.parametrize("mk,formf", [(ctx5, orthogonal_form),
                                      (ctx5, symplectic_form),
                                      (ctx2, orthogonal_form)])
def test_n_of_membership(mk, formf):
    c = mk()
    form = formf(c, 2)
    rng = random.Random(7)
    bigj = big_form(form)
    for _ in range(25):
        x = Mat.random(c, 2, rng, invertible=False)
        # build Y from the forced product: for the orthogonal split form the
        # off-diagonal parts of X X' are automatically divisible, so an
        # upper-triangular solution exists over O
        if form.kind == "orthogonal":
            xp = -(form.J * x.transpose() * form.w)
        else:
            xp = form.J * x.transpose() * form.J
        p = x * xp
        y = Mat(c, [[p.rows[0][0],
                     p.rows[0][1].shift(0) * c.from_rational(Fraction(1, 2))],
                    [p.rows[1][0] * c.from_rational(Fraction(1, 2)), c.zero()]]) \
            if c.p != 2 else _even_solution(c, p)
        n = n_of(x, y, form)
        assert n * bigj * n.transpose() == bigj
    # X = 0 with antisymmetric-type Y
    y0 = Mat(c, [[c.zero(), c.zero()], [c.zero(), c.zero()]])
    n = n_of(Mat.zero(c, 2), y0, form)
    assert n * bigj * n.transpose() == bigj


def _even_solution(c, p):
    # for p = 2 (split form) X X' has even off-diagonal entries exactly:
    # P01 = -2 x1 x2, P10 = -2 x3 x4; take Y = [[P00, P01],[0, 0]] shifted
    half01 = p.rows[0][1] * c.from_int(2).inverse()
    half10 = p.rows[1][0] * c.from_int(2).inverse()
    return Mat(c, [[p.rows[0][0], half01], [half10, c.zero()]])


def test_n_of_relation_violated():
    c = ctx5()
    form = orthogonal_form(c, 2)
    bad = Mat.from_ints(c, [[1, 0], [0, 0]])
    with pytest.raises(RelationViolated):
        n_of(Mat.identity(c, 2), bad, form)
