import random

import pytest

from twirl import (
    Mat,
    make_field,
    mat_ord,
    orthogonal_form,
    symplectic_form,
    vdash,
)
from twirl.localfield import is_square

from weights_oracle import delta


def ctx5():
    return make_field(5, 1, (-5, 1), 18)


def ctx2():
    return make_field(2, 2, (-2, 0, 1), 24)


def eps(g, form):
    """The involution eps(g) = (g^(-1))^vdash of GL_n."""
    return vdash(g.inverse(), form)


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


def _three_block_form(form):
    """The 3n x 3n form [[0, 0, C], [0, J, 0], [C, 0, 0]] of the paper's
    classical group, C = w (orthogonal) or C = J (symplectic)."""
    c, n = form.J.ctx, form.n
    corner = form.w if form.kind == "orthogonal" else form.J
    big = Mat.zero(c, 3 * n)
    for r in range(n):
        for s in range(n):
            big.rows[r][2 * n + s] = corner.rows[r][s]
            big.rows[2 * n + r][s] = corner.rows[r][s]
            big.rows[n + r][n + s] = form.J.rows[r][s]
    return big


@pytest.mark.parametrize("mk", [ctx5, ctx2])
@pytest.mark.parametrize("formf", [orthogonal_form, symplectic_form])
@pytest.mark.parametrize("n", [2, 4])
def test_levi_embedding_preserves_three_block_form(mk, formf, n):
    """The three-block Levi M = {diag(g, I_n, eps(g))} lies in the group
    of the form B = [[0, 0, C], [0, J, 0], [C, 0, 0]]: M^t B M = B for
    random invertible g.  This ties the eps (and so the vdash) of the
    pipeline to the paper's embedding."""
    c = mk()
    form = formf(c, n)
    big = _three_block_form(form)
    rng = random.Random(8)
    for _ in range(10):
        g = Mat.random(c, n, rng)
        m = Mat.zero(c, 3 * n)
        blocks = (g, Mat.identity(c, n), eps(g, form))
        for b, blk in enumerate(blocks):
            for r in range(n):
                for s in range(n):
                    m.rows[b * n + r][b * n + s] = blk.rows[r][s]
        assert m.transpose() * big * m == big
