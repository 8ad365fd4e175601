import random

import pytest

from twirl import (
    Mat,
    Singular,
    SingularGammaMinusOne,
    TorusElem,
    is_eps_symmetric,
    make_field,
    norm_preimage,
    orthogonal_form,
    symplectic_form,
    twisted_discriminant,
    twisted_discriminant_oracle,
)
from twirl import PrecisionExhausted, twisted, vdash
from twirl.twisted import norm_preimage_general

from twisted_centralizer import twisted_centralizer_sample


def ctx5():
    return make_field(5, 1, (-5, 1), 18)


def ctx2():
    return make_field(2, 2, (-2, 0, 1), 24)


def regular_alpha(c, rng):
    while True:
        a = c.random_elem(rng, -2, 3)
        if not (a == c.one() or a == -c.one()):
            return a


def test_norm_preimage_split_form():
    c = ctx5()
    form = orthogonal_form(c, 2)
    alpha = c.from_int(3)
    s = norm_preimage(TorusElem(alpha), form)
    assert s == Mat.diag(c, [alpha - c.one(), alpha.inverse() - c.one()])
    # alpha = -1: S = diag(-2, -2)
    s2 = norm_preimage(TorusElem(-c.one()), form)
    assert s2 == Mat.diag(c, [c.from_int(-2), c.from_int(-2)])
    with pytest.raises(SingularGammaMinusOne):
        norm_preimage(TorusElem(c.one()), form)
    # alpha = 0 is no torus element: refused where gamma is built
    with pytest.raises(Singular, match="inverse of zero"):
        TorusElem(c.zero())


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_norm_preimage_closed_form_is_general_route(mk):
    """On the split form S(gamma) is diag(alpha - 1, alpha^(-1) - 1),
    the matrix route w J^(-1) (gamma - 1) exactly, at alpha = -1 too, and
    alpha = 1 is refused on both routes."""
    c = mk()
    form = orthogonal_form(c, 2)
    assert form.split
    rng = random.Random(9)
    for alpha in [-c.one()] + [regular_alpha(c, rng) for _ in range(40)]:
        gamma = TorusElem(alpha)
        assert norm_preimage(gamma, form) == norm_preimage_general(gamma, form)
    for route in (norm_preimage, norm_preimage_general):
        with pytest.raises(SingularGammaMinusOne):
            route(TorusElem(c.one()), form)


def anisotropic_block(c):
    d = c.from_int(2 if c.p == 5 else 3)  # a non-square unit
    return Mat.diag(c, [c.one(), -d])


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_non_split_form_takes_general_route(mk, monkeypatch):
    """Only the split 2x2 orthogonal form is closed-form; a non-split
    block lam keeps w J^(-1) (gamma - 1)."""
    c = mk()
    assert not orthogonal_form(c, 4).split
    assert not symplectic_form(c, 2).split
    form = orthogonal_form(c, 2, anisotropic_block(c))
    assert not form.split
    calls = []

    def counting(gamma, form):
        calls.append(gamma)
        return norm_preimage_general(gamma, form)

    monkeypatch.setattr(twisted, "norm_preimage_general", counting)
    gamma = TorusElem(c.from_int(3))
    s = norm_preimage(gamma, form)
    assert len(calls) == 1
    want = form.w * form.J.inverse() * (gamma.matrix() - Mat.identity(c, 2))
    assert s == want
    assert not s.rows[0][1].is_zero()


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_nu_of_norm(mk):
    """nu(S) = eps(S) S = -gamma exactly, eps(S) = (S^(-1))^vdash."""
    c = mk()
    form = orthogonal_form(c, 2)
    rng = random.Random(0)
    for _ in range(50):
        gamma = TorusElem(regular_alpha(c, rng))
        s = norm_preimage(gamma, form)
        assert vdash(s.inverse(), form) * s == -gamma.matrix()


def test_eps_symmetry_preserved():
    c = ctx5()
    form = orthogonal_form(c, 2)
    rng = random.Random(2)
    for _ in range(40):
        # diagonal with equal antidiagonal partners: a = d
        a = c.random_elem(rng, 0, 3)
        b = c.random_elem(rng, 0, 3)
        x = Mat(c, [[a, b], [c.random_elem(rng, 0, 3), a]])
        assert is_eps_symmetric(x, form)
        g = Mat.random(c, 2, rng)
        assert is_eps_symmetric(g * x * vdash(g, form), form)
    assert not is_eps_symmetric(Mat.from_ints(c, [[1, 0], [0, 2]]), form)


def test_eps_symmetry_mod_level():
    c = ctx5()
    form = orthogonal_form(c, 2)
    x = Mat(c, [[c.one(), c.zero()], [c.zero(), c.one() + c.pi(1)]])
    assert is_eps_symmetric(x, form, mod_level=1)
    assert not is_eps_symmetric(x, form, mod_level=2)


def _eps_symmetric_by_vdash(x, form, mod_level):
    """X^vdash - X by the allocated twisted transpose, entry by entry."""
    d = vdash(x, form) - x
    if mod_level is None:
        return d == Mat.zero(x.ctx, x.n)
    return all(e.divisible_by(mod_level) for r in d.rows for e in r)


def _outcome(route, x, form, mod_level):
    try:
        return route(x, form, mod_level)
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_pairwise_eps_symmetry_matches_vdash_route(mk):
    """The pairwise test gives the vdash route's verdict, exactly and mod
    pi^1..3, on random, eps-symmetric and perturbed eps-symmetric 2x2 and
    4x4 matrices, under the split and non-split orthogonal forms and the
    symplectic form."""
    c = mk()
    rng = random.Random(10)
    verdicts = set()
    for n in (2, 4):
        for form in (orthogonal_form(c, n),
                     orthogonal_form(c, n, anisotropic_block(c)),
                     symplectic_form(c, n)):
            for _ in range(15):
                g = Mat.random(c, n, rng, invertible=False)
                sym = g + vdash(g, form)
                bumped = Mat(c, sym.rows)
                i, j = rng.randrange(n), rng.randrange(n)
                bumped.rows[i][j] = bumped.rows[i][j] + c.pi(rng.randrange(1, 4))
                for x in (g, sym, bumped):
                    for m in (None, 1, 2, 3):
                        got = _outcome(is_eps_symmetric, x, form, m)
                        assert got == _outcome(_eps_symmetric_by_vdash, x,
                                               form, m), (form.kind, n, m)
                        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("mk", [ctx5, ctx2])
def test_twisted_discriminant_routes(mk):
    c = mk()
    form = orthogonal_form(c, 2)
    rng = random.Random(3)
    for _ in range(25):
        gamma = TorusElem(regular_alpha(c, rng))
        si = norm_preimage(gamma, form).inverse()
        r1 = twisted_discriminant(si, form)
        r2 = twisted_discriminant_oracle(si, form)
        assert r1.kernel_dim == 1 == r2.kernel_dim
        assert r1.regular
        assert r1.ord_value == r2.ord_value
        assert r1.charpoly_lowterm == r2.charpoly_lowterm
        # closed formula |D_eps| = |2| |alpha-1|^2 / |alpha|
        a = gamma.alpha
        want = c.from_int(2).val + 2 * (a - c.one()).val - a.val
        assert r1.ord_value == want


def test_discriminant_stratum_constancy():
    """|D_eps(S(gamma))| depends only on ord(alpha - 1), ord(alpha + 1),
    ord(alpha)."""
    c = ctx5()
    form = orthogonal_form(c, 2)
    rng = random.Random(4)
    seen = {}
    for _ in range(60):
        a = regular_alpha(c, rng)
        key = ((a - c.one()).val, (a + c.one()).val, a.val)
        si = norm_preimage(TorusElem(a), form).inverse()
        got = twisted_discriminant(si, form).ord_value
        if key in seen:
            assert seen[key] == got
        seen[key] = got


def test_twisted_centralizer_small():
    """Sampled solutions of g X g^vdash = X mod pi^m, X = S(gamma)^(-1),
    lie in the torus mod pi^(m-1): alpha = 2 at depth 3."""
    c = ctx5()
    form = orthogonal_form(c, 2)
    rng = random.Random(5)
    gamma = TorusElem(c.from_int(2))
    rep = twisted_centralizer_sample(gamma, form, 3, 500, rng)
    assert rep.all_in_torus
    # one leaf per point diag(t, t^(-1)) of the torus mod pi^m, t a unit
    p, m = c.p, rep.depth
    assert rep.tree_leaves == (p - 1) * p ** (m - 1)
