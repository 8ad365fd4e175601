import pytest

from twirl import make_field
from twirl.ringvec import ResidueRing, iter_gl2


@pytest.mark.parametrize("p, e, eis, level", [
    (2, 2, (-2, 0, 1), 1),
    (2, 2, (-2, 0, 1), 2),
    (2, 2, (-2, 0, 1), 3),
    (5, 1, (-5, 1), 1),
    (5, 1, (-5, 1), 2),
])
def test_iter_gl2_rows(p, e, eis, level):
    """iter_gl2 yields each element of GL_2(O/pi^level) once, with a unit
    determinant, in strictly increasing lexicographic digit-index order."""
    ctx = make_field(p, e, eis, 16)
    ring = ResidueRing(ctx, max(level, 2))
    index = {tuple(r): i for i, r in enumerate(ring.from_digit_grid(level))}
    keys = []
    for a, b, c, d in iter_gl2(ctx, level, ring):
        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
        assert ring.is_unit(det).all()
        keys.extend(tuple(index[tuple(z[i])] for z in (a, b, c, d))
                    for i in range(a.shape[0]))
    q = p  # residue field size of a totally ramified extension
    assert len(keys) == q ** (4 * (level - 1)) * (q * q - 1) * (q * q - q)
    assert all(u < v for u, v in zip(keys, keys[1:]))
