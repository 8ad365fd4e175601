import numpy as np
import pytest

from twirl.localfield import LocalFieldCtx
from twirl.ringvec import iter_gl2

from kappa_oracle import OracleRing, _gl2_chunks


@pytest.mark.parametrize("p, e, eis, level", [
    (2, 2, (-2, 0, 1), 1),
    (2, 2, (-2, 0, 1), 2),
    (2, 2, (-2, 0, 1), 3),
    (5, 1, (-5, 1), 1),
    (5, 1, (-5, 1), 2),
])
def test_iter_gl2_rows(p, e, eis, level):
    """`iter_gl2` (level 1) and the oracle's `_gl2_chunks` (higher
    levels) yield each element of GL_2(O/pi^level) once, with a unit
    determinant, in strictly increasing lexicographic digit-index order."""
    ctx = LocalFieldCtx(p, e, eis, 16)
    ring = OracleRing(ctx, max(level, 2))
    index = {tuple(r): i for i, r in enumerate(ring.from_digit_grid(level))}
    keys = []
    chunks = iter_gl2(ring) if level == 1 else _gl2_chunks(level, ring)
    for a, b, c, d in chunks:
        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
        assert ring.is_unit(det).all()
        keys.extend(tuple(index[tuple(z[i])] for z in (a, b, c, d))
                    for i in range(a.shape[0]))
    q = p  # residue field size of a totally ramified extension
    assert len(keys) == q ** (4 * (level - 1)) * (q * q - 1) * (q * q - q)
    assert all(u < v for u, v in zip(keys, keys[1:]))


@pytest.mark.parametrize("p, e, eis", [(2, 2, (-2, 0, 1)), (3, 1, (-3, 1)),
                                       (5, 1, (-5, 1)), (7, 1, (-7, 1))],
                         ids=["x2-2", "x-3", "x-5", "x-7"])
def test_gl2_fp_chunks_match_the_digit_grid(monkeypatch, p, e, eis):
    """GL_2(F_p), built whole from `itertools.product` rows
    (`_gl2_fp_chunks`), equals the level-1 chunks of the oracle's
    digit-grid route `_gl2_chunks(1, .)` array for array, in dtype and
    shape: p chunks and |GL_2(F_p)| rows in all.  The ring keeps nothing:
    every read of `iter_gl2` builds the table, an abandoned one too."""
    from twirl import ringvec

    builds = []

    def counted(name, fn):
        def wrapper(*args):
            builds.append(name)
            return fn(*args)
        return wrapper

    ring = OracleRing(LocalFieldCtx(p, e, eis, 16), 2)
    grid = list(_gl2_chunks(1, ring))
    monkeypatch.setattr(ringvec, "_gl2_fp_chunks",
                        counted(1, ringvec._gl2_fp_chunks))
    gen = iter_gl2(ring)
    next(gen)
    gen.close()
    chunks = list(iter_gl2(ring))
    assert len(grid) == len(chunks) == p
    assert sum(chunk[0].shape[0] for chunk in chunks) == \
        (p * p - 1) * (p * p - p)
    for u, v in zip(grid, chunks):
        for a, b in zip(u, v):
            assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
            assert (a == b).all()
    assert builds == [1, 1]
