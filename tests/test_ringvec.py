import numpy as np
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
    for a, b, c, d in iter_gl2(level, ring):
        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
        assert ring.is_unit(det).all()
        keys.extend(tuple(index[tuple(z[i])] for z in (a, b, c, d))
                    for i in range(a.shape[0]))
    q = p  # residue field size of a totally ramified extension
    assert len(keys) == q ** (4 * (level - 1)) * (q * q - 1) * (q * q - q)
    assert all(u < v for u, v in zip(keys, keys[1:]))


def test_gl2_table_is_built_once_and_read_only(monkeypatch):
    """GL_2(F_p) is built once per ring, whole, before the first chunk is
    yielded (`_gl2_fp_chunks`): an abandoned read leaves the whole table,
    every later read yields the same read-only arrays, and writing to one
    raises.  Higher levels stream and are built on every read
    (`_gl2_chunks`)."""
    from twirl import ringvec

    builds = []

    def counted(name, fn):
        def wrapper(*args):
            builds.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ringvec, "_gl2_fp_chunks",
                        counted(1, ringvec._gl2_fp_chunks))
    monkeypatch.setattr(ringvec, "_gl2_chunks",
                        counted(2, ringvec._gl2_chunks))
    ring = ResidueRing(make_field(5, 1, (-5, 1), 16), 2)
    gen = iter_gl2(1, ring)
    next(gen)
    gen.close()
    first = list(iter_gl2(1, ring))
    again = list(iter_gl2(1, ring))
    assert builds == [1] and len(first) == 5
    assert sum(chunk[0].shape[0] for chunk in first) == 480
    assert all(u is v for x, y in zip(first, again) for u, v in zip(x, y))
    for arr in (a for chunk in first for a in chunk):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    next(iter_gl2(2, ring))
    next(iter_gl2(2, ring))
    assert builds == [1, 2, 2]
