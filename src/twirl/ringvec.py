"""GL_2(F_p) as numpy arrays, for the `PassTable` of the K-average pass
(`supercuspidal.pass_table`), and the vectorized product of O / pi^s.

Elements are arrays of polynomial coefficient vectors (shape (..., e)) with
integer coefficients modulo p^Ms, reduced by the Eisenstein relation.  All
operations are exact; numpy is used only for speed, never for floats.  The
conversions and the rest of the arithmetic, which only the enumeration
oracles of the K-average use, live with them in `tests/kappa_oracle.py`.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from .localfield import LocalFieldCtx


class ResidueRing:
    """O / pi^s: its modulus p^Ms, p/pi mod p^Ms, and the vectorized exact
    product."""

    def __init__(self, ctx: LocalFieldCtx, s: int):
        self.ctx = ctx
        self.s = s
        self.e = ctx.e
        self.p = ctx.p
        self.ms = -(-s // ctx.e) + 1
        self.pm = ctx.p ** self.ms
        if ctx.e * (self.pm ** 2) * ctx.e >= 2 ** 62:
            raise OverflowError("coefficient modulus too large for int64 path")
        e = ctx.e
        # reduction rows for x^e .. x^(2e-2)
        red = np.zeros((max(e - 1, 0), e), dtype=np.int64)
        for j in range(e - 1):
            red[j] = [c % self.pm for c in ctx._red[j]]
        self.red = red
        self.p_over_pi = np.array([c % self.pm for c in ctx._p_over_pi],
                                  dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        e = self.e
        if e == 1:
            return (a * b) % self.pm
        conv = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                        + (2 * e - 1,), dtype=np.int64)
        for i in range(e):
            for j in range(e):
                conv[..., i + j] = (conv[..., i + j] + a[..., i] * b[..., j]) % self.pm
        out = conv[..., :e].copy()
        for j in range(e - 1):
            out = (out + conv[..., e + j][..., None] * self.red[j]) % self.pm
        return out % self.pm


def iter_gl2(ring: ResidueRing):
    """Yield GL_2(F_p) = GL_2(O/pi) as coefficient arrays (a, b, c, d) in
    `ring`, one chunk per leading entry a, the rows in lexicographic order
    of their digits.  An integrand reads it once, into the
    `supercuspidal.PassTable` of its K-average pass; every read builds the
    table afresh (`_gl2_fp_chunks`).  The tests hold it equal to level 1 of
    the enumeration of GL_2(O/pi^level) in `tests/kappa_oracle.py`."""
    yield from _gl2_fp_chunks(ring)


def _gl2_fp_chunks(ring: ResidueRing) -> list:
    """The chunks of `iter_gl2(ring)`, from the digit rows (a, b, c, d) of
    F_p^4 with ad - bc != 0 mod p, in lexicographic order.  A level-1
    entry is its digit times pi^0 = 1, so its only nonzero coefficient is
    the one at pi^0.  One array holds every row, and each chunk is a view
    of it."""
    p = ring.p
    rows = [r for r in itertools.product(range(p), repeat=4)
            if (r[0] * r[3] - r[1] * r[2]) % p]
    table = np.zeros((len(rows), 4, ring.e), dtype=np.int64)
    table[:, :, 0] = rows
    cuts = [bisect.bisect_left(rows, (a,)) for a in range(p)] + [len(rows)]
    return [tuple(table[lo:hi, t] for t in range(4))
            for lo, hi in zip(cuts, cuts[1:])]
