"""Vectorized arithmetic in O / pi^s for exact enumeration over compact
groups.

Elements are arrays of polynomial coefficient vectors (shape (..., e)) with
integer coefficients modulo p^Ms, reduced by the Eisenstein relation.  All
operations are exact; numpy is used only for speed, never for floats.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from .localfield import Elem, LocalFieldCtx, _pi_power_poly


class ResidueRing:
    """O / pi^s with vectorized exact operations."""

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
        self.pi_pows = np.array(
            [[c % self.pm for c in _pi_power_poly(ctx, k)]
             for k in range(s + 1)], dtype=np.int64)

    # -- conversions ----------------------------------------------------------

    def from_elem(self, x: Elem) -> np.ndarray:
        x = x.normalized()
        if x.is_zero():
            return np.zeros(self.e, dtype=np.int64)
        if x.mexp < self.ms:
            raise ValueError(
                f"element validity {x.mexp} below ring level {self.ms}"
            )
        v = x.vbase
        if v < 0:
            raise ValueError("element is not integral")
        if v > self.s:
            return np.zeros(self.e, dtype=np.int64)
        coeffs = np.array([c % self.pm for c in x.coeffs], dtype=np.int64)
        return self.mul(self.pi_pows[v], coeffs)

    def from_digit_grid(self, level: int) -> np.ndarray:
        """All residues mod pi^level as an array (p^level, e)."""
        p, e = self.p, self.e
        count = p ** level
        out = np.zeros((count, e), dtype=np.int64)
        idx = np.arange(count)
        for t in range(level):
            d = (idx // p ** t) % p
            out = (out + d[:, None] * self.pi_pows[t][None, :]) % self.pm
        return out

    # -- arithmetic -----------------------------------------------------------

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

    def add(self, a, b):
        return (a + b) % self.pm

    def sub(self, a, b):
        return (a - b) % self.pm

    def is_unit(self, a) -> np.ndarray:
        return (a[..., 0] % self.p) != 0

    def divisible_by_pi(self, a) -> np.ndarray:
        return (a[..., 0] % self.p) == 0

    def residue_mod_p(self, a) -> np.ndarray:
        return a[..., 0] % self.p

    def div_pi(self, a: np.ndarray) -> np.ndarray:
        """Exact division by pi of elements with positive valuation
        (callers must mask to divisible entries first)."""
        e = self.e
        c0 = a[..., 0]
        out = np.zeros_like(a)
        if e > 1:
            out[..., : e - 1] = a[..., 1:]
        out = (out + (c0 // self.p)[..., None] * self.p_over_pi[None, :]) % self.pm
        return out


def iter_gl2(level: int, ring: ResidueRing):
    """Yield GL_2(O/pi^level) as coefficient arrays (a, b, c, d) in `ring`,
    one chunk per leading entry a; the rows come in lexicographic order of
    the indices of (a, b, c, d) in `ring.from_digit_grid(level)`.

    GL_2(F_p) (level 1), which an integrand reads once, into the
    `supercuspidal.PassTable` of its K-average pass, is built whole
    (`_gl2_fp_chunks`).  Higher levels, read only by the test oracles,
    stream one chunk at a time: GL_2(Z/49) alone is 4.8 million rows."""
    if level > 1:
        yield from _gl2_chunks(level, ring)
    else:
        yield from _gl2_fp_chunks(ring)


def _gl2_fp_chunks(ring: ResidueRing) -> list:
    """The chunks of `iter_gl2(1, ring)`, from the digit rows (a, b, c, d)
    of F_p^4 with ad - bc != 0 mod p, in lexicographic order, which is the
    order of `from_digit_grid(1)` (the digit d has index d).  A level-1
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


def _gl2_chunks(level: int, ring: ResidueRing):
    """The chunks of `iter_gl2` at level >= 2, from the digit grid (at
    level 1 the tests' reference for `_gl2_fp_chunks`).  ad - bc is a
    unit exactly when it is not 0 mod pi, and x mod pi is the coefficient
    of x at pi^0 mod p, so the test reads those coefficients only."""
    table = ring.from_digit_grid(level)
    m = table.shape[0]
    idx = np.arange(m ** 3)     # (b, c, d) indices, lexicographic
    b = table[idx // (m * m)]
    c = table[idx // m % m]
    d = table[idx % m]
    bc = b[:, 0] * c[:, 0]
    for row in table:
        mask = (row[0] * d[:, 0] - bc) % ring.p != 0
        a = np.broadcast_to(row, b.shape)[mask]
        yield (a, b[mask], c[mask], d[mask])
