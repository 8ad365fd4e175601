"""The K-average of f by enumerating all of GL_2(O/pi^level), kept as the
test oracle of `CuspidalData.kappa_average`, whose pass reads GL_2(F_p)
only; with it the vectorized O/pi^s arithmetic the enumeration runs on,
and the K-average key of a `Mat`, the oracle of the keys that
`integrator.orbit_strata` reads off digits.

A residue matrix is the tuple (x00, x01, x10, x11) of coefficient arrays
of shape (..., e) in an `OracleRing`; leading shapes broadcast."""

import numpy as np

from twirl.cyclotomic import CharacterValue
from twirl.localfield import Elem, _pi_power_poly
from twirl.matlattice import Mat
from twirl.ringvec import ResidueRing


class OracleRing(ResidueRing):
    """O / pi^s with the conversions and the vectorized exact arithmetic of
    the oracles on top of the library's `ResidueRing.mul`."""

    def __init__(self, ctx, s: int):
        super().__init__(ctx, s)
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


def _gl2_chunks(level: int, ring: OracleRing):
    """GL_2(O/pi^level) as coefficient arrays (a, b, c, d), one chunk per
    leading entry a, in lexicographic order of the indices of (a, b, c, d)
    in `ring.from_digit_grid(level)`; at level 1 the reference for the
    library's `ringvec.iter_gl2`.  ad - bc is a unit exactly when it is
    not 0 mod pi, and x mod pi is the coefficient of x at pi^0 mod p, so
    the test reads those coefficients only.  The chunks stream:
    GL_2(Z/49) alone is 4.8 million rows."""
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


# -- the K-average key of a Mat --------------------------------------------------


def residue_key(y: Mat, m: int) -> tuple:
    """Digit tuples of all entries mod pi^m (entries must be integral)."""
    return tuple(a.residue_digits(m) for r in y.rows for a in r)


def kappa_key(y: Mat, level: int) -> tuple:
    """The key of the K-average of f at an integral y, for an integrand
    that reads y mod pi^level and the parity of ord det y: the digit
    tuples of the entries of y mod pi^level, and that parity.
    `orbit_strata` reads the same key off each record, and the tests hold
    the two equal."""
    return residue_key(y, level), y.det().val % 2


def coset_y(c, x0: Elem, x1: Elem) -> Mat:
    """y = pi^i [[x0, b(x0 + x1)], [0, x1]] of the `orbit_strata` record
    c for the argument x = diag(x0, x1), at b = pi^(-j) digits."""
    ctx = x0.ctx
    y01 = ctx.from_digits(c.i - c.j, c.digits) * (x0 + x1).normalized()
    return Mat(ctx, [[x0.shift(c.i), y01], [ctx.zero(), x1.shift(c.i)]])


# -- f on residue matrices over all of GL_2(O/pi^level) --------------------------


def kappa_average_oracle(data, y: Mat, level: int) -> CharacterValue:
    """The K-average of `data` at y by enumerating all of
    GL_2(O/pi^level), orthogonal twist; any level >= 2 gives the exact
    value."""
    ring = OracleRing(data.ctx, level)
    counts, total = _oracle_counts(ring, _residues(ring, y),
                                   y.det().val % 2)
    return CharacterValue.from_exponent_counts(data.ctx.p, counts, total)


def _residues(ring: OracleRing, x: Mat):
    return tuple(ring.from_elem(v) for row in x.rows for v in row)


def _mat_mul(ring: OracleRing, m, n):
    m00, m01, m10, m11 = m
    n00, n01, n10, n11 = n

    def dot(u, v, s, t):
        return ring.add(ring.mul(u, v), ring.mul(s, t))

    return (dot(m00, n00, m01, n10), dot(m00, n01, m01, n11),
            dot(m10, n00, m11, n10), dot(m10, n01, m11, n11))


def _vdash(m):
    """The orthogonal twisted transpose w m^t w = [[d, b], [c, a]]."""
    a, b, c, d = m
    return (d, b, c, a)


def _twist(ring: OracleRing, k, y):
    """k Y k^vdash."""
    return _mat_mul(ring, _mat_mul(ring, k, y), _vdash(k))


def _f_on_residues(ring: OracleRing, x, parity: int):
    """f on residue matrices X whose ord det has the given parity; reads
    X mod pi^2 only.  Returns (support mask, Lambda_1 exponents mod p); the
    exponents mean something only where the mask holds."""
    p = ring.p
    x00, x01, x10, x11 = x
    live = True
    if parity:
        # X <- pi_E^(-1) X = [[x10/pi, x11/pi], [x00, x01]]
        live = ring.divisible_by_pi(x10) & ring.divisible_by_pi(x11)
        x00, x01, x10, x11 = ring.div_pi(x10), ring.div_pi(x11), x00, x01
    # X = r h with h in I_1 forces r = x00 mod pi; then
    # Lambda_1(h01 + h10/pi) = Lambda_1((x01 + x10/pi) / r)
    r = ring.residue_mod_p(x00)
    mask = (live & (r != 0) & ring.divisible_by_pi(x10)
            & (ring.residue_mod_p(x11) == r))
    arg = ring.residue_mod_p(ring.add(x01, ring.div_pi(x10)))
    inverses = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    return mask, (arg * inverses[r]) % p


def _count_f(ring: OracleRing, k, y_res, parity: int, counts) -> int:
    """Add the Lambda_1 exponents of f(k Y k^vdash) over the rows of k to
    `counts`; return the number of rows."""
    mask, exps = _f_on_residues(ring, _twist(ring, k, y_res), parity)
    counts += np.bincount(exps[mask], minlength=ring.p)
    return mask.size


def _oracle_counts(ring: OracleRing, y_res, parity: int):
    """(Lambda_1 exponent counts, rows) of f over all of
    GL_2(O/pi^ring.s)."""
    counts = np.zeros(ring.p, dtype=np.int64)
    total = 0
    for k in _gl2_chunks(ring.s, ring):
        total += _count_f(ring, k, y_res, parity, counts)
    return counts.tolist(), total
