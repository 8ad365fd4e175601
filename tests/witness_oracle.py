"""The support-scan kappa by enumerating GL_2(O/pi^2), the test oracle
of the closed form w = [[0, 1], [1, 0]] that `supercuspidal.support_scan`
proves."""

import numpy as np

from twirl.localfield import Elem
from twirl.matlattice import Mat

from kappa_oracle import (OracleRing, _f_on_residues, _gl2_chunks, _residues,
                          _twist)


def kappa_witness_oracle(data, y):
    """The first kappa mod pi^2 in the order of `_gl2_chunks(2, .)` with
    f(kappa y kappa^vdash) != 0, by running f on every row, at the parity
    of ord det y; None when no row is nonzero."""
    ctx = data.ctx
    ring = OracleRing(ctx, data.residue_level)
    y_res = _residues(ring, y)
    parity = y.det().val % 2
    for k in _gl2_chunks(ring.s, ring):
        mask = _f_on_residues(ring, _twist(ring, k, y_res), parity)[0]
        if mask.any():
            a, b, c, d = (lift(ring, z[np.argmax(mask)]) for z in k)
            return Mat(ctx, [[a, b], [c, d]])
    return None


def lift(ring, coeff_vec):
    """The element of O whose coefficient vector in `ring` is
    `coeff_vec`."""
    return Elem(ring.ctx, 0, tuple(int(v) for v in coeff_vec), False)
