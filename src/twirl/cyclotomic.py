"""Exact values in the cyclotomic group ring Q[zeta_p].

CharacterValue holds coordinates in the power basis 1, z, ..., z^(p-2)
of Q[z]/(1 + z + ... + z^(p-1)), so sums of character values and rational
volume factors accumulate exactly.  For p = 2 this degenerates to Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CharacterValue:
    p: int
    coords: tuple[Fraction, ...]  # length p - 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "CharacterValue":
        return CharacterValue(p, (Fraction(0),) * (p - 1))

    @staticmethod
    def one(p: int) -> "CharacterValue":
        return CharacterValue.rational(p, Fraction(1))

    @staticmethod
    def rational(p: int, r) -> "CharacterValue":
        c = [Fraction(0)] * (p - 1)
        c[0] = Fraction(r)
        return CharacterValue(p, tuple(c))

    @staticmethod
    def root(p: int, j: int) -> "CharacterValue":
        """zeta_p^j."""
        j %= p
        c = [Fraction(0)] * (p - 1)
        if j < p - 1:
            c[j] = Fraction(1)
        else:
            # z^(p-1) = -(1 + z + ... + z^(p-2))
            c = [Fraction(-1)] * (p - 1)
        return CharacterValue(p, tuple(c))

    @staticmethod
    def from_exponent_counts(p: int, counts, total: int) -> "CharacterValue":
        """sum_j counts[j] * zeta_p^j / total, counts a list indexed by
        exponent mod p: coordinate j is (counts[j] - counts[p - 1]) / total,
        as z^(p-1) = -(1 + z + ... + z^(p-2))."""
        top = counts[p - 1]
        return CharacterValue(p, tuple(Fraction(n - top, total)
                                       for n in counts[:p - 1]))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "CharacterValue") -> "CharacterValue":
        assert self.p == other.p
        if not any(self.coords):
            return other
        if not any(other.coords):
            return self
        return CharacterValue(
            self.p, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "CharacterValue") -> "CharacterValue":
        return self + other.scale(-1)

    def scale(self, r) -> "CharacterValue":
        if not any(self.coords):
            return self
        r = Fraction(r)
        return CharacterValue(self.p, tuple(r * a for a in self.coords))

    def __mul__(self, other: "CharacterValue") -> "CharacterValue":
        assert self.p == other.p
        p = self.p
        # convolve in the group ring Q[Z/p], then reduce by z^(p-1) = -(sum)
        conv = [Fraction(0)] * p
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    conv[(i + j) % p] += a * b
        top = conv[p - 1]
        return CharacterValue(p, tuple(conv[i] - top for i in range(p - 1)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def rational_part(self) -> Fraction:
        """The value as a rational; raises if a zeta coordinate survives."""
        if any(self.coords[1:]):
            raise ValueError(f"value is not rational: {self}")
        return self.coords[0]

    def complex(self) -> complex:
        # bit-identical to cmath.exp(2j pi/p) for every prime p <= 101;
        # math is loaded already, and cmath would load on the first call
        t = 2 * math.pi / self.p
        z = complex(math.cos(t), math.sin(t))
        return sum(float(a) * z**i for i, a in enumerate(self.coords))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, a in enumerate(self.coords):
            if a:
                parts.append(str(a) if i == 0 else f"{a}*z^{i}")
        return " + ".join(parts)

    def to_json(self):
        return [str(a) for a in self.coords]

