"""Exact values in the cyclotomic group ring Q[zeta_p].

CharacterValue holds coordinates in the power basis 1, z, ..., z^(p-2)
of Q[z]/(1 + z + ... + z^(p-1)), so sums of character values and rational
volume factors accumulate exactly.  For p = 2 this degenerates to Q.
"""

from __future__ import annotations

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
    def from_exponent_counts(p: int, counts) -> "CharacterValue":
        """sum_j counts[j] * zeta_p^j, counts indexed by exponent mod p."""
        out = CharacterValue.zero(p)
        for j, n in enumerate(counts):
            if n:
                out = out + CharacterValue.root(p, j).scale(n)
        return out

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

    def __neg__(self) -> "CharacterValue":
        return self.scale(-1)

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

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coords[1:])

    def rational_part(self) -> Fraction:
        """The value as a rational; raises if a zeta coordinate survives."""
        if not self.is_rational():
            raise ValueError(f"value is not rational: {self}")
        return self.coords[0]

    def complex(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.p)
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

