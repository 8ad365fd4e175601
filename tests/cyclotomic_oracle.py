"""Q[zeta_p] with one `Fraction` per coordinate, kept as the test oracle of
`twirl.cyclotomic.CharacterValue`, which stores reduced integer
numerators over one denominator.  The arithmetic is the straightforward
one: coordinatewise `Fraction` sums and products, a group-ring
convolution reduced by z^(p-1) = -(1 + z + ... + z^(p-2)), and each
coordinate printed by `str(Fraction)`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FractionValue:
    p: int
    coords: tuple[Fraction, ...]  # length p - 1

    @staticmethod
    def zero(p: int) -> "FractionValue":
        return FractionValue(p, (Fraction(0),) * (p - 1))

    @staticmethod
    def rational(p: int, r) -> "FractionValue":
        c = [Fraction(0)] * (p - 1)
        c[0] = Fraction(r)
        return FractionValue(p, tuple(c))

    @staticmethod
    def root(p: int, j: int) -> "FractionValue":
        """zeta_p^j."""
        j %= p
        if j == p - 1:
            return FractionValue(p, (Fraction(-1),) * (p - 1))
        c = [Fraction(0)] * (p - 1)
        c[j] = Fraction(1)
        return FractionValue(p, tuple(c))

    @staticmethod
    def from_exponent_counts(p: int, counts, total: int) -> "FractionValue":
        top = counts[p - 1]
        return FractionValue(p, tuple(Fraction(n - top, total)
                                      for n in counts[:p - 1]))

    def __add__(self, other: "FractionValue") -> "FractionValue":
        assert self.p == other.p
        return FractionValue(
            self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FractionValue") -> "FractionValue":
        return self + other.scale(-1)

    def scale(self, r) -> "FractionValue":
        r = Fraction(r)
        return FractionValue(self.p, tuple(r * a for a in self.coords))

    def __mul__(self, other: "FractionValue") -> "FractionValue":
        assert self.p == other.p
        p = self.p
        conv = [Fraction(0)] * p
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                conv[(i + j) % p] += a * b
        top = conv[p - 1]
        return FractionValue(p, tuple(conv[i] - top for i in range(p - 1)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def rational_part(self) -> Fraction:
        if any(self.coords[1:]):
            raise ValueError("value is not rational")
        return self.coords[0]

    def to_json(self):
        return [str(a) for a in self.coords]
