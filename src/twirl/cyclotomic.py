"""Exact values in the cyclotomic group ring Q[zeta_p].

A CharacterValue is a vector in the power basis 1, z, ..., z^(p-2) of
Q[z]/(1 + z + ... + z^(p-1)), so sums of character values and rational
volume factors accumulate exactly.  For p = 2 this degenerates to Q.

The vector is stored as integer numerators `nums` over one denominator
`den`, in the reduced form gcd(den, *nums) = 1 with den > 0, so zero is
all zeros over 1.  That form is unique, so `==` compares the stored
integers.  Every operation works on the integers and reduces its result
with one `math.gcd`; no `Fraction` is built on the way.  `coords` gives
the coordinates as `Fraction`s, and `to_json` prints each one as
`str(Fraction)` does, read off the integers.
"""

from __future__ import annotations

import math
from operator import add


def _reduced(p: int, nums: tuple, den: int) -> "CharacterValue":
    """The value nums/den, den > 0, in reduced form: one gcd."""
    g = math.gcd(den, *nums)
    v = object.__new__(CharacterValue)
    if g == 1:
        v.p, v.nums, v.den = p, nums, den
    else:
        v.p, v.nums, v.den = p, tuple(map(g.__rfloordiv__, nums)), den // g
    return v


class CharacterValue:
    """sum_j coords[j] z^j in Q[zeta_p], coords[j] = nums[j]/den (module
    docstring).  `CharacterValue(p, coords)` takes the p - 1 coordinates
    as ints or `Fraction`s.  Values are immutable: no method changes one."""

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, coords):
        coords = tuple(coords)
        den = math.lcm(*(c.denominator for c in coords))
        # den is the lcm of reduced denominators, so gcd(den, *nums) = 1
        self.p, self.den = p, den
        self.nums = tuple(c.numerator * (den // c.denominator)
                          for c in coords)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "CharacterValue":
        return _reduced(p, (0,) * (p - 1), 1)

    @staticmethod
    def one(p: int) -> "CharacterValue":
        return CharacterValue.rational(p, 1)

    @staticmethod
    def rational(p: int, r) -> "CharacterValue":
        """The rational r, an int or a `Fraction`."""
        return _reduced(p, (r.numerator,) + (0,) * (p - 2), r.denominator)

    @staticmethod
    def root(p: int, j: int) -> "CharacterValue":
        """zeta_p^j."""
        j %= p
        if j == p - 1:
            # z^(p-1) = -(1 + z + ... + z^(p-2))
            return _reduced(p, (-1,) * (p - 1), 1)
        nums = [0] * (p - 1)
        nums[j] = 1
        return _reduced(p, tuple(nums), 1)

    @staticmethod
    def from_exponent_counts(p: int, counts, total: int) -> "CharacterValue":
        """sum_j counts[j] * zeta_p^j / total, counts a list indexed by
        exponent mod p and total > 0: coordinate j is (counts[j] -
        counts[p - 1]) / total, as z^(p-1) = -(1 + z + ... + z^(p-2))."""
        top = counts[p - 1]
        return _reduced(p, tuple(map((-top).__add__, counts[:p - 1])), total)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "CharacterValue") -> "CharacterValue":
        assert self.p == other.p
        if not any(self.nums):
            return other
        if not any(other.nums):
            return self
        d, e = self.den, other.den
        if d == e:
            return _reduced(self.p, tuple(map(add, self.nums, other.nums)), d)
        return _reduced(self.p, tuple(map(add, map(e.__mul__, self.nums),
                                          map(d.__mul__, other.nums))), d * e)

    def __sub__(self, other: "CharacterValue") -> "CharacterValue":
        return self + other.scale(-1)

    def scale(self, r, den: int = 1) -> "CharacterValue":
        """self times r/den: r an int or a `Fraction`, den an int > 0.  The
        pipeline passes ints, so no `Fraction` is read."""
        if type(r) is not int:
            r, den = r.numerator, den * r.denominator
        if not any(self.nums):
            return self
        return _reduced(self.p, tuple(map(r.__mul__, self.nums)),
                        self.den * den)

    def __mul__(self, other: "CharacterValue") -> "CharacterValue":
        assert self.p == other.p
        p = self.p
        # convolve in the group ring Q[Z/p], then reduce by z^(p-1) = -(sum)
        conv = [0] * p
        for i, a in enumerate(self.nums):
            if not a:
                continue
            for j, b in enumerate(other.nums):
                if b:
                    conv[(i + j) % p] += a * b
        top = conv[p - 1]
        return _reduced(p, tuple(map((-top).__add__, conv[:p - 1])),
                        self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- reading the value ------------------------------------------------------

    @property
    def coords(self) -> tuple:
        """The coordinates as `Fraction`s, length p - 1.  `fractions` is
        imported here, not by a run: no run reads a coordinate this way."""
        from fractions import Fraction

        return tuple(Fraction(n, self.den) for n in self.nums)

    def __eq__(self, other):
        if not isinstance(other, CharacterValue):
            return NotImplemented
        return (self.p == other.p and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.p, self.coords))

    def rational_part(self):
        """The value as a `Fraction`; raises if a zeta coordinate
        survives.  Like `coords`, it imports `fractions` itself."""
        from fractions import Fraction

        if any(self.nums[1:]):
            raise ValueError(f"value is not rational: {self}")
        return Fraction(self.nums[0], self.den)

    def complex(self) -> complex:
        # bit-identical to cmath.exp(2j pi/p) for every prime p <= 101;
        # math is loaded already, and cmath would load on the first call.
        # n / den is float(Fraction(n, den)): int division rounds correctly
        t = 2 * math.pi / self.p
        z = complex(math.cos(t), math.sin(t))
        den, total = self.den, 0
        for i, n in enumerate(self.nums):
            total += n / den * z**i
        return total

    def __repr__(self):
        return f"CharacterValue(p={self.p}, coords={self.coords!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(c if i == 0 else f"{c}*z^{i}"
                          for i, c in enumerate(self.to_json()) if c != "0")

    def to_json(self):
        """The coordinates as strings, each as `str(Fraction)` prints it:
        the reduced n/d, or n when d = 1."""
        den = self.den
        if den == 1:
            return list(map(str, self.nums))
        out = []
        for n in self.nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out
