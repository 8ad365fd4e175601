"""Exact arithmetic in totally ramified extensions of Q_p.

Walks through element construction, valuations, square classes, and the
level-one additive character, in both an unramified-style context (Q_5)
and a ramified one (Q_2 adjoin sqrt 2, where 2 has valuation 2).
"""

from fractions import Fraction

from twirl.localfield import (LocalFieldCtx, additive_char, is_square,
                              square_class_reps)

# Q_5: ramification degree 1, uniformizer 5, sixteen working digits
F5 = LocalFieldCtx(5, 1, (-5, 1), 16)
print("context:", F5)

x = F5.from_int(50)
print("ord(50) =", x.val)                       # 2
y = F5.from_rational(Fraction(3, 7))
print("3/7 =", y)
print("(3/7) * 7 == 3:", y * F5.from_int(7) == F5.from_int(3))

# ultrametric behaviour
a, b = F5.pi(2), F5.pi(5)
print("ord(pi^2 + pi^5) =", (a + b).val)        # min of the two
print("ord(pi^2 * pi^5) =", (a * b).val)        # sum

# the ramified quadratic context: x^2 - 2, so pi = sqrt(2)
F2 = LocalFieldCtx(2, 2, (-2, 0, 1), 24)
print("\ncontext:", F2)
print("ord(2) =", F2.from_int(2).val, " (2 sits in the square of the ideal)")

# square classes: 4 for odd p, 16 for this 2-adic field
for ctx in (F5, F2):
    scs = square_class_reps(ctx)
    print(f"p={ctx.p}: |F*/F*^2| = {len(scs.reps)}, "
          f"|O*/O*^2| = {len(scs.unit_reps)}")
    assert is_square(scs.reps[0])

# the additive character with kernel exactly the maximal ideal
print("\nLambda_1 on Q_5:")
for n in range(5):
    print(f"  Lambda_1({n}) = {additive_char(F5.from_int(n))}")
print("Lambda_1(pi) =", additive_char(F5.pi(1)), " (trivial on the ideal)")
