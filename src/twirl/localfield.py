"""Exact truncated arithmetic in a totally ramified extension F of Q_p.

The field is F = Q_p[x]/(E(x)) for an Eisenstein polynomial E of degree e,
with uniformizer pi = x, ring of integers O = Z_p[pi], and prime residue
field of order q = p.  An element is stored as pi^val * u where the unit
part u is a polynomial of degree < e in pi with integer coefficients kept
modulo p^M, M = ceil(N/e) + buffer, and N is the context's pi-adic working
precision.

Because the monomials c_i * pi^i (0 <= i < e) have pairwise distinct
valuations mod e, the valuation of a unit-part polynomial is exactly
min_i (e * v_p(c_i) + i); no cancellation between monomials can occur.
This makes ord exact, and all ring operations are performed exactly on
representatives (normalization is lazy, so sums never lose digits until a
valuation is actually demanded).
"""

from __future__ import annotations

import math
from operator import add, neg

from .errors import (
    DomainError,
    NotEisenstein,
    PrecisionExhausted,
    PrecisionTooSmall,
    Singular,
)

INF = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class LocalFieldCtx:
    """Immutable description of F, checked on construction: prime p,
    ramification degree e, Eisenstein polynomial (coefficients
    constant-to-leading, any sequence), and the pi-adic working
    precision N >= 2e + 2.  q = p (prime residue field).  Two contexts
    are equal when (p, e, eisenstein, precision) are; the derived slots
    take no part.  Assignment to a slot raises AttributeError."""

    __slots__ = (
        "p", "e", "eisenstein", "precision",
        # derived: q, ord_pi(2), M, p^M, x^(e+j) reduced, p / pi, p / pi^e
        # and p^0 .. p^M
        "q", "ord2", "coeff_exp", "coeff_mod", "_red", "_p_over_pi",
        "_p_unit", "_pk",
        # per-field tables, filled on demand: pi^k, (p / pi^e)^s, the
        # digits of `integrator._y01_digits` and the squares of
        # `_square_residues`
        "_memo")

    def __init__(self, p: int, e: int, eisenstein, precision: int):
        coeffs, n = tuple(eisenstein), precision
        if not _is_prime(p):
            raise NotEisenstein(f"p = {p} is not prime")
        if e < 1 or len(coeffs) != e + 1:
            raise NotEisenstein("polynomial degree must equal the ramification degree")
        if coeffs[e] != 1:
            raise NotEisenstein("polynomial must be monic")
        if coeffs[0] % p != 0 or coeffs[0] % (p * p) == 0 or coeffs[0] == 0:
            raise NotEisenstein("constant term must have p-valuation exactly 1")
        if any(c % p != 0 for c in coeffs[1:e]):
            raise NotEisenstein("middle coefficients must be divisible by p")
        if n < 2 * e + 2:
            raise PrecisionTooSmall(f"precision {n} < 2e+2 = {2 * e + 2}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "precision", n)
        object.__setattr__(self, "eisenstein", coeffs)
        object.__setattr__(self, "q", p)
        object.__setattr__(self, "ord2", e if p == 2 else 0)
        m = -(-n // e) + 8
        pm = p ** m
        object.__setattr__(self, "coeff_exp", m)
        object.__setattr__(self, "coeff_mod", pm)
        object.__setattr__(self, "_pk", tuple(p ** k for k in range(m + 1)))
        object.__setattr__(self, "_memo", {})
        # reduction of x^(e+j) mod (E, p^M) for j = 0..e-2
        red = []
        base = tuple((-c) % pm for c in coeffs[:e])  # x^e
        cur = base
        for _ in range(max(e - 1, 0)):
            red.append(cur)
            # multiply by x: shift, then reduce the overflow term
            top = cur[e - 1]
            cur = tuple(
                ((cur[i - 1] if i > 0 else 0) + top * base[i]) % pm for i in range(e)
            )
        object.__setattr__(self, "_red", tuple(red))
        # p / pi as a unit polynomial: b0 p = -pi^e - p (b1 pi + b2 pi^2
        # + ...), where coeffs[i] = p * b_i for i < e, so
        # p / pi = -b0^(-1) (pi^(e-1) + p (b1 + b2 pi + ...))
        b = [coeffs[i] // p for i in range(e)]
        b0_inv = pow(b[0] % pm, -1, pm)
        pop = [(-b0_inv * p * b[i + 1]) % pm for i in range(e - 1)]
        pop.append((-b0_inv) % pm)
        object.__setattr__(self, "_p_over_pi", tuple(pop))
        # p / pi^e = -(b0 + b1 pi + ...)^(-1), the unit part of p
        object.__setattr__(self, "_p_unit",
                           self.poly_inv(tuple((-c) % pm for c in b)))

    # -- polynomial helpers (coefficients mod p^M, the Eisenstein relation) --

    def poly_mul(self, u: tuple[int, ...], v: tuple[int, ...],
                 pm: int | None = None) -> tuple[int, ...]:
        """u v reduced mod pm, p^M by default."""
        e = self.e
        if pm is None:
            pm = self.coeff_mod
        if e == 1:
            return ((u[0] * v[0]) % pm,)
        out = [0] * e
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                k = i + j
                if k < e:
                    out[k] += ui * vj
                else:
                    r = self._red[k - e]
                    c = ui * vj
                    for t in range(e):
                        out[t] += c * r[t]
        return tuple(map(pm.__rmod__, out))

    def poly_ord(self, u: tuple[int, ...]):
        """pi-adic valuation of a unit-part polynomial, or INF if it is
        zero modulo p^M."""
        best = INF
        for i, c in enumerate(u):
            if c:
                w = self.e * _vp(c, self.p) + i
                if w < best:
                    best = w
        return best

    def poly_div_pi(self, u: tuple[int, ...]) -> tuple[int, ...]:
        """Exact division of a polynomial of valuation >= 1 by pi."""
        p, pm = self.p, self.coeff_mod
        if u[0] % p != 0:
            raise ValueError("not divisible by pi")
        out = (*u[1:], 0)
        c = u[0] // p
        if c:
            out = map(add, out, map(c.__mul__, self._p_over_pi))
        return tuple(map(pm.__rmod__, out))

    def poly_inv(self, u: tuple[int, ...],
                 pm: int | None = None) -> tuple[int, ...]:
        """Inverse of a unit polynomial (constant coefficient prime to p)
        mod pm, p^M by default.  At e = 1 the unit part is one integer and
        `pow` inverts it.  Otherwise solve M_u w = (1, 0, ..., 0) mod pm,
        column j of M_u being u pi^j: mod p, M_u is lower triangular with
        diagonal u0, so elimination in column order meets only unit
        pivots."""
        p, e = self.p, self.e
        if pm is None:
            pm = self.coeff_mod
        if u[0] % p == 0:
            raise Singular("not a unit")
        if e == 1:
            return (pow(u[0], -1, pm),)
        cols = [u]
        for _ in range(e - 1):
            cols.append(self.poly_mul(cols[-1], self.pi_poly()))
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(e)]
        for j in range(e):
            inv = pow(rows[j][j], -1, pm)
            piv = rows[j] = [a * inv % pm for a in rows[j]]
            for r, row in enumerate(rows):
                f = row[j]
                if r != j and f:
                    rows[r] = [(a - f * b) % pm for a, b in zip(row, piv)]
        return tuple(row[e] for row in rows)

    def poly_pow(self, u: tuple[int, ...], k: int) -> tuple[int, ...]:
        """u^k (k >= 0) by binary powering."""
        if self.e == 1:
            return (pow(u[0], k, self.coeff_mod),)
        out = (1,) + (0,) * (self.e - 1)
        while k:
            if k & 1:
                out = self.poly_mul(out, u)
            k >>= 1
            if k:  # no square after the last bit
                u = self.poly_mul(u, u)
        return out

    # -- public constructors ------------------------------------------------

    def zero(self) -> "Elem":
        return _elem(self, 0, (0,) * self.e, True, self.coeff_exp)

    def one(self) -> "Elem":
        return _elem(self, 0, (1,) + (0,) * (self.e - 1), True, self.coeff_exp)

    def pi(self, k: int = 1) -> "Elem":
        return _elem(self, k, (1,) + (0,) * (self.e - 1), True, self.coeff_exp)

    def from_int(self, n: int) -> "Elem":
        if n == 0:
            return self.zero()
        v = _vp(n, self.p)
        u = (n // self.p ** v) % self.coeff_mod
        coeffs = self.poly_mul((u,) + (0,) * (self.e - 1),
                               _unit_power_poly(self, v))
        return _elem(self, self.e * v, coeffs, True, self.coeff_exp)

    def from_rational(self, r) -> "Elem":
        """The rational r, read through `r.numerator` and `r.denominator`:
        an int, or a `Fraction`."""
        return self.from_int(r.numerator) / self.from_int(r.denominator)

    def pi_poly(self) -> tuple[int, ...]:
        """The uniformizer as a unit-slot polynomial: x for e > 1, and the
        integer -a0 for e = 1 (where E = x + a0)."""
        if self.e == 1:
            return ((-self.eisenstein[0]) % self.coeff_mod,)
        return (0, 1) + (0,) * (self.e - 2)

    def from_digits(self, val: int, digits) -> "Elem":
        """pi^val * (d0 + d1 pi + ...) with base-p digits."""
        e, pm = self.e, self.coeff_mod
        acc = [0] * e
        power = (1,) + (0,) * (e - 1)
        xpoly = self.pi_poly()
        for d in digits:
            if d:
                for t in range(e):
                    acc[t] = (acc[t] + d * power[t]) % pm
            power = self.poly_mul(power, xpoly)
        return _elem(self, val, tuple(acc), False, self.coeff_exp).normalized()

    def random_unit(self, rng) -> "Elem":
        u = [rng.randrange(self.coeff_mod) for _ in range(self.e)]
        u[0] = u[0] - u[0] % self.p + rng.randrange(1, self.p)
        return _elem(self, 0, tuple(c % self.coeff_mod for c in u), True,
                     self.coeff_exp)

    def random_elem(self, rng, vmin: int = -3, vmax: int = 6) -> "Elem":
        return _elem(self, rng.randrange(vmin, vmax + 1),
                     self.random_unit(rng).coeffs, True, self.coeff_exp)

    def __eq__(self, other):
        if type(other) is not LocalFieldCtx:
            return NotImplemented
        return ((self.p, self.e, self.eisenstein, self.precision)
                == (other.p, other.e, other.eisenstein, other.precision))

    def __hash__(self):
        return hash((self.p, self.e, self.eisenstein, self.precision))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"LocalFieldCtx(p={self.p}, e={self.e}, N={self.precision})"


class Elem:
    """Field element pi^vbase * u(pi), u a polynomial of degree < e;
    mexp tracks how many coefficient levels of the representative are
    exact.  Invariant: coeffs are reduced mod p^mexp (all 0 at mexp <=
    0).  The constructor reduces what it is given; an operation reduces
    its result once, mod p^mexp of the result, and builds it through
    `_elem`, which takes coefficients already reduced.

    Ring operations are exact on representatives and reduce the result to
    the shared validity, so two computations of the same value always agree
    on their stored digits and differences of equal values are exactly
    zero.  Validity is only lost when a settled representative has positive
    valuation (each division by pi^t costs ceil(t/e) + 1 levels).
    Normalization is lazy: sums keep raw representatives until a valuation,
    digit, or comparison is demanded; a representative whose unit part
    already has valuation 0 is marked normalized in place, not copied.
    """

    __slots__ = ("ctx", "vbase", "coeffs", "mexp", "_norm")

    def __init__(self, ctx: LocalFieldCtx, vbase: int, coeffs: tuple[int, ...],
                 normalized: bool = False, mexp: int | None = None):
        m = ctx.coeff_exp if mexp is None else mexp
        mod = ctx.p ** max(m, 0)
        self.ctx = ctx
        self.vbase = vbase
        self.coeffs = tuple(c % mod for c in coeffs)
        self.mexp = m
        self._norm = normalized

    # -- normalization and valuation ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _capacity(self) -> int:
        return self.ctx.e * (self.mexp - 2)

    def _divide(self, t: int):
        """Divide the representative by pi^t; costs ceil(t/e) validity
        levels.  With t = e s + r: one exact division by p^s, one product
        with (p/pi^e)^s, then r steps of `poly_div_pi`.  The unit part
        comes back reduced mod p^m, m the validity left."""
        ctx = self.ctx
        s, r = divmod(t, ctx.e)
        m = self.mexp - (t + ctx.e - 1) // ctx.e
        mod = ctx._pk[max(m, 0)]
        ps = ctx._pk[s]
        u = tuple(map(ps.__rfloordiv__, self.coeffs))
        if not r:
            return ctx.poly_mul(u, _unit_power_poly(ctx, s), mod), m
        if s:
            u = ctx.poly_mul(u, _unit_power_poly(ctx, s))
        for _ in range(r):
            u = ctx.poly_div_pi(u)
        return tuple(map(mod.__rmod__, u)), m

    def _settle(self) -> "Elem":
        """Re-center so the unit part has valuation 0 (exact); never raises.
        The representative is exact to mexp levels, so a first surviving
        digit at that capacity is undecidable: it is left as is, unsettled."""
        if self._norm:
            return self
        ctx = self.ctx
        if not any(self.coeffs):
            return _elem(ctx, 0, self.coeffs, True, self.mexp)
        t = ctx.poly_ord(self.coeffs)
        if t >= self._capacity():
            return self
        if t == 0:
            self._norm = True
            return self
        u, m = self._divide(t)
        return _elem(ctx, self.vbase + t, u, True, m)

    def normalized(self) -> "Elem":
        """`_settle`, or PrecisionExhausted where it leaves x unsettled."""
        if self._norm:
            return self
        x = self._settle()
        if not x._norm:
            raise PrecisionExhausted(
                f"leading digit beyond tracked validity (shift "
                f"{self.ctx.poly_ord(self.coeffs)}, levels {self.mexp})"
            )
        return x

    def divisible_by(self, m: int) -> bool:
        """Exact test x in pi^m O on the raw representative (no division or
        normalization needed)."""
        rel = m - self.vbase
        if rel <= 0:
            return True
        ctx = self.ctx
        need_top = -(-rel // ctx.e)
        if need_top > self.mexp:
            raise PrecisionExhausted(
                f"divisibility by pi^{m} beyond tracked validity"
            )
        for i, c in enumerate(self.coeffs):
            need = -(-(rel - i) // ctx.e)
            if need > 0 and c % ctx.p ** need:
                return False
        return True

    @property
    def val(self):
        """pi-adic valuation; INF for the exact zero."""
        x = self.normalized()
        if not any(x.coeffs):
            return INF
        return x.vbase

    # -- ring operations (exact on representatives) -------------------------

    def __add__(self, other: "Elem") -> "Elem":
        ctx = self.ctx
        a = self if self._norm else self._settle()
        b = other if other._norm else other._settle()
        if not any(a.coeffs):
            return b
        if not any(b.coeffs):
            return a
        if a.vbase > b.vbase:
            a, b = b, a
        shift = b.vbase - a.vbase
        m = min(a.mexp, b.mexp)
        if shift >= ctx.e * m:
            return a
        mod = ctx._pk[m]
        u = b.coeffs
        if shift:
            u = ctx.poly_mul(u, _pi_power_poly(ctx, shift), mod)
        if ctx.e == 1:
            s = ((a.coeffs[0] + u[0]) % mod,)
        else:
            s = tuple(map(mod.__rmod__, map(add, a.coeffs, u)))
        return _elem(ctx, a.vbase, s, False, m)

    def __neg__(self) -> "Elem":
        ctx = self.ctx
        mod = ctx._pk[max(self.mexp, 0)]
        if ctx.e == 1:
            u = ((-self.coeffs[0]) % mod,)
        else:
            u = tuple(map(mod.__rmod__, map(neg, self.coeffs)))
        return _elem(ctx, self.vbase, u, self._norm, self.mexp)

    def __sub__(self, other: "Elem") -> "Elem":
        return self + (-other)

    def __mul__(self, other: "Elem") -> "Elem":
        ctx = self.ctx
        a = self if self._norm else self._settle()
        b = other if other._norm else other._settle()
        if not (any(a.coeffs) and any(b.coeffs)):
            return ctx.zero()
        m = min(a.mexp, b.mexp)
        return _elem(ctx, a.vbase + b.vbase,
                     ctx.poly_mul(a.coeffs, b.coeffs, ctx._pk[m]),
                     False, m)

    def inverse(self) -> "Elem":
        x = self.normalized()
        if x.is_zero():
            raise Singular("inverse of zero")
        ctx = self.ctx
        return _elem(ctx, -x.vbase, ctx.poly_inv(x.coeffs, ctx._pk[x.mexp]),
                     True, x.mexp)

    def __truediv__(self, other: "Elem") -> "Elem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Elem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "Elem":
        """Multiply by pi^k (exact, no digit loss)."""
        return _elem(self.ctx, self.vbase + k, self.coeffs, self._norm,
                     self.mexp)

    # -- observations --------------------------------------------------------

    def unit_digits(self, count: int) -> tuple[int, ...]:
        """First `count` base-p digits of the unit part.  Every caller
        tests for zero first."""
        x = self.normalized()
        ctx = self.ctx
        if count > ctx.e * (x.mexp - 1):
            raise PrecisionExhausted(
                f"{count} digits requested, validity {x.mexp} levels"
            )
        u = x.coeffs
        out = []
        for _ in range(count):
            d = u[0] % ctx.p
            out.append(d)
            u = list(u)
            u[0] = (u[0] - d) % ctx.coeff_mod
            u = ctx.poly_div_pi(tuple(u))
        return tuple(out)

    def residue_digits(self, m: int) -> tuple[int, ...]:
        """Digits of x mod pi^m; requires x integral."""
        x = self.normalized()
        if x.is_zero():
            return (0,) * m
        v = x.vbase
        if v < 0:
            raise DomainError("element is not integral")
        if v >= m:
            return (0,) * m
        return (0,) * v + x.unit_digits(m - v)

    def residue(self) -> int:
        """Image in the residue field O/p (requires x integral)."""
        x = self.normalized()
        if x.is_zero():
            return 0
        if x.vbase < 0:
            raise DomainError("element is not integral")
        if x.vbase >= 1:
            return 0
        return x.coeffs[0] % self.ctx.p

    def _key(self, cap: int):
        """Comparison key of a nonzero element of one field: valuation
        plus the unit digits within the precision-N window, truncated to
        `cap` coefficient levels."""
        x = self.normalized()
        n, e = self.ctx.precision, self.ctx.e
        levels = min(cap, x.mexp)
        canon = tuple(
            c % self.ctx._pk[max(0, min(-(-(n - i) // e), levels))]
            for i, c in enumerate(x.coeffs)
        )
        return (x.vbase, canon)

    def __eq__(self, other):
        """Elements of one field are equal when the valuations and the
        unit parts agree through the precision-N window, compared at the
        shared tracked validity; elements of two fields never are.  Two
        normalized representatives with the same vbase, mexp and coeffs
        are equal with no key built."""
        if not isinstance(other, Elem):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        a, b = self.normalized(), other.normalized()
        if (a.vbase == b.vbase and a.mexp == b.mexp
                and a.coeffs == b.coeffs):
            return True
        if a.is_zero() or b.is_zero():
            return a.is_zero() and b.is_zero()
        cap = min(a.mexp, b.mexp)
        return a._key(cap) == b._key(cap)

    def __hash__(self):
        # hash at the full N window; elements that lost too much validity
        # hash coarsely (still consistent with __eq__: equal values share
        # representatives at every shared level)
        x = self.normalized()
        if x.is_zero():
            return hash((self.ctx.p, "zero"))
        return hash((self.ctx.p, self.ctx.e, x.vbase, x.coeffs[0] % self.ctx.p))

    def __str__(self):
        x = self.normalized()
        if x.is_zero():
            return "0"
        digs = x.unit_digits(min(self.ctx.precision, 8))
        body = " + ".join(
            f"{d}" if i == 0 else f"{d} pi^{i}" for i, d in enumerate(digs) if d
        )
        return f"pi^{x.vbase} * ({body} + O(pi^{len(digs)}))"

    def __repr__(self):
        return f"Elem({self})"


_new_elem = object.__new__


def _elem(ctx: LocalFieldCtx, vbase: int, coeffs: tuple[int, ...],
          normalized: bool, mexp: int) -> Elem:
    """The `Elem` of coefficients already reduced mod p^mexp; no pass over
    them."""
    x = _new_elem(Elem)
    x.ctx = ctx
    x.vbase = vbase
    x.coeffs = coeffs
    x.mexp = mexp
    x._norm = normalized
    return x


def _pi_power_poly(ctx: LocalFieldCtx, k: int) -> tuple[int, ...]:
    """pi^k (k >= 0) as a unit-slot polynomial mod p^M, kept per context."""
    key = ("pi", k)
    got = ctx._memo.get(key)
    if got is None:
        got = ctx._memo[key] = ctx.poly_pow(ctx.pi_poly(), k)
    return got


def _unit_power_poly(ctx: LocalFieldCtx, s: int) -> tuple[int, ...]:
    """(p/pi^e)^s (s >= 0) mod p^M, kept per context."""
    key = ("unit", s)
    got = ctx._memo.get(key)
    if got is None:
        got = ctx._memo[key] = ctx.poly_pow(ctx._p_unit, s)
    return got


# -- square classes ----------------------------------------------------------


class SquareClassSet:
    """Representatives for F^x / (F^x)^2 and O^x / (O^x)^2."""

    __slots__ = ("ctx", "reps", "unit_reps")

    def __init__(self, ctx: LocalFieldCtx, reps: tuple[Elem, ...],
                 unit_reps: tuple[Elem, ...]):
        self.ctx = ctx
        self.reps = reps
        self.unit_reps = unit_reps


def unit_digit_tuples(p: int, n: int) -> list:
    """The digit tuples (d_0, ..., d_(n-1)) with d_0 != 0, in lexicographic
    order: the units mod pi^n, or the level-n cosets of F/O with leading
    digit nonzero.  [()] when n = 0."""
    if n == 0:
        return [()]
    tuples = [(d,) for d in range(1, p)]
    for _ in range(n - 1):
        tuples = [t + (d,) for t in tuples for d in range(p)]
    return tuples


def _square_residues(ctx: LocalFieldCtx) -> frozenset:
    """The unit squares mod pi^(2 ord(2) + 1), kept per field."""
    got = ctx._memo.get("squares")
    if got is None:
        level = 2 * ctx.ord2 + 1
        s = set()
        for t in unit_digit_tuples(ctx.p, level):
            w = ctx.from_digits(0, t)
            s.add((w * w).residue_digits(level))
        got = ctx._memo["squares"] = frozenset(s)
    return got


def is_square(x: Elem) -> bool:
    """Decide x in (F^x)^2 by Hensel at level 2*ord(2) + 1."""
    x = x.normalized()
    if x.is_zero():
        raise DomainError("0 has no square class")
    if x.val % 2 != 0:
        return False
    u = x.shift(-x.vbase)
    if x.ctx.p != 2:
        r = u.residue()
        return pow(r, (x.ctx.p - 1) // 2, x.ctx.p) == 1
    level = 2 * x.ctx.ord2 + 1
    return u.residue_digits(level) in _square_residues(x.ctx)


def card_unit_square_classes(ctx: LocalFieldCtx) -> int:
    """|O^x/(O^x)^2| in closed form: 2 |2|^(-1) = 2 q^ord(2), which is 2
    at odd p and 2^(e + 1) at p = 2 for F/Q_2 totally ramified of degree
    e.  `square_class_reps` finds as many unit representatives by
    enumeration."""
    return 2 * ctx.q ** ctx.ord2


def square_class_reps(ctx: LocalFieldCtx) -> SquareClassSet:
    """Representatives {1, u, pi, u*pi, ...}; for odd p this is the classical
    4-element set, for p = 2 classes are found by exhaustive enumeration of
    unit residues at the Hensel level."""
    if ctx.p != 2:
        n = 2
        while pow(n, (ctx.p - 1) // 2, ctx.p) == 1:
            n += 1
        unit_reps = (ctx.one(), ctx.from_int(n))
    else:
        # a unit residue opens a new class unless it is in the class of a
        # representative found before it
        reps: list[Elem] = []
        for t in unit_digit_tuples(ctx.p, 2 * ctx.ord2 + 1):
            v = ctx.from_digits(0, t)
            if not any(is_square(u / v) for u in reps):
                reps.append(v)
        unit_reps = tuple(reps)
    pi = ctx.pi()
    return SquareClassSet(ctx, unit_reps + tuple(u * pi for u in unit_reps),
                          unit_reps)


# -- the additive character ---------------------------------------------------


def additive_char(x: Elem):
    """Lambda_1(x) for x in O: the p-th root of unity zeta_p^(x mod p-ideal).
    Kernel is exactly the maximal ideal; additive on O."""
    from .cyclotomic import CharacterValue

    if x.val < 0:
        raise DomainError("additive character is only defined on O")
    return CharacterValue.root(x.ctx.p, x.residue())


def _is_int(text: str) -> bool:
    """Whether text is an optional minus sign and one or more decimal
    digits."""
    return text.removeprefix("-").isdecimal()


def parse_elem(ctx: LocalFieldCtx, text: str) -> Elem:
    """Parse tiny element expressions: rationals, pi^k, u (unit nonresidue),
    combined with + and *.  Covers specs like '1+pi^2' or '-1+pi*u'.  A
    term that the sum would drop, its digits lying beyond the e * m digits
    kept from the lowest valuation (m the coefficient levels both sides
    keep), raises PrecisionExhausted naming the term and that window."""
    text = text.replace(" ", "")
    if not text:
        raise DomainError("empty element expression")

    def factor(tok: str) -> Elem:
        if tok == "pi":
            return ctx.pi()
        if tok.startswith("pi^") and _is_int(tok[3:]):
            return ctx.pi(int(tok[3:]))
        if tok == "u":
            return square_class_reps(ctx).unit_reps[-1]
        if _is_int(tok):
            return ctx.from_int(int(tok))
        num, slash, den = tok.partition("/")
        if _is_int(num) and slash and den.isdecimal():
            if not int(den):
                raise DomainError(f"zero denominator in element factor "
                                  f"{tok!r}")
            return ctx.from_int(int(num)) / ctx.from_int(int(den))
        raise DomainError(f"cannot parse element factor {tok!r}")

    # split on + but keep leading minus attached to the first factor, and
    # a + right after ^ inside its term
    terms: list[str] = []
    for part in text.split("+"):
        if terms and terms[-1].endswith("^"):
            terms[-1] += "+" + part
        else:
            terms.append(part)
    total, done = ctx.zero(), []
    for term in terms:
        if not term:
            continue
        prod = ctx.one()
        for tok in term.split("*"):
            prod = prod * factor(tok)
        # the test of `Elem.__add__` that returns the lower operand alone
        low, high = total._settle(), prod._settle()
        if not (low.is_zero() or high.is_zero()):
            lost = term
            if low.vbase > high.vbase:
                low, high, lost = high, low, "+".join(done)
            width = ctx.e * min(low.mexp, high.mexp)
            if high.vbase - low.vbase >= width:
                raise PrecisionExhausted(
                    f"term {lost!r} lies beyond the {width} digits "
                    f"pi^{low.vbase} .. pi^{low.vbase + width - 1} that "
                    f"precision {ctx.precision} keeps")
        total = total + prod
        done.append(term)
    return total
