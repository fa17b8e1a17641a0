"""Univariate polynomials, rational functions, and truncated power series
with exact rational coefficients (:class:`fractions.Fraction`).

Every operation is exact and equality is structural.  Polynomials are stored
densely, constant term first, with trailing zero coefficients stripped.
Rational functions are kept in canonical form: numerator and denominator
coprime, denominator monic.  Series carry an explicit truncation order;
combining two series truncates to the smaller order.

Coefficients enter through ``as_fraction``, which accepts Fractions, ints and
strings and refuses anything else (floats included), so no inexact value
reaches the arithmetic.  They leave through ``render_rational``, which
prints every digit: ``str`` refuses an int of over 4300 digits by default.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction unchanged, an int or str converted;
    raises TypeError on anything else."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational (Fraction, int or str)")


def render_rational(x) -> str:
    """A Fraction or an int as ``str`` prints it, with every digit: the digits
    come from ``Decimal``, which has no limit where ``str`` refuses."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``t**i``.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([_ONE])

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def variable(cls):
        return cls([_ZERO, _ONE])

    @classmethod
    def monomial(cls, k, c=1):
        return cls([_ZERO] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else _ZERO

    def lead(self):
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci == 0:
                continue
            for j, cj in enumerate(b):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power; use RatFunc")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _lift(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly([x])

    def scale(self, s) -> "Poly":
        s = as_fraction(s)
        return Poly([c * s for c in self.coeffs])

    def evaluate(self, x):
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other):
        """Long division; returns (quotient, remainder)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.lead()
        dn = other.degree
        quot = [_ZERO] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            c = rem[i + dn]
            if c == 0:
                continue
            q = c / dlead
            quot[i] = q
            for j, dc in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * dc
        return Poly(quot), Poly(rem)

    def exact_div(self, other) -> "Poly":
        """Division known to be remainder-free; raises if a remainder is left."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division, remainder {r.render()}")
        return q

    def gcd(self, other) -> "Poly":
        """Monic gcd via Euclid."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.monic()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.lead()
        return Poly([c / lead for c in self.coeffs])

    def render(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(render_rational(c))
            elif i == 1:
                terms.append(f"{render_rational(c)}*t")
            else:
                terms.append(f"{render_rational(c)}*t^{i}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


class RatFunc:
    """Quotient of two polynomials in canonical form.

    Canonical form: gcd(num, den) = 1 and den monic, so equality is a
    structural check.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            if den.degree > 0 and num.degree > 0:  # a constant on either side has gcd 1
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            lead = den.lead()
            if lead != 1:
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one())

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_poly(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.from_poly(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"not a polynomial: denominator {self.den.render()}")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    @staticmethod
    def _lift(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        return RatFunc.from_poly(Poly._lift(x))

    def __add__(self, other) -> "RatFunc":
        other = self._lift(other)
        if self.is_zero():
            return other
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "RatFunc":
        return self._lift(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = self._lift(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> "RatFunc":
        return self * self._lift(other).inv()

    def render(self) -> str:
        if self.is_poly():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


class Series:
    """Power series truncated at an explicit order ``L`` (coefficients 0..L)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        cs = [as_fraction(c) for c in coeffs]
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = cs[: order + 1]
        cs += [_ZERO] * (order + 1 - len(cs))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def one(cls, order):
        return cls([_ONE], order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        return cls(p.coeffs, order)

    def coefficient(self, k):
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.first_mismatch(other) is None

    __hash__ = None

    def first_mismatch(self, other: "Series"):
        """Least k (up to the common order) where coefficients differ, else None."""
        order = min(self.order, other.order)
        for k in range(order + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "Series":
        order = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order)

    def __sub__(self, other) -> "Series":
        return self + (-other)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [_ZERO] * (order + 1)
        for i in range(order + 1):
            ci = self.coeffs[i]
            if ci == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + ci * other.coeffs[j]
        return Series(out, order)

    __rmul__ = __mul__

    def exp(self) -> "Series":
        c0 = self.coeffs[0]
        if c0:
            raise ValueError(f"series exp requires zero constant term, got {c0}")
        # n e_n = sum_j j s_j e_{n-j} in Python ints: j s_j = a_j / b over the
        # common denominator b, and e_i = num[i] / den for the e found so far
        u = [j * c for j, c in enumerate(self.coeffs)]
        b = lcm(*(x.denominator for x in u))
        a = [x.numerator * (b // x.denominator) for x in u]
        out, num, den = [_ONE], [1], 1
        for n in range(1, self.order + 1):
            e = Fraction(sum(map(mul, a[n:0:-1], num)), b * den * n)
            out.append(e)
            grow = e.denominator // gcd(den, e.denominator)
            if grow > 1:
                num = [x * grow for x in num]
                den *= grow
            num.append(e.numerator * (den // e.denominator))
        return Series(out, self.order)

    def inv(self) -> "Series":
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError(f"series inverse requires nonzero constant term, got {c0}")
        s, out = self.coeffs, [_ONE / c0]
        for n in range(1, self.order + 1):
            acc = _ZERO
            for j in range(1, n + 1):
                if s[j] != 0:
                    acc = acc + s[j] * out[n - j]
            out.append(-acc / c0)
        return Series(out, self.order)

    def render(self) -> str:
        body = Poly(self.coeffs).render()
        return f"{body} + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self.render()})"
