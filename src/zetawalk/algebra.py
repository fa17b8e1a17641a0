"""Univariate polynomials, rational functions, and truncated power series
over a pluggable coefficient field.

Two field instances are provided:

* ``QQ`` -- exact rationals backed by :class:`fractions.Fraction`.  Every
  operation is exact and equality is structural.
* ``CC`` -- complex double precision with a tolerance-based equality
  (default absolute tolerance 1e-9 per coefficient).

Polynomials are stored densely, constant term first, with trailing zero
coefficients stripped.  Rational functions are kept in canonical form over
exact fields: numerator and denominator coprime, denominator monic.  Series
carry an explicit truncation order; combining two series truncates to the
smaller order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class RationalField:
    """Exact rational coefficients of arbitrary precision."""

    name = "QQ"
    exact = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def is_zero(self, x):
        return x == 0

    def eq(self, a, b):
        return a == b

    def clear_denominators(self, rows):
        """(D, D * rows) for a matrix of rationals, D the lcm of the entry
        denominators, so that every scaled entry is a Python int."""
        scale = lcm(*(x.denominator for row in rows for x in row))
        return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


class ComplexField:
    """Complex double-precision coefficients with absolute tolerance ``tol``."""

    name = "CC"
    exact = False

    def __init__(self, tol: float = 1e-9):
        self.tol = float(tol)
        self.zero = complex(0)
        self.one = complex(1)

    def coerce(self, x):
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float, Fraction)):
            return complex(x)
        raise TypeError(f"cannot coerce {x!r} into CC")

    def is_zero(self, x):
        return abs(x) <= self.tol

    def eq(self, a, b):
        return abs(a - b) <= self.tol

    def clear_denominators(self, rows):
        """The identity scaling (1, rows): complex entries have no denominators."""
        return 1, rows


QQ = RationalField()
CC = ComplexField()


def render_scalar(field, c) -> str:
    """Render one coefficient: rationals as ``p/q`` or ``p``, complex as ``a+bj``."""
    if field.exact:
        return str(c)
    if abs(c.imag) == 0.0:
        return f"{c.real:.12g}"
    return f"{c.real:.12g}{c.imag:+.12g}j"


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``t**i``.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def variable(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls(field, [field.zero] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def coefficient(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero

    def lead(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(
            self.field.eq(self.coefficient(i), other.coefficient(i)) for i in range(n)
        )

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci == 0:
                continue
            for j, cj in enumerate(b):
                out[i + j] = out[i + j] + ci * cj
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power; use RatFunc")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _lift(self, x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.constant(self.field, x)

    def scale(self, s) -> "Poly":
        s = self.field.coerce(s)
        return Poly(self.field, [c * s for c in self.coeffs])

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other):
        """Long division; returns (quotient, remainder) over the field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dlead = other.lead()
        dn = other.degree
        quot = [field.zero] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            c = rem[i + dn]
            if c == 0:
                continue
            q = c / dlead
            quot[i] = q
            for j, dc in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * dc
        return Poly(field, quot), Poly(field, rem)

    def exact_div(self, other) -> "Poly":
        """Division known to be remainder-free; raises if a remainder is left."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division, remainder {r.render()}")
        return q

    def gcd(self, other) -> "Poly":
        """Monic gcd via Euclid; inexact fields return 1 (no reduction)."""
        if not self.field.exact:
            return Poly.one(self.field)
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
        return Poly(self.field, [c / lead for c in self.coeffs])

    def render(self, var: str = "t") -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = render_scalar(self.field, c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*{var}")
            else:
                terms.append(f"{cs}*{var}^{i}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


class RatFunc:
    """Quotient of two polynomials, canonicalized over exact fields.

    Canonical form: gcd(num, den) = 1 and den monic, so equality of exact
    rational functions is a structural check.  Over CC only the monic
    normalization is applied and equality cross-multiplies.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        field = num.field
        if num.is_zero():
            num, den = Poly.zero(field), Poly.one(field)
        elif field.exact:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.lead()
            if lead != field.one:
                num = Poly(field, [c / lead for c in num.coeffs])
                den = Poly(field, [c / lead for c in den.coeffs])
        else:
            lead = den.lead()
            num = Poly(field, [c / lead for c in num.coeffs])
            den = Poly(field, [c / lead for c in den.coeffs])
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.field))

    @classmethod
    def zero(cls, field) -> "RatFunc":
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field) -> "RatFunc":
        return cls.from_poly(Poly.one(field))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_poly(self) -> bool:
        return self.den == Poly.one(self.field)

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"not a polynomial: denominator {self.den.render()}")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.field.exact:
            return self.num == other.num and self.den == other.den
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def _lift(self, x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc.from_poly(x)
        return RatFunc.from_poly(Poly.constant(self.field, x))

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

    def render(self, var: str = "t") -> str:
        if self.is_poly():
            return self.num.render(var)
        return f"({self.num.render(var)})/({self.den.render(var)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


class Series:
    """Power series truncated at an explicit order ``L`` (coefficients 0..L)."""

    __slots__ = ("field", "coeffs", "order")

    def __init__(self, field, coeffs, order=None):
        cs = [field.coerce(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = cs[: order + 1]
        cs += [field.zero] * (order + 1 - len(cs))
        self.field = field
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, field, order):
        return cls(field, [], order)

    @classmethod
    def one(cls, field, order):
        return cls(field, [field.one], order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        return cls(p.field, p.coeffs, order)

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
            if not self.field.eq(self.coeffs[k], other.coeffs[k]):
                return k
        return None

    def __neg__(self) -> "Series":
        return Series(self.field, [-c for c in self.coeffs], self.order)

    def _merge_order(self, other) -> int:
        return min(self.order, other.order)

    def __add__(self, other) -> "Series":
        order = self._merge_order(other)
        return Series(
            self.field,
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)],
            order,
        )

    def __sub__(self, other) -> "Series":
        return self + (-other)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(self.field, [c * other for c in self.coeffs], self.order)
        order = self._merge_order(other)
        out = [self.field.zero] * (order + 1)
        for i in range(order + 1):
            ci = self.coeffs[i]
            if ci == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + ci * other.coeffs[j]
        return Series(self.field, out, order)

    __rmul__ = __mul__

    def exp(self) -> "Series":
        c0 = self.coeffs[0]
        if not self.field.is_zero(c0):
            raise ValueError(
                f"series exp requires zero constant term, got {render_scalar(self.field, c0)}"
            )
        s, out = self.coeffs, [self.field.one]
        for n in range(1, self.order + 1):
            acc = self.field.zero
            for j in range(1, n + 1):
                if s[j] != 0:
                    acc = acc + j * s[j] * out[n - j]
            out.append(acc / n)
        return Series(self.field, out, self.order)

    def log(self) -> "Series":
        c0 = self.coeffs[0]
        if not self.field.eq(c0, self.field.one):
            raise ValueError(
                f"series log requires constant term 1, got {render_scalar(self.field, c0)}"
            )
        s, out = self.coeffs, [self.field.zero]
        for n in range(1, self.order + 1):
            acc = self.field.zero
            for j in range(1, n):
                if out[j] != 0:
                    acc = acc + j * out[j] * s[n - j]
            out.append(s[n] - acc / n)
        return Series(self.field, out, self.order)

    def inv(self) -> "Series":
        c0 = self.coeffs[0]
        if self.field.is_zero(c0):
            raise ValueError(
                f"series inverse requires nonzero constant term, got {render_scalar(self.field, c0)}"
            )
        s, out = self.coeffs, [self.field.one / c0]
        for n in range(1, self.order + 1):
            acc = self.field.zero
            for j in range(1, n + 1):
                if s[j] != 0:
                    acc = acc + s[j] * out[n - j]
            out.append(-acc / c0)
        return Series(self.field, out, self.order)

    def render(self, var: str = "t") -> str:
        body = Poly(self.field, self.coeffs).render(var)
        return f"{body} + O({var}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self.render()})"


def series_exp(s: Series) -> Series:
    return s.exp()


def series_log(s: Series) -> Series:
    return s.log()


def series_inv(s: Series) -> Series:
    return s.inv()
