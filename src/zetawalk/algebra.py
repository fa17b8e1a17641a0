"""Univariate polynomials, rational functions, and truncated power series
with exact rational coefficients (:class:`fractions.Fraction`).

The three classes are exact value types: the program constructs,
normalizes, compares and renders them, and none has ring operators.
Polynomials are stored densely, constant term first, with trailing zero
coefficients stripped.  Rational functions are kept in canonical form:
numerator and denominator coprime, denominator monic, so equality is
structural; their common factor is found and divided out in Python ints.
Series carry an explicit truncation order, and two series are compared up
to the smaller one; their only arithmetic is ``inv``, which runs in Python
ints and gives ``verify`` its Hashimoto series 1 / det(I - t*M); the other
zeta routes form each series in ints as well.

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
    """A Fraction or an int as ``str`` prints it, with every digit.  ``str``
    refuses an int over the int-to-string digit limit; ``Decimal``, which
    has no limit, prints those digits."""
    try:
        return str(x)
    except ValueError:
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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

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

    When both sides have degree >= 1 they are cleared to integer
    coefficients over the lcm of all their denominators, and their gcd, a
    primitive polynomial in Z[t] (``_primitive_gcd``), is divided out of
    both in ints; a quotient that leaves a remainder raises ValueError.  A
    constant on either side has gcd 1.  The denominator is then made monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            num, den = Poly([]), Poly([_ONE])
        else:
            if den.degree > 0 and num.degree > 0:
                scale = lcm(*(c.denominator for c in num.coeffs + den.coeffs))
                a, b = ([c.numerator * (scale // c.denominator) for c in p.coeffs] for p in (num, den))
                g = _primitive_gcd(a, b)
                if len(g) > 1:
                    num, den = Poly(_exact_quotient(a, g)), Poly(_exact_quotient(b, g))
            lead = den.coeffs[-1]
            if lead != 1:
                num, den = (Poly([c / lead for c in p.coeffs]) for p in (num, den))
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly([_ONE]))

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def render(self) -> str:
        if self.is_poly():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients."""
    c = gcd(*a)
    return [x // c for x in a] if c > 1 else a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of a by b, b nonzero, in Z[t]: m * a - q * b of degree
    below b's for some nonzero integer m and integer polynomial q; trimmed.
    Each step scales the remainder by lead(b) / gcd(lead(b), its lead)."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = gcd(r[-1], lead)
        m, q = lead // c, r.pop() // c
        r = [m * x for x in r]
        for i, y in enumerate(b[:-1], len(r) + 1 - len(b)):
            r[i] -= q * y
        while r and not r[-1]:
            r.pop()
    return r


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two nonzero integer polynomials as a primitive polynomial,
    up to sign: Euclid on the primitive parts of pseudo-remainders (Knuth,
    TAOCP Vol. 2, 4.6.1, Algorithm E).  A pseudo-remainder m a - q b, m a
    nonzero integer, and its primitive part share with b the common divisors
    over Q that a has, so the last nonzero member of the sequence is a gcd
    over Q; being primitive, it divides a and b in Z[t] (Gauss's lemma)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(a: list[int], g: list[int]) -> list[int]:
    """a / g in Z[t] by long division in ints; raises ValueError when g does
    not divide a there, which for a primitive g means not over Q either.  An
    inexact step leaves a nonzero coefficient that no later step touches."""
    r = list(a)
    q = [0] * (len(a) - len(g) + 1)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(g) - 1] // g[-1]
        for j, y in enumerate(g, i):
            r[j] -= q[i] * y
    if any(r):
        raise ValueError(f"inexact polynomial division of {Poly(a).render()} by {Poly(g).render()}")
    return q


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

    def inv(self) -> "Series":
        """The inverse series, in Python ints.  With the coefficients c_j
        cleared to a_j = L c_j, L the lcm of their denominators, coefficient
        n of the inverse is L y_n / a_0^(n+1) for y_0 = 1 and
        y_n = -sum_{j=1..n} a_j a_0^(j-1) y_{n-j}; only the results become
        Fractions."""
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError(f"series inverse requires nonzero constant term, got {c0}")
        scale = lcm(*(c.denominator for c in self.coeffs))
        a0, *rest = (c.numerator * (scale // c.denominator) for c in self.coeffs)
        lifted = [x * a0**j for j, x in enumerate(rest)]
        ys = [1]
        for _ in range(self.order):
            ys.append(-sum(map(mul, lifted, reversed(ys))))
        return Series([Fraction(scale * y, a0 ** (n + 1)) for n, y in enumerate(ys)], self.order)

    def render(self) -> str:
        body = Poly(self.coeffs).render()
        return f"{body} + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self.render()})"
