"""Univariate polynomials, rational functions, and truncated power series
with exact rational coefficients (:class:`fractions.Fraction`).

The three classes are exact value types: the program constructs,
normalizes, compares and renders them, and none has ring operators.
Polynomials are stored densely, constant term first, with trailing zero
coefficients stripped; ``divmod``, ``gcd`` and ``monic`` serve the
normalization.  Rational functions are kept in canonical form: numerator
and denominator coprime, denominator monic, so equality is structural.
Series carry an explicit truncation order, and two series are compared up
to the smaller one; their only arithmetic is ``inv``, kept for the tests and
the benchmark: the zeta routes form each series in Python ints.

Coefficients enter through ``as_fraction``, which accepts Fractions, ints and
strings and refuses anything else (floats included), so no inexact value
reaches the arithmetic.  They leave through ``render_rational``, which
prints every digit: ``str`` refuses an int of over 4300 digits by default.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
# The Mersenne prime 2^61 - 1, modulo which RatFunc certifies coprimality.
_CERTIFICATE_PRIME = (1 << 61) - 1


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

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([_ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lead(self):
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def scale(self, s) -> "Poly":
        s = as_fraction(s)
        return Poly([c * s for c in self.coeffs])

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

    The Euclid over Q that finds gcd(num, den) is skipped when num and den
    are certified coprime (``_certified_coprime``): p = 2^61 - 1 divides no
    coefficient denominator and neither leading coefficient, and the images
    of num and den modulo p are coprime.  The proof: let g in Z[t] be a
    primitive common factor of num and den of degree >= 1.  By Gauss's lemma
    over the integers localized at p, num = g h with h p-integral, since num
    is and g is primitive; so num mod p = (g mod p)(h mod p), and likewise
    for den.  p divides no leading coefficient of num, so none of g, and
    g mod p keeps its degree >= 1 and divides both images.  Coprime images
    therefore rule out every common factor.  In every other case the Euclid
    runs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            # a constant on either side has gcd 1
            if den.degree > 0 and num.degree > 0 and not _certified_coprime(num, den):
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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

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


def _image_mod(p: Poly, q: int) -> list[int] | None:
    """The coefficients of p modulo the prime q, constant term first, or None
    when q divides a coefficient denominator or the leading coefficient."""
    image = []
    for c in p.coeffs:
        d = c.denominator % q
        if not d:
            return None
        image.append(c.numerator * pow(d, -1, q) % q)
    return image if image[-1] else None


def _certified_coprime(a: Poly, b: Poly) -> bool:
    """True when a and b, both nonzero, are proved coprime over Q by their
    images modulo p = 2^61 - 1 (``RatFunc`` gives the proof); False when the
    images share a factor or the certificate does not apply."""
    q = _CERTIFICATE_PRIME
    x, y = _image_mod(a, q), _image_mod(b, q)
    if x is None or y is None:
        return False
    while y:  # Euclid modulo q; y is trimmed, so y[-1] is a unit
        inv = pow(y[-1], -1, q)
        while len(x) >= len(y):
            c = x[-1] * inv % q
            shift = len(x) - len(y)
            for i, v in enumerate(y, shift):
                x[i] = (x[i] - c * v) % q
            while x and not x[-1]:
                x.pop()
        x, y = y, x
    return len(x) == 1


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
