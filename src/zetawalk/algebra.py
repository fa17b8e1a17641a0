"""Univariate polynomials, rational functions, and truncated power series
with exact rational coefficients.

The three classes are exact value types: the program constructs,
normalizes, compares and renders them, and none has ring operators.  Each
coefficient is stored as a reduced integer pair, a numerator and a positive
denominator divided once by their ``math.gcd``, so equal values have equal
pairs; the public ``coeffs`` builds its tuple of :class:`fractions.Fraction`
only when a caller reads it.  Polynomials are stored densely, constant term
first, with trailing zero coefficients stripped.  Rational functions are
kept in canonical form: numerator and denominator coprime, denominator
monic, so equality is structural; their common factor is found and divided
out in Python ints.  Series carry an explicit truncation order, and two
series are compared up to the smaller one; their only arithmetic is
``inv``, the textbook recurrence over the exact coefficients, which gives
``verify`` its Hashimoto series 1 / det(I - t*M) when neither other series
equals it (an agreeing ``verify`` compares integer numerators and inverts
nothing).

Coefficients enter the public constructors through ``as_fraction``, which
accepts Fractions, ints and strings and refuses anything else (floats
included), so no inexact value reaches the arithmetic.  The zeta routes,
which compute in ints, hand each class its pairs through one internal
constructor, ``_from_ints``, and build no Fraction.  Coefficients leave
through ``render``, which prints a pair as ``str`` prints the Fraction,
with every digit: ``str`` refuses an int of over 4300 digits by default,
and ``Decimal`` prints those.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import mul


def as_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction unchanged, an int or str converted;
    raises TypeError on anything else."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational (Fraction, int or str)")


def _render_pair(n: int, d: int) -> str:
    """n / d, d > 0, as ``str`` prints Fraction(n, d): ``n``, or ``n/d``
    with the sign on n.  Past the int-to-string digit limit, where ``str``
    raises ValueError, ``Decimal`` prints every digit."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


def render_rational(x) -> str:
    """A Fraction or an int as ``str`` prints it, with every digit."""
    return _render_pair(x.numerator, x.denominator)


def _reduced(nums, dens) -> tuple[list[int], list[int]]:
    """The pairs n / d of two int sequences, d > 0, in lowest terms."""
    ns, ds = [], []
    for n, d in zip(nums, dens):
        g = gcd(n, d)
        ns.append(n // g)
        ds.append(d // g)
    return ns, ds


def _split(coeffs) -> tuple[list[int], list[int]]:
    """The reduced pairs of exact coefficients given as the public
    constructors take them."""
    cs = [as_fraction(c) for c in coeffs]
    return [c.numerator for c in cs], [c.denominator for c in cs]


def _render_terms(ns, ds) -> str:
    """sum n_i / d_i t^i as ``Poly.render`` prints it, zero terms left out."""
    terms = []
    for i, n in enumerate(ns):
        if not n:
            continue
        c = _render_pair(n, ds[i])
        terms.append(c if i == 0 else f"{c}*t" if i == 1 else f"{c}*t^{i}")
    return " + ".join(terms) if terms else "0"


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``t**i``.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs):
        self._set(*_split(coeffs))

    @classmethod
    def _from_ints(cls, nums, dens) -> "Poly":
        """sum nums[i] / dens[i] t^i, every dens[i] a positive int."""
        p = object.__new__(cls)
        p._set(*_reduced(nums, dens))
        return p

    def _set(self, ns: list[int], ds: list[int]) -> None:
        self._n = tuple(_trim(ns))
        self._d = tuple(ds[: len(ns)])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self._n, self._d))

    @property
    def degree(self) -> int:
        return len(self._n) - 1

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    __hash__ = None

    def render(self) -> str:
        return _render_terms(self._n, self._d)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


class RatFunc:
    """Quotient of two polynomials in canonical form.

    Canonical form: gcd(num, den) = 1 and den monic, so equality is a
    structural check.

    Both sides are cleared to integer coefficients over the lcm of all their
    denominators.  When both have degree >= 1 their gcd, a primitive
    polynomial in Z[t] (``_primitive_gcd``), is divided out of both in ints;
    a quotient that leaves a remainder raises ValueError.  A constant on
    either side has gcd 1.  Both are then divided by the denominator's
    leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        scale = lcm(*num._d, *den._d)
        self._set(*([n * (scale // d) for n, d in zip(p._n, p._d)] for p in (num, den)))

    @classmethod
    def _from_ints(cls, a: list[int], b: list[int]) -> "RatFunc":
        """a / b for integer polynomials a and b, b with a nonzero leading coefficient."""
        r = object.__new__(cls)
        r._set(a, b)
        return r

    def _set(self, a: list[int], b: list[int]) -> None:
        a = _trim(list(a))
        if not a:
            a, b = [], [1]
        elif len(a) > 1 and len(b) > 1:
            g = _primitive_gcd(a, b)
            if len(g) > 1:
                a, b = _exact_quotient(a, g), _exact_quotient(b, g)
        lead = b[-1]
        if lead < 0:
            a, b, lead = [-x for x in a], [-x for x in b], -lead
        self.num = Poly._from_ints(a, repeat(lead))
        self.den = Poly._from_ints(b, repeat(lead))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        r = object.__new__(cls)
        r.num, r.den = p, Poly._from_ints((1,), (1,))
        return r

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


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


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
        _trim(r)
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

    __slots__ = ("_n", "_d", "order")

    def __init__(self, coeffs, order):
        self._set(*_split(coeffs), order)

    @classmethod
    def _from_ints(cls, nums, dens, order: int) -> "Series":
        """sum nums[i] / dens[i] t^i to ``order``, every dens[i] a positive int."""
        s = object.__new__(cls)
        s._set(*_reduced(islice(nums, order + 1), dens), order)
        return s

    def _set(self, ns: list[int], ds: list[int], order: int) -> None:
        if order < 0:
            raise ValueError("series order must be >= 0")
        pad = order + 1 - len(ns)
        self._n = tuple(ns[: order + 1]) + (0,) * pad
        self._d = tuple(ds[: order + 1]) + (1,) * pad
        self.order = order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self._n, self._d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.first_mismatch(other) is None

    __hash__ = None

    def first_mismatch(self, other: "Series"):
        """Least k (up to the common order) where coefficients differ, else None."""
        m = min(self.order, other.order) + 1
        (an, ad), (bn, bd) = (self._n, self._d), (other._n, other._d)
        if an[:m] == bn[:m] and ad[:m] == bd[:m]:
            return None
        return next(k for k in range(m) if an[k] != bn[k] or ad[k] != bd[k])

    def inv(self) -> "Series":
        """The inverse series by the textbook recurrence over the exact
        coefficients c_j: y_0 = 1 / c_0 and
        y_n = -(c_1 y_(n-1) + ... + c_n y_0) / c_0."""
        c0, *rest = self.coeffs
        if not c0:
            raise ValueError("series inverse requires nonzero constant term, got 0")
        ys = [1 / c0]
        for n in range(1, self.order + 1):
            ys.append(-sum(map(mul, rest[:n], reversed(ys))) / c0)
        return Series(ys, self.order)

    def render(self) -> str:
        return f"{_render_terms(self._n, self._d)} + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self.render()})"
