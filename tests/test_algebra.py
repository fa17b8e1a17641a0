from fractions import Fraction

import pytest

from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk.digraph import build_digraph
from zetawalk.zeta import WeightAssignment

from oracles import series_log


def P(*coeffs):
    return Poly(coeffs)


def test_poly_product_difference_of_squares():
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)


def test_poly_eval():
    assert P(1, 2).evaluate(Fraction(1, 2)) == 2


def test_poly_cube():
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)


def test_poly_normalization_strips_trailing_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly([0, 0]).degree == -1


def test_poly_divmod_and_exact_div():
    num = P(1, 0, -1)
    q = num.exact_div(P(1, 1))
    assert q == P(1, -1)
    with pytest.raises(ValueError, match="remainder"):
        P(1, 1, 1).exact_div(P(1, 1))


def test_poly_gcd_monic():
    a = P(1, 1) * P(2, 2, 2)
    b = P(1, 1) * P(3, 0, 3)
    g = a.gcd(b)
    assert g.lead() == 1
    assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()


def test_ratfunc_add_same_denominator():
    r = RatFunc(P(1), P(1, 2))
    assert r + r == RatFunc(P(2), P(1, 2))


def test_ratfunc_product_cancels():
    lhs = RatFunc(P(0, 1), P(1, 0, -1)) * RatFunc(P(1, 0, -1), P(1))
    assert lhs == RatFunc.from_poly(P(0, 1))
    assert lhs.as_poly() == P(0, 1)


def test_ratfunc_inv_zero_errors():
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero().inv()
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(1), P())


def test_ratfunc_canonical_form_unique(rng):
    for _ in range(40):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        if den.is_zero() or num.is_zero():
            continue
        scale = Poly([Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))])
        a = RatFunc(num, den)
        b = RatFunc(num * scale, den * scale)
        assert a.num == b.num and a.den == b.den
        assert a.den.lead() == 1
        assert a.num.gcd(a.den).degree <= 0
        # two arithmetic routes to the same value
        c = RatFunc(num, P(1)) * RatFunc(P(1), den)
        assert (c.num, c.den) == (a.num, a.den) or c == a


def test_ratfunc_over_a_constant_is_the_scaled_polynomial(rng):
    # a constant denominator is skipped by Euclid; the canonical form is
    # still num / c over 1, the same as over any constant multiple of 1
    for _ in range(60):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        r = RatFunc(num, Poly.constant(c))
        assert (r.num, r.den) == (num.scale(1 / c), P(1))
        assert r == RatFunc(num * P(1, 1), P(c, c)) == RatFunc.from_poly(num.scale(1 / c))
        assert r.is_poly() and r.as_poly() == num.scale(1 / c)


def test_ratfunc_with_a_constant_numerator_is_canonical(rng):
    # a constant numerator skips Euclid; the denominator is still made monic
    for _ in range(60):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))] + [Fraction(rng.randint(1, 9))])
        r = RatFunc(Poly.constant(c), den)
        assert (r.num, r.den) == (Poly.constant(c / den.lead()), den.scale(1 / den.lead()))
        assert r == RatFunc(P(c, c), den * P(1, 1)) == RatFunc(P(1), den) * c


def test_series_exp_example():
    s = Series([0, 1], 4).exp()
    assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_series_log_of_geometric():
    s = series_log(Series([1, 1, 1, 1], 3))
    assert s.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))


def test_series_inv_example():
    s = Series([1, -1], 3).inv()
    assert s.coeffs == (1, 1, 1, 1)


def test_series_preconditions_name_constant_term():
    with pytest.raises(ValueError, match="zero constant term, got 1/2"):
        Series([Fraction(1, 2), 1], 3).exp()
    with pytest.raises(ValueError, match="constant term 1, got 2"):
        series_log(Series([2, 1], 3))
    with pytest.raises(ValueError, match="nonzero constant term, got 0"):
        Series([0, 1], 3).inv()


def _random_series(rng, order, constant):
    coeffs = [constant] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(order)
    ]
    return Series(coeffs, order)


def test_series_exp_log_roundtrip_exact(rng):
    for _ in range(20):
        order = rng.randint(1, 16)
        s = _random_series(rng, order, Fraction(0))
        assert series_log(s.exp()) == s
        t = _random_series(rng, order, Fraction(1))
        assert series_log(t).exp() == t


def test_series_inverse_identity_exact(rng):
    for _ in range(20):
        order = rng.randint(1, 16)
        s = _random_series(rng, order, Fraction(rng.randint(1, 5)))
        product = Poly(s.inv().coeffs) * Poly(s.coeffs)
        assert Series(product.coeffs, order) == Series.one(order)


def test_poly_render_contract():
    assert P(1, Fraction(-3, 2), 0, 1).render() == "1 + -3/2*t + 1*t^3"
    assert Poly([]).render() == "0"
    assert Series([1, 0, Fraction(2, 7)], 4).render() == "1 + 2/7*t^2 + O(t^5)"
    assert RatFunc(P(0, 1), P(1, 2)).render() == "(1/2*t)/(1/2 + 1*t)"


def test_floats_are_refused_at_the_boundary():
    with pytest.raises(TypeError, match="0.5"):
        Poly([0.5])
    with pytest.raises(TypeError, match="0.5"):
        Series([0.5], 2)
    d = build_digraph(1, [(0, 0)])
    with pytest.raises(TypeError, match="0.5"):
        WeightAssignment.from_maps(d, {0: 0.5})
