import random
from fractions import Fraction

import pytest

from zetawalk.algebra import CC, Poly, QQ, RatFunc, Series


def P(*coeffs):
    return Poly(QQ, coeffs)


def test_poly_product_difference_of_squares():
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)


def test_poly_eval():
    assert P(1, 2).evaluate(Fraction(1, 2)) == 2


def test_poly_cube():
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)


def test_poly_normalization_strips_trailing_zeros():
    p = Poly(QQ, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(QQ, [0, 0]).degree == -1


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
        RatFunc.zero(QQ).inv()
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(1), P())


def test_ratfunc_canonical_form_unique(rng):
    for _ in range(40):
        num = Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        den = Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        if den.is_zero() or num.is_zero():
            continue
        scale = Poly(QQ, [Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))])
        a = RatFunc(num, den)
        b = RatFunc(num * scale, den * scale)
        assert a.num == b.num and a.den == b.den
        assert a.den.lead() == 1
        assert a.num.gcd(a.den).degree <= 0
        # two arithmetic routes to the same value
        c = RatFunc(num, P(1)) * RatFunc(P(1), den)
        assert (c.num, c.den) == (a.num, a.den) or c == a


def test_series_exp_example():
    s = Series(QQ, [0, 1], 4).exp()
    assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_series_log_of_geometric():
    s = Series(QQ, [1, 1, 1, 1], 3).log()
    assert s.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))


def test_series_inv_example():
    s = Series(QQ, [1, -1], 3).inv()
    assert s.coeffs == (1, 1, 1, 1)


def test_series_preconditions_name_constant_term():
    with pytest.raises(ValueError, match="zero constant term, got 1/2"):
        Series(QQ, [Fraction(1, 2), 1], 3).exp()
    with pytest.raises(ValueError, match="constant term 1, got 2"):
        Series(QQ, [2, 1], 3).log()
    with pytest.raises(ValueError, match="nonzero constant term, got 0"):
        Series(QQ, [0, 1], 3).inv()


def test_series_mixed_orders_truncate_to_minimum():
    a = Series(QQ, [1, 1, 1], 2)
    b = Series(QQ, [1, 2, 3, 4], 3)
    assert (a + b).order == 2
    assert (a * b).order == 2


def _random_series(rng, field, order, constant):
    coeffs = [constant] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(order)
    ]
    if not field.exact:
        coeffs = [complex(c) for c in coeffs]
    return Series(field, coeffs, order)


def test_series_exp_log_roundtrip_exact(rng):
    for _ in range(20):
        order = rng.randint(1, 16)
        s = _random_series(rng, QQ, order, Fraction(0))
        assert s.exp().log() == s
        t = _random_series(rng, QQ, order, Fraction(1))
        assert t.log().exp() == t


def test_series_inverse_identity_exact(rng):
    one = None
    for _ in range(20):
        order = rng.randint(1, 16)
        s = _random_series(rng, QQ, order, Fraction(rng.randint(1, 5)))
        one = Series.one(QQ, order)
        assert s.inv() * s == one


def test_series_identities_complex_tolerance(rng):
    # coefficients decay like 2^-j so all intermediates stay O(1) through
    # degree 32 (the tolerance contract assumes desk-scale conditioning)
    for _ in range(10):
        order = rng.randint(4, 32)
        tail = [rng.uniform(-1.0, 1.0) / 2.0**j for j in range(1, order + 1)]
        s = Series(CC, [0.0] + tail, order)
        assert s.exp().log() == s
        t = Series(CC, [1.0] + tail, order)
        assert t.inv() * t == Series.one(CC, order)


def test_poly_render_contract():
    assert P(1, Fraction(-3, 2), 0, 1).render() == "1 + -3/2*t + 1*t^3"
    assert Poly(QQ, []).render() == "0"
    assert Series(QQ, [1, 0, Fraction(2, 7)], 4).render() == "1 + 2/7*t^2 + O(t^5)"
    assert RatFunc(P(0, 1), P(1, 2)).render() == "(1/2*t)/(1/2 + 1*t)"


def test_complex_poly_strips_coefficients_within_tolerance():
    p = Poly(CC, [1.0, 1e-12])
    assert p.degree == 0 and p == Poly(CC, [1.0])
    # dividing by it must not normalise by the 1e-12 coefficient
    r = RatFunc(Poly(CC, [0.0, 1.0]), p)
    assert r.den.degree == 0 and r.render() == "1*t"


def test_complex_field_tolerance_equality():
    assert CC.eq(1.0 + 0j, 1.0 + 5e-10j)
    assert not CC.eq(1.0 + 0j, 1.0 + 5e-8j)
    p = Poly(CC, [1.0, 2.0])
    q = Poly(CC, [1.0 + 1e-12, 2.0 - 1e-12])
    assert p == q
