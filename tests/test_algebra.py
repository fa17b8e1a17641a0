import sys
from fractions import Fraction

import pytest
from sympy.polys.ring_series import rs_exp, rs_series_inversion

from zetawalk import algebra, zeta
from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk.digraph import build_digraph
from zetawalk.instances import instance_digraph, instance_weights, parse_instance
from zetawalk.zeta import WeightAssignment, _exp_of_power_sums

from oracles import FIELD, RING, T, Matrix, coeffs, lift, mat_mul, series_log, trace
from test_golden import LARGE, large_instance


def P(*coeffs):
    return Poly(coeffs)


def random_poly(rng, degree):
    """A QQ[t] element of the given degree with random small coefficients."""
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    return RING.from_list([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))] + cs)


def test_poly_normalization_strips_trailing_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly([0, 0]).degree == -1


def test_ratfunc_product_cancels():
    lhs = RatFunc(Poly(coeffs(T * (1 - T**2))), P(1, 0, -1))
    assert lhs == RatFunc.from_poly(P(0, 1))
    assert lhs.is_poly() and lhs.num == P(0, 1)


def test_ratfunc_inv_zero_errors():
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(1), P())


def test_ratfunc_canonical_form_unique(rng):
    for _ in range(40):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        if not den or not num:
            continue
        scale = lift(Poly([Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))]))
        a = RatFunc(num, den)
        b = RatFunc(Poly(coeffs(lift(num) * scale)), Poly(coeffs(lift(den) * scale)))
        assert a.num == b.num and a.den == b.den
        assert a.den.coeffs[-1] == 1
        assert lift(a.num).gcd(lift(a.den)).degree() <= 0
        # the same value reached in sympy's QQ(t)
        assert coeffs(FIELD(lift(num)) / FIELD(lift(den))) == (a.num.coeffs, a.den.coeffs)


def test_ratfunc_is_the_cancelled_form_in_sympy(rng):
    # planted common factors, and constant numerators or denominators
    for _ in range(120):
        common = random_poly(rng, rng.randint(0, 3))
        num, den = (random_poly(rng, rng.randint(0, 4)) for _ in range(2))
        if rng.random() < 0.1:
            num = RING.zero
        r = RatFunc(Poly(coeffs(num * common)), Poly(coeffs(den * common)))
        assert (r.num.coeffs, r.den.coeffs) == coeffs(FIELD(num) / FIELD(den))
    # a and b with a common factor, b zero one time in ten, in both orders
    for _ in range(60):
        common = random_poly(rng, rng.randint(0, 3))
        a = common * random_poly(rng, rng.randint(0, 4))
        b = common * random_poly(rng, rng.randint(0, 4)) if rng.random() < 0.9 else RING.zero
        assert_cancelled_as_in_sympy(b, a)
        if b:
            assert_cancelled_as_in_sympy(a, b)


def test_ratfunc_cancels_high_degree_common_factors(rng):
    # a common factor of degree 2-8 in sides of degree up to 20
    for _ in range(60):
        common = random_poly(rng, rng.randint(2, 8))
        num, den = (random_poly(rng, rng.randint(0, 20 - common.degree())) for _ in range(2))
        assert_cancelled_as_in_sympy(num * common, den * common)


def test_ratfunc_over_a_constant_is_the_scaled_polynomial(rng):
    # a constant denominator has gcd 1 with anything; the canonical form is
    # still num / c over 1, the same as over any constant multiple of 1
    for _ in range(60):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        r = RatFunc(num, P(c))
        scaled = Poly([x / c for x in num.coeffs])
        assert (r.num, r.den) == (scaled, P(1))
        assert r == RatFunc(Poly(coeffs(lift(num) * (1 + T))), P(c, c)) == RatFunc.from_poly(scaled)
        assert r.is_poly() and r.num == scaled


def test_ratfunc_with_a_constant_numerator_is_canonical(rng):
    # a constant numerator has gcd 1 with anything; the denominator is still made monic
    for _ in range(60):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))] + [Fraction(rng.randint(1, 9))])
        r = RatFunc(P(c), den)
        lead = den.coeffs[-1]
        assert (r.num, r.den) == (P(c / lead), Poly([x / lead for x in den.coeffs]))
        assert r == RatFunc(P(c, c), Poly(coeffs(lift(den) * (1 + T))))
        assert (r.num.coeffs, r.den.coeffs) == coeffs(c / FIELD(lift(den)))


PRIME = (1 << 61) - 1


def assert_cancelled_as_in_sympy(num, den):
    """RatFunc(num, den) is sympy's cancel of num / den with the denominator
    made monic."""
    p, q = num.cancel(den)
    lead = q.LC
    r = RatFunc(Poly(coeffs(num)), Poly(coeffs(den)))
    assert (r.num.coeffs, r.den.coeffs) == (coeffs(p * (1 / lead)), coeffs(q * (1 / lead)))


def test_ratfunc_cancels_a_shared_single_root(rng):
    # a common factor that shares a single root, in either order
    for num, den in ((1 + 2 * T, 1 - 4 * T**2), (1 - 4 * T**2, (1 + 2 * T) * (3 - T))):
        assert_cancelled_as_in_sympy(num, den)
    for _ in range(300):
        common = random_poly(rng, rng.choice([0, 0, 1, 2, 3]))
        num, den = (random_poly(rng, rng.randint(1, 4)) * common for _ in range(2))
        if rng.random() < 0.2:  # a shared single root: (1 + ct) against (1 - c^2 t^2)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            num, den = num * (1 + c * T), den * (1 - c**2 * T**2)
        assert_cancelled_as_in_sympy(num, den)


def test_ratfunc_cancels_with_a_large_prime_in_the_coefficients(rng):
    # p = 2^61 - 1 in a coefficient denominator or a leading coefficient
    third = Fraction(PRIME, 3)
    cases = [
        (1 + PRIME * T, (1 + PRIME * T) * (3 + T)),
        ((3 + T) * (1 + third * T), 1 + third * T),
        (T + Fraction(1, PRIME), (T + Fraction(1, PRIME)) * (T - 1)),
        ((T - 2) * (T + Fraction(5, 7 * PRIME)), (T + Fraction(5, 7 * PRIME)) * (1 + T**2)),
        (1 + T, PRIME * T**2 + 1),
        (Fraction(1, PRIME) + T, 2 + T),
        (PRIME**2 * T**3 + 1, 1 - T),
    ]
    for _ in range(40):
        factor = 1 + rng.randint(1, 9) * PRIME * rng.choice([1, -1]) * T
        cases.append((factor * random_poly(rng, rng.randint(0, 2)), factor * random_poly(rng, rng.randint(1, 2))))
    for num, den in cases:
        assert_cancelled_as_in_sympy(RING(num), RING(den))


@pytest.mark.parametrize("case", sorted(LARGE))
def test_ratfunc_cancels_a_perturbed_mismatch_quotient(case):
    # num * det P * (1 + 3t) / (den * (1 - 7t^2)) of a large instance: the
    # quotient a mismatch report would print, with den a factor of both sides
    inst = parse_instance(large_instance(*case))
    d = instance_digraph(inst)
    (num, den, (k_vals, delta)), _ = zeta._vertex_side(d, instance_weights(inst, d))
    lhs = RING.from_list(num[::-1]) * RING.from_list(k_vals[::-1]) * (1 + 3 * T) * Fraction(1, delta)
    assert_cancelled_as_in_sympy(lhs, RING.from_list(den[::-1]) * (1 - 7 * T**2))


def test_ratfunc_refuses_a_gcd_that_does_not_divide(monkeypatch):
    # a fault in the integer gcd raises rather than give a wrong canonical form
    monkeypatch.setattr(algebra, "_primitive_gcd", lambda a, b: [1, 1])
    with pytest.raises(ValueError, match="inexact polynomial division"):
        RatFunc(P(1, 0, 1), P(2, 3, 1))
    with pytest.raises(ValueError, match="inexact polynomial division"):
        RatFunc(P(1, 1, 0, 5), P(1, 1))


def random_power_sums(rng, order):
    """(D, [tr P^k for k = 1..order]) for a random integer matrix P and scale
    D: the input of ``zeta._exp_of_power_sums``, the power sums of P / D."""
    size = rng.randint(1, 4)
    p = Matrix([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
    power, xs = p, []
    for _ in range(order):
        xs.append(trace(power))
        power = mat_mul(power, p)
    return rng.randint(1, 6), xs


def log_series(sums, order):
    """sum_k N_k/k t^k for power sums (D, [D^k N_k])."""
    scale, xs = sums
    return Series([0] + [Fraction(x, k * scale**k) for k, x in enumerate(xs, start=1)], order)


def test_series_exp_example():
    # one loop of weight 2 over D = 1 and D = 3: 1/(1 - 2t) and 1/(1 - 2t/3)
    assert _exp_of_power_sums((1, [2, 4, 8, 16]), 4).coeffs == (1, 2, 4, 8, 16)
    assert _exp_of_power_sums((3, [2, 4, 8, 16]), 4).coeffs == tuple(Fraction(2, 3) ** n for n in range(5))
    # P = [[0, 1], [1, 0]]: 1/det(I - tP) = 1/(1 - t^2)
    assert _exp_of_power_sums((1, [0, 2, 0, 2]), 4).coeffs == (1, 0, 1, 0, 1)


def test_series_log_of_geometric():
    s = series_log(Series([1, 1, 1, 1], 3))
    assert s.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))


def test_series_inv_example():
    s = Series([1, -1], 3).inv()
    assert s.coeffs == (1, 1, 1, 1)


def test_series_preconditions_name_constant_term():
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
        sums = random_power_sums(rng, order)
        assert series_log(_exp_of_power_sums(sums, order)) == log_series(sums, order)
        # t = 1/q(t/D) for an integer polynomial q with q(0) = 1: log t has
        # the power sums x_k / D^k of q's reciprocal roots, x_k integers
        scale = rng.randint(1, 6)
        q = Series([1] + [Fraction(rng.randint(-4, 4), scale**k) for k in range(1, 4)], order)
        t = Series(coeffs(rs_series_inversion(lift(q), T, order + 1)), order)
        xs = [k * c * scale**k for k, c in enumerate(series_log(t).coeffs[1:], start=1)]
        assert all(x.denominator == 1 for x in xs)
        assert _exp_of_power_sums((scale, [int(x) for x in xs]), order) == t


def test_series_inverse_identity_exact(rng):
    randoms = [_random_series(rng, rng.randint(1, 16), Fraction(rng.randint(1, 5))) for _ in range(20)]
    # negative and non-integer constant terms, order 0, and coefficients
    # past str's int digit limit, which the int recurrence never prints
    big = Fraction(10**5000 + 1, 3)
    edges = [
        Series([Fraction(-3, 7), 2, Fraction(-1, 5)], 8),
        Series([-2, Fraction(1, 4)], 5),
        Series([Fraction(5, 2), 1], 0),
        Series([-2, big, 1], 4),
        Series([big, Fraction(1, 9)], 3),
    ]
    for s in randoms + edges:
        inverse = rs_series_inversion(lift(s), T, s.order + 1)
        assert s.inv() == Series(coeffs(inverse), s.order)


def test_series_exp_is_rs_exp(rng):
    for _ in range(20):
        order = rng.randint(1, 16)
        sums = random_power_sums(rng, order)
        expected = Series(coeffs(rs_exp(lift(log_series(sums, order)), T, order + 1)), order)
        assert _exp_of_power_sums(sums, order) == expected


def test_render_rational_prints_every_digit_on_both_sides_of_the_str_limit():
    # str() refuses an int of more digits than sys.get_int_max_str_digits()
    # (absent on Python 3.10 builds before 3.10.7; 0 means no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(ValueError):
            str(10 ** limit)
    top = limit or 4300
    for digits in (2, top - 1, top, top + 1):
        n = 10 ** (digits - 1) + 7  # "1", digits - 2 zeros, "7"; odd and 2 mod 3
        text = "1" + "0" * (digits - 2) + "7"
        for x, expected in (
            (n, text), (-n, "-" + text), (Fraction(n), text),
            (Fraction(n, 3), text + "/3"), (Fraction(-2, n), "-2/" + text),
        ):
            assert algebra.render_rational(x) == expected


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
