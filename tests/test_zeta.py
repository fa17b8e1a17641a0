import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetawalk import zeta
from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk.digraph import GraphError, build_digraph, symmetric_digraph
from zetawalk.instances import fixture_digraph
from zetawalk.linalg import Matrix
from zetawalk.walk import spectrum_deviation
from zetawalk.zeta import (
    ConsistencyError,
    WeightAssignment,
    _edge_matrix_data,
    _n_k_enumerated_all,
    _n_k_trace_all,
    _require_consistent,
    edge_matrix,
    euler_truncated,
    exponential_truncated,
    hashimoto,
    ihara_digraph,
    ihara_graph,
    n_k_all,
    pair_f_poly,
    sato_ihara_digraph,
    verify_expressions,
)

from conftest import random_digraph, random_multigraph, random_rational, random_weights
from oracles import (
    char_poly_exact, det_bareiss, mat_mul, mat_sub, pair_arcs, phi_grouped_arc_order,
    structural_matrices, theta_value,
)


def P(*coeffs):
    return Poly(coeffs)


def single_loop(tau1=2, tau2=3):
    d = build_digraph(1, [(0, 0)])
    return d, WeightAssignment.from_maps(d, {0: tau1}, {0: tau2})


def test_edge_matrix_single_loop_unit_weights():
    d, _ = single_loop()
    w = WeightAssignment.ones(d)
    assert edge_matrix(d, w).data == ((Fraction(0),),)


def test_edge_matrix_single_loop_weighted():
    d, w = single_loop(2, 3)
    assert edge_matrix(d, w).data == ((Fraction(5),),)


def test_edge_matrix_fixture_inverse_and_adjacent_entry(rng):
    d = fixture_digraph("paper-digraph")
    w = random_weights(rng, d)
    m = edge_matrix(d, w)
    # arc 2 = (0,1) is both adjacent to and an inverse of arc 4 = (1,0)
    assert m[2, 4] == w.tau1[2] * w.tau2[4] - 1
    # adjacent but not inverse: arc 2 then arc 6 = (1,2)
    assert m[2, 6] == w.tau1[2] * w.tau2[6]
    # not adjacent: arc 6 = (1,2) then arc 2 = (0,1)
    assert m[6, 2] == 0


def test_adjacency_condition(rng):
    from zetawalk.instances import FIXTURES

    instances = [(fixture_digraph(name), None) for name in FIXTURES]
    for make in (random_digraph, random_multigraph):
        for _ in range(10):
            instances.append((make(rng), None))
    for d, _ in instances:
        w = random_weights(rng, d)
        m = edge_matrix(d, w)
        for a in d.arcs:
            for b in d.arcs:
                if m[a.id, b.id] != 0:
                    assert a.head == b.tail


def test_structural_matrices_recompose_edge_matrix(rng):
    for make in (random_digraph, random_multigraph):
        for _ in range(8):
            d = make(rng)
            w = random_weights(rng, d)
            sm = structural_matrices(d, w)
            assert mat_sub(mat_mul(sm.k, sm.l), sm.j) == edge_matrix(d, w)


def test_structural_j_blocks_fixture():
    d = fixture_digraph("paper-digraph")
    sm = structural_matrices(d, WeightAssignment.ones(d))
    j = sm.j
    expect = [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ]
    assert j.data == tuple(tuple(Fraction(x) for x in row) for row in expect)


def test_graph_mode_j_is_edge_blocks():
    g = fixture_digraph("paper-graph")
    sm = structural_matrices(g, WeightAssignment.ones(g))
    for i in range(g.arc_count):
        for j in range(g.arc_count):
            expected = 1 if g.partner(i) == j else 0
            assert sm.j[i, j] == expected


def test_phi_grouped_j_is_block_diagonal_with_f_determinants(rng):
    for _ in range(8):
        d = random_digraph(rng, 4, 8)
        w = random_weights(rng, d)
        order = phi_grouped_arc_order(d)
        sm = structural_matrices(d, w, arc_order=order)
        pairs = d.phi_pairs()
        offsets = []
        pos = 0
        for pair in pairs:
            size = len(pair_arcs(pair))
            offsets.append((pos, size, pair))
            pos += size
        for start, size, pair in offsets:
            # off-block entries vanish
            for i in range(start, start + size):
                for j in range(sm.j.cols):
                    if not (start <= j < start + size):
                        assert sm.j[i, j] == 0
            block = Matrix(
                [
                    [sm.t[i, j] for j in range(start, start + size)]
                    for i in range(start, start + size)
                ]
            )
            assert det_bareiss(block) == pair_f_poly(pair)


def test_graph_mode_det_t_is_power_of_one_minus_t2():
    g = fixture_digraph("paper-graph")
    sm = structural_matrices(g, WeightAssignment.ones(g))
    assert det_bareiss(sm.t) == P(1, 0, -1) ** 5


def test_hashimoto_single_loop():
    d, w = single_loop(2, 3)
    assert hashimoto(d, w) == P(1, -5)  # 1 - (tau - 1) t with tau = 6


def test_hashimoto_edgeless():
    d = build_digraph(3, [])
    assert hashimoto(d, WeightAssignment.ones(d)) == P(1)


def test_hashimoto_equals_reversed_char_poly(rng):
    for make in (random_digraph, random_multigraph):
        d = make(rng)
        w = random_weights(rng, d)
        chi = char_poly_exact(edge_matrix(d, w))
        assert hashimoto(d, w) == Poly(list(reversed(chi.coeffs)))


def test_hashimoto_triangle_unit_weights_factorization():
    g = fixture_digraph("triangle")
    h = hashimoto(g, WeightAssignment.ones(g))
    assert h == P(1, -1) ** 2 * P(1, 1, 1) ** 2


def test_n_k_single_loop_powers():
    d, w = single_loop(2, 3)
    assert n_k_all(d, w, 4) == [5, 25, 125, 625]


def test_n_k_edgeless_and_error():
    d = build_digraph(2, [])
    w = WeightAssignment.ones(d)
    assert n_k_all(d, w, 4) == [0, 0, 0, 0]
    with pytest.raises(Exception):
        n_k_all(d, w, 0)


def test_require_consistent_raises_on_fabricated_mismatch():
    with pytest.raises(ConsistencyError, match="N_2"):
        _require_consistent([Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)])


# Mersenne primes: distinct, and their product is far above 2^200.
LARGE_PRIMES = tuple(2**e - 1 for e in (31, 61, 89, 107, 127, 521))


def large_denominator_weights(d):
    """tau1(a) = (a + 2) / p_a with a distinct large prime p_a per arc, and
    tau2(b) = 1 / tau1(a) on an inverse b of every even arc a, which makes
    theta(a, b) = tau1(a) tau2(b) - 1 zero."""
    tau1 = {a: Fraction(a + 2, LARGE_PRIMES[a]) for a in range(d.arc_count)}
    tau2 = {}
    for a in range(0, d.arc_count, 2):
        free = sorted(set(d.inverse_set(a)) - set(tau2))
        if free:
            tau2[free[0]] = 1 / tau1[a]
    return WeightAssignment.from_maps(d, tau1, tau2)


LARGE_DENOMINATOR_GRAPHS = {
    "triangle": lambda: fixture_digraph("triangle"),
    "multigraph": lambda: symmetric_digraph(2, [(0, 0), (0, 1), (0, 1)]),
    "multidigraph": lambda: build_digraph(3, [(0, 0), (0, 1), (1, 0), (1, 0), (1, 2), (2, 0)]),
}


@pytest.mark.parametrize("name", sorted(LARGE_DENOMINATOR_GRAPHS))
def test_power_sums_with_large_prime_denominators_and_zero_theta(name):
    d = LARGE_DENOMINATOR_GRAPHS[name]()
    w = large_denominator_weights(d)
    m = _edge_matrix_data(d, w)
    assert math.lcm(*(x.denominator for row in m for x in row)) > 2**200
    assert any(
        m[a][b] == 0 for a in range(d.arc_count) for b in d.inverse_set(a)
    )  # a zeroed adjacency: the enumeration must skip it, not divide by it
    trace = _n_k_trace_all(m, 8)
    assert _n_k_enumerated_all(m, 8) == trace
    assert n_k_all(d, w, 8) == trace
    report = verify_expressions(d, w, 8)
    assert report.all_agree
    assert report.euler == report.hashimoto_series


def test_corrupted_scaling_raises_consistency_error(monkeypatch):
    # an integer scaling off by a factor of 2 on every entry
    real = zeta._clear_denominators

    def doubled(rows):
        scale, ints = real(rows)
        return scale, [[2 * v for v in row] for row in ints]

    monkeypatch.setattr(zeta, "_clear_denominators", doubled)
    d = fixture_digraph("paper-digraph")
    w = WeightAssignment.ones(d)
    with pytest.raises(ConsistencyError, match="N_3"):  # N_1 = N_2 = 0 here
        n_k_all(d, w, 4)
    with pytest.raises(ConsistencyError):
        verify_expressions(d, w, 4)


def test_overpruned_enumeration_raises_consistency_error(monkeypatch, rng):
    # a distance table that overstates every return distance below 3 prunes
    # the closed paths of lengths 3 and 4 at order 4
    real = zeta._steps_to
    monkeypatch.setattr(
        zeta, "_steps_to", lambda preds, s, cap: [max(v, 3) for v in real(preds, s, cap)]
    )
    g = fixture_digraph("triangle")
    with pytest.raises(ConsistencyError, match="N_3"):
        n_k_all(g, random_weights(rng, g), 4)


def test_exponential_and_euler_single_loop_geometric():
    d, w = single_loop(2, 3)
    geo = Series([5**k for k in range(7)], 6)
    assert exponential_truncated(d, w, 6) == geo
    assert euler_truncated(d, w, 6) == geo


def test_expressions_edgeless_are_one():
    d = build_digraph(2, [])
    w = WeightAssignment.ones(d)
    one = Series.one(5)
    assert exponential_truncated(d, w, 5) == one
    assert euler_truncated(d, w, 5) == one


def test_euler_matches_inverse_hashimoto_triangle_unit_weights():
    g = fixture_digraph("triangle")
    w = WeightAssignment.ones(g)
    inv_h = Series.from_poly(hashimoto(g, w), 10).inv()
    assert euler_truncated(g, w, 10) == inv_h


def test_ihara_digraph_single_loop():
    d, w = single_loop(2, 3)
    res = ihara_digraph(d, w)
    assert res.agree
    assert res.f_factors[0] == P(1, 1)
    assert res.rhs.as_poly() == P(1, -5)


def test_ihara_digraph_fixture_f_factors():
    d = fixture_digraph("paper-digraph")
    res = ihara_digraph(d, WeightAssignment.ones(d))
    rendered = [f.render() for f in res.f_factors]
    assert rendered == ["1 + 2*t", "1 + -4*t^2", "1 + -1*t^2", "1 + -1*t^2"]


def test_ihara_digraph_fixture_random_weights(rng):
    d = fixture_digraph("paper-digraph")
    for _ in range(5):
        w = random_weights(rng, d)
        res = ihara_digraph(d, w)
        assert res.agree
        assert res.rhs.as_poly() == res.hashimoto


def test_ihara_digraph_random_instances(rng):
    for _ in range(30):
        d = random_digraph(rng, 4, 10)
        w = random_weights(rng, d)
        assert ihara_digraph(d, w).agree


def test_ihara_digraph_rejects_graph_mode():
    g = fixture_digraph("triangle")
    with pytest.raises(GraphError):
        ihara_digraph(g, WeightAssignment.ones(g))


def test_ihara_graph_single_edge_generic(rng):
    g = symmetric_digraph(2, [(0, 1)])
    for _ in range(5):
        w = random_weights(rng, g)
        res = ihara_graph(g, w)
        x = w.tau1[0] * w.tau2[1] - 1
        y = w.tau1[1] * w.tau2[0] - 1
        assert res.prefactor_exponent == -1
        assert res.agree
        assert res.hashimoto == P(1, 0, -x * y)


def test_ihara_graph_fixture_random_weights(rng):
    g = fixture_digraph("paper-graph")
    for _ in range(5):
        w = random_weights(rng, g)
        res = ihara_graph(g, w)
        assert res.agree
        assert res.rhs.as_poly() == res.hashimoto


def test_ihara_graph_negative_prefactor_isolated_vertex():
    g = symmetric_digraph(3, [(0, 1)])
    res = ihara_graph(g, WeightAssignment.ones(g))
    assert res.prefactor_exponent == -2
    assert res.agree


def test_ihara_graph_random_instances(rng):
    for _ in range(30):
        g = random_multigraph(rng, 4, 6)
        w = random_weights(rng, g)
        assert ihara_graph(g, w).agree


def test_ihara_graph_d_matrix_fixture_terms(rng):
    # the diagonal D entry at vertex 0 collects tau(inv(a), a) over out-arcs
    g = fixture_digraph("paper-graph")
    w = random_weights(rng, g)
    res = ihara_graph(g, w)
    tau = lambda a, b: w.tau1[a] * w.tau2[b]
    expected = tau(1, 0) + tau(0, 1) + tau(3, 2) + tau(5, 4) + tau(9, 8)
    assert res.d_g[0, 0] == expected


def test_printed_x_matrix_variants_fail_the_identity(rng):
    # Two plausible elementwise variants of the t^3 matrix (cross-direction
    # sums, with and without a multiplicity factor) differ from the block
    # definition; for generic weights only the block form satisfies
    # prod_f * det(I - tA + t^2 D - t^3 X) == det(I - tM).
    d = fixture_digraph("paper-digraph")
    rng_local = random.Random(11)
    w = random_weights(rng_local, d)
    base = ihara_digraph(d, w)
    nv = d.vertex_count

    def rhs_with_x(x_mat):
        t1 = Poly.variable()
        t2 = RatFunc.from_poly(Poly.monomial(2))
        t3 = RatFunc.from_poly(Poly.monomial(3))
        rows = []
        for i in range(nv):
            row = []
            for j in range(nv):
                entry = RatFunc.from_poly(
                    Poly([Fraction(1) if i == j else Fraction(0), -base.a[i, j]])
                )
                entry = entry + base.d_ul[i, j] * t2 - x_mat[i][j] * t3
                row.append(entry)
            rows.append(row)
        det = det_bareiss(Matrix(rows), RatFunc.one())
        prod_f = Poly.one()
        for f in base.f_factors:
            prod_f = prod_f * f
        return det * RatFunc.from_poly(prod_f)

    def cross_sum(pair):
        acc = Fraction(0)
        for a in pair.arcs_uv:
            for b in pair.arcs_vu:
                acc = acc + w.tau1[b] * w.tau2[a]
        return acc

    variant_scaled = [[RatFunc.zero()] * nv for _ in range(nv)]
    variant_plain = [[RatFunc.zero()] * nv for _ in range(nv)]
    for pair in d.phi_pairs():
        if pair.is_diagonal:
            continue
        f = RatFunc.from_poly(pair_f_poly(pair))
        u, v = pair.u, pair.v
        fwd = RatFunc.from_poly(Poly.constant(cross_sum(pair))) / f
        bwd_acc = Fraction(0)
        for a in pair.arcs_vu:
            for b in pair.arcs_uv:
                bwd_acc = bwd_acc + w.tau1[b] * w.tau2[a]
        bwd = RatFunc.from_poly(Poly.constant(bwd_acc)) / f
        variant_plain[u][v] = fwd
        variant_plain[v][u] = bwd
        variant_scaled[u][v] = fwd * len(pair.arcs_uv)
        variant_scaled[v][u] = bwd * len(pair.arcs_vu)

    h = RatFunc.from_poly(base.hashimoto)
    assert base.rhs == h
    assert rhs_with_x(variant_plain) != h
    assert rhs_with_x(variant_scaled) != h


def test_sato_ihara_digraph_unit_tau2():
    d, _ = single_loop()
    res = sato_ihara_digraph(d, {0: 1})
    w = WeightAssignment.ones(d)
    assert res == hashimoto(d, w) == P(1)


def test_sato_ihara_digraph_matches_hashimoto(rng):
    d = fixture_digraph("paper-digraph")
    for _ in range(3):
        tau2 = {i: random_rational(rng) for i in range(d.arc_count)}
        w = WeightAssignment.from_maps(d, None, tau2)
        assert sato_ihara_digraph(d, tau2) == hashimoto(d, w)
    for _ in range(10):
        d = random_digraph(rng, 4, 8)
        tau2 = {i: random_rational(rng) for i in range(d.arc_count)}
        w = WeightAssignment.from_maps(d, None, tau2)
        assert sato_ihara_digraph(d, tau2) == hashimoto(d, w)


def test_sato_ihara_digraph_dangling_arc():
    # a single arc with no reverse arc: M is zero, everything collapses to 1
    d = build_digraph(2, [(0, 1)])
    assert sato_ihara_digraph(d, {0: Fraction(7, 3)}) == P(1)


def test_sato_ihara_graph_matches_hashimoto(rng):
    g = fixture_digraph("paper-graph")
    for _ in range(3):
        tau2 = {i: random_rational(rng) for i in range(g.arc_count)}
        w = WeightAssignment.from_maps(g, None, tau2)
        assert ihara_graph(g, w).rhs.as_poly() == hashimoto(g, w)
    tri = fixture_digraph("triangle")
    ones = WeightAssignment.ones(tri)
    assert ihara_graph(tri, ones).rhs.as_poly() == hashimoto(tri, ones)
    for _ in range(10):
        g = random_multigraph(rng, 4, 5)
        tau2 = {i: random_rational(rng) for i in range(g.arc_count)}
        w = WeightAssignment.from_maps(g, None, tau2)
        assert ihara_graph(g, w).rhs.as_poly() == hashimoto(g, w)


def test_tau1_unit_matrix_conjecture(rng):
    # With tau1 = 1: A - tD + t^2 X == Au - tDu, where D is the full diagonal
    # matrix of the general expression and Du keeps only opposite-direction
    # pair contributions.  Both sides represent L T^-1 K, so the identity
    # holds on every instance; it breaks on loop instances if one D matrix is
    # shared across both sides.  Tested as a conjecture, not relied upon.
    t1 = RatFunc.from_poly(Poly.variable())
    t2 = RatFunc.from_poly(Poly.monomial(2))

    def sides(d, w):
        base = ihara_digraph(d, w)
        nv = d.vertex_count
        lhs = [
            [
                RatFunc.from_poly(Poly.constant(base.a[i, j]))
                - base.d_ul[i, j] * t1
                + base.x_ul[i, j] * t2
                for j in range(nv)
            ]
            for i in range(nv)
        ]
        rhs = [[RatFunc.zero()] * nv for _ in range(nv)]
        for pair in d.phi_pairs():
            f = RatFunc.from_poly(pair_f_poly(pair))
            u, v = pair.u, pair.v
            if pair.is_diagonal:
                s2 = sum((w.tau2[a] for a in pair.arcs_uv), Fraction(0))
                rhs[u][u] = rhs[u][u] + RatFunc.from_poly(Poly.constant(s2)) / f
            else:
                s2_uv = sum((w.tau2[a] for a in pair.arcs_uv), Fraction(0))
                s2_vu = sum((w.tau2[a] for a in pair.arcs_vu), Fraction(0))
                rhs[u][v] = rhs[u][v] + RatFunc.from_poly(Poly.constant(s2_uv)) / f
                rhs[v][u] = rhs[v][u] + RatFunc.from_poly(Poly.constant(s2_vu)) / f
                rhs[u][u] = rhs[u][u] - (
                    RatFunc.from_poly(Poly.constant(len(pair.arcs_vu) * s2_uv)) / f
                ) * t1
                rhs[v][v] = rhs[v][v] - (
                    RatFunc.from_poly(Poly.constant(len(pair.arcs_uv) * s2_vu)) / f
                ) * t1
        return lhs, rhs

    for _ in range(10):
        d = random_digraph(rng, 4, 8)
        w = WeightAssignment.from_maps(
            d, None, {i: random_rational(rng) for i in range(d.arc_count)}
        )
        lhs, rhs = sides(d, w)
        assert all(
            lhs[i][j] == rhs[i][j] for i in range(d.vertex_count) for j in range(d.vertex_count)
        )

    # sharing the full D on the right-hand side breaks the loop case
    loop = build_digraph(1, [(0, 0)])
    wl = WeightAssignment.from_maps(loop, None, {0: Fraction(3)})
    base = ihara_digraph(loop, wl)
    lhs, _ = sides(loop, wl)
    shared_rhs = (
        RatFunc.from_poly(Poly.constant(base.a[0, 0]))
        / RatFunc.from_poly(pair_f_poly(loop.phi_pairs()[0]))
        - base.d_ul[0, 0] * t1
    )
    assert lhs[0][0] != shared_rhs


def test_verify_expressions_fixture(rng):
    d = fixture_digraph("paper-digraph")
    report = verify_expressions(d, random_weights(rng, d), 6)
    assert report.all_agree
    assert report.order == 6
    names = [v.name for v in report.verdicts]
    assert names == [
        "exponential-vs-euler",
        "exponential-vs-hashimoto",
        "euler-vs-hashimoto",
        "hashimoto-vs-ihara",
    ]


def test_verify_expressions_graph_mode(rng):
    g = fixture_digraph("paper-graph")
    assert verify_expressions(g, random_weights(rng, g), 6).all_agree


def test_verify_expressions_edgeless():
    d = build_digraph(2, [])
    report = verify_expressions(d, WeightAssignment.ones(d), 5)
    assert report.all_agree
    assert report.exponential == Series.one(5)
    assert report.hashimoto == P(1)


def test_zero_vertex_digraph_degenerate():
    z = build_digraph(0, [])
    w = WeightAssignment.ones(z)
    assert hashimoto(z, w) == P(1)
    assert ihara_digraph(z, w).rhs == RatFunc.one()
    assert verify_expressions(z, w, 3).all_agree


def test_weight_assignment_rejects_unknown_arc():
    d = build_digraph(1, [(0, 0)])
    with pytest.raises(GraphError):
        WeightAssignment.from_maps(d, {5: 1}, None)


def test_theta_value_matches_edge_matrix(rng):
    d = random_digraph(rng, 3, 6)
    w = random_weights(rng, d)
    m = edge_matrix(d, w)
    for a in range(d.arc_count):
        for b in range(d.arc_count):
            assert theta_value(d, w, a, b) == m[a, b]


# 48-arc instances: past the sizes the Fraction-only checks above reach, small
# enough for the tier-1 suite now that char_poly is multimodular.
def signed_small_fraction(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def signed_weights(rng, d):
    n = d.arc_count
    return WeightAssignment.from_maps(
        d,
        {i: signed_small_fraction(rng) for i in range(n)},
        {i: signed_small_fraction(rng) for i in range(n)},
    )


def assert_hashimoto_roots_are_eigenvalues(d, w):
    # the reversed polynomial t^n h(1/t) is det(t*I - M); its repeated roots
    # 0 and +-1 (the (1 - t^2)^(|E| - |V|) factor) are divided off exactly,
    # since np.roots cannot resolve a multiple root to 1e-8
    n = d.arc_count
    h = hashimoto(d, w)
    rest = Poly((list(h.coeffs) + [Fraction(0)] * (n + 1 - len(h.coeffs)))[::-1])
    roots = []
    for r in (0, 1, -1):
        while rest.evaluate(Fraction(r)) == 0:
            rest = rest.exact_div(P(-r, 1))
            roots.append(r)
    roots += list(np.roots([float(c) for c in reversed(rest.coeffs)]))
    theta = np.array([[float(x) for x in row] for row in _edge_matrix_data(d, w)])
    assert spectrum_deviation(roots, np.linalg.eigvals(theta)) <= 1e-8


def test_48_arc_instances_prove_the_identity_and_match_numeric_eigenvalues():
    rng = random.Random(48)
    nv = 12
    g = symmetric_digraph(nv, sorted(rng.sample([(u, v) for u in range(nv) for v in range(u + 1, nv)], 24)))
    wg = signed_weights(rng, g)
    d = build_digraph(8, [(rng.randrange(8), rng.randrange(8)) for _ in range(44)] + [(v, v) for v in range(4)])
    wd = signed_weights(rng, d)
    assert g.arc_count == d.arc_count == 48
    assert ihara_graph(g, wg).agree
    assert ihara_digraph(d, wd).agree
    assert_hashimoto_roots_are_eigenvalues(g, wg)
    assert_hashimoto_roots_are_eigenvalues(d, wd)
