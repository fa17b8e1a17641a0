import inspect
import math
import random
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from sympy.polys.ring_series import rs_series_inversion

from zetawalk import cli, digraph, zeta
from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk.digraph import GraphError, GraphMode, build_digraph, symmetric_digraph
from zetawalk.instances import (
    fixture_digraph, fixture_text, instance_digraph, instance_weights, load_instance, parse_instance,
)
from zetawalk.walk import spectrum_deviation
from zetawalk.zeta import (
    ConsistencyError,
    WeightAssignment,
    _edge_matrix_data,
    _euler,
    _exp_of_power_sums,
    _hashimoto,
    _n_k_enumerated_all,
    _over_powers,
    edge_matrix,
    euler_truncated,
    exponential_truncated,
    hashimoto,
    ihara_digraph,
    ihara_graph,
    n_k_all,
    verify_expressions,
)

import oracles
from conftest import random_digraph, random_multigraph, random_rational, random_weights
from test_golden import LARGE, large_instance
from oracles import (
    FIELD, RING, T, TF, Matrix, char_poly_exact, closed_paths, coeffs, det_bareiss,
    det_one_minus_t_by_elimination, euler_product_numerators, graph_vertex_det, ihara_digraph_tables,
    lift, mat_mul, mat_sub, n_k_trace_all, pair_arcs, phi_grouped_arc_order, prime_cycle_representatives,
    prime_cycle_totals, sato_expression, sato_matrices, structural_matrices, theta_value,
)


def P(*coeffs):
    return Poly(coeffs)


def parts(r: RatFunc):
    """The numerator and denominator coefficients of r, the form ``coeffs``
    gives a QQ(t) element."""
    return r.num.coeffs, r.den.coeffs


def pair_f_poly(pair):
    """The per-pair factor in QQ[t]: 1 + n*t on the diagonal, 1 - k*l*t^2 otherwise."""
    if pair.is_diagonal:
        return 1 + len(pair.arcs_uv) * T
    return 1 - len(pair.arcs_uv) * len(pair.arcs_vu) * T**2


def single_loop(tau1=2, tau2=3):
    d = build_digraph(1, [(0, 0)])
    return d, WeightAssignment.from_maps(d, {0: tau1}, {0: tau2})


def test_edge_matrix_single_loop_unit_weights():
    d, _ = single_loop()
    w = WeightAssignment.from_maps(d)
    assert edge_matrix(d, w) == ((Fraction(0),),)


def test_edge_matrix_single_loop_weighted():
    d, w = single_loop(2, 3)
    assert edge_matrix(d, w) == ((Fraction(5),),)


def test_edge_matrix_fixture_inverse_and_adjacent_entry(rng):
    d = fixture_digraph("paper-digraph")
    w = random_weights(rng, d)
    m = Matrix(edge_matrix(d, w))
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
        m = Matrix(edge_matrix(d, w))
        for a in range(d.arc_count):
            for b in range(d.arc_count):
                if m[a, b] != 0:
                    assert d.heads[a] == d.tails[b]


def test_structural_matrices_recompose_edge_matrix(rng):
    for make in (random_digraph, random_multigraph):
        for _ in range(8):
            d = make(rng)
            w = random_weights(rng, d)
            sm = structural_matrices(d, w)
            assert mat_sub(mat_mul(sm.k, sm.l), sm.j) == Matrix(edge_matrix(d, w))


def test_structural_j_blocks_fixture():
    d = fixture_digraph("paper-digraph")
    sm = structural_matrices(d, WeightAssignment.from_maps(d))
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
    sm = structural_matrices(g, WeightAssignment.from_maps(g))
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
    sm = structural_matrices(g, WeightAssignment.from_maps(g))
    assert det_bareiss(sm.t) == (1 - T**2) ** 5


def test_hashimoto_single_loop():
    d, w = single_loop(2, 3)
    assert hashimoto(d, w) == P(1, -5)  # 1 - (tau - 1) t with tau = 6


def test_hashimoto_edgeless():
    d = build_digraph(3, [])
    assert hashimoto(d, WeightAssignment.from_maps(d)) == P(1)


def test_hashimoto_equals_reversed_char_poly(rng):
    for make in (random_digraph, random_multigraph):
        d = make(rng)
        w = random_weights(rng, d)
        chi = char_poly_exact(Matrix(edge_matrix(d, w)))
        assert hashimoto(d, w) == Poly(list(reversed(chi.coeffs)))


def test_hashimoto_triangle_unit_weights_factorization():
    g = fixture_digraph("triangle")
    h = hashimoto(g, WeightAssignment.from_maps(g))
    assert h.coeffs == coeffs((1 - T) ** 2 * (1 + T + T**2) ** 2)


def test_n_k_single_loop_powers():
    d, w = single_loop(2, 3)
    assert n_k_all(d, w, 4) == [5, 25, 125, 625]


def test_n_k_edgeless_and_error():
    d = build_digraph(2, [])
    w = WeightAssignment.from_maps(d)
    assert n_k_all(d, w, 4) == [0, 0, 0, 0]
    with pytest.raises(Exception):
        n_k_all(d, w, 0)


def as_fractions(scale, xs):
    """[N_1, N_2, ...] as Fractions from a route's [D^k N_k], D = ``scale``."""
    return [Fraction(x, scale**k) for k, x in enumerate(xs, start=1)]


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
    m = edge_matrix(d, w)
    assert math.lcm(*(x.denominator for row in m for x in row)) > 2**200
    assert any(
        m[a][b] == 0 for a in range(d.arc_count) for b in d.inverse_set(a)
    )  # a zeroed adjacency: the enumeration must skip it, not divide by it
    theta = _edge_matrix_data(d, w)
    trace = n_k_trace_all(theta, 10)
    assert _n_k_enumerated_all(theta, 10) == trace
    assert n_k_all(d, w, 10) == as_fractions(theta[0], trace)
    report = verify_expressions(d, w, 10)
    assert report.all_agree
    assert report.euler == report.hashimoto_series


def mutate(monkeypatch, name, old, new, module=zeta):
    """Replace ``module``'s function ``name`` by its source with every
    ``old`` replaced by ``new``, compiled in the module's namespace, and
    bind zeta's name to it as well."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = dict(vars(module))
    exec(compile(mutated, module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])
    monkeypatch.setattr(zeta, name, namespace[name])


def verify_details(name, order):
    """{verdict name: detail} of verify on fixture ``name`` at unit weights."""
    d = fixture_digraph(name)
    return {v.name: v.detail for v in verify_expressions(d, WeightAssignment.from_maps(d), order).verdicts}


def test_doubled_enumerated_sums_fail_the_exponential_verdicts(monkeypatch):
    # 2 N_k in place of N_k: on the paper digraph N_1 = N_2 = 0, the
    # numerators up to t^4 are still integers, and the verdicts name t^3,
    # the first nonzero N_k
    mutate(monkeypatch, "_n_k_enumerated_all", "totals[k] += shares[k]", "totals[k] += 2 * shares[k]")
    assert verify_details("paper-digraph", 4) == {
        "exponential-vs-euler": "at t^3",
        "exponential-vs-hashimoto": "at t^3",
        "euler-vs-hashimoto": None,
        "hashimoto-vs-ihara": None,
    }


def test_exp_recurrence_refuses_a_non_integer_numerator():
    # P = [[1]] has N_1 = N_2 = 1; N_1 = 1, N_2 = 0 are no power sums of
    # an integer matrix, and give f_2 = 1/2
    assert _exp_of_power_sums([1, 1], 2) == [1, 1, 1]
    with pytest.raises(ConsistencyError, match=r"at t\^2$"):
        _exp_of_power_sums([1, 0], 2)


def test_an_odd_second_power_sum_raises_consistency_error(tmp_path, monkeypatch, capsys):
    # 2 f_2 = x_1^2 + x_2 is even for the power sums of an integer matrix,
    # so x_2 + 1 always leaves a remainder at t^2
    real = zeta._n_k_enumerated_all

    def bumped(theta, upto):
        xs = real(theta, upto)
        return xs[:1] + [xs[1] + 1] + xs[2:]

    monkeypatch.setattr(zeta, "_n_k_enumerated_all", bumped)
    message = "the power sums give a non-integer exponential numerator at t^2"
    for name in ("paper-graph", "paper-digraph", "triangle"):
        d = fixture_digraph(name)
        with pytest.raises(ConsistencyError, match=r"at t\^2$"):
            exponential_truncated(d, WeightAssignment.from_maps(d), 6)
        path = tmp_path / f"{name}.zw"
        path.write_text(fixture_text(name), encoding="utf-8")
        assert cli.main(["verify", str(path), "--order", "6"]) == cli.EXIT_INTERNAL == 3
        assert capsys.readouterr().err == f"error: internal defect: {message}\n"


def test_loop_recurrence_without_convolution_raises_consistency_error(monkeypatch):
    # m_k = k f_k alone counts only the closed paths that visit their least
    # arc once; on the paper graph, some of length 2 visit it twice, and the
    # exponential's recurrence no longer divides at t^3
    mutate(
        monkeypatch,
        "_n_k_enumerated_all",
        "k * loops[k] + sum(map(mul, shares[1:k], loops[k - 1 : 0 : -1]))",
        "k * loops[k]",
    )
    d = fixture_digraph("paper-graph")
    w = WeightAssignment.from_maps(d)
    theta = _edge_matrix_data(d, w)
    assert zeta._n_k_enumerated_all(theta, 6) != n_k_trace_all(theta, 6)
    with pytest.raises(ConsistencyError, match=r"at t\^3$"):
        exponential_truncated(d, w, 6)
    with pytest.raises(ConsistencyError, match=r"at t\^3$"):
        verify_expressions(d, w, 6)


@pytest.mark.parametrize("name, first", [("paper-graph", 2), ("paper-digraph", 6)])
def test_loop_walk_that_revisits_its_least_arc_fails_the_exponential_verdicts(monkeypatch, name, first):
    # with steps allowed into column s, a walk from s may pass through s
    # again, and a loop then holds several first-return loops; columns > s
    # alone keep the walk above s
    mutate(monkeypatch, "_n_k_enumerated_all", "if b > s:", "if b >= s:")
    assert verify_details(name, 6) == {
        "exponential-vs-euler": f"at t^{first}",
        "exponential-vs-hashimoto": f"at t^{first}",
        "euler-vs-hashimoto": None,
        "hashimoto-vs-ihara": None,
    }


def euler_verdicts(d, order):
    """The details of the exponential-vs-euler and euler-vs-hashimoto verdicts."""
    verdicts = verify_expressions(d, WeightAssignment.from_maps(d), order).verdicts
    return [v.detail for v in verdicts if "euler" in v.name]


# Mutants of the walk's summed tail, each with the first power of t at
# which it breaks the Euler product on paper-graph, by order.  The Euler
# walk's frames stop at stop = (order + 1) // 2, and it sums every length
# past stop, so a term at length stop + j shows at t^(stop + j); the
# orders left out are those where the term is past the order or vanishes
# on paper-graph.  Paper-graph has no non-backtracking closed path of two
# arcs, so V_1 vanishes there; the brute-force walk test checks it.
LEAF_MUTANTS = {
    # after y starts a new period, a closing z == s keeps it, so the word
    # is not Lyndon: e_(j+1)[y] holds the closings z > s
    "new-period-closing-bound-s": (
        "bisect_right(succ[a], s)",
        "bisect_left(succ[a], s)",
        {4: 4, 5: 4, 6: 4, 7: 5, 8: 5, 9: 6, 10: 6, 11: 7, 12: 7},
    ),
    # and the same for the e_1, e_2 or e_3 alone, which T_1, T_2 or T_3 reads
    "new-period-two-bound-s": (
        "e_next[a] = sums[i]",
        "e_next[a] = sums[bisect_left(succ[a], s) if len(tables[a]) == 1 else i]",
        {4: 4, 5: 4, 6: 4, 7: 5, 8: 5, 9: 6, 10: 6, 11: 7, 12: 7},
    ),
    "new-period-three-bound-s": (
        "e_next[a] = sums[i]",
        "e_next[a] = sums[bisect_left(succ[a], s) if len(tables[a]) == 2 else i]",
        {4: 4, 5: 5, 6: 5, 7: 7, 8: 7, 9: 7, 10: 7, 11: 8, 12: 8},
    ),
    "new-period-four-bound-s": (
        "e_next[a] = sums[i]",
        "e_next[a] = sums[bisect_left(succ[a], s) if len(tables[a]) == 3 else i]",
        {6: 6, 7: 7, 8: 7, 9: 8, 10: 8, 11: 9, 12: 9},
    ),
    # the frame's children start a new period on x > w[t - p] only
    "frame-new-period-bound": (
        "i = bisect_right(succ[b], c)",
        "i = (bisect_left if n == 0 else bisect_right)(succ[b], c)",
        {4: 4, 5: 4, 6: 4, 7: 5, 8: 5, 9: 6, 10: 6, 11: 7, 12: 7},
    ),
    # a letter c_i kept at period p is followed by a new period on y > c_(i+1)
    "kept-period-bound": (
        "i = bisect_right(succ[b], c)",
        "i = (bisect_right if n == 0 else bisect_left)(succ[b], c)",
        {3: 3, 4: 3, 5: 4, 6: 4, 7: 5, 8: 5, 9: 6, 10: 6, 11: 7, 12: 7},
    ),
    # and not on y > s, at each of the chain's first four kept letters
    "kept-period-bound-s": (
        "i = bisect_right(succ[b], c)",
        "i = bisect_right(succ[b], s if n == 1 else c)",
        {5: 4, 6: 4, 7: 5, 8: 5, 9: 6, 10: 6, 11: 7, 12: 7},
    ),
    "kept-period-twice-bound-s": (
        "i = bisect_right(succ[b], c)",
        "i = bisect_right(succ[b], s if n == 2 else c)",
        {7: 6, 8: 6, 9: 7, 10: 7, 11: 8, 12: 8},
    ),
    "kept-period-third-bound-s": (
        "i = bisect_right(succ[b], c)",
        "i = bisect_right(succ[b], s if n == 3 else c)",
        {6: 6, 9: 8, 10: 8, 11: 9, 12: 9},
    ),
    "kept-period-fourth-bound-s": (
        "i = bisect_right(succ[b], c)",
        "i = bisect_right(succ[b], s if n == 4 else c)",
        {8: 8, 9: 9, 10: 9, 11: 10, 12: 10},
    ),
    # the third and the fourth kept letters dropped
    "kept-period-third-step-dropped": (
        "kappa *= m[b][c]",
        "kappa *= m[b][c] if n != 2 else 0",
        {8: 8, 9: 8, 10: 8, 11: 10, 12: 10},
    ),
    "kept-period-fourth-step-dropped": (
        "kappa *= m[b][c]",
        "kappa *= m[b][c] if n != 3 else 0",
        {10: 10, 11: 10, 12: 10},
    ),
    # a tail that restarts at s keeps the period through w[1], so it starts
    # a new one on u > w[1], not u > s; and then through w[2] and w[3]
    "tail-bound-w1": (
        "i = bisect_right(succ[b], x)",
        "i = bisect_right(succ[b], s if t == 1 else x)",
        {5: 5, 6: 5, 7: 7, 8: 7, 9: 7, 10: 7, 11: 8, 12: 8},
    ),
    "tail-bound-w2": (
        "i = bisect_right(succ[b], x)",
        "i = bisect_right(succ[b], s if t == 2 else x)",
        {7: 7, 8: 7, 9: 8, 10: 8, 11: 9, 12: 9},
    ),
    "tail-bound-w3": (
        "i = bisect_right(succ[b], x)",
        "i = bisect_right(succ[b], s if t == 3 else x)",
        {9: 9, 10: 9, 11: 10, 12: 10},
    ),
    # V's terms for w[1] past T_0, and all of them for w[2] or for w[3]
    "tail-w1-t0-only": (
        "enumerate(tables[b][: summed - t], t)",
        "enumerate(tables[b][: summed - t if t != 1 else 1], t)",
        {6: 6, 7: 7, 8: 7, 9: 8, 10: 8, 11: 9, 12: 9},
    ),
    "tail-w2-dropped": (
        "enumerate(tables[b][: summed - t], t)",
        "enumerate((tables[b] if t != 2 else zero)[: summed - t], t)",
        {8: 8, 9: 9, 10: 9, 11: 10, 12: 10},
    ),
    "tail-w3-dropped": (
        "enumerate(tables[b][: summed - t], t)",
        "enumerate((tables[b] if t != 3 else zero)[: summed - t], t)",
        {10: 10, 11: 10, 12: 10},
    ),
    # at most one tail that restarts at s: two need V_2 V_2 on paper-graph
    "restart-recurrence-one-tail": (
        "for i in range(1, n):\n                        u[n] += vv[i] * u[n - 1 - i]\n                    totals[stop + n] += u[n]\n",
        "totals[stop + n] += u[n] + sum(vv[i] * u[n - 1 - i] for i in range(1, n))\n",
        {12: 12},
    ),
    # the words w[:t] x' w[:t] x of two closing children x' < x, at
    # max_len = 2 stop
    "closing-pairs-dropped": ("totals[max_len] += closed * c", "totals[max_len] += 0", {8: 8, 10: 10, 12: 12}),
}


@pytest.mark.parametrize(
    "mutant, order", [(mutant, order) for mutant, (_, _, first) in LEAF_MUTANTS.items() for order in first]
)
def test_summed_lengths_break_the_euler_product(monkeypatch, mutant, order):
    old, new, first = LEAF_MUTANTS[mutant]
    mutate(monkeypatch, "lyndon_cycles", old, new, module=digraph)
    assert euler_verdicts(fixture_digraph("paper-graph"), order) == [f"at t^{first[order]}"] * 2


@pytest.mark.parametrize("order", [2, 3, 6, 7])
def test_per_length_totals_at_half_the_order_break_the_euler_product(monkeypatch, order):
    # the walk yields the total C_k of length k = order // 2, and _euler
    # folds it in as one cycle's product: as 2k <= order, that adds
    # k C_k^2 at t^2k, where the cycles' own power sums add k sum_i c_i^2
    mutate(monkeypatch, "_euler", "order // 2", "order // 2 - 1")
    expected = f"at t^{2 * (order // 2)}"
    assert euler_verdicts(fixture_digraph("paper-graph"), order) == [expected] * 2


def test_enumeration_matches_trace_on_parallel_edges():
    # 16 arcs whose closed paths revisit their least arc at every length
    g = symmetric_digraph(2, [(0, 1)] * 8)
    w = WeightAssignment.from_maps(g)
    theta = _edge_matrix_data(g, w)
    assert _n_k_enumerated_all(theta, 8) == n_k_trace_all(theta, 8)
    # det(I - tM) = (1 - t^2)^7 (1 - 49 t^2), so N_k = 14 + 2 * 7^k for
    # even k and 0 for odd k; far too many closed paths to list one by one
    assert hashimoto(g, w).coeffs == coeffs((1 - T**2) ** 7 * (1 - 49 * T**2))
    assert n_k_all(g, w, 30) == [(14 + 2 * 7**k) * (1 - k % 2) for k in range(1, 31)]
    # 1/((1 - t^2)^7 (1 - 49 t^2)) = sum_n t^2n sum_j C(j + 6, 6) 49^(n - j)
    even = [sum(math.comb(j + 6, 6) * 49 ** (n - j) for j in range(n + 1)) for n in range(5)]
    assert euler_truncated(g, w, 9) == Series([x for c in even for x in (c, 0)], 9)


def test_verify_hashimoto_series_matches_sympy_inversion():
    rng = random.Random(20261019)
    for trial in range(60):
        if trial % 2:
            d = random_digraph(rng, max_vertices=4, max_arcs=8)
        else:
            d = random_multigraph(rng, max_vertices=4, max_edges=4)
        w = inverse_cancelling_weights(rng, d) if trial % 3 else random_weights(rng, d)
        order = rng.randint(1, 12)
        h = hashimoto(d, w)
        expected = Series(coeffs(rs_series_inversion(lift(h), T, order + 1)), order)
        assert verify_expressions(d, w, order).hashimoto_series == expected
        # verify inverts h only on a mismatch, so the inverse is checked here
        assert Series(h.coeffs, order).inv() == expected


GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.zw"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_exponential_matches_the_hashimoto_inverse_at_order_40_on_goldens(path):
    # the closed-path route and the trace oracle, and the integer exp
    # recurrence and the integer series inverse, share no code, so each
    # checks the other far past verify's default order
    inst = load_instance(path)
    d = instance_digraph(inst)
    theta = _edge_matrix_data(d, instance_weights(inst, d))
    sums = _n_k_enumerated_all(theta, 40)
    assert sums == n_k_trace_all(theta, 40)
    inverse = Series(_hashimoto(theta)[0].coeffs, 40).inv()
    assert _over_powers(_exp_of_power_sums(sums, 40), theta[0], 40) == inverse


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_agreeing_verify_reduces_one_series_and_inverts_none(path, monkeypatch):
    calls = []
    real_from_ints, real_inv = Series._from_ints.__func__, Series.inv

    def from_ints(cls, *args):
        calls.append("_from_ints")
        return real_from_ints(cls, *args)

    def inv(self):
        calls.append("inv")
        return real_inv(self)

    monkeypatch.setattr(Series, "_from_ints", classmethod(from_ints))
    monkeypatch.setattr(Series, "inv", inv)
    inst = load_instance(path)
    d = instance_digraph(inst)
    report = verify_expressions(d, instance_weights(inst, d), 10)
    assert report.all_agree
    assert report.euler is report.hashimoto_series is report.exponential
    assert calls == ["_from_ints"]


def walk_totals(m, max_len):
    """{k: C_k} as the Lyndon walk yields them when it lists no length."""
    return {k: c for _, k, c in digraph.lyndon_cycles(m, max_len, 0)}


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_walk_totals_match_the_moebius_traces_on_goldens(path):
    # past the brute-force oracle's 8 arcs: at 13 to 16 the walk sums
    # lengths 8-13, 8-14, 9-15 and 9-16 without a frame
    inst = load_instance(path)
    d = instance_digraph(inst)
    _, p = _edge_matrix_data(d, instance_weights(inst, d))
    for max_len in (13, 14, 15, 16):
        assert walk_totals(p, max_len) == prime_cycle_totals(p, max_len)


def test_walk_totals_match_the_moebius_traces_on_the_dipole(monkeypatch):
    # 16 arcs at unit weights, with 1,176 prime cycles of length 4 and
    # 56,495,040 of length 10, far past any listing
    g = symmetric_digraph(2, [(0, 1)] * 8)
    _, p = _edge_matrix_data(g, WeightAssignment.from_maps(g))
    totals = walk_totals(p, 11)
    assert totals == prime_cycle_totals(p, 11)
    # the check fails when the oracle flips the sign of mu(n) for n > 1
    real = oracles.mobius
    monkeypatch.setattr(oracles, "mobius", lambda n: real(n) if n == 1 else -real(n))
    assert totals != prime_cycle_totals(p, 11)


def listed_power_sums(m, order):
    """{(e, j): sum of c^j over the words of length e that the Euler walk
    at ``order`` lists}, for e <= order // 2 and e j <= order."""
    half = order // 2
    products = [(k, c) for word, k, c in digraph.lyndon_cycles(m, order, half) if word is not None]
    return {
        (e, j): sum(c**j for k, c in products if k == e)
        for e in range(1, half + 1)
        for j in range(1, order // e + 1)
    }


def moebius_power_sums(m, order):
    """``listed_power_sums`` by ``oracles.prime_cycle_totals``, no path listed."""
    sums = {}
    for j in range(1, order + 1):
        top = min(order // 2, order // j)
        totals = prime_cycle_totals(m, top, j)
        sums.update({(e, j): totals.get(e, 0) for e in range(1, top + 1)})
    return sums


def first_power_mismatch(m, order):
    listed, expected = listed_power_sums(m, order), moebius_power_sums(m, order)
    assert listed.keys() == expected.keys()
    return min((key for key in listed if listed[key] != expected[key]), default=None)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_listed_prime_cycles_match_the_moebius_traces_by_power_on_goldens(path):
    # sum c^j over the words the walk lists: a word missed, repeated or
    # given a wrong product changes some power j even when the totals hold
    inst = load_instance(path)
    d = instance_digraph(inst)
    _, p = _edge_matrix_data(d, instance_weights(inst, d))
    for order in (10, 12):
        assert first_power_mismatch(p, order) is None


def test_listed_prime_cycles_match_the_moebius_traces_by_power_on_the_dipole():
    g = symmetric_digraph(2, [(0, 1)] * 8)
    _, p = _edge_matrix_data(g, WeightAssignment.from_maps(g))
    assert first_power_mismatch(p, 10) is None


def test_an_off_by_one_hadamard_power_fails_the_power_check(monkeypatch):
    # exponent j k/f + 1 for j k/f: at length 1 the oracle sums c^(j+1) over
    # the loops, so the check fails at the first length whose cycles have a
    # product other than 0 and 1, and at power 1 there
    inst = load_instance(next(p for p in GOLDEN if p.stem == "digraph-loops-parallel"))
    d = instance_digraph(inst)
    _, p = _edge_matrix_data(d, instance_weights(inst, d))
    first = min(k for _, k, c in digraph.lyndon_cycles(p, 10, 5) if c not in (0, 1))
    real = oracles.hadamard_power
    monkeypatch.setattr(oracles, "hadamard_power", lambda m, j: real(m, j + 1))
    assert first_power_mismatch(p, 10) == (first, 1)


@pytest.mark.parametrize(
    "old, new, first",
    [
        ("map(mul, xs, reversed(fs))", "map(mul, xs[1:], reversed(fs))", 1),
        ("sum(map(mul, xs, reversed(fs))), n)", "sum(map(mul, xs, reversed(fs))), max(n - 1, 1))", 2),
    ],
    ids=["convolution-off-by-one", "divided-by-n-minus-1"],
)
def test_corrupted_exp_recurrence_breaks_exponential_vs_hashimoto(monkeypatch, old, new, first):
    # N_1 = 2 and N_2 = 6 on the paper graph: x_{k+1} in place of x_k
    # is wrong at t^1, and n f_n / (n - 1) at t^2; both still divide up to
    # t^3, and past it the checked division refuses them.  verify compares
    # the exponential and the Euler product by their power sums, which the
    # fault leaves alone, and the one recurrence makes both series wrong
    mutate(monkeypatch, "_exp_of_power_sums", old, new)
    details = verify_details("paper-graph", 3)
    assert details["exponential-vs-euler"] is None
    assert details["exponential-vs-hashimoto"] == f"at t^{first}"
    assert details["euler-vs-hashimoto"] == f"at t^{first}"
    with pytest.raises(ConsistencyError, match="non-integer exponential numerator"):
        verify_details("paper-graph", 10)


def theta_table(d, w):
    """(rows, L): theta(a, b) = rows[a][b] / L, for L the lcm of the
    denominators of theta, so that path products are int products."""
    theta = [[theta_value(d, w, a, b) for b in range(d.arc_count)] for a in range(d.arc_count)]
    scale = math.lcm(*(x.denominator for row in theta for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in theta], scale


def circular_product(theta, path):
    return math.prod(theta[a][b] for a, b in zip(path, path[1:] + path[:1]))


def brute_force_power_sums(d, w, upto):
    theta, scale = theta_table(d, w)
    return [
        Fraction(sum(circular_product(theta, path) for path in closed_paths(d, k)), scale**k)
        for k in range(1, upto + 1)
    ]


def prime_cycle_product(d, w, order):
    """prod over the structural prime cycles X of 1/(1 - circ(X) t^|X|),
    with the cycles read off the brute-force closed paths.  Coefficient i
    is accumulated as its integer numerator over L^i."""
    theta, scale = theta_table(d, w)
    cycles = prime_cycle_representatives(d, order)
    acc = euler_product_numerators([(len(x), circular_product(theta, x)) for x in cycles], order)
    return Series([Fraction(a, scale**i) for i, a in enumerate(acc)], order)


def inverse_cancelling_weights(rng, d):
    """Random weights with tau1(a) * tau2(b) = 1 for an inverse b of about
    half the arcs a, which makes theta(a, b) = 0."""
    tau1 = {a: random_rational(rng) for a in range(d.arc_count)}
    tau2 = {a: random_rational(rng) for a in range(d.arc_count)}
    for a in range(d.arc_count):
        inverses = sorted(d.inverse_set(a))
        if inverses and rng.random() < 0.5:
            tau2[rng.choice(inverses)] = 1 / tau1[a]
    return WeightAssignment.from_maps(d, tau1, tau2)


def test_series_routes_match_brute_force_on_random_instances():
    rng = random.Random(20261018)
    for trial in range(80):
        if trial % 2:
            d = random_digraph(rng, max_vertices=4, max_arcs=8)
        else:
            d = random_multigraph(rng, max_vertices=4, max_edges=4)
        w = inverse_cancelling_weights(rng, d) if trial % 3 else random_weights(rng, d)
        theta = _edge_matrix_data(d, w)
        # each run of six trials meets both kinds of graph and weights at one
        # order, and the orders cycle through 1-6: the Euler product's
        # order/2 split and its summed last lengths see both parities
        upto = trial // 6 % 6 + 1
        expected = brute_force_power_sums(d, w, upto)
        assert as_fractions(theta[0], _n_k_enumerated_all(theta, upto)) == expected
        assert as_fractions(theta[0], n_k_trace_all(theta, upto)) == expected
        euler = _exp_of_power_sums(_euler(theta, upto), upto)
        assert _over_powers(euler, theta[0], upto) == prime_cycle_product(d, w, upto)


def test_euler_matches_the_hashimoto_inverse_at_orders_1_to_12():
    # the lengths the walk lists, totals and sums by lookup all move with
    # the order: the summed prefix is (order + 1) // 2 arcs long, but two
    # at orders 2 to 4, and at even orders the two closings of one frame
    # make words of the order's length; the series inverse shares no code
    # with the walk.  Six loops on one vertex
    # take seconds at order 12, so the graphs stay small.
    rng = random.Random(20261020)
    for trial in range(80):
        if trial % 2:
            d = random_digraph(rng, max_vertices=4, max_arcs=5)
        else:
            d = random_multigraph(rng, max_vertices=4, max_edges=2)
        theta = _edge_matrix_data(d, inverse_cancelling_weights(rng, d))
        h = _hashimoto(theta)[0]
        for order in range(1, 13):
            euler = _exp_of_power_sums(_euler(theta, order), order)
            assert _over_powers(euler, theta[0], order) == Series(h.coeffs, order).inv()


def test_exp_of_the_folded_power_sums_is_the_product_of_the_factors(monkeypatch):
    # _euler folds each (k, c) the walk yields into power sums, k c^m at
    # t^(km), and the exponential's recurrence must divide exactly on them
    # for any integers k and c; the reference multiplies the factors in
    rng = random.Random(20261021)
    for _ in range(60):
        pairs = [
            (rng.randint(1, 9), rng.choice((0, 1, -1, rng.randint(-99, 99))))
            for _ in range(rng.randint(0, 12))
        ]
        monkeypatch.setattr(zeta, "lyndon_cycles", lambda m, order, listed: ((None, k, c) for k, c in pairs))
        for order in range(1, 17):
            expected = euler_product_numerators(pairs, order)
            assert _exp_of_power_sums(_euler((1, None), order), order) == expected


@pytest.mark.parametrize("name", ["paper-digraph", "paper-graph"])
def test_pruned_euler_walk_matches_structural_prime_cycles_on_fixtures(name):
    # at unit weights theta vanishes on every backtracking pair, so the walk
    # over nonzero entries skips most structural prime cycles
    d = fixture_digraph(name)
    w = WeightAssignment.from_maps(d)
    assert euler_truncated(d, w, 8) == prime_cycle_product(d, w, 8)


def test_exponential_and_euler_single_loop_geometric():
    d, w = single_loop(2, 3)
    geo = Series([5**k for k in range(7)], 6)
    assert exponential_truncated(d, w, 6) == geo
    assert euler_truncated(d, w, 6) == geo


def test_expressions_edgeless_are_one():
    d = build_digraph(2, [])
    w = WeightAssignment.from_maps(d)
    one = Series([1], 5)
    assert exponential_truncated(d, w, 5) == one
    assert euler_truncated(d, w, 5) == one


def test_euler_matches_inverse_hashimoto_triangle_unit_weights():
    g = fixture_digraph("triangle")
    w = WeightAssignment.from_maps(g)
    inv_h = Series(hashimoto(g, w).coeffs, 10).inv()
    assert euler_truncated(g, w, 10) == inv_h


def test_ihara_digraph_single_loop():
    d, w = single_loop(2, 3)
    res = ihara_digraph(d, w)
    assert res.agree
    assert res.f_factors[0] == P(1, 1)
    assert res.rhs.is_poly() and res.rhs.num == P(1, -5)


def test_ihara_digraph_fixture_f_factors():
    d = fixture_digraph("paper-digraph")
    res = ihara_digraph(d, WeightAssignment.from_maps(d))
    rendered = [f.render() for f in res.f_factors]
    assert rendered == ["1 + 2*t", "1 + -4*t^2", "1 + -1*t^2", "1 + -1*t^2"]


def test_ihara_digraph_fixture_random_weights(rng):
    d = fixture_digraph("paper-digraph")
    for _ in range(5):
        w = random_weights(rng, d)
        res = ihara_digraph(d, w)
        assert res.agree
        assert res.rhs.is_poly() and res.rhs.num == res.hashimoto


def test_ihara_digraph_random_instances(rng):
    for _ in range(30):
        d = random_digraph(rng, 4, 10)
        w = random_weights(rng, d)
        assert ihara_digraph(d, w).agree


def test_ihara_digraph_rejects_graph_mode():
    g = fixture_digraph("triangle")
    with pytest.raises(GraphError):
        ihara_digraph(g, WeightAssignment.from_maps(g))


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
        assert res.rhs.is_poly() and res.rhs.num == res.hashimoto


def test_ihara_graph_negative_prefactor_isolated_vertex():
    g = symmetric_digraph(3, [(0, 1)])
    res = ihara_graph(g, WeightAssignment.from_maps(g))
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
        rows = []
        for i in range(nv):
            row = []
            for j in range(nv):
                entry = int(i == j) - base.a.get((i, j), 0) * TF
                if (i, j) in base.d_ul:
                    entry = entry + lift(base.d_ul[i, j]) * TF**2
                row.append(entry - x_mat[i][j] * TF**3)
            rows.append(row)
        det = det_bareiss(Matrix(rows), FIELD.one)
        prod_f = RING.one
        for f in base.f_factors:
            prod_f = prod_f * lift(f)
        return coeffs(det * prod_f)

    def cross_sum(pair):
        acc = Fraction(0)
        for a in pair.arcs_uv:
            for b in pair.arcs_vu:
                acc = acc + w.tau1[b] * w.tau2[a]
        return acc

    variant_scaled = [[FIELD.zero] * nv for _ in range(nv)]
    variant_plain = [[FIELD.zero] * nv for _ in range(nv)]
    for pair in d.phi_pairs():
        if pair.is_diagonal:
            continue
        f = FIELD(pair_f_poly(pair))
        u, v = pair.u, pair.v
        fwd = cross_sum(pair) / f
        bwd_acc = Fraction(0)
        for a in pair.arcs_vu:
            for b in pair.arcs_uv:
                bwd_acc = bwd_acc + w.tau1[b] * w.tau2[a]
        bwd = bwd_acc / f
        variant_plain[u][v] = fwd
        variant_plain[v][u] = bwd
        variant_scaled[u][v] = fwd * len(pair.arcs_uv)
        variant_scaled[v][u] = bwd * len(pair.arcs_vu)

    h = (base.hashimoto.coeffs, (1,))
    assert parts(base.rhs) == h
    block = [[lift(base.x_ul[i, j]) if (i, j) in base.x_ul else FIELD.zero for j in range(nv)] for i in range(nv)]
    assert rhs_with_x(block) == h
    assert rhs_with_x(variant_plain) != h
    assert rhs_with_x(variant_scaled) != h


def tau1_unit(d, tau2) -> WeightAssignment:
    return WeightAssignment.from_maps(d, None, tau2)


def test_sato_ihara_digraph_unit_tau2():
    d, _ = single_loop()
    w = WeightAssignment.from_maps(d)
    assert coeffs(sato_expression(d, w)) == (hashimoto(d, w).coeffs, (1,)) == ((1,), (1,))


def test_sato_ihara_digraph_matches_hashimoto(rng):
    d = fixture_digraph("paper-digraph")
    for _ in range(3):
        w = tau1_unit(d, {i: random_rational(rng) for i in range(d.arc_count)})
        assert coeffs(sato_expression(d, w)) == (hashimoto(d, w).coeffs, (1,))
    for _ in range(10):
        d = random_digraph(rng, 4, 8)
        w = tau1_unit(d, {i: random_rational(rng) for i in range(d.arc_count)})
        assert coeffs(sato_expression(d, w)) == (hashimoto(d, w).coeffs, (1,))


def test_sato_ihara_digraph_dangling_arc():
    # a single arc with no reverse arc: M is zero, everything collapses to 1
    d = build_digraph(2, [(0, 1)])
    w = tau1_unit(d, {0: Fraction(7, 3)})
    assert coeffs(sato_expression(d, w)) == ((1,), (1,))
    assert parts(ihara_digraph(d, w).rhs) == ((1,), (1,))


def test_sato_ihara_graph_matches_hashimoto(rng):
    g = fixture_digraph("paper-graph")
    for _ in range(3):
        tau2 = {i: random_rational(rng) for i in range(g.arc_count)}
        w = WeightAssignment.from_maps(g, None, tau2)
        rhs = ihara_graph(g, w).rhs
        assert rhs.is_poly() and rhs.num == hashimoto(g, w)
    tri = fixture_digraph("triangle")
    ones = WeightAssignment.from_maps(tri)
    rhs = ihara_graph(tri, ones).rhs
    assert rhs.is_poly() and rhs.num == hashimoto(tri, ones)
    for _ in range(10):
        g = random_multigraph(rng, 4, 5)
        tau2 = {i: random_rational(rng) for i in range(g.arc_count)}
        w = WeightAssignment.from_maps(g, None, tau2)
        rhs = ihara_graph(g, w).rhs
        assert rhs.is_poly() and rhs.num == hashimoto(g, w)


def test_tau1_unit_matrix_conjecture(rng):
    # At tau1 = 1 the general digraph matrix -tA + t^2 D - t^3 X is Sato's
    # -t Au + t^2 Du entry by entry (the form ihara_digraph's docstring
    # states), on multi-digraphs with loops and parallel arcs.  Du keeps only
    # the opposite-direction pair terms; the loop terms of D cancel against
    # those of A, so sharing one D across both sides breaks the loop case.
    t = TF

    def entry(table, key):
        return lift(table[key]) if key in table else FIELD.zero

    def sides(d, w):
        base = ihara_digraph(d, w)
        au, du = sato_matrices(d, w)
        keys = [(i, j) for i in range(d.vertex_count) for j in range(d.vertex_count)]
        general = {
            key: -t * base.a.get(key, 0) + t * t * entry(base.d_ul, key) - t * t * t * entry(base.x_ul, key)
            for key in keys
        }
        sato = {key: -t * au.get(key, FIELD.zero) + t * t * du.get(key, FIELD.zero) for key in keys}
        return base, general, sato

    for _ in range(60):
        d = random_digraph(rng, 4, 10)
        w = tau1_unit(d, {i: random_rational(rng) for i in range(d.arc_count)})
        base, general, sato = sides(d, w)
        assert general == sato
        assert base.agree

    loop = build_digraph(1, [(0, 0)])
    base, general, _ = sides(loop, tau1_unit(loop, {0: Fraction(3)}))
    f = pair_f_poly(loop.phi_pairs()[0])
    shared = -t * base.a[0, 0] / f + t * t * lift(base.d_ul[0, 0])
    assert general[0, 0] != shared


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
    report = verify_expressions(d, WeightAssignment.from_maps(d), 5)
    assert report.all_agree
    assert report.exponential == Series([1], 5)
    assert report.hashimoto == P(1)


def test_zero_vertex_digraph_degenerate():
    z = build_digraph(0, [])
    w = WeightAssignment.from_maps(z)
    assert hashimoto(z, w) == P(1)
    assert parts(ihara_digraph(z, w).rhs) == ((1,), (1,))
    assert verify_expressions(z, w, 3).all_agree


def test_weight_assignment_rejects_unknown_arc():
    d = build_digraph(1, [(0, 0)])
    with pytest.raises(GraphError):
        WeightAssignment.from_maps(d, {5: 1}, None)


def test_weight_assignment_built_directly_converts_and_checks_its_weights():
    d = fixture_digraph("paper-digraph")
    n = d.arc_count
    as_strings = WeightAssignment(("1/2",) * n, (3,) * n)
    assert as_strings.tau1 == (Fraction(1, 2),) * n and as_strings.tau2 == (Fraction(3),) * n
    halves = {a: Fraction(1, 2) for a in range(n)}
    threes = {a: 3 for a in range(n)}
    assert hashimoto(d, as_strings) == hashimoto(d, WeightAssignment.from_maps(d, halves, threes))
    with pytest.raises(TypeError, match="not an exact rational"):
        WeightAssignment((0.5,) * n, (1,) * n)
    g = fixture_digraph("paper-graph")
    for graph, ihara in ((d, ihara_digraph), (g, ihara_graph)):
        for tau1, tau2 in (((1,) * (n - 1), (1,) * n), ((1,) * n, (1,) * (n + 1))):
            w = WeightAssignment(tau1, tau2)
            calls = (
                lambda: edge_matrix(graph, w), lambda: hashimoto(graph, w), lambda: n_k_all(graph, w, 2),
                lambda: exponential_truncated(graph, w, 2), lambda: euler_truncated(graph, w, 2),
                lambda: ihara(graph, w), lambda: verify_expressions(graph, w, 2),
            )
            for call in calls:
                with pytest.raises(GraphError, match=f"arcs on a digraph with {n}"):
                    call()


def test_theta_value_matches_edge_matrix(rng):
    d = random_digraph(rng, 3, 6)
    w = random_weights(rng, d)
    m = Matrix(edge_matrix(d, w))
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
    rest = RING.from_list(list(h.coeffs) + [Fraction(0)] * (n + 1 - len(h.coeffs)))
    roots = []
    for r in (0, 1, -1):
        while rest(r) == 0:
            rest = rest.exquo(T - r)
            roots.append(r)
    roots += list(np.roots([float(c) for c in reversed(coeffs(rest))]))
    theta = np.array([[float(x) for x in row] for row in edge_matrix(d, w)])
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


# The vertex side in integers: a vertex determinant that is off by one
# coefficient must fail the identity, and the sparse tables and determinants
# must match references built entry by entry.
def perturb_vertex_det(monkeypatch, k):
    """Add 1/Delta to the t^k coefficient of every det P the vertex side
    computes; returns each perturbed det P as a Poly."""
    seen = []
    real = zeta.det_poly_matrix

    def perturbed(p, scale):
        values, delta = real(p, scale)
        values = values + [0] * (k + 1 - len(values))
        values[k] += 1
        seen.append(Poly([Fraction(c, delta) for c in values]))
        return values, delta

    monkeypatch.setattr(zeta, "det_poly_matrix", perturbed)
    return seen


def product(polys):
    return math.prod(polys, start=RING.one)


def row_factor(d, w, u):
    """r_u: the product of the distinct f of the pairs that give row u of the
    digraph vertex matrix a nonzero term, D[u][u] += s2(out) s1(back) / f or
    X[u][v] += |back| s2(out) s1(out) / f, where out holds the pair's arcs
    leaving u and back those entering u."""
    fs = {}
    for p in d.phi_pairs():
        if u not in (p.u, p.v):
            continue
        out, back = (p.arcs_uv, p.arcs_vu) if u == p.u else (p.arcs_vu, p.arcs_uv)
        s2, s1_out, s1_back = (
            sum((tau[a] for a in arcs), Fraction(0))
            for tau, arcs in ((w.tau2, out), (w.tau1, out), (w.tau1, back))
        )
        if s2 * s1_back or len(back) * s2 * s1_out:
            fs[coeffs(pair_f_poly(p))] = pair_f_poly(p)
    return product(fs.values())


def test_a_perturbed_vertex_det_fails_the_digraph_identity(rng, monkeypatch):
    d = fixture_digraph("paper-digraph")
    w = random_weights(rng, d)
    # arcs 2 and 3 run 0 -> 1: cancelling their tau2 leaves row 0 without
    # f(0,1) = 1 - 4t^2, while row 1 keeps it
    w = WeightAssignment(w.tau1, w.tau2[:3] + (-w.tau2[2],) + w.tau2[4:])
    seen = perturb_vertex_det(monkeypatch, 1)
    res = ihara_digraph(d, w)
    assert not res.agree and len(seen) == 1
    assert row_factor(d, w, 0) == (1 + 2 * T) * (1 - T**2)
    assert row_factor(d, w, 1) == (1 - 4 * T**2) * (1 - T**2)
    r_all = product(row_factor(d, w, u) for u in range(d.vertex_count))
    assert parts(res.rhs) == coeffs(FIELD(product(map(lift, res.f_factors)) * lift(seen[0])) / r_all)
    assert res.hashimoto == hashimoto(d, w)


def test_a_perturbed_vertex_det_fails_the_graph_identity(rng, monkeypatch):
    g = symmetric_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])  # vertex 4 is isolated
    w = random_weights(rng, g)
    seen = perturb_vertex_det(monkeypatch, 2)
    res = ihara_graph(g, w)
    assert not res.agree and len(seen) == 1
    vertex_det = coeffs(lift(seen[0]) * (1 - T**2))
    assert res.vertex_det.coeffs == vertex_det
    assert res.prefactor_exponent == 0
    assert parts(res.rhs) == (vertex_det, (1,))


def test_a_perturbed_vertex_det_fails_the_tau1_digraph_identity(rng, monkeypatch):
    d = fixture_digraph("paper-digraph")
    w = tau1_unit(d, {a: random_rational(rng) for a in range(d.arc_count)})
    seen = perturb_vertex_det(monkeypatch, 1)
    res = ihara_digraph(d, w)
    assert not res.agree and len(seen) == 1
    assert res.hashimoto == hashimoto(d, w)


@pytest.mark.parametrize("name", ["paper-digraph", "paper-graph"])
@pytest.mark.parametrize("k", range(5))
def test_verify_reports_a_perturbed_vertex_det(tmp_path, monkeypatch, capsys, name, k):
    perturb_vertex_det(monkeypatch, k)
    reports = []

    def recorded(*args):
        reports.append(verify_expressions(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_expressions", recorded)
    path = tmp_path / f"{name}.zw"
    path.write_text(fixture_text(name), encoding="utf-8")
    assert cli.main(["verify", str(path), "--order", "6"]) == 1
    out = capsys.readouterr().out
    # the verdict names the first nonzero coefficient of rhs - h
    diff = lift(reports[0].ihara_rhs) - lift(reports[0].hashimoto)
    first = next(i for i, c in enumerate(coeffs(diff)[0]) if c)
    assert first == k
    assert f"VERDICT hashimoto-vs-ihara MISMATCH at t^{first}\n" in out
    assert out.endswith("overall MISMATCH\n")


def require_builder_caught(tmp_path, monkeypatch, capsys, name, corrupt):
    """verify with ``corrupt`` applied to the rows of P that the one theta
    builder returns must exit 1 on the Hashimoto-vs-Ihara verdict alone."""
    real = zeta._edge_matrix_data
    calls = []

    def corrupted(d, w):
        calls.append(d)
        scale, rows = real(d, w)
        corrupt(rows)
        return scale, rows

    monkeypatch.setattr(zeta, "_edge_matrix_data", corrupted)
    path = tmp_path / f"{name}.zw"
    path.write_text(fixture_text(name), encoding="utf-8")
    assert cli.main(["verify", str(path), "--order", "6"]) == 1
    out = capsys.readouterr().out
    assert "VERDICT hashimoto-vs-ihara MISMATCH" in out
    for series in ("exponential-vs-euler", "exponential-vs-hashimoto", "euler-vs-hashimoto"):
        assert f"VERDICT {series} agree\n" in out
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["paper-digraph", "paper-graph"])
def test_a_corrupted_theta_builder_fails_the_ihara_verdict(tmp_path, monkeypatch, capsys, name):
    # every route but the vertex side shares the one theta builder, which
    # verify calls once; the vertex side reads tau1 and tau2 on its own, so
    # a defect in the builder shows as a Hashimoto-vs-Ihara mismatch
    def double_first_entry(rows):
        a, b = next((a, b) for a, row in enumerate(rows) for b, x in enumerate(row) if x)
        rows[a][b] *= 2

    require_builder_caught(tmp_path, monkeypatch, capsys, name, double_first_entry)


@pytest.mark.parametrize("name", ["paper-digraph", "paper-graph"])
def test_a_theta_builder_that_doubles_every_entry_fails_the_ihara_verdict(tmp_path, monkeypatch, capsys, name):
    # 2P over the same D is theta doubled on every route that reads (D, P):
    # the three series still agree with each other, and only the vertex
    # side, which reads the weights itself, can tell
    def double_every_entry(rows):
        rows[:] = [[2 * x for x in row] for row in rows]

    require_builder_caught(tmp_path, monkeypatch, capsys, name, double_every_entry)


def vertex_tables(res):
    """A, D and X of an ``ihara_digraph`` result, each D and X entry as ``parts``."""
    return res.a, {key: parts(x) for key, x in res.d_ul.items()}, {key: parts(x) for key, x in res.x_ul.items()}


def reference_tables(d, w):
    """The oracle's A, D and X, each D and X entry as ``coeffs``."""
    a, dm, xm = ihara_digraph_tables(d, w)
    return a, {key: coeffs(x) for key, x in dm.items()}, {key: coeffs(x) for key, x in xm.items()}


def test_cancelling_pair_sums():
    # two arcs 0 -> 1 with tau2 = 1, -1, one arc 1 -> 0, and two loops at 1
    # with tau1 = 1, -1: the pair sums of row 0 and the loop sums cancel
    d = build_digraph(2, [(0, 1), (0, 1), (1, 0), (1, 1), (1, 1)])
    tau2 = {0: 1, 1: -1}
    w = WeightAssignment.from_maps(d, {3: 1, 4: -1}, tau2)
    res = ihara_digraph(d, w)
    assert res.agree
    assert vertex_tables(res) == reference_tables(d, w)
    assert res.hashimoto.coeffs == coeffs(det_one_minus_t_by_elimination(Matrix(edge_matrix(d, w))))
    unit = tau1_unit(d, tau2)
    assert coeffs(sato_expression(d, unit)) == parts(ihara_digraph(d, unit).rhs) == (hashimoto(d, unit).coeffs, (1,))
    assert verify_expressions(d, w, 8).all_agree


def repeated_f_digraph(rng):
    """A multi-digraph on 1-3 vertices (plus maybe an isolated one) whose
    loops and arc multiplicities make f repeat: two loops give 1 + 2t, and
    2 + 2 or 1 + 4 opposite arcs give 1 - 4t^2, so one vertex can carry
    both, or 1 - 4t^2 from two pairs."""
    while True:
        nv = rng.randint(1, 3)
        arcs = []
        for u in range(nv):
            arcs += [(u, u)] * rng.choice([0, 1, 2])
        for u in range(nv):
            for v in range(u + 1, nv):
                k, l = rng.choice([(0, 0), (1, 0), (0, 2), (1, 1), (2, 2), (1, 4), (4, 1), (2, 1)])
                arcs += [(u, v)] * k + [(v, u)] * l
        if len(arcs) <= 12:
            rng.shuffle(arcs)
            return build_digraph(nv + rng.randint(0, 1), arcs)


def zero_tau2_leaving(d, w, u):
    """w with tau2 = 0 on every arc leaving u: every term of row u of the
    vertex matrix vanishes, though u has arcs."""
    return WeightAssignment(w.tau1, tuple(0 if tail == u else x for tail, x in zip(d.tails, w.tau2)))


def graph_d_table(g, w):
    """{(u, u): sum of tau1(a ^ 1) tau2(a) over the arcs a leaving u}, nonzero entries."""
    diag = {}
    for a, u in enumerate(g.tails):
        diag[u] = diag.get(u, Fraction(0)) + w.tau1[a ^ 1] * w.tau2[a]
    return {(u, u): x for u, x in diag.items() if x}


def test_sparse_vertex_side_matches_the_references():
    rng = random.Random(1111)
    repeats = 0
    for _ in range(40):
        d = repeated_f_digraph(rng)
        w = random_weights(rng, d)
        for weights in (w, zero_tau2_leaving(d, w, d.tails[0])) if d.tails else (w,):
            res = ihara_digraph(d, weights)
            assert res.agree
            assert vertex_tables(res) == reference_tables(d, weights)
            assert res.hashimoto.coeffs == coeffs(det_one_minus_t_by_elimination(Matrix(edge_matrix(d, weights))))
        for u in range(d.vertex_count):
            at = [coeffs(pair_f_poly(p)) for p in res.pairs if u in (p.u, p.v)]
            repeats += len(at) > len(set(at)) or {(1, 2), (1, 0, -4)} <= set(at)
    assert repeats >= 5
    for _ in range(40):
        g = random_multigraph(rng, 4, 5)
        w = random_weights(rng, g)
        for weights in (w, zero_tau2_leaving(g, w, g.tails[0])):
            res = ihara_graph(g, weights)
            assert res.agree
            assert res.d_g == graph_d_table(g, weights)
            assert res.vertex_det.coeffs == coeffs(graph_vertex_det(g, weights))
            assert res.hashimoto.coeffs == coeffs(det_one_minus_t_by_elimination(Matrix(edge_matrix(g, weights))))


def huge_rational(rng) -> Fraction:
    """A signed rational whose numerator and denominator lie near 10^40."""
    return Fraction(rng.choice([-1, 1]) * (10**40 + rng.randint(-10**9, 10**9)), 10**40 + rng.randint(1, 10**9))


def assert_digraph_side_matches(d, w, eliminate=True):
    """ihara_digraph agrees and its A, D and X are the oracle's; with
    ``eliminate``, its Hashimoto side is det(I - t*M) by elimination."""
    res = ihara_digraph(d, w)
    assert res.agree
    assert vertex_tables(res) == reference_tables(d, w)
    if eliminate:
        assert res.hashimoto.coeffs == coeffs(det_one_minus_t_by_elimination(Matrix(edge_matrix(d, w))))
    return res


def assert_graph_side_matches(g, w):
    """ihara_graph agrees and its A, D and vertex det are the oracles'."""
    res = ihara_graph(g, w)
    assert res.agree
    assert res.a_g == ihara_digraph_tables(g, w)[0]
    assert res.d_g == graph_d_table(g, w)
    assert res.vertex_det.coeffs == coeffs(graph_vertex_det(g, w))
    return res


def test_vertex_side_with_cancelling_weights_matches_the_references():
    # parallel arcs 0 -> 1 whose tau1 tau2 sum to 0: A[0][1] is absent, but
    # the pair's tau sums are not 0, so neither are its D and X terms
    d = build_digraph(2, [(0, 1), (0, 1), (1, 0)])
    res = assert_digraph_side_matches(d, WeightAssignment.from_maps(d, {1: 2, 2: 3}, {0: 2, 1: -1, 2: 5}))
    assert (0, 1) not in res.a and (0, 0) in res.d_ul and (0, 1) in res.x_ul
    # two pairs at vertex 0 with the same f = 1 - t^2 and D terms 1 / f and
    # -1 / f: D[0][0] is absent, though both pairs carry X terms
    d = build_digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    res = assert_digraph_side_matches(d, WeightAssignment.from_maps(d, {3: -1}))
    assert (0, 0) not in res.d_ul and {(0, 1), (0, 2)} <= res.x_ul.keys() and (1, 1) in res.d_ul
    g = symmetric_digraph(3, [(0, 1), (0, 2)])
    res = assert_graph_side_matches(g, WeightAssignment.from_maps(g, {3: -1}))
    assert (0, 0) not in res.d_g and (1, 1) in res.d_g
    # tau2 sum 0 on 0 -> 1 (both terms of that direction vanish, A[0][1]
    # does not), tau1 sum 0 on 2 -> 1 (the D term of 1 -> 2 and the X term
    # of 2 -> 1 vanish, the X term of 1 -> 2 does not), and two loops at 2
    # whose tau1 sum is 0 (their D term and A[2][2] vanish)
    d = build_digraph(3, [(0, 1), (0, 1), (1, 0), (1, 2), (2, 1), (2, 1), (2, 2), (2, 2)])
    w = WeightAssignment.from_maps(d, {0: 2, 4: 1, 5: -1, 6: 3, 7: -3}, {0: 1, 1: -1})
    res = assert_digraph_side_matches(d, w)
    assert (0, 1) in res.a and (0, 0) not in res.d_ul and (0, 1) not in res.x_ul
    assert (1, 2) in res.x_ul and (2, 1) not in res.x_ul and (2, 2) not in res.a and (2, 2) in res.d_ul
    # the same shapes with tau numerators and denominators near 10^40, and
    # parallel arcs whose huge tau2 cancel
    rng = random.Random(2828)
    for _ in range(15):
        d = repeated_f_digraph(rng)
        tau1 = [huge_rational(rng) for _ in range(d.arc_count)]
        tau2 = [huge_rational(rng) for _ in range(d.arc_count)]
        assert_digraph_side_matches(d, WeightAssignment(tau1, tau2), eliminate=False)
        arcs = [b for b in range(d.arc_count) if b and d.tails[b] == d.tails[0] and d.heads[b] == d.heads[0]]
        if arcs:
            tau2[arcs[0]] = -tau2[0]
            assert_digraph_side_matches(d, WeightAssignment(tau1, tau2), eliminate=False)
        g = random_multigraph(rng, 4, 5)
        assert_graph_side_matches(g, WeightAssignment.from_maps(
            g, {a: huge_rational(rng) for a in range(g.arc_count)}, {a: huge_rational(rng) for a in range(g.arc_count)}
        ))


@pytest.mark.parametrize("name", sorted(LARGE_DENOMINATOR_GRAPHS))
def test_vertex_side_with_large_prime_denominators_matches_the_references(name):
    # distinct Mersenne-prime denominators put the vertex side's one scale
    # S = s1 s2 above 2^200, and some theta(a, b) on inverse arcs at 0
    d = LARGE_DENOMINATOR_GRAPHS[name]()
    w = large_denominator_weights(d)
    s1, s2 = (math.lcm(*(x.denominator for x in tau)) for tau in (w.tau1, w.tau2))
    assert s1 * s2 > 2**200
    if d.mode is GraphMode.SYMMETRIC:
        assert_graph_side_matches(d, w)
    else:
        assert_digraph_side_matches(d, w)


def test_each_materialized_row_is_cleared_once(monkeypatch):
    # _vertex_det clears each row of P once, one exact quotient r_u / f per
    # distinct f of a row with two or more of them (a row with one has
    # cofactor 1, as every graph row does), and the D and X tables read
    # those cleared rows: no quotient per table entry
    calls, rows = [], []
    real_quotient, real_det = zeta._exact_quotient, zeta.det_poly_matrix

    def quotient(a, g):
        calls.append(g)
        return real_quotient(a, g)

    def det(p, scale):
        rows.append(len({key[0] for key in p}))
        return real_det(p, scale)

    monkeypatch.setattr(zeta, "_exact_quotient", quotient)
    monkeypatch.setattr(zeta, "det_poly_matrix", det)
    rng = random.Random(4343)
    cases = [(path.stem, load_instance(path)) for path in GOLDEN]
    cases = [(name, instance_digraph(inst), inst) for name, inst in cases]
    cases = [(name, d, instance_weights(inst, d)) for name, d, inst in cases]
    for i in range(20):
        d = repeated_f_digraph(rng)
        cases.append((f"repeated-f-{i}", d, random_weights(rng, d)))
    tables = shared = 0
    for name, d, w in cases:
        terms = zeta._vertex_side(d, w)[1][3]
        distinct = [len({f for *_, f in row if f is not None}) for row in terms.values()]
        calls.clear()
        rows.clear()
        res = (ihara_graph if d.mode is GraphMode.SYMMETRIC else ihara_digraph)(d, w)
        assert rows == [len(terms)] and len(calls) == sum(n for n in distinct if n > 1), name
        shared += sum(n > 1 for n in distinct)
        if d.mode is GraphMode.GENERAL:
            tables += len(res.d_ul) + len(res.x_ul)
    assert tables > 50 and shared > 5


def test_every_t2_term_sits_on_its_rows_diagonal():
    # _vertex_det keeps one t^2 part per cleared row, and the D tables read
    # it as D[u][u], because _vertex_side puts each t^2 term (v, 2, n, f) of
    # row u at v = u; a new kind of vertex-side term must keep that
    rng = random.Random(4747)
    cases = [(path.stem, load_instance(path)) for path in GOLDEN]
    cases = [(name, instance_digraph(inst), inst) for name, inst in cases]
    cases = [(name, d, instance_weights(inst, d)) for name, d, inst in cases]
    for i in range(60):
        d = (random_digraph, repeated_f_digraph, random_multigraph)[i % 3](rng)
        cases.append((f"random-{i}", d, random_weights(rng, d)))
    seen = Counter()
    for name, d, w in cases:
        rows = zeta._vertex_side(d, w)[1][3]
        at = [(u, v) for u, terms in rows.items() for v, k, *_ in terms if k == 2]
        assert all(u == v for u, v in at), name
        seen[d.mode] += len(at)
    assert min(seen[GraphMode.GENERAL], seen[GraphMode.SYMMETRIC]) > 50


def test_graph_prefactor_equals_one_factor_per_missing_row():
    # ihara_graph builds (1 - t^2)^(|V| - rows of P) from its binomial
    # coefficients; the vertex det equals the product of one 1 - t^2 per
    # row with no term, on a 1,000-vertex graph with one edge (998 such
    # rows) and on every graph golden
    graphs = [(symmetric_digraph(1000, [(0, 1)]), None)]
    for path in GOLDEN:
        inst = load_instance(path)
        d = instance_digraph(inst)
        if d.mode is GraphMode.SYMMETRIC:
            graphs.append((d, instance_weights(inst, d)))
    assert len(graphs) == 8
    for g, w in graphs:
        w = w or WeightAssignment.from_maps(g)
        side, (_, _, _, _, cleared) = zeta._vertex_side(g, w)
        k_vals, delta = side[2]
        factors = [(1, 0, -1)] * (g.vertex_count - len(cleared))
        expected = Poly._from_ints(zeta._mul(zeta._product(factors), k_vals), [delta] * (2 * len(factors) + len(k_vals)))
        assert ihara_graph(g, w).vertex_det == expected


def test_the_identity_multiplies_only_the_factors_left_after_cancelling(monkeypatch):
    # _identity cancels the blocks' factors against those that clear the
    # rows of P and multiplies what is left of each: for a graph that is
    # (1 - t^2)^(|E| - |V'|) on one side, V' the rows of P, and nothing on
    # the other; in both modes the two sides share no factor
    made, seen, rows, inside = [], [], [], [False]
    real_product, real_identity, real_det = zeta._product, zeta._identity, zeta.det_poly_matrix

    def product(polys):
        polys = list(polys)
        if inside[0]:
            made.append(polys)
        return real_product(polys)

    def identity(fs, factors, *rest):
        seen.append((fs, factors))
        inside[0] = True
        try:
            return real_identity(fs, factors, *rest)
        finally:
            inside[0] = False

    def det(p, scale):
        rows.append(len({key[0] for key in p}))
        return real_det(p, scale)

    monkeypatch.setattr(zeta, "_product", product)
    monkeypatch.setattr(zeta, "_identity", identity)
    monkeypatch.setattr(zeta, "det_poly_matrix", det)
    rng = random.Random(4545)
    cases = [(path.stem, load_instance(path)) for path in GOLDEN]
    cases = [(name, instance_digraph(inst), inst) for name, inst in cases]
    cases = [(name, d, instance_weights(inst, d)) for name, d, inst in cases]
    for i in range(30):
        g = random_multigraph(rng, 5, 6)
        cases.append((f"multigraph-{i}", g, random_weights(rng, g)))
        d = repeated_f_digraph(rng)
        cases.append((f"repeated-f-{i}", d, random_weights(rng, d)))
    sides = set()
    for name, d, w in cases:
        made.clear()
        seen.clear()
        rows.clear()
        graph = d.mode is GraphMode.SYMMETRIC
        res = (ihara_graph if graph else ihara_digraph)(d, w)
        assert res.agree and len(seen) == 1 and len(made) == 2, name
        (fs, factors), (num, den) = seen[0], made
        assert not set(num) & set(den), name
        assert Counter(num) + Counter(factors) == Counter(den) + Counter(fs), name
        if graph:
            extra = d.edge_count - rows[0]
            assert num == [(1, 0, -1)] * max(extra, 0) and den == [(1, 0, -1)] * max(-extra, 0), name
            sides.add((extra > 0) - (extra < 0))
    assert sides == {-1, 0, 1}


def test_the_vertex_side_makes_no_fraction(monkeypatch):
    # on every golden and large instance the vertex side, and the identity
    # check on a match, run in ints: zeta makes no Fraction for them
    made = []
    real = zeta.Fraction

    def counting(*args):
        made.append(args)
        return real(*args)

    texts = [(path.stem, path.read_text(encoding="utf-8")) for path in GOLDEN]
    texts += [(f"large-{case[0]}", large_instance(*case)) for case in sorted(LARGE)]
    for name, text in texts:
        inst = parse_instance(text, name)
        d = instance_digraph(inst)
        w = instance_weights(inst, d)
        hk = _hashimoto(_edge_matrix_data(d, w))
        monkeypatch.setattr(zeta, "Fraction", counting)
        side, _ = zeta._vertex_side(d, w)
        assert made == [], name
        _, _, k = zeta._identity(*side, hk)
        assert k is None and made == [], name
        monkeypatch.undo()
