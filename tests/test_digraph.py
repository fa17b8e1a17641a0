from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetawalk.digraph import (
    GraphError,
    GraphMode,
    arc_adjacency,
    build_digraph,
    prime_cycles,
    symmetric_digraph,
)
from zetawalk.instances import fixture_digraph

from conftest import random_digraph, random_multigraph
from oracles import closed_paths, phi_grouped_arc_order


def int_mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def trace_power(b, k):
    n = len(b)
    power = b
    for _ in range(k - 1):
        power = int_mat_mul(power, b)
    return sum(power[i][i] for i in range(n))


def test_build_digraph_assigns_ids_in_order():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert d.mode is GraphMode.GENERAL
    assert [(a.id, a.tail, a.head) for a in d.arcs] == [(0, 0, 1), (1, 1, 2), (2, 2, 0)]


def test_build_digraph_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError, match="arc 0"):
        build_digraph(3, [(0, 5)])


def test_empty_digraph():
    d = build_digraph(1, [])
    assert d.arc_count == 0
    assert d.phi_pairs() == ()


def test_symmetric_digraph_pairs_arcs_per_edge():
    g = symmetric_digraph(2, [(0, 1)])
    assert g.arc_count == 2
    assert g.partner(0) == 1 and g.partner(1) == 0
    assert g.inverse_set(0) == {1}
    assert g.inverse_set(1) == {0}


def test_symmetric_loop_edge_gives_two_paired_loop_arcs():
    g = symmetric_digraph(1, [(0, 0)])
    assert g.arc_count == 2
    assert all(a.tail == a.head == 0 for a in g.arcs)
    assert g.partner(0) == 1
    assert g.inverse_set(0) == {1}  # a loop arc is NOT its own inverse in graph mode
    assert 0 not in g.inverse_set(0)


def test_fixture_digraph_inverse_sets():
    d = fixture_digraph("paper-digraph")
    assert d.inverse_set(2) == {4, 5}  # arc 0->1 inverts to both 1->0 arcs
    assert d.inverse_set(0) == {0, 1}  # a loop is one of its own inverses
    assert d.inverse_set(8) == {9}


def test_fixture_graph_inverse_sets():
    g = fixture_digraph("paper-graph")
    # arc ids: loop pair (0,1); edge 0-1 pairs (2,3) and (4,5); 1-2 pair (6,7); 0-2 pair (8,9)
    assert g.inverse_set(2) == {3}
    assert g.inverse_set(0) == {1}
    assert g.inverse_set(8) == {9}


def test_inverse_set_symmetry_random(rng):
    for _ in range(15):
        d = random_digraph(rng, 4, 8)
        for a in range(d.arc_count):
            for b in d.inverse_set(a):
                assert a in d.inverse_set(b)
    for _ in range(15):
        g = random_multigraph(rng, 4, 5)
        for a in range(g.arc_count):
            assert len(g.inverse_set(a)) == 1
            (b,) = g.inverse_set(a)
            assert a in g.inverse_set(b)


def test_phi_pairs_fixture_order():
    d = fixture_digraph("paper-digraph")
    pairs = d.phi_pairs()
    assert [(p.u, p.v) for p in pairs] == [(0, 0), (0, 1), (0, 2), (1, 2)]
    diag = pairs[0]
    assert diag.arcs_uv == (0, 1) and diag.arcs_vu == (0, 1)
    assert pairs[1].arcs_uv == (2, 3) and pairs[1].arcs_vu == (4, 5)


def test_phi_pairs_single_loop():
    d = build_digraph(2, [(1, 1)])
    assert [(p.u, p.v) for p in d.phi_pairs()] == [(1, 1)]


def test_phi_grouped_arc_order_covers_all_arcs():
    d = fixture_digraph("paper-digraph")
    order = phi_grouped_arc_order(d)
    assert sorted(order) == list(range(10))
    assert order == (0, 1, 2, 3, 4, 5, 8, 9, 6, 7)


def test_out_arcs_follow_arc_order():
    d = build_digraph(3, [(1, 0), (0, 2), (1, 1), (0, 0), (1, 2)])
    assert [d.out_arcs(v) for v in range(3)] == [(1, 3), (0, 2, 4), ()]


def test_closed_paths_triangle():
    g = fixture_digraph("triangle")
    assert len(closed_paths(g, 2)) == 6  # each arc followed by its partner
    assert len(closed_paths(g, 3)) == 6  # two directed triangles, three rotations each


def test_closed_paths_length_one_is_loops():
    d = build_digraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert sorted(closed_paths(d, 1)) == [(0,), (3,)]


def test_closed_path_count_equals_adjacency_trace(rng):
    for _ in range(6):
        d = random_digraph(rng, 4, 8)
        b = arc_adjacency(d)
        for k in range(1, 9):
            assert len(closed_paths(d, k)) == trace_power(b, k)


def test_prime_cycles_triangle():
    g = fixture_digraph("triangle")
    cycles = prime_cycles(g, 3)
    lengths = sorted(len(c) for c in cycles)
    assert lengths == [2, 2, 2, 3, 3]


def test_prime_cycles_single_loop():
    d = build_digraph(1, [(0, 0)])
    assert prime_cycles(d, 5) == [(0,)]


def test_prime_cycles_fixture_length_one():
    d = fixture_digraph("paper-digraph")
    assert prime_cycles(d, 1) == [(0,), (1,)]


def test_prime_cycles_are_canonical_nonpower_representatives(rng):
    for _ in range(8):
        d = random_digraph(rng, 4, 8)
        for rep in prime_cycles(d, 6):
            k = len(rep)
            rotations = {rep[i:] + rep[:i] for i in range(k)}
            assert rep == min(rotations)
            assert all(
                any(rep[i] != rep[(i + step) % k] for i in range(k))
                for step in range(1, k)
                if k % step == 0
            )


# Closed paths enumerated by the brute-force checks below, summed over lengths.
CLOSED_PATH_BUDGET = 20_000


def budget_length(d, max_len):
    """The largest L <= max_len whose closed paths of lengths 1..L fit the budget."""
    b = arc_adjacency(d)
    total = 0
    for k in range(1, max_len + 1):
        total += trace_power(b, k)
        if total > CLOSED_PATH_BUDGET:
            return k - 1
    return max_len


def least_rotation(seq):
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def is_proper_power(seq):
    k = len(seq)
    return any(k % step == 0 and seq == seq[step:] + seq[:step] for step in range(1, k))


def brute_force_prime_cycles(d, max_len):
    """Least-rotation representatives of the non-power closed paths."""
    return {
        least_rotation(path)
        for k in range(1, max_len + 1)
        for path in closed_paths(d, k)
        if not is_proper_power(path)
    }


def test_closed_paths_decompose_into_prime_cycle_powers(rng):
    # X_k is reconstructed exactly from powers of prime representatives, in
    # both modes, with loops and parallel arcs
    graphs = [random_digraph(rng, 4, 10) for _ in range(8)]
    graphs += [random_multigraph(rng, 4, 5) for _ in range(8)]
    graphs += [build_digraph(2, [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 1)])]
    graphs += [symmetric_digraph(2, [(0, 0), (0, 1), (0, 1), (1, 1)])]
    for d in graphs:
        max_len = budget_length(d, 8)
        reps = prime_cycles(d, max_len)
        for k in range(1, max_len + 1):
            expected = Counter(closed_paths(d, k))
            rebuilt = Counter()
            for rep in reps:
                ell = len(rep)
                if k % ell:
                    continue
                seq = rep * (k // ell)
                for i in range(ell):
                    rebuilt[seq[i:] + seq[:i]] += 1
            assert rebuilt == expected


@st.composite
def multidigraphs(draw):
    """A digraph with up to 10 arcs or a multigraph with up to 5 edges (10
    arcs) on up to 4 vertices; loops and repeated pairs allowed."""
    nv = draw(st.integers(1, 4))
    graph_mode = draw(st.booleans())
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    pairs = draw(st.lists(pair, max_size=5 if graph_mode else 10))
    return symmetric_digraph(nv, pairs) if graph_mode else build_digraph(nv, pairs)


@settings(max_examples=80, deadline=None)
@given(multidigraphs(), st.integers(1, 8))
def test_prime_cycles_match_brute_force(d, max_len):
    max_len = budget_length(d, max_len)
    reps = prime_cycles(d, max_len)
    assert len(reps) == len(set(reps))
    assert set(reps) == brute_force_prime_cycles(d, max_len)


def test_closed_paths_rejects_nonpositive_length():
    d = build_digraph(1, [(0, 0)])
    with pytest.raises(GraphError):
        closed_paths(d, 0)
    with pytest.raises(GraphError):
        prime_cycles(d, 0)


def test_symmetric_mode_guards():
    d = build_digraph(2, [(0, 1)])
    with pytest.raises(GraphError):
        d.partner(0)
    with pytest.raises(GraphError):
        _ = d.edge_count
