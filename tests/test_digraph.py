import bisect
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetawalk import digraph, zeta
from zetawalk.digraph import (
    Digraph,
    GraphError,
    GraphMode,
    arc_adjacency,
    build_digraph,
    iter_prime_cycles,
    lyndon_cycles,
    symmetric_digraph,
)
from zetawalk.instances import fixture_digraph

from conftest import random_digraph, random_multigraph
from oracles import closed_paths, lyndon_closed_paths, phi_grouped_arc_order, prime_cycle_representatives


def prime_cycles(d, max_len):
    """The representatives ``iter_prime_cycles`` yields, sorted by (length, arcs)."""
    return sorted(iter_prime_cycles(d, max_len), key=lambda s: (len(s), s))


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
    assert d.tails == (0, 1, 2) and d.heads == (1, 2, 0)


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
    assert g.tails == g.heads == (0, 0)
    assert g.partner(0) == 1
    assert g.inverse_set(0) == {1}  # a loop arc is NOT its own inverse in graph mode
    assert 0 not in g.inverse_set(0)


def test_arcs_are_indices_into_tails_and_heads():
    # a loop and a double edge: partners are a ^ 1, parallel arcs stay apart
    g = symmetric_digraph(3, [(0, 0), (0, 1), (0, 1), (2, 1)])
    assert g.tails == (0, 0, 0, 1, 0, 1, 2, 1)
    assert g.heads == (0, 0, 1, 0, 1, 0, 1, 2)
    for a in range(g.arc_count):
        assert g.partner(a) == a ^ 1
        assert (g.tails[a ^ 1], g.heads[a ^ 1]) == (g.heads[a], g.tails[a])
        assert g.inverse_set(a) == {a ^ 1}
    assert g.arcs_between(0, 1) == (2, 4)
    assert g.out_arcs(0) == (0, 1, 2, 4)
    d = build_digraph(2, [(0, 1), (0, 1), (1, 0), (1, 1)])
    assert d.tails == (0, 0, 1, 1) and d.heads == (1, 1, 0, 1)
    assert d.inverse_set(0) == {2} and d.inverse_set(3) == {3}


def test_direct_construction_checks_its_arcs():
    same = Digraph(2, (0, 1), (1, 0), GraphMode.SYMMETRIC)
    assert same.tails == symmetric_digraph(2, [(0, 1)]).tails
    for tails, heads in (((0, 1), (1, 1)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 0, 1), (1, 0, 1, 1))):
        with pytest.raises(GraphError, match="reversed arc pairs"):
            Digraph(2, tails, heads, GraphMode.SYMMETRIC)
    with pytest.raises(GraphError, match="2 tails but 1 heads"):
        Digraph(2, (0, 1), (1,), GraphMode.GENERAL)
    with pytest.raises(GraphError, match="arc 1 endpoints"):
        Digraph(2, (0, 2), (1, 0), GraphMode.GENERAL)


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
    assert prime_cycles(d, max_len) == prime_cycle_representatives(d, max_len)


def test_closed_paths_rejects_nonpositive_length():
    d = build_digraph(1, [(0, 0)])
    with pytest.raises(GraphError):
        closed_paths(d, 0)
    with pytest.raises(GraphError):
        prime_cycles(d, 0)


def walk_output(m, max_len, listed):
    """The words ``lyndon_cycles`` lists, with their products, sorted by
    (length, word), and its per-length totals."""
    words, totals = [], {}
    for word, k, c in lyndon_cycles(m, max_len, listed):
        if word is None:
            totals[k] = c
        else:
            words.append((tuple(word[:k]), c))
    return sorted(words, key=lambda wc: (len(wc[0]), wc[0])), totals


def oracle_output(paths, listed):
    """``walk_output`` read off the brute-force ``lyndon_closed_paths``."""
    totals = Counter()
    for word, c in paths:
        if len(word) > listed:
            totals[len(word)] += c
    return [wc for wc in paths if len(wc[0]) <= listed], {k: c for k, c in totals.items() if c}


def test_lyndon_walk_matches_brute_force_words_and_totals(rng):
    # integer matrices with zeros and negative entries, so that totals can
    # cancel; every listed bound from 0 to max_len, so the summed prefix is
    # max_len / 2 or ``listed`` long and every number L of summed lengths
    # from 0 to 6 meets the oracle.  Up to 2 arcs max_len runs to 12, where
    # L = 6 sums tails that restart at s three times (s u s u' s u''); up to
    # 3 arcs it runs to 10.  In the 5-cycle with a chord and a loop, arc 1
    # is four steps from arc 0; in the 7-cycle with a loop at arc 0 it is
    # six steps, and the prefix 0001 reaches it.
    five_cycle = [[0, 2, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0], [0, 1, 0, 0, 3], [1, 0, 0, 0, -2]]
    seven_cycle = [[2 if a == b == 0 else int(b == (a + 1) % 7) for b in range(7)] for a in range(7)]
    cases = [(m, max_len) for m in (five_cycle, seven_cycle) for max_len in range(1, 13)]
    for _ in range(150):
        n = rng.randint(1, 5)
        density = rng.random()
        m = [[rng.choice([-2, -1, 1, 2, 3]) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        cases.append((m, rng.randint(1, 12 if n <= 2 else 10 if n == 3 else 8)))
    for m, max_len in cases:
        paths = lyndon_closed_paths(m, max_len)
        for listed in range(max_len + 1):
            assert walk_output(m, max_len, listed) == oracle_output(paths, listed)


@pytest.mark.parametrize("max_len, listed", [(4, 3), (2, 2), (5, 5)])
def test_lyndon_walk_lists_lengths_up_to_max_len(max_len, listed):
    # listing a length the walk could sum is allowed: the summed prefix
    # then grows to ``listed``
    m = [[1, -2, 0], [3, 0, 1], [1, 1, -1]]
    assert walk_output(m, max_len, listed) == oracle_output(lyndon_closed_paths(m, max_len), listed)


@pytest.mark.parametrize("max_len", range(1, 13))
def test_lyndon_walk_pushes_no_frame_for_the_summed_lengths(monkeypatch, max_len):
    # on one loop the prefixes are 0, 00, 000, ...; the walk looks up one
    # bisect_left for the root and one per frame it pushes, and it pushes
    # the prefixes shorter than stop = max((max_len + 1) // 2, min(2,
    # max_len)) only: every length past stop is summed from a prefix of
    # length stop
    calls = []

    def counting(a, x):
        calls.append(x)
        return bisect.bisect_left(a, x)

    monkeypatch.setattr(digraph, "bisect_left", counting)
    assert walk_output([[1]], max_len, 0) == ([], {1: 1})
    stop = max((max_len + 1) // 2, min(2, max_len))
    assert len(calls) == 1 + max(0, stop - 2)


def test_only_a_walk_that_sums_lengths_builds_suffix_sum_tables(monkeypatch):
    # iter_prime_cycles lists every length (stop == max_len), so it reads no
    # suffix-sum table and builds none; the Euler walk at order 10 sums the
    # five lengths past order/2 off them.  Only the summing bisects right:
    # for the first successor above s of each arc a table row is built for,
    # and for V's terms and the frames' chains, which read the rows
    calls = []

    def counting(a, x):
        calls.append(x)
        return bisect.bisect_right(a, x)

    monkeypatch.setattr(digraph, "bisect_right", counting)
    d = fixture_digraph("paper-graph")
    for max_len, words in ((6, 667), (8, 6952)):
        assert len(prime_cycles(d, max_len)) == words
    assert calls == []
    zeta._euler(zeta._edge_matrix_data(d, zeta.WeightAssignment.from_maps(d)), 10)
    assert calls


@pytest.mark.parametrize("max_len, listed", [(5, -1), (4, 5), (1, 2)])
def test_lyndon_walk_refuses_a_listed_bound_out_of_range(max_len, listed):
    with pytest.raises(GraphError, match="listed must be in"):
        list(lyndon_cycles([[1]], max_len, listed))


def test_symmetric_mode_guards():
    d = build_digraph(2, [(0, 1)])
    with pytest.raises(GraphError):
        d.partner(0)
    with pytest.raises(GraphError):
        _ = d.edge_count
