import cmath
import contextlib
import io
import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zetawalk import cli
from zetawalk.digraph import GraphMode, symmetric_digraph
from zetawalk.instances import Instance, fixture_digraph, fixture_instance, instance_digraph, render_instance
from zetawalk.walk import (
    _BLOCK,
    WalkError,
    _sqrt_product,
    eigenvalues_numeric,
    grover_spectrum_via_zeta,
    grover_transition,
    spectrum_deviation,
    szegedy_discriminant,
    szegedy_spectrum_via_factorization,
    szegedy_transition,
    uniform_probability,
    unitarity_defect,
)

from conftest import random_connected_graph, random_probability, random_walk_graph
from oracles import (
    Matrix,
    char_poly_exact,
    sqrt_product,
    unitarity_defect_dense,
    walk_discriminant,
    walk_transition,
)


OMEGA = cmath.exp(2j * math.pi / 3)


def as_fractions(p):
    """p as {arc id: Fraction}, the form the oracles take."""
    return {a: Fraction(x) for a, x in p.items()}


def p3_with_probs():
    inst = fixture_instance("p3")
    return instance_digraph(inst), inst.prob


def test_single_edge_transition_matrix():
    g = symmetric_digraph(2, [(0, 1)])
    u = grover_transition(g)
    assert np.array_equal(u, np.array([[0.0, 1.0], [1.0, 0.0]]))
    us = szegedy_transition(g, {0: 1, 1: 1})
    assert np.array_equal(us, u)


def test_uniform_szegedy_equals_grover_entrywise():
    for name in ("triangle", "c4", "k4", "p3"):
        g = fixture_digraph(name)
        assert np.array_equal(szegedy_transition(g, uniform_probability(g)), grover_transition(g))
    star = symmetric_digraph(4, [(0, 1), (0, 2), (0, 3)])
    assert np.array_equal(szegedy_transition(star, uniform_probability(star)), grover_transition(star))


def test_unitarity_on_fixtures():
    for name in ("triangle", "c4", "k4", "p3"):
        g = fixture_digraph(name)
        assert unitarity_defect(grover_transition(g)) <= 1e-9
    g, p = p3_with_probs()
    assert unitarity_defect(szegedy_transition(g, p)) <= 1e-9


def test_unitarity_defect_conjugates_complex_input():
    # Unitary only with the conjugate: U U^T = [[0, 1j], [1j, 0]].
    assert unitarity_defect(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)) <= 1e-15
    assert unitarity_defect(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1.0
    assert unitarity_defect(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_unitarity_defect_refuses_a_non_square_array(shape):
    with pytest.raises(ValueError, match=re.escape(f"not square: {shape}")):
        unitarity_defect(np.ones(shape))


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 800])
def test_unitarity_defect_is_the_dense_residual(n):
    # An orthogonal or unitary Q (rounding-sized residual), Q with its last
    # row doubled (the largest residual in the last row block) and a random
    # matrix, each real and complex.
    gen = np.random.default_rng(n)
    for draw in (
        lambda: gen.standard_normal((n, n)),
        lambda: gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)),
    ):
        q = np.linalg.qr(draw())[0]
        last = q.copy()
        last[-1:] *= 2.0
        for u in (q, last, draw()):
            assert unitarity_defect(u) == unitarity_defect_dense(u)


def test_triangle_grover_spectrum_frozen():
    g = fixture_digraph("triangle")
    expected = [1, 1, OMEGA, OMEGA, OMEGA.conjugate(), OMEGA.conjugate()]
    assert spectrum_deviation(eigenvalues_numeric(grover_transition(g)), expected) <= 1e-8
    assert spectrum_deviation(grover_spectrum_via_zeta(g), expected) <= 1e-8


def test_c4_grover_spectrum_frozen():
    g = fixture_digraph("c4")
    expected = [1, 1, -1, -1, 1j, 1j, -1j, -1j]
    assert spectrum_deviation(eigenvalues_numeric(grover_transition(g)), expected) <= 1e-8
    assert spectrum_deviation(grover_spectrum_via_zeta(g), expected) <= 1e-8


def test_k4_grover_spectrum_matches_oracle():
    g = fixture_digraph("k4")
    assert g.edge_count - g.vertex_count == 2
    derived = grover_spectrum_via_zeta(g)
    assert len(derived) == 2 * g.edge_count
    assert sum(1 for z in derived if abs(z - 1) < 1e-9) >= 2
    assert sum(1 for z in derived if abs(z + 1) < 1e-9) >= 2
    assert spectrum_deviation(eigenvalues_numeric(grover_transition(g)), derived) <= 1e-8


def test_star_tree_cancellation():
    star = symmetric_digraph(4, [(0, 1), (0, 2), (0, 3)])
    derived = grover_spectrum_via_zeta(star)
    assert len(derived) == 6
    assert spectrum_deviation(eigenvalues_numeric(grover_transition(star)), derived) <= 1e-8


def random_forest(rng):
    """2-4 components of 2-5 vertices each: random spanning trees, some with
    an extra cycle edge, so |V| - |E| ranges over -2..4."""
    edges, nv = [], 0
    for _ in range(rng.randint(2, 4)):
        n = rng.randint(2, 5)
        comp = {(rng.randrange(v), v) for v in range(1, n)}
        if rng.random() < 0.3:
            comp.add(tuple(sorted(rng.sample(range(n), 2))))
        edges += [(nv + u, nv + v) for u, v in sorted(comp)]
        nv += n
    return symmetric_digraph(nv, edges)


def test_forest_spectra_cancel_exact_unit_roots(rng):
    cuts = set()
    for _ in range(40):
        g = random_forest(rng)
        cuts.add(g.vertex_count - g.edge_count)
        p = random_probability(rng, g)
        for u, derived in (
            (grover_transition(g), grover_spectrum_via_zeta(g)),
            (szegedy_transition(g, p), szegedy_spectrum_via_factorization(g, p)),
        ):
            assert len(derived) == 2 * g.edge_count
            assert spectrum_deviation(eigenvalues_numeric(u), derived) <= 1e-8
    assert {2, 3, 4} <= cuts


def test_szegedy_discriminant_symmetric():
    g, p = p3_with_probs()
    t = szegedy_discriminant(g, p)
    assert np.allclose(t, t.T)
    assert abs(t[0, 1] - math.sqrt(1 / 3)) < 1e-12


def test_grover_spectrum_on_unit_circle():
    for name in ("triangle", "c4", "k4"):
        g = fixture_digraph(name)
        for lam in eigenvalues_numeric(grover_transition(g)):
            assert abs(abs(lam) - 1) <= 1e-8


def test_calibration_selects_one_two():
    g, p = p3_with_probs()
    derived = szegedy_spectrum_via_factorization(g, p)
    direct = eigenvalues_numeric(szegedy_transition(g, p))
    assert spectrum_deviation(direct, derived) <= 1e-8


def test_calibration_uniform_reproduces_grover():
    g = fixture_digraph("triangle")
    derived = szegedy_spectrum_via_factorization(g, uniform_probability(g))
    assert spectrum_deviation(derived, grover_spectrum_via_zeta(g)) <= 1e-8


def test_calibration_consistent_on_random_instances(rng):
    for _ in range(8):
        g = random_connected_graph(rng)
        p = random_probability(rng, g)
        derived = szegedy_spectrum_via_factorization(g, p)
        direct = eigenvalues_numeric(szegedy_transition(g, p))
        assert spectrum_deviation(direct, derived) <= 1e-8


def test_grover_factorization_random_instances(rng):
    for _ in range(10):
        g = random_connected_graph(rng)
        dev = spectrum_deviation(
            eigenvalues_numeric(grover_transition(g)), grover_spectrum_via_zeta(g)
        )
        assert dev <= 1e-8


def assert_walk_matches_oracles(g, p):
    """U and T equal the entry-by-entry oracles, and the spectrum read off
    the factorization matches a direct eigensolve of U."""
    probs = as_fractions(p)
    u = szegedy_transition(g, p)
    assert np.array_equal(u, walk_transition(g, probs))
    assert np.array_equal(szegedy_discriminant(g, p), walk_discriminant(g, probs))
    assert unitarity_defect(u) <= 1e-12
    assert spectrum_deviation(eigenvalues_numeric(u), szegedy_spectrum_via_factorization(g, p)) <= 1e-8


def test_walk_on_loops_and_multiedges(rng):
    # the paper graph has a loop at 0 and a double edge 0-1
    for g in (fixture_digraph("paper-graph"), symmetric_digraph(2, [(0, 1), (0, 1)])):
        assert np.array_equal(grover_transition(g), walk_transition(g, uniform_probability(g)))
        dev = spectrum_deviation(eigenvalues_numeric(grover_transition(g)), grover_spectrum_via_zeta(g))
        assert dev <= 1e-12
        assert_walk_matches_oracles(g, random_probability(rng, g))
    digraph_mode = fixture_digraph("paper-digraph")
    with pytest.raises(WalkError, match="symmetric"):
        grover_transition(digraph_mode)


def test_walk_rejects_isolated_vertex():
    g = symmetric_digraph(3, [(0, 1)])
    with pytest.raises(WalkError, match="degree"):
        grover_transition(g)


SZEGEDY_ENTRIES = (szegedy_transition, szegedy_discriminant, szegedy_spectrum_via_factorization)


@pytest.mark.parametrize("call", SZEGEDY_ENTRIES)
def test_probability_validation_errors(call):
    g = symmetric_digraph(2, [(0, 1)])
    with pytest.raises(WalkError, match="missing probability"):
        call(g, {0: Fraction(1)})
    with pytest.raises(WalkError, match="outside"):
        call(g, {0: Fraction(3, 2), 1: Fraction(1)})
    tri = fixture_digraph("triangle")
    probs = uniform_probability(tri)
    probs[0] = Fraction(1, 3)
    with pytest.raises(WalkError, match="vertex 0"):
        call(tri, probs)


def test_probability_for_an_unknown_arc_id_is_refused():
    # as WeightAssignment.from_maps refuses a weight for an unknown arc id
    g = symmetric_digraph(2, [(0, 1)])
    for key, value in ((7, Fraction(1, 2)), (-1, 3)):
        p = {0: 1, 1: 1, key: value}
        for call in SZEGEDY_ENTRIES:
            with pytest.raises(WalkError, match=f"^probability for unknown arc id {key}$"):
                call(g, p)


@pytest.mark.parametrize("call", SZEGEDY_ENTRIES)
def test_probability_floats_raise_type_error(call):
    tri = fixture_digraph("triangle")
    split = {}
    for v in range(tri.vertex_count):
        first, second = tri.out_arcs(v)
        split[first], split[second] = 0.9, 0.1
    with pytest.raises(TypeError, match="not an exact rational"):
        call(tri, split)
    # the binary values of 0.9 and 0.1, made exact, do not sum to 1
    with pytest.raises(WalkError, match="sum to"):
        call(tri, as_fractions(split))


def test_spectrum_deviation_requires_equal_sizes():
    with pytest.raises(WalkError, match="sizes"):
        spectrum_deviation([1.0], [1.0, -1.0])
    assert spectrum_deviation([], []) == 0.0


def test_spectrum_deviation_is_the_bottleneck_distance():
    # The min-sum matching pairs 0-1 and 3-(1+2.9j), for 3.52; the bottleneck
    # matching 0-(1+2.9j), 3-1 has the smaller largest distance.
    deviation = spectrum_deviation([0, 3], [1, 1 + 2.9j])
    assert deviation == pytest.approx(abs(0 - (1 + 2.9j)), rel=1e-15)
    assert deviation == pytest.approx(3.0676, abs=1e-4)


def test_spectrum_deviation_searches_past_the_lower_bound():
    # Every element is within 1 of some partner, but 10 must take 9 or 11,
    # and then 0 or 0.01 must take the other.
    assert spectrum_deviation([0, 0.01, 10], [0.005, 9, 11]) == 9 - 0.01


def test_spectrum_deviation_of_non_finite_spectra_is_inf():
    nan, inf = math.nan, math.inf
    for s1, s2 in (([0, nan], [1, 2]), ([0, 1], [complex(1, inf), 2]), ([-inf, 0], [inf, 0])):
        assert spectrum_deviation(s1, s2) == inf
        assert spectrum_deviation(s2, s1) == inf


def _draw(rng, grid) -> complex:
    """Half the time a grid value, so that values repeat and distances tie exactly."""
    if rng.random() < 0.5:
        return rng.choice(grid)
    return complex(rng.gauss(0, 1), rng.gauss(0, 1))


def _distances(s1, s2) -> np.ndarray:
    return np.abs(np.asarray(s1, dtype=complex)[:, None] - np.asarray(s2, dtype=complex)[None, :])


def test_spectrum_deviation_is_the_brute_force_bottleneck(rng):
    for _ in range(200):
        grid = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        n = rng.randint(1, 6)
        s1 = [_draw(rng, grid) for _ in range(n)]
        s2 = [_draw(rng, grid) for _ in range(n)]
        cost = _distances(s1, s2)
        brute = min(max(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
        assert spectrum_deviation(s1, s2) == brute, (s1, s2)


def test_spectrum_deviation_matches_a_networkx_matching_oracle(rng):
    # At 30 points, too many for brute force: the smallest distance whose
    # threshold graph has a perfect Hopcroft-Karp matching in networkx.
    import networkx as nx

    n = 30
    for _ in range(6):
        grid = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
        s1 = [_draw(rng, grid) for _ in range(n)]
        s2 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        cost = _distances(s1, s2)

        def perfect(t):
            g = nx.Graph()
            g.add_nodes_from(range(2 * n))
            g.add_edges_from((i, n + j) for i, j in zip(*np.nonzero(cost <= t)))
            return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=range(n))) == 2 * n

        thresholds = np.unique(cost)
        lo, hi = -1, thresholds.size - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if perfect(thresholds[mid]) else (mid, hi)
        assert spectrum_deviation(s1, s2) == thresholds[hi]


def _best_of_two(f, *args) -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        f(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def test_spectrum_deviation_on_mismatched_spectra_costs_less_than_an_eigensolve():
    n = 800
    gen = np.random.default_rng(0)
    eigensolve = _best_of_two(np.linalg.eigvals, gen.standard_normal((n, n)))
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    step = 2 * math.pi / n
    cases = (
        (circle * np.exp(0.3j), abs(1 - cmath.exp(1j * (0.3 - 38 * step)))),
        (np.exp(2j * np.pi * gen.random(n)), None),
        (np.repeat([1.0, -1.0], n // 2), math.sqrt(2)),
    )
    for other, expected in cases:
        if expected is not None:
            assert spectrum_deviation(circle, other) == pytest.approx(expected, rel=1e-9)
        elapsed = _best_of_two(spectrum_deviation, circle, other)
        assert elapsed <= eigensolve, (expected, elapsed, eigensolve)


def _traced_peak(f, *args) -> int:
    """The peak of the bytes traced while f(*args) runs; numpy reports its
    array buffers to tracemalloc, LAPACK's own work arrays it does not."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unitarity_defect_holds_one_n_by_n_array():
    n = 800
    u = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
    assert _traced_peak(unitarity_defect, u) <= 1.25 * n * n * 8


def test_spectrum_deviation_holds_one_n_by_n_array_when_the_lower_bound_is_the_answer():
    n = 800
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    for other in (circle * np.exp(1e-12j), circle * np.exp(0.3j)):
        assert _traced_peak(spectrum_deviation, circle, other) <= 1.5 * n * n * 8


def test_spectrum_deviation_holds_two_n_by_n_arrays_on_a_mismatch():
    n = 800
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    other = np.exp(2j * np.pi * np.random.default_rng(0).random(n))
    assert spectrum_deviation(circle, other) > 0.1
    assert _traced_peak(spectrum_deviation, circle, other) <= 2.5 * n * n * 8


@pytest.mark.parametrize("walk", ["grover", "szegedy"])
def test_spectrum_call_holds_u_and_one_more_n_by_n_array(tmp_path, rng, walk):
    # 200 vertices and 400 edges: U is 800 x 800, as in the largest
    # walk-spectrum cases.  Beside U, the defect holds the Gram matrix and
    # the deviation its distance matrix, never both.
    g = random_walk_graph(rng, 200)
    n = g.arc_count
    assert n == 800
    edges = tuple(zip(g.tails[::2], g.heads[::2]))
    inst = Instance(GraphMode.SYMMETRIC, 200, edges, prob=random_probability(rng, g))
    path = tmp_path / "walk.zw"
    path.write_text(render_instance(inst), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        peak = _traced_peak(cli.main, ["spectrum", str(path), walk])
    assert "VERDICT spectrum agree" in out.getvalue()
    assert peak <= 2.5 * n * n * 8


def test_zeta_edge_matrix_bridges_to_grover_walk():
    # with tau1 = 1 and tau2(a) = 2/deg(tail(a)), the theta edge matrix is
    # the transposed Grover transition, so the reversed Hashimoto polynomial
    # is the walk's characteristic polynomial
    from zetawalk.zeta import WeightAssignment, edge_matrix, hashimoto

    for name in ("k4", "p3", "c4"):
        g = fixture_digraph(name)
        tau2 = {a: Fraction(2, g.degree(t)) for a, t in enumerate(g.tails)}
        w = WeightAssignment.from_maps(g, None, tau2)
        n = g.arc_count
        m = Matrix(edge_matrix(g, w))
        u = grover_transition(g)
        as_float = np.array([[float(m[i, j]) for j in range(n)] for i in range(n)])
        assert np.allclose(as_float, u.T, atol=1e-12)
        h = hashimoto(g, w)
        reversed_coeffs = np.array([float(c) for c in h.coeffs] + [0.0] * (n + 1 - len(h.coeffs)))
        direct = np.poly(np.array(eigenvalues_numeric(u)))
        assert float(np.max(np.abs(direct - reversed_coeffs))) <= 1e-8


def test_sqrt_product_bit_identical_to_fraction_route():
    # squares before reduction (1/4 * 1/9), only after multiplication
    # (2/9 * 8/9, 1/8 * 1/2) or only as n*d (2/3 * 3/8 = 6/24 = 1/4), and
    # non-squares; _sqrt_product takes (numerator, denominator) pairs
    def root(x, y):
        return _sqrt_product(x.as_integer_ratio(), y.as_integer_ratio())

    grid = sorted({Fraction(a, b) for b in range(1, 13) for a in range(1, b + 1)})
    for x in grid:
        for y in grid:
            assert root(x, y) == sqrt_product(x, y)
    assert root(Fraction(2, 9), Fraction(8, 9)) == 4 / 9
    assert root(Fraction(1, 8), Fraction(1, 2)) == 0.25
    assert root(Fraction(2, 3), Fraction(3, 8)) == 0.5
    assert root(Fraction(1, 3), Fraction(1, 6)) == math.sqrt(1 / 18)


def probability_by_vertex(g, rows):
    """p with the arcs leaving vertex v weighted by rows[v], in out-arc order."""
    return {a: Fraction(x) for v, row in enumerate(rows) for a, x in zip(g.out_arcs(v), row)}


def test_walk_matrices_bit_identical_on_square_products():
    k4 = fixture_digraph("k4")
    # out-arcs of 0: to 1, 2, 3; of 1: to 0, 2, 3; of 2: to 0, 1, 3; of 3: to 0, 1, 2
    p = probability_by_vertex(k4, [
        ["2/9", "4/9", "1/3"],   # T[0][1] = sqrt(2/9 * 8/9) = 4/9
        ["8/9", "1/18", "1/18"],
        ["1/8", "1/2", "3/8"],   # U: sqrt(1/8 * 1/2) = 1/4; T[2][3] = sqrt(3/8 * 2/3) = 1/2
        ["1/6", "1/6", "2/3"],
    ])
    probs = as_fractions(p)
    u = szegedy_transition(k4, p)
    assert np.array_equal(u, walk_transition(k4, probs))
    assert np.array_equal(szegedy_discriminant(k4, p), walk_discriminant(k4, probs))
    assert szegedy_discriminant(k4, p)[0, 1] == 4 / 9
    assert szegedy_discriminant(k4, p)[2, 3] == 0.5


def test_walk_matrices_bit_identical_to_oracle(rng):
    graphs = [fixture_digraph(name) for name in ("triangle", "c4", "k4", "p3")]
    graphs += [random_connected_graph(rng, 2, 12, 30) for _ in range(10)]
    graphs += [random_walk_graph(rng, nv) for nv in range(2, 13)]
    cases = [(g, random_probability(rng, g)) for g in graphs]
    # the seeded 200-vertex, 400-edge instance of the CI spectrum step: 800 arcs
    ci_rng = random.Random(1)
    big = random_walk_graph(ci_rng, 200)
    cases.append((big, random_probability(ci_rng, big)))
    for g, p in cases:
        uniform = uniform_probability(g)
        assert np.array_equal(grover_transition(g), walk_transition(g, uniform))
        assert np.array_equal(szegedy_discriminant(g, uniform), walk_discriminant(g, uniform))
        assert np.array_equal(szegedy_transition(g, p), walk_transition(g, p))
        assert np.array_equal(szegedy_discriminant(g, p), walk_discriminant(g, p))


def test_walk_matrices_bit_identical_on_big_rationals():
    # a loop at 0 and a double edge 0-1; the products n*d of two
    # probabilities pass 2^64, so no fixed-width integer route holds them
    g = fixture_digraph("paper-graph")
    x, y = Fraction(3**25, 2**61 - 1), Fraction(5**17, 2**89 - 1)
    u = Fraction(7**14, 11**13)
    z = Fraction(13**11, 17**10)
    p = probability_by_vertex(g, [
        [x, x, y, y, 1 - 2 * x - 2 * y],  # the loop's two arcs, then the double edge
        [u, 4 * u, 1 - 5 * u],  # the double edge, then the edge to 2
        [z, 1 - z],
    ])
    probs = as_fractions(p)
    assert min(a.numerator * b.numerator * a.denominator * b.denominator
               for a in probs.values() for b in probs.values()) > 2**64
    assert_walk_matches_oracles(g, p)
    # exact roots of big squares: x * x on the loop, u * 4u between arcs 3 and 5
    assert szegedy_discriminant(g, p)[0, 0] == 2 * float(x)
    transition = szegedy_transition(g, p)
    assert transition[0, g.partner(1)] == 2 * float(x)
    assert transition[3, g.partner(5)] == 2 * float(2 * u)


def test_walk_on_multi_edge_pairs_and_a_lone_loop(rng):
    # two double edges; then a double edge and a vertex whose only edge is a loop
    for g in (
        symmetric_digraph(4, [(2, 3), (3, 2), (1, 0), (0, 1), (0, 2)]),
        symmetric_digraph(3, [(0, 1), (1, 0), (2, 2)]),
    ):
        assert_walk_matches_oracles(g, uniform_probability(g))
        assert_walk_matches_oracles(g, random_probability(rng, g))


def trees_and_a_multigraph(rng):
    """A disjoint union of 2-4 random trees and a random tree on 1-3
    vertices with a loop and a parallel edge added (a second loop on one
    vertex), vertices relabelled at random, so |V| - |E| = trees - 1 >= 1."""
    edges, nv = [], 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 4)
        edges += [(nv + rng.randrange(v), nv + v) for v in range(1, size)]
        nv += size
    size = rng.randint(1, 3)
    core = [(nv + rng.randrange(v), nv + v) for v in range(1, size)]
    loop = nv + rng.randrange(size)
    edges += core + [(loop, loop)] + [core[0] if core else (loop, loop)]
    nv += size
    label = list(range(nv))
    rng.shuffle(label)
    return symmetric_digraph(nv, [(label[u], label[v]) for u, v in edges])


def test_walk_on_trees_beside_a_multigraph_with_loops(rng):
    # |E| < |V|: the factorization drops one root of the +-1 double roots
    # of each tree, here on a graph that also has loops and parallel edges
    for _ in range(20):
        g = trees_and_a_multigraph(rng)
        assert g.edge_count < g.vertex_count
        assert_walk_matches_oracles(g, uniform_probability(g))
        assert_walk_matches_oracles(g, random_probability(rng, g))


def test_eigenvalues_swap():
    vals = sorted(eigenvalues_numeric([[0, 1], [1, 0]]), key=lambda z: z.real)
    assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12


def test_eigenvalues_diagonal():
    vals = sorted(v.real for v in eigenvalues_numeric([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    assert np.allclose(vals, [2, 3, 5], atol=1e-12)


def test_eigenvalues_match_char_poly_roots(rng):
    m = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(5)] for _ in range(5)])
    chi = char_poly_exact(m)
    roots = np.roots([float(c) for c in reversed(chi.coeffs)])
    direct = eigenvalues_numeric(m.data)
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    direct = sorted(direct, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(roots, direct)) < 1e-8


def test_eigenvalues_requires_square():
    # a flat list and a ragged one are refused by shape
    for m in ([[1, 2, 3], [4, 5, 6]], [1, 2], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            eigenvalues_numeric(m)
    # an empty array has eigenvalues only when it is 0 x 0 (or [])
    for empty in (np.zeros((0, 3)), np.zeros(0)[:, None], [[]], np.zeros((0, 0, 0))):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_numeric(empty)
    assert eigenvalues_numeric(np.zeros((0, 0))) == []
    assert eigenvalues_numeric([]) == []


def test_eigenvalues_real_input_reaches_lapack_as_float64(monkeypatch):
    seen = []
    eigvals = np.linalg.eigvals

    def recording(a):
        seen.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    u = grover_transition(fixture_digraph("k4"))
    eigenvalues_numeric(u)
    eigenvalues_numeric([[0, 1], [1, 0]])
    eigenvalues_numeric([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert seen == [np.float64] * 3
    eigenvalues_numeric([[0, 1j], [1, 0]])
    assert seen[-1] == np.complex128


def test_eigenvalues_match_the_complex_route_on_walk_matrices(rng):
    def ordered(values):
        return sorted(values, key=lambda z: (z.real, z.imag))

    for nv in (4, 8, 16, 32, 64):
        g = random_walk_graph(rng, nv)
        for u in (grover_transition(g), szegedy_transition(g, random_probability(rng, g))):
            vals = eigenvalues_numeric(u)
            assert spectrum_deviation(vals, np.linalg.eigvals(u.astype(complex))) <= 1e-12
            # dgeev returns exact conjugate pairs and real eigenvalues with imaginary part 0
            assert ordered(vals) == ordered(z.conjugate() for z in vals)
