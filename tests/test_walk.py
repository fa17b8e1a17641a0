import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from zetawalk.digraph import symmetric_digraph
from zetawalk.instances import fixture_digraph, fixture_instance, instance_digraph
from zetawalk.linalg import eigenvalues_numeric
from zetawalk.walk import (
    WalkError,
    grover_discriminant,
    grover_spectrum_via_zeta,
    grover_transition,
    spectrum_deviation,
    szegedy_discriminant,
    szegedy_spectrum_via_factorization,
    szegedy_transition,
    uniform_probability,
    unitarity_defect,
    validate_probability,
)

from conftest import random_connected_graph, random_probability


OMEGA = cmath.exp(2j * math.pi / 3)


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


def test_grover_discriminant_row_values():
    g = fixture_digraph("p3")
    t = grover_discriminant(g)
    assert t[0, 1] == 1.0
    assert t[1, 0] == 0.5 and t[1, 2] == 0.5
    assert t[0, 2] == 0.0


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


def test_walk_rejects_loops_and_multiedges():
    with pytest.raises(WalkError, match="loop"):
        grover_transition(fixture_digraph("paper-graph"))
    multi = symmetric_digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(WalkError, match="multi-edge"):
        grover_transition(multi)
    digraph_mode = fixture_digraph("paper-digraph")
    with pytest.raises(WalkError, match="symmetric"):
        grover_transition(digraph_mode)


def test_walk_rejects_isolated_vertex():
    g = symmetric_digraph(3, [(0, 1)])
    with pytest.raises(WalkError, match="degree"):
        grover_transition(g)


def test_probability_validation_errors():
    g = symmetric_digraph(2, [(0, 1)])
    with pytest.raises(WalkError, match="missing probability"):
        validate_probability(g, {0: Fraction(1)})
    with pytest.raises(WalkError, match="outside"):
        validate_probability(g, {0: Fraction(3, 2), 1: Fraction(1)})
    tri = fixture_digraph("triangle")
    probs = uniform_probability(tri)
    probs[0] = Fraction(1, 3)
    with pytest.raises(WalkError, match="vertex 0"):
        validate_probability(tri, probs)


def test_probability_float_inputs_get_tolerance():
    tri = fixture_digraph("triangle")
    split = {}
    for v in range(tri.vertex_count):
        first, second = tri.out_arcs(v)
        split[first], split[second] = 0.9, 0.1
    validate_probability(tri, split)  # 0.9 + 0.1 != 1 exactly in binary
    exact_drift = {a: Fraction(x) for a, x in split.items()}
    with pytest.raises(WalkError, match="sum to"):
        validate_probability(tri, exact_drift)


def test_spectrum_deviation_requires_equal_sizes():
    with pytest.raises(WalkError, match="sizes"):
        spectrum_deviation([1.0], [1.0, -1.0])
    assert spectrum_deviation([], []) == 0.0


def test_zeta_edge_matrix_bridges_to_grover_walk():
    # with tau1 = 1 and tau2(a) = 2/deg(tail(a)), the theta edge matrix is
    # the transposed Grover transition, so the reversed Hashimoto polynomial
    # is the walk's characteristic polynomial
    from zetawalk.zeta import WeightAssignment, edge_matrix, hashimoto

    for name in ("k4", "p3", "c4"):
        g = fixture_digraph(name)
        tau2 = {a.id: Fraction(2, g.degree(a.tail)) for a in g.arcs}
        w = WeightAssignment.from_maps(g, None, tau2)
        n = g.arc_count
        m = edge_matrix(g, w)
        u = grover_transition(g)
        as_float = np.array([[float(m[i, j]) for j in range(n)] for i in range(n)])
        assert np.allclose(as_float, u.T, atol=1e-12)
        h = hashimoto(g, w)
        reversed_coeffs = np.array([float(h.coefficient(i)) for i in range(n + 1)])
        direct = np.poly(np.array(eigenvalues_numeric(u)))
        assert float(np.max(np.abs(direct - reversed_coeffs))) <= 1e-8
