import random
from fractions import Fraction

import pytest

from zetawalk import Digraph, WeightAssignment, build_digraph, symmetric_digraph

from oracles import Matrix


def random_rational(rng, allow_negative=True) -> Fraction:
    nums = [x for x in range(-10, 11) if x] if allow_negative else list(range(1, 11))
    return Fraction(rng.choice(nums), rng.randint(1, 10))


def random_weights(rng, d: Digraph) -> WeightAssignment:
    n = d.arc_count
    return WeightAssignment.from_maps(
        d,
        {i: random_rational(rng) for i in range(n)},
        {i: random_rational(rng) for i in range(n)},
    )


def random_digraph(rng, max_vertices=4, max_arcs=10) -> Digraph:
    nv = rng.randint(1, max_vertices)
    na = rng.randint(1, max_arcs)
    return build_digraph(nv, [(rng.randrange(nv), rng.randrange(nv)) for _ in range(na)])


def random_multigraph(rng, max_vertices=4, max_edges=6) -> Digraph:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(1, max_edges)
    return symmetric_digraph(nv, [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)])


def random_connected_graph(rng, min_vertices=2, max_vertices=6, max_edges=10) -> Digraph:
    """Random connected simple loopless graph: spanning tree plus extra edges."""
    nv = rng.randint(min_vertices, max_vertices)
    edges = set()
    order = list(range(nv))
    rng.shuffle(order)
    for i in range(1, nv):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    candidates = [(u, v) for u in range(nv) for v in range(u + 1, nv) if (u, v) not in edges]
    rng.shuffle(candidates)
    extra = rng.randint(0, max(0, min(max_edges - len(edges), len(candidates))))
    edges.update(candidates[:extra])
    return symmetric_digraph(nv, sorted(edges))


def random_walk_graph(rng, nv) -> Digraph:
    """Random spanning tree plus random edges up to 2 * nv, as in the walk benchmark."""
    edges = {(rng.randrange(v), v) for v in range(1, nv)}
    while len(edges) < min(2 * nv, nv * (nv - 1) // 2):
        edges.add(tuple(sorted(rng.sample(range(nv), 2))))
    return symmetric_digraph(nv, sorted(edges))


def random_probability(rng, g: Digraph) -> dict[int, Fraction]:
    probs = {}
    for v in range(g.vertex_count):
        out = g.out_arcs(v)
        raw = [Fraction(rng.randint(1, 9)) for _ in out]
        total = sum(raw)
        for a, r in zip(out, raw):
            probs[a] = r / total
    return probs


def inversion_inputs():
    """The inputs of the inversion identities in acceptance criterion 5: the
    all-ones (n, k) grid and one seeded (M1, M2) pair per block shape (k, l)."""
    rng = random.Random(505)
    allones = [(n, k) for n in range(1, 9) for k in range(1, 8)]

    def block(rows, cols):
        return Matrix(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(cols)] for _ in range(rows)]
        )

    blocks = [(block(k, ell), block(ell, k)) for k in range(1, 6) for ell in range(1, 6)]
    return allones, blocks


@pytest.fixture
def rng():
    return random.Random(20240817)
