"""Seeded instance sets for the benchmark workloads.

Each workload is a list of cases: one CLI call on one instance file.  The
program under test sees only the instance files written from these cases.

Every workload draws a fixed number of instances per size class (a
stratified sample).  For ``verify-oracle`` the sample follows the
acceptance-style draw; for ``ihara-exact`` and ``walk-spectrum`` the class
counts are the size mixes the workloads are defined by.

The graphs themselves (vertices and arcs) come from one constant seed,
STRUCTURE_SEED; the run's ``--seed`` draws the weights (tau1/tau2, prob)
and the calling order.  The cost of a call is set mostly by its graph (from
5 ms to 0.9 s in ``verify-oracle``), so a set of graphs redrawn for every
seed moves the run's figures by about a tenth from seed to seed; with the
graphs fixed, a seed changes the work only through the weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

ORDER = 10
# The acceptance suite's enumeration budget: total arc-graph walks of length
# <= ORDER.  `verify` has no budget of its own yet and hangs past it.
WALK_CAP = 250_000
# Seed of the graphs of every set; ``--seed`` draws the rest.
STRUCTURE_SEED = 1

@dataclass(frozen=True)
class Case:
    """One verb call: ``argv`` names the instance file ``file``."""

    id: str
    file: str
    argv: tuple[str, ...]
    size_class: str
    arcs: int
    vertices: int
    closed_walks: int = 0


@dataclass
class WorkloadSet:
    """``once`` runs once per run; a run makes whole passes through ``cases``."""

    name: str
    seed: int
    once: list[Case] = field(default_factory=list)
    cases: list[Case] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # file name -> instance text
    fixtures: dict[str, str] = field(default_factory=dict)  # file name -> fixture name
    draws: int = 0
    over_walk_cap: int = 0


def random_rational(rng: random.Random) -> Fraction:
    """Nonzero p/q with |p| <= 10 and 1 <= q <= 10, as in the acceptance suite."""
    return Fraction(rng.choice([x for x in range(-10, 11) if x]), rng.randint(1, 10))


def instance_text(mode: str, vertices: int, pairs, weights: dict[str, dict]) -> str:
    kind = "arc" if mode == "digraph" else "edge"
    lines = [f"mode {mode}", f"vertices {vertices}"]
    lines += [f"{kind} {i} {a} {b}" for i, (a, b) in enumerate(pairs)]
    for name in ("tau1", "tau2", "prob"):
        for aid, value in sorted(weights.get(name, {}).items()):
            lines.append(f"{name} {aid} {value}")
    return "\n".join(lines) + "\n"


def arc_list(mode: str, pairs) -> list[tuple[int, int]]:
    if mode == "digraph":
        return list(pairs)
    arcs = []
    for u, v in pairs:
        arcs += [(u, v), (v, u)]
    return arcs


def successors(arcs, zero_pairs=frozenset()) -> list[list[int]]:
    """Arc-graph successor lists, leaving out the (a, b) pairs in ``zero_pairs``."""
    n = len(arcs)
    return [
        [b for b in range(n) if arcs[a][1] == arcs[b][0] and (a, b) not in zero_pairs]
        for a in range(n)
    ]


def walk_count(succ, order: int = ORDER, cap: int = WALK_CAP) -> int:
    """All walks of length 1..order in the successor graph ``succ``.

    Stops early, with a count above ``cap``, once the count passes ``cap``.
    """
    vec, total = [1] * len(succ), 0
    for _ in range(order):
        vec = [sum(vec[b] for b in row) for row in succ]
        total += sum(vec)
        if total > cap:
            break
    return total


def closed_walk_count(succ, order: int = ORDER) -> int:
    """Closed walks of length 1..order: the closed paths the enumeration oracles visit."""
    n, closed = len(succ), 0
    for start in range(n):
        row = [0] * n
        row[start] = 1
        for _ in range(order):
            nxt = [0] * n
            for a, count in enumerate(row):
                if count:
                    for b in succ[a]:
                        nxt[b] += count
            row = nxt
            closed += row[start]
    return closed


def _tau_weights(rng, arc_count) -> dict[str, dict]:
    return {
        "tau1": {i: random_rational(rng) for i in range(arc_count)},
        "tau2": {i: random_rational(rng) for i in range(arc_count)},
    }


def _add(ws: WorkloadSet, block, argv_head, argv_tail, text, size_class, arcs, vertices, closed=0):
    case_id = f"c{len(ws.files):04d}"
    file = f"{case_id}.zw"
    ws.files[file] = text
    block.append(Case(case_id, file, (*argv_head, file, *argv_tail), size_class, arcs, vertices, closed))


# verify-oracle: the work of ``verify`` grows with the number of walks its
# closed-path enumeration follows, from about 5 ms below 100 walks to
# 0.2-0.9 s near the cap.  A zero theta entry (tau1(a) tau2(b) = 1 on an
# inverse pair) can halve a call.  Like the acceptance suite, a set holds as
# many digraphs as multigraphs.  For each kind it is a stratified sample of
# the natural draw: VERIFY_POOL * VERIFY_CASES under-cap graphs sorted by
# their walk count, and one graph from each run of VERIFY_POOL neighbours.
VERIFY_CASES = 50  # per kind
VERIFY_POOL = 8
VERIFY_FIXTURES = ("paper-digraph", "paper-graph")
VERIFY_ARGS = ("--order", str(ORDER))


def verify_block(graphs: random.Random, weights: random.Random, ws: WorkloadSet) -> list[Case]:
    """Acceptance-style small instances through ``verify --order 10``.

    Multi-digraphs (<= 4 vertices, <= 10 arcs, loops allowed) and
    multigraphs (<= 4 vertices, <= 6 edges), drawn alternately from
    ``graphs``, with random nonzero rational tau1/tau2 from ``weights``;
    draws over the walk cap are counted in ``over_walk_cap`` and not run.
    """
    size = VERIFY_POOL * VERIFY_CASES
    pools = {"digraph": [], "graph": []}
    while any(len(pool) < size for pool in pools.values()):
        kind = ("digraph", "graph")[ws.draws % 2]
        ws.draws += 1
        nv = graphs.randint(1, 4)
        count = graphs.randint(1, 10 if kind == "digraph" else 6)
        pairs = [(graphs.randrange(nv), graphs.randrange(nv)) for _ in range(count)]
        arcs = arc_list(kind, pairs)
        work = walk_count(successors(arcs))
        if work > WALK_CAP:
            ws.over_walk_cap += 1
            continue
        pool = pools[kind]
        if len(pool) < size:
            pool.append((work, len(pool), nv, pairs, arcs))
    block: list[Case] = []
    for kind, pool in pools.items():
        pool.sort()
        for first in range(0, size, VERIFY_POOL):
            _, _, nv, pairs, arcs = pool[first + graphs.randrange(VERIFY_POOL)]
            text = instance_text(kind, nv, pairs, _tau_weights(weights, len(arcs)))
            closed = closed_walk_count(successors(arcs))
            _add(ws, block, ("verify",), VERIFY_ARGS, text, kind, len(arcs), nv, closed)
    return block


# ihara-exact: (arc count, instances per kind), weighted toward small sizes.
# 14 arcs is the largest class: per-call time grows about 2.5x per 4 arcs
# (a 32-arc simple graph takes ~10 s), and steady quantiles need a few
# hundred distinct instances per run.
IHARA_CLASSES = ((8, 10), (10, 8), (12, 6), (14, 4))


def _simple_graph_pairs(rng, vertices, edges):
    candidates = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    return sorted(rng.sample(candidates, edges))


def ihara_block(graphs: random.Random, weights: random.Random, ws: WorkloadSet) -> list[Case]:
    """Simple graphs and loop-carrying multi-digraphs through ``ihara``."""
    block: list[Case] = []
    for arcs, count in IHARA_CLASSES:
        for _ in range(count):
            edges = arcs // 2
            nv = max(4, (2 * edges + 2) // 3)
            pairs = _simple_graph_pairs(graphs, nv, edges)
            text = instance_text("graph", nv, pairs, _tau_weights(weights, arcs))
            _add(ws, block, ("ihara",), (), text, f"graph-{arcs}", arcs, nv)

            nv = max(2, arcs // 3)
            pairs = [(0, 0)] + [(graphs.randrange(nv), graphs.randrange(nv)) for _ in range(arcs - 1)]
            text = instance_text("digraph", nv, pairs, _tau_weights(weights, arcs))
            _add(ws, block, ("ihara",), (), text, f"digraph-{arcs}", arcs, nv)
    return block


# walk-spectrum: (vertex count, instances); each instance runs both walks.
WALK_CLASSES = (
    (6, 8), (8, 8), (10, 8), (12, 6), (16, 6), (24, 4),
    (32, 3), (48, 3), (64, 3), (100, 2), (200, 1),
)


def connected_graph_pairs(rng, vertices, edges):
    """Random spanning tree plus random extra edges, simple and loopless."""
    order = list(range(vertices))
    rng.shuffle(order)
    chosen = set()
    for i in range(1, vertices):
        u, v = order[rng.randrange(i)], order[i]
        chosen.add((min(u, v), max(u, v)))
    edges = min(edges, vertices * (vertices - 1) // 2)
    while len(chosen) < edges:
        u, v = rng.sample(range(vertices), 2)
        chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def random_probability(rng, vertices, arcs) -> dict[int, Fraction]:
    """Positive rationals summing to 1 over the arcs leaving each vertex."""
    out = [[] for _ in range(vertices)]
    for aid, (tail, _) in enumerate(arcs):
        out[tail].append(aid)
    prob = {}
    for ids in out:
        raw = [rng.randint(1, 9) for _ in ids]
        for aid, r in zip(ids, raw):
            prob[aid] = Fraction(r, sum(raw))
    return prob


def walk_block(graphs: random.Random, weights: random.Random, ws: WorkloadSet) -> list[Case]:
    """Connected simple graphs (about 2V edges) through ``spectrum grover/szegedy``."""
    block: list[Case] = []
    for nv, count in WALK_CLASSES:
        for _ in range(count):
            pairs = connected_graph_pairs(graphs, nv, 2 * nv)
            arcs = arc_list("graph", pairs)
            text = instance_text("graph", nv, pairs, {"prob": random_probability(weights, nv, arcs)})
            for walk in ("grover", "szegedy"):
                _add(ws, block, ("spectrum",), (walk,), text, f"V{nv}", len(arcs), nv)
    return block


# workload -> (block generator, blocks per set).  One pass through a set
# takes 4-8 s today, and every set has >= 100 cases, so that ten of them
# lie beyond p90.
BLOCKS = {
    "verify-oracle": (verify_block, 1),
    "ihara-exact": (ihara_block, 2),
    "walk-spectrum": (walk_block, 1),
}
WORKLOADS = tuple(BLOCKS)


def build(workload: str, seed: int) -> WorkloadSet:
    """The workload's instance set for ``seed``, in calling order.

    The blocks are stratified draws, each in shuffled order.  Their graphs
    come from STRUCTURE_SEED, their weights and order from ``seed``.  The
    verify-oracle set also runs the two paper fixtures at unit weights,
    once per run.
    """
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    draw, blocks = BLOCKS[workload]
    graphs, weights = random.Random(STRUCTURE_SEED), random.Random(seed)
    ws = WorkloadSet(workload, seed)
    if workload == "verify-oracle":
        for name in VERIFY_FIXTURES:
            file = f"{name}.zw"
            ws.fixtures[file] = name
            ws.once.append(Case(name, file, ("verify", file, *VERIFY_ARGS), "fixture", 10, 3))
    for _ in range(blocks):
        block = draw(graphs, weights, ws)
        weights.shuffle(block)
        ws.cases += block
    return ws
