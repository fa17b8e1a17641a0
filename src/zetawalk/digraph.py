"""Finite multi-digraphs and symmetric digraphs of multigraphs.

Two construction modes determine the inverse relation on arcs:

* a general digraph: the inverses of an arc are *all* arcs running in the
  opposite direction between its endpoints, and a loop is one of its own
  inverses;
* the symmetric digraph of a (multi)graph: every edge contributes a pair of
  opposite arcs, and each arc's unique inverse is its edge partner.  A loop
  edge still contributes two distinct arcs, paired with each other, so
  neither loop arc is its own inverse.

Arc ids are assigned in construction order and index every matrix built on
top of the digraph; no implicit reordering ever happens.  Closed paths are
arc sequences with cyclically matching heads and tails (arcs may repeat);
prime cycles are rotation classes of closed paths that are not proper powers
of shorter closed paths, represented by their lexicographically least
rotation.  Those representatives are exactly the Lyndon words over the arc
ids that are closed paths, i.e. the Lyndon words of the arc graph.
``lyndon_cycles`` generates them directly with the
Fredricksen-Kessler-Maiorana prenecklace walk (Ruskey, Savage and Wang,
"Generating necklaces", 1992) on the nonzero pattern of a square matrix,
iteratively, on an explicit stack.  ``iter_prime_cycles`` runs it on the 0/1
arc-adjacency matrix, and ``zeta``'s Euler product on the integer theta
matrix, where a cycle whose product is 0 is never reached.  Closed paths
themselves are walked only inside ``zeta``, on the theta matrix; the
brute-force enumeration the tests compare against is in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum


class GraphMode(Enum):
    GENERAL = "digraph"
    SYMMETRIC = "graph"


class GraphError(ValueError):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class Arc:
    id: int
    tail: int
    head: int


@dataclass(frozen=True)
class PhiPair:
    """Unordered vertex pair (u <= v) joined by at least one arc."""

    u: int
    v: int
    arcs_uv: tuple[int, ...]
    arcs_vu: tuple[int, ...]

    @property
    def is_diagonal(self) -> bool:
        return self.u == self.v


class Digraph:
    """Immutable multi-digraph with a fixed arc order and inverse mode."""

    def __init__(self, vertex_count, arcs, mode, pairing=None):
        if vertex_count < 0:
            raise GraphError("vertex count must be nonnegative")
        self.vertex_count = vertex_count
        self.arcs = tuple(arcs)
        self.mode = mode
        for a in self.arcs:
            if not (0 <= a.tail < vertex_count and 0 <= a.head < vertex_count):
                raise GraphError(
                    f"arc {a.id} endpoints ({a.tail}, {a.head}) out of range "
                    f"for {vertex_count} vertices"
                )
        if mode is GraphMode.SYMMETRIC:
            if pairing is None:
                raise GraphError("symmetric mode requires an arc pairing")
            pairing = tuple(pairing)
            if len(pairing) != len(self.arcs):
                raise GraphError("pairing length must match arc count")
            for a in self.arcs:
                p = pairing[a.id]
                if pairing[p] != a.id or p == a.id:
                    raise GraphError(f"pairing is not a fixed-point-free involution at arc {a.id}")
                b = self.arcs[p]
                if (b.tail, b.head) != (a.head, a.tail):
                    raise GraphError(f"partner of arc {a.id} does not reverse it")
        elif pairing is not None:
            raise GraphError("pairing is only meaningful in symmetric mode")
        self.pairing = pairing
        out = [[] for _ in range(vertex_count)]
        for a in self.arcs:
            out[a.tail].append(a.id)
        self._out = tuple(map(tuple, out))
        between = {}
        for a in self.arcs:
            between.setdefault((a.tail, a.head), []).append(a.id)
        self._between = {k: tuple(v) for k, v in between.items()}

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def edge_count(self) -> int:
        if self.mode is not GraphMode.SYMMETRIC:
            raise GraphError("edge count is defined for symmetric digraphs only")
        return len(self.arcs) // 2

    def arcs_between(self, u, v) -> tuple[int, ...]:
        """Ids of arcs with tail u and head v (the set A_uv)."""
        return self._between.get((u, v), ())

    def out_arcs(self, v) -> tuple[int, ...]:
        return self._out[v]

    def degree(self, v) -> int:
        """Number of arcs with tail v (graph degree, loops counted twice)."""
        return len(self._out[v])

    def partner(self, arc_id) -> int:
        if self.mode is not GraphMode.SYMMETRIC:
            raise GraphError("partner is defined in symmetric mode only")
        return self.pairing[arc_id]

    def inverse_set(self, arc_id) -> frozenset[int]:
        """Arc ids that are inverses of the given arc, per the mode."""
        a = self.arcs[arc_id]
        if self.mode is GraphMode.SYMMETRIC:
            return frozenset((self.pairing[arc_id],))
        return frozenset(self.arcs_between(a.head, a.tail))

    def phi_pairs(self) -> tuple[PhiPair, ...]:
        """Connected vertex pairs (u <= v), in lexicographic order."""
        pairs = []
        seen = set()
        for (u, v) in self._between:
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(
                PhiPair(
                    key[0],
                    key[1],
                    self.arcs_between(key[0], key[1]),
                    self.arcs_between(key[1], key[0]),
                )
            )
        pairs.sort(key=lambda p: (p.u, p.v))
        return tuple(pairs)


def build_digraph(vertex_count, arc_list) -> Digraph:
    """General-mode digraph from (tail, head) pairs; ids follow list order."""
    arcs = [Arc(i, t, h) for i, (t, h) in enumerate(arc_list)]
    return Digraph(vertex_count, arcs, GraphMode.GENERAL)

def symmetric_digraph(vertex_count, edge_list) -> Digraph:
    """Symmetric digraph of a multigraph given as unordered (u, v) pairs.

    Edge i contributes arc 2i = (u, v) and arc 2i+1 = (v, u), paired with
    each other.  Loops and repeated edges are allowed.
    """
    arcs = []
    pairing = []
    for (u, v) in edge_list:
        i = len(arcs)
        arcs.append(Arc(i, u, v))
        arcs.append(Arc(i + 1, v, u))
        pairing.extend((i + 1, i))
    return Digraph(vertex_count, arcs, GraphMode.SYMMETRIC, pairing)


def arc_adjacency(d: Digraph) -> list[list[int]]:
    """0/1 arc-adjacency matrix B with B[a][b] = 1 iff head(a) = tail(b)."""
    n = d.arc_count
    b = [[0] * n for _ in range(n)]
    for a in d.arcs:
        for nxt in d.out_arcs(a.head):
            b[a.id][nxt] = 1
    return b


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The ascending predecessor lists of the successor lists ``succ``."""
    preds = [[] for _ in succ]
    for a, row in enumerate(succ):
        for b in row:
            preds[b].append(a)
    return preds


def steps_to(preds: list[list[int]], s: int, cap: int, floor: int = 0) -> list[int]:
    """Fewest transitions (at least one) from each arc to arc s through arcs
    >= floor, by a breadth-first search back from s over the predecessor
    lists ``preds``; cap + 1 where more than cap are needed."""
    steps = [cap + 1] * len(preds)
    frontier = [s]
    for k in range(1, cap + 1):
        reached = []
        for b in frontier:
            for a in preds[b]:
                if a >= floor and steps[a] > cap:
                    steps[a] = k
                    reached.append(a)
        if not reached:
            break
        frontier = reached
    return steps


def lyndon_cycles(m: list[list[int]], max_len: int):
    """Yield ``(word, k, c)`` for each Lyndon closed path of nonzero entries
    of the square matrix ``m``, of length k <= max_len.

    ``word[:k]`` holds the arc ids (``word`` is the walk's own buffer, valid
    until the next step) and c is the circular product m[w0][w1] ...
    m[w_{k-1}][w0], which is nonzero.  The Fredricksen-Kessler-Maiorana
    walk extends a prenecklace ``w`` of length t and period p by each x
    with m[w[t-1]][x] != 0 and x >= w[t - p]; the period stays p when
    x == w[t - p] and becomes t + 1 otherwise, and ``w + x`` is Lyndon
    when the period equals the new length.  Every prefix of a Lyndon closed
    path with nonzero entries is such a prenecklace, so the walk reaches
    each one exactly once while it follows nonzero entries only.  The
    product of the prefix is carried down the walk, which runs on an
    explicit stack: a branch per depth, at most max_len deep.
    """
    if max_len < 1:
        raise GraphError("cycle length bound must be >= 1")
    # ascending successor ids, so bisect finds the first x >= w[t - p]
    succ = [[b for b, v in enumerate(row) if v] for row in m]
    entries = [[(b, v) for b, v in enumerate(row) if v] for row in m]
    preds = predecessors(succ)
    word = [0] * max_len
    for s, row in enumerate(m):
        word[0] = s
        if row[s]:
            yield word, 1, row[s]
        # the letters of a Lyndon word that starts at s are all >= s; a
        # prefix of length t + 1 ending at x closes within max_len only if
        # t + dist[x] <= max_len
        dist = steps_to(preds, s, max_len - 1, floor=s)
        stack = [(1, 1, 1, iter(entries[s][bisect_left(succ[s], s):]))]
        while stack:
            t, p, prod, branch = stack[-1]
            lower = word[t - p]
            for x, v in branch:
                if t + dist[x] > max_len:
                    continue
                word[t] = x
                pv = prod * v
                if x == lower:
                    q = p
                else:
                    q = t + 1
                    c = m[x][s]
                    if c:
                        yield word, q, pv * c
                if t + 1 < max_len:
                    i = bisect_left(succ[x], word[t + 1 - q])
                    stack.append((t + 1, q, pv, iter(entries[x][i:])))
                    break
            else:
                stack.pop()


def iter_prime_cycles(d: Digraph, max_len: int):
    """Yield canonical prime-cycle representatives of length <= max_len.

    A representative is the lexicographically least rotation of its class,
    which for a class that is not a proper power is a Lyndon word over the
    arc ids: ``lyndon_cycles`` on the 0/1 arc-adjacency matrix.
    """
    for word, k, _ in lyndon_cycles(arc_adjacency(d), max_len):
        yield tuple(word[:k])
