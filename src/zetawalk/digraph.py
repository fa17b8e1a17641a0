"""Finite multi-digraphs and symmetric digraphs of multigraphs.

Two construction modes determine the inverse relation on arcs:

* a general digraph: the inverses of an arc are *all* arcs running in the
  opposite direction between its endpoints, and a loop is one of its own
  inverses;
* the symmetric digraph of a (multi)graph: every edge contributes a pair of
  opposite arcs, and each arc's unique inverse is its edge partner.  A loop
  edge still contributes two distinct arcs, paired with each other, so
  neither loop arc is its own inverse.

Arc a runs from ``tails[a]`` to ``heads[a]``: ids follow construction order
and index every matrix built on top of the digraph; no implicit reordering
ever happens.  In symmetric mode edge i gives arcs 2i and 2i+1, so the
partner of arc a is ``a ^ 1``.  Closed paths are arc sequences with
cyclically matching heads and tails (arcs may repeat);
prime cycles are rotation classes of closed paths that are not proper powers
of shorter closed paths, represented by their lexicographically least
rotation.  Those representatives are exactly the Lyndon words over the arc
ids that are closed paths, i.e. the Lyndon words of the arc graph.
``lyndon_cycles`` generates them directly with the
Fredricksen-Kessler-Maiorana prenecklace walk (Ruskey, Savage and Wang,
"Generating necklaces", 1992) on the nonzero pattern of a square matrix,
iteratively, on an explicit stack.  At its last length the walk lists no
word: for each prefix one length short it yields the total product of the
prefix's Lyndon closings, found by one bisect into per-arc suffix sums.
``zeta``'s Euler product runs it on the integer theta matrix, where a cycle
whose product is 0 is never reached, and needs only per-length totals past
half its order.  ``iter_prime_cycles`` runs it one length further on the 0/1
arc-adjacency matrix and drops that length.  Other closed paths are never
listed: ``zeta`` sums their products on the theta matrix without walking
them, and the brute-force enumeration the tests compare against is in
``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate


class GraphMode(Enum):
    GENERAL = "digraph"
    SYMMETRIC = "graph"


class GraphError(ValueError):
    """Invalid graph construction or query."""


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
    """Immutable multi-digraph: arc a runs from ``tails[a]`` to ``heads[a]``;
    in symmetric mode arc a ^ 1 must reverse arc a."""

    def __init__(self, vertex_count, tails, heads, mode):
        if vertex_count < 0:
            raise GraphError("vertex count must be nonnegative")
        self.vertex_count = vertex_count
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.mode = mode
        if len(self.tails) != len(self.heads):
            raise GraphError(f"{len(self.tails)} tails but {len(self.heads)} heads")
        out = [[] for _ in range(vertex_count)]
        between = {}
        for a, key in enumerate(zip(self.tails, self.heads)):
            if not (0 <= key[0] < vertex_count and 0 <= key[1] < vertex_count):
                raise GraphError(f"arc {a} endpoints {key} out of range for {vertex_count} vertices")
            out[key[0]].append(a)
            between.setdefault(key, []).append(a)
        if mode is GraphMode.SYMMETRIC and (
            len(self.tails) % 2 or self.heads[::2] != self.tails[1::2] or self.heads[1::2] != self.tails[::2]
        ):
            raise GraphError("symmetric mode needs reversed arc pairs: arc a ^ 1 reverses arc a")
        self._out = tuple(map(tuple, out))
        self._between = {k: tuple(v) for k, v in between.items()}

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    @property
    def edge_count(self) -> int:
        if self.mode is not GraphMode.SYMMETRIC:
            raise GraphError("edge count is defined for symmetric digraphs only")
        return len(self.tails) // 2

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
        return arc_id ^ 1

    def inverse_set(self, arc_id) -> frozenset[int]:
        """Arc ids that are inverses of the given arc, per the mode."""
        if self.mode is GraphMode.SYMMETRIC:
            return frozenset((arc_id ^ 1,))
        return frozenset(self.arcs_between(self.heads[arc_id], self.tails[arc_id]))

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
    arcs = list(arc_list)
    return Digraph(vertex_count, [t for t, _ in arcs], [h for _, h in arcs], GraphMode.GENERAL)

def symmetric_digraph(vertex_count, edge_list) -> Digraph:
    """Symmetric digraph of a multigraph given as unordered (u, v) pairs.

    Edge i contributes arc 2i = (u, v) and arc 2i+1 = (v, u), paired with
    each other.  Loops and repeated edges are allowed.
    """
    edges = list(edge_list)
    tails = [x for u, v in edges for x in (u, v)]
    heads = [x for u, v in edges for x in (v, u)]
    return Digraph(vertex_count, tails, heads, GraphMode.SYMMETRIC)


def arc_adjacency(d: Digraph) -> list[list[int]]:
    """0/1 arc-adjacency matrix B with B[a][b] = 1 iff head(a) = tail(b)."""
    n = d.arc_count
    b = [[0] * n for _ in range(n)]
    for a, head in enumerate(d.heads):
        for nxt in d.out_arcs(head):
            b[a][nxt] = 1
    return b


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The ascending predecessor lists of the successor lists ``succ``."""
    preds = [[] for _ in succ]
    for a, row in enumerate(succ):
        for b in row:
            preds[b].append(a)
    return preds


def steps_to(preds: list[list[int]], s: int, cap: int) -> list[int]:
    """Fewest transitions (at least one) from each arc to arc s through arcs
    >= s, by a breadth-first search back from s over the predecessor lists
    ``preds``; cap + 1 where more than cap are needed."""
    steps = [cap + 1] * len(preds)
    frontier = [s]
    for k in range(1, cap + 1):
        reached = []
        for b in frontier:
            for a in preds[b]:
                if a >= s and steps[a] > cap:
                    steps[a] = k
                    reached.append(a)
        if not reached:
            break
        frontier = reached
    return steps


def lyndon_cycles(m: list[list[int]], max_len: int):
    """Yield ``(word, k, c)`` for each Lyndon closed path of nonzero entries
    of the square matrix ``m``, of length k < max_len, and one
    ``(word, max_len, c)`` for each prefix of the Lyndon closed paths of
    length max_len, with c their total.

    ``word`` is the walk's own buffer, valid until the next step.  For
    k < max_len, ``word[:k]`` holds the arc ids and c is the circular
    product m[w0][w1] ... m[w_{k-1}][w0], which is nonzero.  At k = max_len,
    ``word[:max_len - 1]`` holds a prefix and c, which is nonzero, is the
    total of the circular products of its Lyndon closings.

    The Fredricksen-Kessler-Maiorana walk extends a prenecklace ``w`` of
    length t and period p by each x with m[w[t-1]][x] != 0 and
    x >= w[t - p]; the period stays p when x == w[t - p] and becomes t + 1
    otherwise, and ``w + x`` is Lyndon when the period equals the new
    length.  Every prefix of a Lyndon closed path with nonzero entries is
    such a prenecklace, so the walk reaches each one exactly once while it
    follows nonzero entries only.  The product of the prefix is carried
    down the walk, which runs on an explicit stack: a branch per depth, at
    most max_len - 2 deep.  The last level is summed, not walked: a prefix
    of length max_len - 1 with period q, ending at arc a, closes to a
    Lyndon word on exactly the successors x > w[max_len - 1 - q] of a with
    m[x][s] != 0, s = w[0].  So per start arc s, the suffix sums of
    m[a][x] m[x][s] over each ascending successor list give the closings'
    total by one bisect and one lookup.  At max_len 1 the last level is the
    loop at s, and at max_len 2 it closes the one-letter prefix s.
    """
    if max_len < 1:
        raise GraphError("cycle length bound must be >= 1")
    # ascending successor ids, so bisect finds the first x >= w[t - p] and
    # the first x > w[max_len - 1 - q]
    succ = [[b for b, v in enumerate(row) if v] for row in m]
    entries = [[(b, v) for b, v in enumerate(row) if v] for row in m]
    preds = predecessors(succ)
    last = max_len - 1
    word = [0] * max_len
    for s, row in enumerate(m):
        word[0] = s
        if row[s]:
            yield word, 1, row[s]
        if not last:
            continue
        # the letters of a Lyndon word that starts at s are all >= s; a
        # prefix of length t + 1 ending at x closes within max_len only if
        # t + dist[x] <= max_len
        dist = steps_to(preds, s, last)
        # closing[a][i]: the total of m[a][x] m[x][s] over the successors x
        # of a from succ[a][i] on, for the arcs a that reach s in two steps
        closing = {
            a: list(accumulate(reversed([v * m[x][s] for x, v in entries[a]]), initial=0))[::-1]
            for a in range(s, len(m))
            if dist[a] <= 2
        }
        if last == 1:
            total = closing[s][bisect_right(succ[s], s)]
            if total:
                yield word, max_len, total
            continue
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
                if t + 1 < last:
                    i = bisect_left(succ[x], word[t + 1 - q])
                    stack.append((t + 1, q, pv, iter(entries[x][i:])))
                    break
                total = closing[x][bisect_right(succ[x], word[last - q])]
                if total:
                    yield word, max_len, pv * total
            else:
                stack.pop()


def iter_prime_cycles(d: Digraph, max_len: int):
    """Yield canonical prime-cycle representatives of length <= max_len.

    A representative is the lexicographically least rotation of its class,
    which for a class that is not a proper power is a Lyndon word over the
    arc ids: ``lyndon_cycles`` on the 0/1 arc-adjacency matrix.  That walk
    sums its last length instead of listing it, so it runs to max_len + 1
    and the totals of that length are dropped.
    """
    if max_len < 1:
        raise GraphError("cycle length bound must be >= 1")
    for word, k, _ in lyndon_cycles(arc_adjacency(d), max_len + 1):
        if k <= max_len:
            yield tuple(word[:k])
