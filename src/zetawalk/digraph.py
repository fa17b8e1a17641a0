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
iteratively, on an explicit stack.  It lists the words up to a bound it
is given and adds the longer ones into one total per length.  The
``SUMMED_LENGTHS`` = 3 lengths after its longest prefix list no word and
push no frame: for each such prefix, bisects into per-arc suffix sums give
the total product of its Lyndon closings at each of the three lengths.
The prefix is max_len - 3 arcs long, but never shorter than the listed
lengths or than 2 arcs, and summed lengths past max_len are dropped.
``zeta``'s Euler product runs it on the integer theta matrix, where a cycle
whose product is 0 is never reached, and lists only the lengths up to half
its order.  ``iter_prime_cycles`` runs it on the 0/1 arc-adjacency matrix
and lists every length.  Other closed paths are never listed: ``zeta``
sums their products on the theta matrix without walking them, and the
brute-force enumeration the tests compare against is in
``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate


# the number of lengths after ``lyndon_cycles``'s longest prefix that it
# sums by lookups, without a frame for their prefixes
SUMMED_LENGTHS = 3


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


def lyndon_cycles(m: list[list[int]], max_len: int, listed: int):
    """Yield ``(word, k, c)`` for each Lyndon closed path of nonzero entries
    of the square matrix ``m``, of length k <= listed, and then one
    ``(None, k, C_k)`` for each length listed < k <= max_len with C_k != 0,
    C_k the total of the circular products of the Lyndon closed paths of
    length k.

    ``word`` is the walk's own buffer, valid until the next step:
    ``word[:k]`` holds the arc ids and c is the circular product
    m[w0][w1] ... m[w_{k-1}][w0], which is nonzero.  ``listed`` is at most
    max_len.

    The Fredricksen-Kessler-Maiorana walk extends a prenecklace ``w`` of
    length t and period p by each x with m[w[t-1]][x] != 0 and
    x >= w[t - p]; the period stays p when x == w[t - p] and becomes t + 1
    otherwise, and ``w + x`` is Lyndon when the period equals the new
    length.  Every prefix of a Lyndon closed path with nonzero entries is
    such a prenecklace, so the walk reaches each one exactly once while it
    follows nonzero entries only.  The product of the prefix is carried
    down the walk, which runs on an explicit stack: a frame per prefix
    shorter than stop = max(max_len - 3, listed, min(2, max_len)).  A
    Lyndon word longer than ``listed`` is added to its length's total where
    the walk closes it.

    The SUMMED_LENGTHS = 3 lengths after a prefix of length stop are
    summed, not walked; those past max_len are dropped.  Per start arc
    s = w[0], closing[a][i] is the total of m[a][y] m[y][s] over the
    successors y of a from succ[a][i] on (suffix sums over each ascending
    successor list); g[y] = closing[y][bisect_right(succ[y], s)] is the
    total of y's closings at two more letters after y starts a new period,
    two[a][i] the total of m[a][y] g[y] over the same successors,
    h[y] = two[y][bisect_right(succ[y], s)] and three[a][i] the total of
    m[a][y] h[y].  Take a prefix w of length stop with period q, ending at
    arc x, with low = w[stop - q] and i = bisect_right(succ[x], low):

    * a successor y > low starts a new period: the Lyndon words of length
      stop + 1 total closing[x][i], those of length stop + 2 through such
      a y total two[x][i], and those of length stop + 3 three[x][i] when z
      after y starts a new period too;
    * z == s after such a y keeps period stop + 1, and w + y + s then
      closes on the u > w[1] only: closing[x][i] after_s with
      after_s = closing[s][bisect_right(succ[s], w[1])], fixed once the
      second letter is placed;
    * y == low, when it is a successor, keeps period q, and w + low then
      closes at stop + 2 on the z > c2 only, with
      c2 = (w + low)[stop + 1 - q]: m[x][low] closing[low][j] with
      j = bisect_right(succ[low], c2), and at stop + 3 through such a z
      m[x][low] two[low][j];
    * z == c2 keeps period q again, and w + low + c2 closes at stop + 3 on
      the u > c3 only, c3 = (w + low + c2)[stop + 2 - q]:
      m[x][low] m[low][c2] closing[c2][bisect_right(succ[c2], c3)].

    c2 and c3 are read off the buffer after low and c2 are written into
    it, so periods 1 and 2 need no case of their own.  The root prefix s
    has length 1 and is always a frame: stop is at least 2 when max_len
    is, and at max_len 1 the root's children cannot close in time, so the
    loop at s is all there is.
    """
    if max_len < 1:
        raise GraphError("cycle length bound must be >= 1")
    if not 0 <= listed <= max_len:
        raise GraphError(f"cannot list lengths up to {listed}: listed must be in 0..{max_len}")
    # ascending successor ids, so bisect finds the first x >= w[t - p] and
    # the first y > low
    succ = [[b for b, v in enumerate(row) if v] for row in m]
    entries = [[(b, v) for b, v in enumerate(row) if v] for row in m]
    preds = predecessors(succ)
    # a prefix this long is summed, not pushed; the root prefix s has
    # length 1, so the summed prefix is at least 2 long
    stop = max(max_len - SUMMED_LENGTHS, listed, min(2, max_len))
    word = [0] * (max_len + 2)  # a summed prefix writes up to word[stop + 1]
    totals = [0] * (max_len + SUMMED_LENGTHS + 1)  # lengths past max_len are dropped
    zeros = [0] * (len(m) + 1)  # the table row of an arc that cannot close in time
    for s, row in enumerate(m):
        word[0] = s
        if row[s]:
            if listed:
                yield word, 1, row[s]
            else:
                totals[1] += row[s]
        # the letters of a Lyndon word that starts at s are all >= s; a
        # prefix of length t + 1 ending at x closes within max_len only if
        # t + dist[x] <= max_len, so a summed prefix ends at dist <= 4, and
        # no word starts at s if s does not return to itself
        dist = steps_to(preds, s, max_len)
        if dist[s] > max_len:
            continue
        near = [a for a in range(s, len(m)) if dist[a] <= SUMMED_LENGTHS + 1]
        closing = [zeros] * len(m)
        g = [0] * len(m)
        for a in near:
            closing[a] = _suffix_sums([v * m[y][s] for y, v in entries[a]])
            g[a] = closing[a][bisect_right(succ[a], s)]
        two = [zeros] * len(m)
        h = [0] * len(m)
        for a in near:
            two[a] = _suffix_sums([v * g[y] for y, v in entries[a]])
            h[a] = two[a][bisect_right(succ[a], s)]
        three = [zeros] * len(m)
        for a in near:
            three[a] = _suffix_sums([v * h[y] for y, v in entries[a]])
        stack = [(1, 1, 1, iter(entries[s][bisect_left(succ[s], s):]))]
        while stack:
            t, p, prod, branch = stack[-1]
            lower = word[t - p]
            for x, v in branch:
                if t + dist[x] > max_len:
                    continue
                word[t] = x
                if t == 1:  # w + y + s closes on the u > w[1] only
                    after_s = closing[s][bisect_right(succ[s], x)]
                pv = prod * v
                if x == lower:
                    q = p
                else:
                    q = t + 1
                    c = m[x][s]
                    if c:
                        if q <= listed:
                            yield word, q, pv * c
                        else:
                            totals[q] += pv * c
                if t + 1 < stop:
                    i = bisect_left(succ[x], word[t + 1 - q])
                    stack.append((t + 1, q, pv, iter(entries[x][i:])))
                    break
                low = word[stop - q]
                i = bisect_right(succ[x], low)
                at1 = closing[x][i]
                at2 = two[x][i]
                at3 = three[x][i] + at1 * after_s
                c = m[x][low]
                if c:  # y == low keeps period q
                    word[stop] = low
                    c2 = word[stop + 1 - q]
                    j = bisect_right(succ[low], c2)
                    at2 += c * closing[low][j]
                    at3 += c * two[low][j]
                    c *= m[low][c2]
                    if c:  # and so does c2 after it
                        word[stop + 1] = c2
                        c3 = word[stop + 2 - q]
                        at3 += c * closing[c2][bisect_right(succ[c2], c3)]
                totals[stop + 1] += pv * at1
                totals[stop + 2] += pv * at2
                totals[stop + 3] += pv * at3
            else:
                stack.pop()
    for k in range(listed + 1, max_len + 1):
        if totals[k]:
            yield None, k, totals[k]


def _suffix_sums(values: list[int]) -> list[int]:
    """sums[i] = values[i] + values[i + 1] + ..., with sums[len(values)] = 0."""
    return list(accumulate(reversed(values), initial=0))[::-1]


def iter_prime_cycles(d: Digraph, max_len: int):
    """Yield canonical prime-cycle representatives of length <= max_len.

    A representative is the lexicographically least rotation of its class,
    which for a class that is not a proper power is a Lyndon word over the
    arc ids: ``lyndon_cycles`` on the 0/1 arc-adjacency matrix, listing
    every length up to max_len.  Its summed prefix is then max_len long,
    its frames stop at length max_len - 1, and the lengths it sums are all
    past max_len and dropped.
    """
    for word, k, _ in lyndon_cycles(arc_adjacency(d), max_len, max_len):
        yield tuple(word[:k])
