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
is given and adds the longer ones into one total per length.  Its
frames stop at half its bound, rounded up, or at the listed lengths when
those are longer, and every longer length lists no word and pushes no
frame: per start arc s, tables T_0..T_L of suffix sums over the successor
lists, each built from the one before, total the closings of the words
that start a new period at each letter, and each last frame sums its
totals at the L longer lengths from their entries, in one loop over the
letters its period keeps and one recurrence over the tails that return
to s (the details are in ``lyndon_cycles``).
``zeta``'s Euler walk runs it on the integer theta matrix, where a cycle
whose product is 0 is never reached, and lists only the lengths up to half
its order; a yielded total adds to the power sum at its length alone.
``iter_prime_cycles`` runs it on the 0/1 arc-adjacency matrix and lists
every length.  Other closed paths are never listed: ``zeta``
sums their products on the theta matrix without walking them, and the
brute-force enumeration the tests compare against is in
``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum


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
    shorter than stop = max((max_len + 1) // 2, listed, min(2, max_len)).
    A Lyndon word longer than ``listed`` is added to its length's total
    where the walk closes it.

    The L = max_len - stop lengths past stop are summed, not walked: a
    frame of length stop - 1 lists or totals its children's closings and
    sums every longer word through it; L = 0 builds no table.  After a new
    period the next letter y compares with w[0] = s: y > s starts a new
    period again and y == s keeps it.  Per start arc s, with e_0[y] = m[y][s]:

    * T_j[a][i], for j = 0..L, is the total of m[a][y] e_j[y] over the
      successors y of a from succ[a][i] on (suffix sums over each ascending
      successor list), and e_(j+1)[y] = T_j[y][bisect_right(succ[y], s)].
      T_j[a][i] totals the closings of the words that leave a by such a y
      and start a new period at each of their j further letters; the
      closing step into s is also the step into a tail that restarts at s.
    * A chain from b_0 = a, c_0 = w[r], kappa_0 = k keeps the period through
      c_i = w[r + i], with kappa_(i+1) = kappa_i m[b_i][c_i] and b_(i+1) =
      c_i, until kappa is 0: the sum over i <= n of kappa_i
      T_(n-i)[b_i][bisect_right(succ[b_i], c_i)] totals the closings n + 1
      letters on of the words whose first new period is followed by new
      periods only.
    * V_n is that sum at n - 1 for the chain from s along w[1..]: it totals
      the tails of 1 + n letters that restart at s just after a new period,
      start a new one after keeping the period through some w[1..i], and
      close with new periods only (V_0 = 0).  Its term for w[t] is added
      when a frame places w[t], for t <= min(L - 1, stop - 2).
    * A frame of length stop - 1 and period p, with product prod, sums the
      chain from w[stop - 2], c_i = w[stop - 1 - p + i] and prod: u_n for
      n = 0..L totals the closings at stop + n of the words whose first new
      period from w[stop - 1] on is followed by new periods only.  The
      Lyndon words of length stop + n total y_n = u_n + sum over i of
      V_i y_(n-1-i): a word is either such a word or a shorter one followed
      by one more tail that restarts at s.
    * A tail compares its letters with w[0..], and 2 stop >= max_len keeps
      them inside the frame's prefix but for one: at max_len = 2 stop,
      V_(L-1)'s last term reads w[stop - 1], the frame's child.  That term
      makes the Lyndon word w[:stop-1] x w[:stop-1] x' of two children
      x < x' that both close, with the product of their closings: the
      children's loop adds those pairs, and V_(L-1) leaves the term out.

    Each c_i is read off the buffer after c_(i-1) is written into it, so
    short periods need no case of their own.  The root prefix s has length
    1 and is always a frame: stop is at least 2 when max_len is, and at
    max_len 1 the root's children cannot close in time.
    """
    if max_len < 1:
        raise GraphError("cycle length bound must be >= 1")
    if not 0 <= listed <= max_len:
        raise GraphError(f"cannot list lengths up to {listed}: listed must be in 0..{max_len}")
    # ascending successor ids, so bisect finds the first x >= w[t - p] and
    # the first y > c_i
    succ = [[b for b, v in enumerate(row) if v] for row in m]
    entries = [[(b, v) for b, v in enumerate(row) if v] for row in m]
    preds = predecessors(succ)
    # a prefix this long is summed, not pushed; the root is always a frame
    stop = max((max_len + 1) // 2, listed, min(2, max_len))
    summed = max_len - stop
    top = min(summed - 1, stop - 2)  # the last letter whose term V adds
    word = [0] * max_len  # the frames' letters, then a chain's kept letters
    totals = [0] * (max_len + 1)
    vs = [[0] * summed for _ in range(top + 1)]  # V_0..V_(L-1) from w[0..t], by t
    zero = [[0] * (len(m) + 1)] * (summed + 1)  # the tables of arcs too far from s
    closed = 0  # the total of the closings at length stop in this frame so far
    for s, row in enumerate(m):
        word[0] = s
        if row[s]:
            if listed:
                yield word, 1, row[s]
            else:
                totals[1] += row[s]
        # the letters of a Lyndon word that starts at s are all >= s; a
        # prefix of length t + 1 ending at x closes within max_len only if
        # t + dist[x] <= max_len, so a chain starts at dist <= L + 2, and no
        # word starts at s if s does not return to itself
        dist = steps_to(preds, s, max_len)
        if dist[s] > max_len:
            continue
        if summed:
            # each near arc with its entries backwards, for suffix sums, and
            # the index of its first successor above s
            near = [(a, entries[a][::-1], bisect_right(succ[a], s)) for a in range(s, len(m)) if dist[a] <= summed + 2]
            tables = [zero] * len(m)
            for a, _, _ in near:
                tables[a] = []
            e = [r[s] for r in m]
            for _ in range(summed + 1):
                e_next = [0] * len(m)
                for a, rev, i in near:
                    sums, total = [0], 0
                    for y, v in rev:
                        total += v * e[y]
                        sums.append(total)
                    sums.reverse()
                    tables[a].append(sums)
                    e_next[a] = sums[i]
                e = e_next
        stack = [(1, 1, 1, iter(entries[s][bisect_left(succ[s], s):]))]
        while stack:
            t, p, prod, branch = stack[-1]
            lower = word[t - p]
            for x, v in branch:
                if t + dist[x] > max_len:
                    continue
                word[t] = x
                if t <= top:  # V's term for w[t]: none if no successor of w[t-1] is above it
                    b, vv = word[t - 1], vs[t - 1]
                    i = bisect_right(succ[b], x)
                    if i < len(succ[b]):
                        vv = vv[:]
                        for j, sums in enumerate(tables[b][: summed - t], t):
                            vv[j] += prod * sums[i]
                    vs[t] = vv
                pv = prod * v
                if x == lower:
                    q = p
                else:
                    q = t + 1
                    c = m[x][s]
                    if c:
                        c *= pv
                        if q <= listed:
                            yield word, q, c
                        else:
                            totals[q] += c
                        if q == stop == summed:  # w[:t] x' w[:t] x for each earlier x'
                            totals[max_len] += closed * c
                            closed += c
                if t + 1 < stop:
                    i = bisect_left(succ[x], word[t + 1 - q])
                    stack.append((t + 1, q, pv, iter(entries[x][i:])))
                    break
            else:
                stack.pop()
                closed = 0
                if t + 1 < stop or not summed:
                    continue
                # the frame of length stop - 1 sums the chain from its last
                # letter, which keeps period p through c_i = w[t - p + i]
                u = [0] * (summed + 1)
                b, c, kappa = word[t - 1], lower, prod
                for n in range(summed + 1):
                    i = bisect_right(succ[b], c)
                    if i < len(succ[b]):  # else no successor of b starts a new period
                        for j, sums in enumerate(tables[b][: summed + 1 - n], n):
                            u[j] += kappa * sums[i]
                    kappa *= m[b][c]
                    if not kappa:
                        break
                    word[t + n] = b = c
                    c = word[t + n + 1 - p]
                # y_n = u_n + sum V_i y_(n-1-i), in place: the last tail that
                # restarts at s has 1 + i letters
                vv = vs[top]
                for n in range(1, summed + 1):
                    for i in range(1, n):
                        u[n] += vv[i] * u[n - 1 - i]
                    totals[stop + n] += u[n]
    for k in range(listed + 1, max_len + 1):
        if totals[k]:
            yield None, k, totals[k]


def iter_prime_cycles(d: Digraph, max_len: int):
    """Yield canonical prime-cycle representatives of length <= max_len.

    A representative is the lexicographically least rotation of its class,
    which for a class that is not a proper power is a Lyndon word over the
    arc ids: ``lyndon_cycles`` on the 0/1 arc-adjacency matrix, listing
    every length up to max_len.  Its stop is then max_len, its frames stop
    at length max_len - 1, and it sums no length.
    """
    for word, k, _ in lyndon_cycles(arc_adjacency(d), max_len, max_len):
        yield tuple(word[:k])
