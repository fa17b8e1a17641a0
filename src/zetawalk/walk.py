"""Szegedy and Grover walk transition matrices and their spectra.

The walk lives on the arcs of the symmetric digraph of a finite multigraph,
loops and parallel edges allowed, with no isolated vertex.  Given a
transition probability p with unit row sums per tail vertex, the transition
matrix is

    U[a, a'] = 2 sqrt(p(a) p(inv(a'))) [tail(a) = head(a')] - [a' = inv(a)]

(the Grover walk is the uniform case p(a) = 1/deg(tail(a))).  The paper's
determinant expression gives its characteristic polynomial through the
vertex-sized discriminant T[u][v] = sum_{a in A_uv} sqrt(p(a) p(inv(a))):

    det(lambda I - U) = (lambda^2 - 1)^(|E|-|V|)
                        * prod_mu (lambda^2 - 2 mu lambda + 1),

over the eigenvalues mu of T.  The spectrum is read off this factorization,
with exact +-1 multiplicities: when |E| < |V| the prefactor divides out
the extreme mu, which are exactly +-1, with no tolerance search.  The CLI
checks the spectrum against a direct eigensolve of U (the oracle): a real
double-precision general eigensolve, which does not assume that U is
orthogonal.  The two spectra are compared by their exact bottleneck
distance, computed in numpy.  Neither check keeps a second n x n temporary
beside U: the unitarity defect holds the Gram matrix and the deviation its
distance matrix, each reduced _BLOCK rows at a time, so the working set is
about 2 n^2 * 8 bytes for n arcs (10 MB at 800 arcs), besides the copy of U
that LAPACK takes inside the eigensolve.

Every public walk function checks its graph, and each Szegedy function its
probabilities, on each call.  The probabilities are checked in integers:
each reduced n/d must satisfy 0 < n <= d, and the row sums are compared
over the lcm of the row's denominators.  The entries of U and T are square
roots of products of two probabilities, taken in Python-int arithmetic at
any size and exact wherever the product is a rational square.  U takes one
root per entry and places them by numpy index arrays over the arcs sorted
by tail; T takes one per edge.

This module makes every numpy call in the library, the direct eigensolve
``eigenvalues_numeric`` among them; the exact kernel in ``linalg`` uses
none.  numpy is imported inside the functions that use it, so that
importing this module (and so ``zetawalk`` and every exact CLI verb) does
not load it.  A walk verb pays for it on its first call.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import as_fraction
from .digraph import Digraph, GraphMode

if TYPE_CHECKING:
    import numpy as np

# Rows per step of the n x n elementwise passes in unitarity_defect and
# spectrum_deviation: each step's temporary is _BLOCK x n, not n x n.
_BLOCK = 64


class WalkError(ValueError):
    """Invalid input for the quantum-walk layer."""


def _require_walk_graph(g: Digraph) -> None:
    if g.mode is not GraphMode.SYMMETRIC:
        raise WalkError("walks require the symmetric digraph of a graph")
    if any(g.degree(v) == 0 for v in range(g.vertex_count)):
        raise WalkError("walks need minimum degree >= 1")


def uniform_probability(g: Digraph) -> dict[int, Fraction]:
    """The Grover assignment p(a) = 1/deg(tail(a))."""
    return {a: Fraction(1, g.degree(t)) for a, t in enumerate(g.tails)}


def _uniform_terms(g: Digraph) -> list[tuple[int, int]]:
    """The Grover assignment as (numerator, denominator) pairs in arc order,
    on g checked as a walk graph."""
    _require_walk_graph(g)
    return [(1, g.degree(t)) for t in g.tails]


def _checked_terms(g: Digraph, p) -> list[tuple[int, int]]:
    """p as (numerator, denominator) pairs in arc order, on g checked as a
    walk graph, with p checked in integers.

    Every arc needs a probability and every key must be an arc id.  Each
    probability goes through ``algebra.as_fraction``, so a float raises
    TypeError.  A reduced n/d lies in (0, 1] when 0 < n <= d, and the
    probabilities n_i/d_i leaving a vertex sum to 1 when
    sum n_i * (L // d_i) == L for L = lcm(d_i).  The checks do no Fraction
    arithmetic; a Fraction only words a row-sum error.
    """
    _require_walk_graph(g)
    terms = []
    for a in range(g.arc_count):
        if a not in p:
            raise WalkError(f"missing probability for arc {a}")
        x = as_fraction(p[a])
        n, d = x.as_integer_ratio()
        if not 0 < n <= d:
            raise WalkError(f"probability {x} for arc {a} outside (0, 1]")
        terms.append((n, d))
    if len(p) > g.arc_count:
        unknown = next(a for a in p if a not in range(g.arc_count))
        raise WalkError(f"probability for unknown arc id {unknown}")
    for v in range(g.vertex_count):
        out = [terms[a] for a in g.out_arcs(v)]
        lcm = math.lcm(*[d for _, d in out])
        total = sum([n * (lcm // d) for n, d in out])
        if total != lcm:
            raise WalkError(f"probabilities at vertex {v} sum to {Fraction(total, lcm)}, expected 1")
    return terms


def _sqrt_product(x: tuple[int, int], y: tuple[int, int]) -> float:
    """sqrt(x*y) for x and y given as (numerator, denominator) pairs, exact
    when the product is a rational square.

    With x*y = n/d, the product is a rational square exactly when n*d is a
    perfect square, and then sqrt(x*y) = isqrt(n*d)/d.  Int true division is
    correctly rounded, so no Fraction is built.
    """
    n = x[0] * y[0]
    d = x[1] * y[1]
    root = math.isqrt(n * d)
    if root * root == n * d:
        return root / d
    return math.sqrt(n / d)


def _transition(g: Digraph, terms: list[tuple[int, int]]) -> np.ndarray:
    """U for validated probabilities, visiting only adjacent arc pairs.

    The arcs b with head(b) = tail(a) are the partners c ^ 1 of the arcs c
    leaving tail(a), and inv(c ^ 1) = c.  Row a holds 2 sqrt(p(a) p(c)) at
    column partner(c) for each such c, so the rows and columns are index
    arrays over the arcs sorted by tail.  The partner map is a bijection,
    so no entry is set twice, loops and parallel edges included: U is
    filled by one assignment.  The entry for c = a, at (a, partner(a)),
    has the partner flip's -1 subtracted before it.
    """
    import numpy as np
    n = g.arc_count
    tails = np.array(g.tails, dtype=np.intp)
    by_tail = np.argsort(tails, kind="stable")
    deg = np.bincount(tails, minlength=g.vertex_count)
    width = deg[tails]  # the entries of row a: one per arc leaving tail(a)
    start = np.cumsum(width) - width  # where row a's entries start
    first = (np.cumsum(deg) - deg)[tails]  # where tail(a)'s arcs start in by_tail
    rows = np.repeat(np.arange(n), width)
    out = by_tail[np.arange(rows.size) + np.repeat(first - start, width)]  # c, entry by entry
    roots = [_sqrt_product(terms[a], terms[c]) for a, c in zip(rows.tolist(), out.tolist())]
    cols = out ^ 1
    vals = 2.0 * np.array(roots) - (out == rows)  # c = a: the flip
    u = np.zeros((n, n))
    u[rows, cols] = vals
    return u


def _discriminant(g: Digraph, terms: list[tuple[int, int]]) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a))).

    Edge i takes one root, shared by its arcs 2i and 2i+1.  The roots are summed
    in arc order, as sequential additions from 0.0, so parallel edges and
    loops give the same bits as a loop over the arcs.
    """
    import numpy as np
    nv = g.vertex_count
    roots = [0.0] * g.arc_count
    for a in range(0, g.arc_count, 2):
        roots[a] = roots[a + 1] = _sqrt_product(terms[a], terms[a + 1])
    cells = [t * nv + h for t, h in zip(g.tails, g.heads)]
    t = np.bincount(cells, weights=roots, minlength=nv * nv)
    return t.astype(float, copy=False).reshape(nv, nv)  # no arcs: bincount gives ints


def _quadratic_roots(mu: float) -> tuple[complex, complex]:
    """Roots of lambda^2 - 2*mu*lambda + 1.

    A near-zero discriminant is snapped to zero: the square root would
    amplify O(eps) eigensolver noise in mu to O(sqrt(eps)), turning exact
    double roots (mu = +-1) into spurious complex pairs.  True
    discriminants of desk-scale instances are either exactly zero or far
    from the snap threshold.
    """
    disc = (2.0 * mu) ** 2 - 4.0
    root = 0.0 if abs(disc) <= 1e-11 else cmath.sqrt(disc)
    return ((2.0 * mu + root) / 2.0, (2.0 * mu - root) / 2.0)


def _spectrum(g: Digraph, terms: list[tuple[int, int]]) -> list[complex]:
    """{+1, -1} each |E|-|V| times plus the roots of lambda^2 - 2 mu lambda + 1.

    T is symmetric (sqrt(p(a) p(inv(a))) is the same for a and inv(a)), so
    its spectrum is real and eigvalsh applies, in ascending order.  When
    |E| < |V| the prefactor divides the product: with cut = |V| - |E|, each
    of the cut smallest and the cut largest mu keeps one root of its
    double root instead of two.  Those mu are exactly -1 and +1.  Every mu
    lies in [-1, 1] (x^T T x <= |x|^2 by AM-GM), and at least cut
    components are trees.  A tree's chain is reversible, so its block of T
    is similar to its transition matrix, which is irreducible and
    bipartite and so has +1 and -1 as simple eigenvalues.
    """
    import numpy as np
    mus = np.linalg.eigvalsh(_discriminant(g, terms))
    cut = g.vertex_count - g.edge_count
    roots: list[complex] = []
    for i, mu in enumerate(mus.tolist()):
        pair = _quadratic_roots(mu)
        roots.extend(pair[:1] if i < cut or i >= len(mus) - cut else pair)
    roots.extend([1.0 + 0.0j, -1.0 + 0.0j] * max(0, -cut))
    return roots


def szegedy_transition(g: Digraph, p) -> np.ndarray:
    """The arc-indexed Szegedy transition matrix for probabilities ``p``."""
    return _transition(g, _checked_terms(g, p))


def grover_transition(g: Digraph) -> np.ndarray:
    """The Grover transition matrix 2/deg(tail(a)) on adjacencies minus the partner flip."""
    return _transition(g, _uniform_terms(g))


def unitarity_defect(u: np.ndarray) -> float:
    """max |U U* - I|, the unitarity residual of a square 2-D array.

    For a real U, U* is the view U.T, and the identity is subtracted from
    the product's diagonal in place, so no copy of U and no identity matrix
    is built.  The product is the one n x n array made, and |.| is taken
    _BLOCK rows at a time, so U and the product are the working set: about
    2 n^2 * 8 bytes for a real n x n U (10 MB at 800 arcs).  Any array that
    is not square and 2-D is refused with a ValueError that names its shape.
    """
    import numpy as np
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"matrix is not square: {u.shape}")
    n = u.shape[0]
    if n == 0:
        return 0.0
    gram = u @ (u.conj().T if np.iscomplexobj(u) else u.T)
    gram.flat[:: n + 1] -= 1.0
    return float(np.max([np.abs(gram[i : i + _BLOCK]).max() for i in range(0, n, _BLOCK)]))


def eigenvalues_numeric(m) -> list[complex]:
    """All eigenvalues (with multiplicity) of a square numeric matrix.

    A real double-precision general eigensolve: an ndarray goes to LAPACK
    unchanged, so a real matrix takes the real solver (dgeev), whose complex
    eigenvalues come in exact conjugate pairs and whose real eigenvalues have
    imaginary part exactly 0.  Nested lists become a float array, or a
    complex one only when some entry is complex.  A 0 x 0 matrix, or
    ``[]``, has no eigenvalues; any other non-square input, a flat or a
    ragged list included, is refused.  LAPACK convergence failures are
    surfaced with the matrix shape in the message.
    """
    import numpy as np
    # a list is shaped as objects first, so a flat or ragged one gets its
    # shape, not an entry-type or broadcasting error
    arr = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ValueError(f"matrix is not square: {arr.shape}")
    if not arr.size:
        return []
    if arr is not m:
        is_complex = any(isinstance(x, (complex, np.complexfloating)) for x in arr.flat)
        arr = arr.astype(complex if is_complex else float)
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigenvalue iteration failed for {arr.shape[0]}x{arr.shape[1]} matrix: {exc}"
        ) from exc
    return vals.astype(complex).tolist()


def szegedy_discriminant(g: Digraph, p) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a)))."""
    return _discriminant(g, _checked_terms(g, p))


def grover_spectrum_via_zeta(g: Digraph) -> list[complex]:
    """Spectrum of the Grover walk from the vertex factorization."""
    return _spectrum(g, _uniform_terms(g))


def szegedy_spectrum_via_factorization(g: Digraph, p) -> list[complex]:
    """Spectrum of the Szegedy walk from the vertex factorization."""
    return _spectrum(g, _checked_terms(g, p))


def _grow_matching(cost: np.ndarray, limit: float, row_of: np.ndarray, col_of: np.ndarray) -> bool:
    """Grow a matching in place, by Hopcroft-Karp, to a maximum one of the
    pairs within ``limit``.

    Row i may pair with column j when cost[i, j] <= limit; that n x n
    adjacency is built only once some row is free, so a perfect start
    allocates nothing.  ``col_of[i]`` and ``row_of[j]`` hold the current
    partners, -1 when free.  Each phase layers the columns by a
    breadth-first search from every free row at once, one numpy step per
    layer, then flips a maximal set of disjoint shortest augmenting paths
    found by an iterative depth-first search.  Returns whether the matching
    is perfect.
    """
    import numpy as np
    n = cost.shape[0]
    adj = None
    while True:
        free_rows = np.flatnonzero(col_of < 0)
        if free_rows.size == 0:
            return True
        if adj is None:
            adj = cost <= limit
        layer = np.full(n, -1)  # a column's distance from the free rows
        frontier, depth = free_rows, 0
        while True:
            cols = np.flatnonzero(adj[frontier].any(axis=0) & (layer < 0))
            if cols.size == 0:
                return False  # no augmenting path: the matching is maximum
            partners = row_of[cols]
            free = partners < 0
            if free.any():
                layer[cols[free]] = depth  # paths end only at free columns
                break
            layer[cols] = depth
            frontier, depth = partners, depth + 1
        for r in free_rows.tolist():
            rows, path = [r], []
            while rows:
                step = adj[rows[-1]] & (layer == len(path))
                c = int(step.argmax())
                if not step[c]:  # a dead end: back up one row
                    rows.pop()
                    del path[-1:]
                    continue
                layer[c] = -1  # each column is tried once per phase
                path.append(c)
                if row_of[c] < 0:
                    col_of[rows] = path
                    row_of[path] = rows
                    break
                rows.append(int(row_of[c]))


def spectrum_deviation(s1, s2) -> float:
    """The bottleneck distance between two multisets of complex numbers.

    That is the smallest d such that a perfect matching pairs every element
    of ``s1`` with one of ``s2`` within distance d, so ``VERDICT spectrum``
    agrees exactly when some matching stays within the tolerance.  On
    [0, 3] against [1, 1 + 2.9j] it is 3.07, from 0-(1 + 2.9j) and 3-1.
    A NaN or an infinity in either multiset gives inf.

    No matching can beat L, the largest distance from any element to its
    nearest partner, so L is tried first and is the answer whenever the
    pairs within L admit a perfect matching.  Otherwise a binary search
    runs over the sorted distances above L; a repeated distance gives the
    same answer at each of its positions.  Each trial starts from the
    maximum matching of the largest threshold that failed, which stays
    valid because every pair within a threshold is within any larger one.

    The distance matrix is the one n x n array built, as floats, _BLOCK rows
    at a time, so no n x n complex difference exists.  Beside the U of
    ``spectrum`` that is about 2 n^2 * 8 bytes for n arcs (10 MB at 800
    arcs).  A search adds the sorted distances above L, at most one more.
    """
    import numpy as np
    a = np.asarray(list(s1), dtype=complex)
    b = np.asarray(list(s2), dtype=complex)
    if a.shape != b.shape:
        raise WalkError(f"spectra have different sizes: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    cost = np.empty((a.size, a.size))  # |a_i - b_j|, _BLOCK rows at a time
    for i in range(0, a.size, _BLOCK):
        np.abs(a[i : i + _BLOCK, None] - b, out=cost[i : i + _BLOCK])
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())  # L
    # Greedy start: pair the two multisets in sorted order (by real, then
    # imaginary part) and keep the pairs within L.  Two spectra that agree
    # up to rounding line up this way, repeated eigenvalues included.
    rows, cols = np.argsort(a), np.argsort(b)
    near = cost[rows, cols] <= bound
    row_of = np.full(a.size, -1)
    col_of = np.full(a.size, -1)
    row_of[cols[near]], col_of[rows[near]] = rows[near], cols[near]
    if _grow_matching(cost, bound, row_of, col_of):
        return float(bound)
    above = cost[cost > bound]
    above.sort()
    lo, hi = -1, above.size - 1  # above[hi] always admits a perfect matching
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial_rows, trial_cols = row_of.copy(), col_of.copy()
        if _grow_matching(cost, above[mid], trial_rows, trial_cols):
            hi = mid
        else:
            lo, row_of, col_of = mid, trial_rows, trial_cols
    return float(above[hi])
