"""The weighted zeta function of a multi-digraph, in four expressions.

The weight on consecutive arc pairs is

    theta(a, a') = tau1(a) * tau2(a') * [head(a) = tail(a')] - [a' inverse of a]

which satisfies the adjacency condition (theta nonzero only along arc
adjacencies), so all expressions agree:

* exponential: exp( sum_k N_k / k * t^k ) with N_k the sum of circular
  theta-products over closed paths of length k;
* Euler: product over prime cycles X of 1 / (1 - circ(X) t^|X|);
* Hashimoto: 1 / det(I - t*M) with M the arc-indexed theta matrix
  (operations here return the reciprocal polynomial det(I - t*M));
* Ihara: a vertex-indexed determinant.  For a general digraph,

      det(I - t*M) = prod_pairs f(u,v) * det(I - t*A + t^2*D - t^3*X)

  where f(u,u) = 1 + |A_uu| t, f(u,v) = 1 - |A_uv||A_vu| t^2, and A, D, X
  collect per-pair weight sums (D and X carry 1/f denominators).  The
  pairs are the blocks of the inverse relation; those of the symmetric
  digraph of a graph are its edges, each with f = 1 - t^2, and the same
  expression reads

      det(I - t*M) = (1 - t^2)^(|E| - |V|) * det(I - t*A + t^2*(D - I)).

The theta matrix is built once, in integers: ``_edge_matrix_data`` returns
the rows R and row denominators e of T = S M S^-1 = diag(1/e) R, with
S = diag(1/q2) and tau = p/q.  T has M's characteristic polynomial, the
traces of M's powers and every closed path's circular product, so
Hashimoto and the three series routes all run on T.

Every determinant here is read off one scalar kernel,
``linalg.char_poly_rows``, which takes integer rows with row denominators:

* det(I - t*M) is the charpoly of T, reversed (``_hashimoto``).
* the vertex determinant is assembled sparsely, in Python ints, by
  ``_vertex_det`` from one term form: (u, v, k, n, q, f) adds
  (n / q) t^k / f to entry (u, v) of the vertex matrix, with n / q a
  rational in lowest terms, q > 0, and f a block factor as an integer
  coefficient tuple, or None for the terms of A.  r_u, the product of the
  distinct f among the nonzero terms of row u, and e_u, the lcm of their
  q, clear row u to an integer polynomial row, so P(t) = diag(1/e) Q(t)
  has P(0) = I and det(vertex matrix) = det(P) / R with R = prod_u r_u;
  det(P) is that of I - t*C for the companion C of P
  (``linalg.det_poly_matrix``).  A row with no nonzero term is a row of the
  identity and is never materialized.

Every Ihara-style operation builds its vertex side without det(I - t*M),
as (prod_f, R, det P) with prod_f and R integer polynomials of constant
term 1, in both modes from the blocks of the inverse relation
(``_vertex_side``).  The vertex side reads each tau1 and tau2 once, as a
(numerator, denominator) pair, and keeps A, the per-block tau sums and
every term's coefficient as reduced int pairs; it reads the weights
itself, so a defect in the one theta builder shows as a
Hashimoto-vs-Ihara mismatch.  One check, ``_identity``, compares
prod_f * det P with det(I - t*M) * R as integer polynomials
cross-multiplied by their denominators.  On a match the reported
right-hand side is det(I - t*M); a mismatch builds the reduced quotient
prod_f * det P / R and names the first power of t at which the two sides
differ.  ``verify_expressions`` reports that power and makes no Fraction
on the vertex side.  ``ihara_digraph`` and ``ihara_graph`` report
``agree`` and alone build report tables, {(u, v): value} maps of nonzero
entries, the only place a vertex-side Fraction is made: those of A (both
modes) and of a graph's D hold Fractions, and each D and X entry of a
digraph is one RatFunc, its numerator formed in ints.

The series routes run in Python ints.  The two path routes, closed paths
for N_k and prime cycles for the Euler product, run on the integer matrix
D*T, D the lcm of the row denominators e (``_clear_denominators``).  A
length-k term then carries D^k.  The N_k routes return (D, [D^k N_k]), the
exponential is formed from those ints (``_exp_of_power_sums``), and only a
result coefficient, never a path, is divided by its power of D.  The
closed-path route counts each closed path from its least arc s.  It sums
the first-return loops s -> x_1 -> ... -> s with every x_i > s by a vector
recurrence over the arcs above s, without listing one, and an integer
recurrence turns the loops' totals into s's share of every N_k
(``_n_k_enumerated_all``).  The prime-cycle walk
(``digraph.lyndon_cycles``) follows the nonzero entries of D*T, those of M,
only.  The Euler product multiplies in 1/(1 - c t^k) for the prime cycles
of length k <= order/2 only.  Past order/2 the cross terms of the factors
have degree above the order, so the product of those factors is
1 + sum_k C_k t^k, with C_k the total of c over the cycles of length k;
the walk lists the cycles up to order/2 only and yields one C_k for each
longer length, the last two of them summed by lookups (``_euler``).  The
trace route to N_k clears the denominators on its own and reads each N_k
off two powers of at most ceil(order/2); the two N_k routes must agree
exactly, in ints (ConsistencyError otherwise).  The Hashimoto series
1 / det(I - t*M) is inverted in integers as well (``_hashimoto_series``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from .algebra import Poly, RatFunc, Series, as_fraction, render_rational
from .digraph import Digraph, GraphError, GraphMode, PhiPair, lyndon_cycles
from .linalg import char_poly_rows, det_poly_matrix


_ONE = Fraction(1)


class ZetaError(Exception):
    """Base class for zeta-engine failures."""


class ConsistencyError(ZetaError):
    """Two mandatory computation routes disagreed (internal defect)."""


@dataclass(frozen=True)
class WeightAssignment:
    """Total rational arc weight maps tau1, tau2, indexed by arc id; each
    entry goes through ``algebra.as_fraction``, so a float raises TypeError."""

    tau1: tuple
    tau2: tuple

    def __post_init__(self):
        object.__setattr__(self, "tau1", tuple(map(as_fraction, self.tau1)))
        object.__setattr__(self, "tau2", tuple(map(as_fraction, self.tau2)))

    @classmethod
    def from_maps(cls, d: Digraph, tau1=None, tau2=None) -> "WeightAssignment":
        """Build from partial {arc id: value} maps; missing entries default to 1."""

        def fill(m):
            vals = [_ONE] * d.arc_count
            if m is not None:
                for aid, v in dict(m).items():
                    if not 0 <= aid < d.arc_count:
                        raise GraphError(f"weight for unknown arc id {aid}")
                    vals[aid] = v
            return tuple(vals)

        return cls(fill(tau1), fill(tau2))


def edge_matrix(d: Digraph, w: WeightAssignment) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the arc-indexed matrix M with entries theta(a, b), read
    back from ``_edge_matrix_data``: M[a][b] = q2(a) R[a][b] / (e_a q2(b))."""
    rows, dens = _edge_matrix_data(d, w)
    q2 = [x.denominator for x in w.tau2]
    return tuple(
        tuple(Fraction(q2[a] * x, e * q2[b]) for b, x in enumerate(row))
        for a, (row, e) in enumerate(zip(rows, dens))
    )


def _edge_matrix_data(d: Digraph, w: WeightAssignment) -> tuple[list[list[int]], list[int]]:
    """(R, e): the integer rows and row denominators of S M S^-1 = diag(1/e) R,
    with S = diag(1/q2) and tau = p/q.  Row a is

        p1(a) p2(b) [b leaves head(a)] - q1(a) q2(b) [b inverse of a]

    over e_a = q1(a) q2(a), read straight off tau1 and tau2.  Every zeta
    entry point calls this first, so it alone checks the weights' lengths."""
    n = d.arc_count
    tau1, tau2 = w.tau1, w.tau2
    if len(tau1) != n or len(tau2) != n:
        raise GraphError(f"weights for {len(tau1)} and {len(tau2)} arcs on a digraph with {n}")
    rows, dens = [], []
    for a, head in enumerate(d.heads):
        t1 = tau1[a]
        row = [0] * n
        for b in d.out_arcs(head):
            row[b] = t1.numerator * tau2[b].numerator
        for b in d.inverse_set(a):
            row[b] -= t1.denominator * tau2[b].denominator
        rows.append(row)
        dens.append(t1.denominator * tau2[a].denominator)
    return rows, dens


def hashimoto(d: Digraph, w: WeightAssignment) -> Poly:
    """The polynomial det(I - t*M); its series inverse is the zeta function."""
    return _as_poly(*_hashimoto(_edge_matrix_data(d, w)))


def _hashimoto(theta) -> tuple[list[int], int]:
    """(H, Delta) with det(I - t*M) = sum_k H_k t^k / Delta, the reversed
    charpoly of the rows (R, e) of ``_edge_matrix_data``."""
    values, delta = char_poly_rows(*theta)
    return values[::-1], delta


def _hashimoto_series(hk, order: int) -> Series:
    """1 / det(I - t*M) to ``order``, from (H, Delta) of ``_hashimoto``.

    det(I - t*M) = sum_j H_j t^j / Delta with H_0 = Delta.  Writing the
    inverse's coefficients as y_n / Delta^n turns the usual recurrence into
    y_0 = 1, y_n = -sum_{j=1..n} H_j Delta^(j-1) y_{n-j}, in Python ints;
    only the results become Fractions.
    """
    values, delta = hk
    lifted = [h * delta ** (j - 1) for j, h in enumerate(values[1 : order + 1], start=1)]
    ys = [1]
    for _ in range(order):
        ys.append(-sum(map(mul, lifted, reversed(ys))))
    return Series([Fraction(y, delta**n) for n, y in enumerate(ys)], order)


def _as_poly(values: list[int], delta: int) -> Poly:
    return Poly([Fraction(v, delta) for v in values])


def _clear_denominators(theta) -> tuple[int, list[list[int]]]:
    """(D, D * S M S^-1) for the rows (R, e) of ``_edge_matrix_data``, D the
    lcm of the row denominators, so that every scaled entry is a Python int."""
    rows, dens = theta
    scale = lcm(*dens)
    return scale, [[x * (scale // e) for x in row] for row, e in zip(rows, dens)]


def _n_k_enumerated_all(theta, upto: int) -> tuple[int, list[int]]:
    """(D, [D^k N_k for k = 1..upto]), N_k the sum of circular products over
    closed paths, grouped by their least arc.

    The route runs on the Python ints D*T from ``_clear_denominators``, with
    T = S M S^-1, so a closed path of length k adds D^k times its circular
    product (the same in T as in M).

    N_k sums the product of every closed path, a sequence of k arcs read
    from each of its k start positions.  Group the paths by their least arc
    s.  For a path P that visits s n times, the pairs (P, i) with P_i = s
    match one to one, by rotating P to start at i, the pairs (W, i) of a
    closed path W that starts at s and any of the k positions i.  Such a W
    with n visits of s is a sequence of n first-return loops
    s -> x_1 -> ... -> x_{j-1} -> s with every x_i > s.  So with F_s(t) the
    total product of the loops at s, by length, the paths with least arc s
    add

        sum_n (k / n) [t^k] F_s(t)^n = k [t^k] -log(1 - F_s(t)) = m_k

    to N_k: each path once, from each start position.  Then
    m_k = k f_k + sum_{j<k} m_j f_{k-j} with f_k = [t^k] F_s, and as it is
    homogeneous of degree k, it holds for D^k m_k and D^k f_k, so
    D^k N_k = sum_s D^k m_k is found in ints.

    f_k is a sum over walks, so the route sums them instead of listing
    them.  From each s, after j - 1 steps the map ``walks`` holds, for each
    arc b > s, the D^(j-1)-scaled total product of the walks
    s -> x_1 -> ... -> b of j - 1 transitions with every x_i > s; it starts
    as {s: 1}.  Then D f_1 = D*T[s][s] and D^j f_j = sum_a walks[a] D*T[a][s].
    A step follows the nonzero entries of each row, restricted to columns
    > s, so no walk returns to s or goes below it.  The cost is polynomial:
    upto steps over at most the nonzero entries of D*T, per start arc.
    """
    scale, im = _clear_denominators(theta)
    rows = [tuple((b, v) for b, v in enumerate(row) if v != 0) for row in im]
    totals = [0] * (upto + 1)
    for s in range(len(im)):
        loops = [0, im[s][s]] + [0] * (upto - 1)  # loops[k] = D^k f_k
        walks = {s: 1}
        for j in range(2, upto + 1):
            nxt = {}
            for a, x in walks.items():
                for b, v in rows[a]:
                    if b > s:
                        nxt[b] = nxt.get(b, 0) + x * v
            walks = nxt
            loops[j] = sum(x * im[a][s] for a, x in walks.items())
        if any(loops):
            shares = [0]  # shares[k] = D^k m_k
            for k in range(1, upto + 1):
                shares.append(k * loops[k] + sum(map(mul, shares[1:k], loops[k - 1 : 0 : -1])))
                totals[k] += shares[k]
    return scale, totals[1:]


def _n_k_trace_all(theta, upto: int) -> tuple[int, list[int]]:
    """(D, [D^k N_k for k = 1..upto]), N_k = tr T^k = tr M^k for the rows
    (R, e) of ``_edge_matrix_data``, T = S M S^-1 = diag(1/e) R.

    The route clears denominators itself: P = D*T with D the lcm of the row
    denominators, in Python ints.  It forms P^1..P^h, h = ceil(upto/2),
    multiplying by the sparse rows of P, and reads
    D^k N_k = tr(P^a P^b) = sum_ij P^a[i][j] P^b[j][i], a = k//2, b = k - a.
    """
    rows, dens = theta
    n = len(rows)
    scale = lcm(*dens)
    p1 = [[x * (scale // e) for x in row] for row, e in zip(rows, dens)]
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in p1]
    powers = [p1]  # powers[a - 1] = P^a
    for _ in range((upto + 1) // 2 - 1):
        nxt = []
        for prow in powers[-1]:
            orow = [0] * n
            for x, pv in enumerate(prow):
                if pv:
                    for j, v in sparse[x]:
                        orow[j] += pv * v
            nxt.append(orow)
        powers.append(nxt)
    columns = [list(zip(*power)) for power in powers]
    traces = []
    for k in range(1, upto + 1):
        a = k // 2
        cols = columns[k - a - 1]
        if a == 0:
            total = sum(cols[i][i] for i in range(n))
        else:
            total = sum(sum(map(mul, row, col)) for row, col in zip(powers[a - 1], cols))
        traces.append(total)
    return scale, traces


def _require_consistent(enum_sums, trace_sums):
    """Raise ConsistencyError at the first N_k where two (D, [x_k = D^k N_k])
    differ, x_k D'^k != x'_k D^k; Fractions only word the mismatch."""
    (d1, xs), (d2, ys) = enum_sums, trace_sums
    for k, (x, y) in enumerate(zip(xs, ys), start=1):
        if x * d2**k != y * d1**k:
            raise ConsistencyError(
                f"N_{k} mismatch: enumeration gives {render_rational(Fraction(x, d1**k))},"
                f" trace gives {render_rational(Fraction(y, d2**k))}"
            )


def n_k_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto, computed by both routes with mandatory agreement."""
    if upto < 1:
        raise ZetaError("power-sum order must be >= 1")
    scale, sums = _n_k_all(_edge_matrix_data(d, w), upto)
    return [Fraction(x, scale**k) for k, x in enumerate(sums, start=1)]


def _n_k_all(theta, upto: int) -> tuple[int, list[int]]:
    enum_sums = _n_k_enumerated_all(theta, upto)
    trace_sums = _n_k_trace_all(theta, upto)
    _require_consistent(enum_sums, trace_sums)
    return trace_sums


def _require_series_order(order: int) -> None:
    if order < 1:
        raise ZetaError("series order must be >= 1")


def exponential_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """exp( sum_{k<=order} N_k/k t^k ), truncated at ``order``."""
    _require_series_order(order)
    return _exp_of_power_sums(_n_k_all(_edge_matrix_data(d, w), order), order)


def _exp_of_power_sums(sums, order: int) -> Series:
    """exp( sum_k N_k/k t^k ) to ``order`` from (D, [x_k]), x_k = D^k N_k.

    The x_k are the traces of P^k for the integer matrix P = D*T, so the
    series is 1/det(I - u*P) at u = t/D: its coefficients are e_n = f_n / D^n
    with f_n integers.  Then n f_n = sum_{k=1..n} x_k f_{n-k} divides exactly,
    and only the results become Fractions.
    """
    scale, xs = sums
    fs = [1]
    for n in range(1, order + 1):
        fs.append(sum(map(mul, xs, reversed(fs))) // n)
    return Series([Fraction(f, scale**n) for n, f in enumerate(fs)], order)


def euler_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """Product over prime cycles of 1/(1 - circ(X) t^|X|), truncated."""
    _require_series_order(order)
    return _euler(_edge_matrix_data(d, w), order)


def _euler(theta, order: int) -> Series:
    """The Euler product, accumulated as acc[i] = D^i * (coefficient i) over
    the integer matrix D*T from ``_clear_denominators``.  The prime cycles
    are the Lyndon closed paths of D*T's nonzero entries, those of M, so the
    walk skips every cycle whose product is 0.

    A cycle of length k <= order/2 multiplies acc by 1/(1 - c t^k).  One of
    length k > order/2 has the factor 1 + c t^k to ``order``, since c^2 t^2k
    is past it, and every cross term between two such factors has degree
    above ``order`` as well.  So their product is 1 + sum_k C_k t^k, with
    C_k the total of c over the cycles of length k: the walk lists only the
    cycles of length <= order/2 and adds up the longer ones itself, one C_k
    per length, and acc is multiplied by that sum once at the end.
    """
    scale, im = _clear_denominators(theta)
    half = order // 2
    acc = [1] + [0] * order
    totals = [0] * (order + 1)  # totals[k] = C_k for k > order/2
    for _, k, c in lyndon_cycles(im, order, half):
        if k > half:
            totals[k] += c
        else:
            for i in range(k, order + 1):
                acc[i] += acc[i - k] * c
    # i - k <= order/2 below, so acc[i - k] is still the short cycles' product
    for i in range(order, half, -1):
        acc[i] += sum(map(mul, totals[half + 1 : i + 1], reversed(acc[: i - half])))
    return Series([Fraction(x, scale**i) for i, x in enumerate(acc)], order)


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials, constant term first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _product(polys) -> list[int]:
    acc = [1]
    for f in polys:
        acc = _mul(acc, f)
    return acc


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _over_distinct(fs) -> tuple[list[int], dict]:
    """(F, {f: F / f}): the product F of the distinct coefficient tuples f
    in ``fs`` and the cofactor F / f of each, all integer polynomials,
    each a plain product of the distinct f it covers."""
    distinct = dict.fromkeys(fs)
    return _product(distinct), {f: _product(g for g in distinct if g != f) for f in distinct}


def _vertex_det(terms) -> tuple[list[int], tuple[list[int], int]]:
    """(R, det P) with det(I + sum of terms) = det P / R.

    A term (u, v, k, n, q, f) adds (n / q) t^k / f to entry (u, v), or
    (n / q) t^k when f is None, for ints n and q > 0 in lowest terms and an
    integer coefficient tuple f.  r_u is the product of the distinct f among
    the nonzero terms of row u, R = prod_u r_u, and P is the vertex matrix
    with each row u multiplied by r_u, so that a term's (n / q) / f becomes
    n / q times the cofactor r_u / f.  Row u of P times e_u, the lcm of the
    q of its terms, is the integer polynomial row Q_u, with Q_u(0) = e_u on
    the diagonal; det P is (c, Delta) from ``det_poly_matrix``.  A row with
    no nonzero term keeps the row of the identity and is never materialized.
    """
    by_row = {}
    for term in terms:
        if term[3]:
            by_row.setdefault(term[0], []).append(term)
    big_r, q, dens = [1], {}, {}
    for u, row_terms in by_row.items():
        ru, cofactor = _over_distinct(f for *_, f in row_terms if f is not None)
        big_r = _mul(big_r, ru)
        dens[u] = e = lcm(*(den for *_, den, _ in row_terms))
        q[u, u] = [e * x for x in ru]
        for _, v, k, n, den, f in row_terms:
            mult = ru if f is None else cofactor[f]
            scale = n * (e // den)
            entry = q.setdefault((u, v), [])
            entry += [0] * (k + len(mult) - len(entry))
            for i, x in enumerate(mult, k):
                entry[i] += scale * x
    q = {key: cs for key, cs in q.items() if _trim(cs) or key[0] == key[1]}
    return big_r, det_poly_matrix(q, dens)


def _identity(num, den, kd, hk) -> tuple[Poly, RatFunc, int | None]:
    """(h, rhs, k) for the vertex identity num * det P = h * den, where
    kd = (K, Delta) gives det P = K / Delta and hk = (H, Delta_h) gives
    h = det(I - t*M), returned as a Poly.

    The identity is checked as the integer polynomial equation
    num * K * Delta_h == H * den * Delta.  On a match rhs is h and k is
    None.  Otherwise rhs is the reduced quotient num * det P / den and k the
    first power of t at which the two sides differ; num and den have
    constant term 1, so k is also the first nonzero coefficient of rhs - h.
    """
    (k_vals, delta), (h_vals, h_delta) = kd, hk
    h = _as_poly(h_vals, h_delta)
    lhs = _trim(_mul(num, [x * h_delta for x in k_vals]))
    rhs = _trim(_mul(den, [x * delta for x in h_vals]))
    if lhs == rhs:
        return h, RatFunc.from_poly(h), None
    k = next(i for i, (a, b) in enumerate(zip_longest(lhs, rhs, fillvalue=0)) if a != b)
    return h, RatFunc(_as_poly(_mul(num, k_vals), delta), Poly(den)), k


def _reduced(n: int, q: int) -> tuple[int, int]:
    """n / q in lowest terms as (n, q), for q > 0; (0, 1) for n = 0."""
    g = gcd(n, q)
    return n // g, q // g


def _pair_sum(pairs) -> tuple[int, int]:
    """The sum of the rationals (n, q), q > 0, as a reduced (n, q)."""
    n, q = 0, 1
    for x, y in pairs:
        n, q = n * y + x * q, q * y
    return _reduced(n, q)


def _pair_product(x: tuple[int, int], y: tuple[int, int], k: int = 1) -> tuple[int, int]:
    """k times the product of the rationals x and y, as a reduced (n, q)."""
    return _reduced(k * x[0] * y[0], x[1] * y[1])


def _nonzero_sums(groups: dict) -> dict:
    """{key: the sum of its (n, q) pairs, reduced}, nonzero sums only."""
    return {key: x for key, pairs in groups.items() if (x := _pair_sum(pairs))[0]}


def _weighted_adjacency(d: Digraph, tau1: list, tau2: list) -> dict:
    """{(u, v): sum of tau1(a) tau2(a) over the arcs a in A_uv} as reduced
    (n, q) pairs, nonzero entries only; tau1 and tau2 hold (n, q) pairs."""
    by_pair = {}
    for a, key in enumerate(zip(d.tails, d.heads)):
        by_pair.setdefault(key, []).append(_pair_product(tau1[a], tau2[a]))
    return _nonzero_sums(by_pair)


def _vertex_side(d: Digraph, w: WeightAssignment):
    """The vertex side (prod_f, R, det P) of prod_f * det(I - t*A + t^2*D - t^3*X)
    and the parts the Ihara reports read: the blocks (u, v, out, back), their
    f, A as {(u, v): (n, q)} and the terms (u, v, k, n, q, f) of
    ``_vertex_det``, those of D at t^2 and of -X at t^3 divided by their
    block's f.

    The blocks are those of the inverse relation: a digraph's phi pairs, out
    holding the arcs u -> v and back the arcs v -> u, or a graph's edges,
    arcs 2i and 2i+1.  A block with out = back holds a digraph's loops at u,
    each the inverse of every loop: it takes one direction, D terms only,
    with f = 1 + |A_uu| t.  Any other block takes both directions, with
    f = 1 - |out||back| t^2, so 1 - t^2 for every edge of a graph, loops
    included; there each row's t^3 terms cancel t^3 A r_u, and P is
    I - t*A + t^2*(D - I) on the rows that have a nonzero term.

    Each tau is read once, as its (numerator, denominator) pair, and every
    sum and product stays a reduced int pair: no Fraction is made here.
    """
    if d.mode is GraphMode.SYMMETRIC:
        blocks = [(d.tails[a], d.heads[a], (a,), (a + 1,)) for a in range(0, d.arc_count, 2)]
    else:
        blocks = [(p.u, p.v, p.arcs_uv, p.arcs_vu) for p in d.phi_pairs()]
    tau1 = [(x.numerator, x.denominator) for x in w.tau1]
    tau2 = [(x.numerator, x.denominator) for x in w.tau2]
    a_map = _weighted_adjacency(d, tau1, tau2)
    terms = [(u, v, 1, -n, q, None) for (u, v), (n, q) in a_map.items()]
    fs = []
    for u, v, out, back in blocks:
        s1_out = _pair_sum(tau1[a] for a in out)
        s2_out = _pair_sum(tau2[a] for a in out)
        if out == back:
            f = (1, len(out))
            terms.append((u, u, 2, *_pair_product(s2_out, s1_out), f))
        else:
            f = (1, 0, -len(out) * len(back))
            s1_back = _pair_sum(tau1[a] for a in back)
            s2_back = _pair_sum(tau2[a] for a in back)
            for x, y, s2, s1, s1_other, n_back in (
                (u, v, s2_out, s1_out, s1_back, len(back)),
                (v, u, s2_back, s1_back, s1_out, len(out)),
            ):
                terms.append((x, x, 2, *_pair_product(s2, s1_other), f))
                terms.append((x, y, 3, *_pair_product(s2, s1, -n_back), f))
        fs.append(f)
    return (_product(fs), *_vertex_det(terms)), (blocks, fs, a_map, terms)


def _fractions(table: dict) -> dict:
    """A report table of reduced (n, q) pairs as one of Fractions."""
    return {key: Fraction(n, q) for key, (n, q) in table.items()}


def _digraph_tables(terms) -> tuple[dict, dict]:
    """The D and X report tables {(u, v): RatFunc} of nonzero entries, read
    off the t^2 terms (D) and the t^3 terms (-X).  Each entry sum
    (n / q) / f is formed once, in ints, over the product F of its distinct
    f and the lcm L of its q, as (sum n (L / q) F / f) / (L F): one
    RatFunc, and so one reduction, per nonzero entry, none per term."""
    parts = ({}, {})
    for u, v, k, n, q, f in terms:
        if k > 1 and n:
            parts[k - 2].setdefault((u, v), []).append(((-1) ** k * n, q, f))

    def entry(nqfs):
        big_f, cofactor = _over_distinct(f for *_, f in nqfs)
        scale = lcm(*(q for _, q, _ in nqfs))
        num = [0] * len(big_f)
        for n, q, f in nqfs:
            c = n * (scale // q)
            for i, x in enumerate(cofactor[f]):
                num[i] += c * x
        if not any(num):
            return None
        lead = big_f[-1]  # the denominator goes in monic, so RatFunc need not rescale
        return RatFunc(Poly([Fraction(x, scale * lead) for x in num]), Poly([Fraction(x, lead) for x in big_f]))

    tables = ({key: entry(nqfs) for key, nqfs in part.items()} for part in parts)
    return tuple({key: x for key, x in table.items() if x is not None} for table in tables)


@dataclass(frozen=True)
class IharaDigraph:
    """Vertex determinant data for a general digraph.

    ``a``, ``d_ul`` and ``x_ul`` hold the nonzero entries of A, D and X as
    {(u, v): value} maps.  ``rhs`` is prod_f * det(I - t*A + t^2*D - t^3*X)
    reduced as a rational function; when the identity holds (always, absent
    bugs) it is the polynomial det(I - t*M).
    """

    pairs: tuple[PhiPair, ...]
    f_factors: tuple[Poly, ...]
    a: dict
    d_ul: dict
    x_ul: dict
    rhs: RatFunc
    hashimoto: Poly
    agree: bool


def ihara_digraph(d: Digraph, w: WeightAssignment) -> IharaDigraph:
    """The vertex-sized determinant expression of a general digraph.

    Elementwise, with f = f(u,v) and sums over the arcs of one pair:

        A[u][v]  = sum_{a in A_uv} tau1(a) tau2(a)
        D[u][u]  = sum_w (sum_{a in A_uw} tau2(a)) (sum_{a' in A_wu} tau1(a')) / f(u,w)
        X[u][v]  = |A_vu| (sum_{a in A_uv} tau2(a)) (sum_{a' in A_uv} tau1(a')) / f

    The X form is the expansion of the per-pair block product L J^2 K (the
    inverse-indicator matrix squared); it is the only elementwise variant
    that satisfies prod_f * det(I - tA + t^2 D - t^3 X) = det(I - tM) for
    generic weights; ``agree`` records whether it holds exactly.

    At tau1 = 1 this is Sato's expression prod_f * det(I - t*Au + t^2*Du),
    with Au[u][v] = (sum_{a in A_uv} tau2(a)) / f(u,v) and
    Du[u][u] = sum_{w != u} |A_wu| (sum_{a in A_uw} tau2(a)) / f(u,w),
    entry by entry: off the diagonal -t A - t^3 X = -t Au, because
    f + |A_uv||A_vu| t^2 = 1; on it the loop terms of A and D combine to
    -t Au[u][u], since f(u,u) - |A_uu| t = 1, and the other terms of D are
    those of Du.
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("ihara_digraph requires a general-mode digraph")
    theta = _edge_matrix_data(d, w)
    side, (blocks, fs, a_map, terms) = _vertex_side(d, w)
    h, rhs, k = _identity(*side, _hashimoto(theta))
    d_table, x_table = _digraph_tables(terms)
    return IharaDigraph(
        pairs=tuple(PhiPair(*block) for block in blocks),
        f_factors=tuple(Poly(f) for f in fs),
        a=_fractions(a_map),
        d_ul=d_table,
        x_ul=x_table,
        rhs=rhs,
        hashimoto=h,
        agree=k is None,
    )


@dataclass(frozen=True)
class IharaGraph:
    """Vertex determinant data for the symmetric digraph of a graph.

    ``a_g`` and ``d_g`` hold the nonzero entries of A and D as
    {(u, v): value} maps.  ``rhs`` is (1-t^2)^(|E|-|V|) *
    det(I - t*A + t^2*(D - I)) as a reduced rational function (the exponent
    may be negative).
    """

    a_g: dict
    d_g: dict
    prefactor_exponent: int
    vertex_det: Poly
    rhs: RatFunc
    hashimoto: Poly
    agree: bool


def ihara_graph(g: Digraph, w: WeightAssignment) -> IharaGraph:
    """The vertex-sized determinant expression of a graph, from the blocks
    of ``_vertex_side``, one per edge with f = 1 - t^2.

    D[u][u] is the sum of tau1(a ^ 1) tau2(a) over the arcs a leaving u,
    the numerators of the t^2 terms at u.  A row with no nonzero term is
    the row (1 - t^2) e_u of I - t*A + t^2*(D - I) and adds no row to P
    and no factor to R, so the vertex det is (1 - t^2)^(|V| - deg R / 2)
    det P.
    """
    if g.mode is not GraphMode.SYMMETRIC:
        raise GraphError("ihara_graph requires the symmetric digraph of a graph")
    theta = _edge_matrix_data(g, w)
    side, (_, _, a_map, terms) = _vertex_side(g, w)
    h, rhs, k = _identity(*side, _hashimoto(theta))
    _, big_r, (k_vals, delta) = side
    d_terms = {}
    for u, _, power, n, q, _ in terms:
        if power == 2:
            d_terms.setdefault((u, u), []).append((n, q))
    rows_missing = g.vertex_count - (len(big_r) - 1) // 2
    return IharaGraph(
        a_g=_fractions(a_map),
        d_g=_fractions(_nonzero_sums(d_terms)),
        prefactor_exponent=g.edge_count - g.vertex_count,
        vertex_det=_as_poly(_mul(_product([(1, 0, -1)] * rows_missing), k_vals), delta),
        rhs=rhs,
        hashimoto=h,
        agree=k is None,
    )


@dataclass(frozen=True)
class Verdict:
    name: str
    agree: bool
    detail: str | None


@dataclass(frozen=True)
class ZetaReport:
    """All four expressions of one instance plus pairwise agreement verdicts."""

    order: int
    exponential: Series
    euler: Series
    hashimoto: Poly
    hashimoto_series: Series
    ihara_rhs: RatFunc
    verdicts: tuple[Verdict, ...]

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.verdicts)


def _verdict(name: str, k: int | None) -> Verdict:
    """Agreement, or a mismatch first seen at t^k."""
    return Verdict(name, k is None, None if k is None else f"at t^{k}")


def verify_expressions(d: Digraph, w: WeightAssignment, order: int) -> ZetaReport:
    """Compute all four expressions and compare them.

    Series expressions are compared coefficientwise to ``order``, Hashimoto
    and Ihara exactly as rational functions.  The theta matrix is built once
    and shared by the power sums, the Euler product and Hashimoto; the
    vertex side reads tau1 and tau2 on its own.
    """
    _require_series_order(order)
    theta = _edge_matrix_data(d, w)
    expo = _exp_of_power_sums(_n_k_all(theta, order), order)
    eul = _euler(theta, order)
    side, _ = _vertex_side(d, w)
    hk = _hashimoto(theta)
    h, ihara_rhs, k = _identity(*side, hk)
    h_series = _hashimoto_series(hk, order)
    verdicts = (
        _verdict("exponential-vs-euler", expo.first_mismatch(eul)),
        _verdict("exponential-vs-hashimoto", expo.first_mismatch(h_series)),
        _verdict("euler-vs-hashimoto", eul.first_mismatch(h_series)),
        _verdict("hashimoto-vs-ihara", k),
    )
    return ZetaReport(
        order=order,
        exponential=expo,
        euler=eul,
        hashimoto=h,
        hashimoto_series=h_series,
        ihara_rhs=ihara_rhs,
        verdicts=verdicts,
    )
