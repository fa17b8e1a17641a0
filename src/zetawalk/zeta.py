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
  collect per-pair weight sums (D and X carry 1/f denominators).  For the
  symmetric digraph of a graph,

      det(I - t*M) = (1 - t^2)^(|E| - |V|) * det(I - t*A + t^2*(D - I)).

Every determinant here is read off one scalar kernel, the Hessenberg
characteristic polynomial of ``linalg``:

* det(I - t*M) is the characteristic polynomial of M, reversed;
* both vertex determinants are assembled by ``_cleared_vertex_det``.  The
  digraph vertex matrices carry 1/f denominators: row u is multiplied by
  r_u, the product of the distinct f of the pairs at u, which gives a
  polynomial matrix P(t) = I + t*P_1 + ... + t^k*P_k and
  prod_f * det(vertex matrix) = prod_f * det(P) / prod_u r_u, with det(P)
  the determinant of I - t*C for the block companion matrix C of P.  The
  graph matrix I - t*A + t^2*(D - I) has no denominators (every r_u is 1),
  and C is the 2V x 2V companion [[A, -(D - I)], [I, 0]] (rows of lower
  degree drop out).

Every Ihara-style operation computes its vertex side without det(I - t*M),
then compares the two exactly (prod_f * det(P) == det(I - t*M) * prod_u r_u
for a digraph).  ``ihara_digraph`` and ``ihara_graph`` report the outcome
as ``agree``; ``sato_ihara_digraph`` raises IharaIdentityError on failure.

The series routes run in Python ints.  The two enumeration routes, closed
paths for N_k and prime cycles for the Euler product, run on the integer
matrix D*M, D the lcm of the theta denominators (``_clear_denominators``).
A length-k term then carries D^k, and each result is divided back by its
power of D once at the end, so the routes stay exact without a Fraction
operation per path.  The closed-path walk goes level by level and skips any
arc from which its start arc is out of reach in the remaining length; the
prime-cycle walk (``digraph.lyndon_cycles``) follows the nonzero entries of
D*M only.  The trace route to N_k clears the denominators on its own and
reads each N_k off two powers of at most ceil(order/2); the two N_k routes
must agree exactly (ConsistencyError otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import Poly, RatFunc, Series, as_fraction
from .digraph import (
    Digraph, GraphError, GraphMode, PhiPair, lyndon_cycles, predecessors, steps_to as _steps_to,
)
from .linalg import Matrix, det_one_minus_t, det_poly_matrix


_ZERO = Fraction(0)
_ONE = Fraction(1)


class ZetaError(Exception):
    """Base class for zeta-engine failures."""


class ConsistencyError(ZetaError):
    """Two mandatory computation routes disagreed (internal defect)."""


class IharaIdentityError(ZetaError):
    """The vertex determinant expression failed to match det(I - t*M)."""


@dataclass(frozen=True)
class WeightAssignment:
    """Total rational arc weight maps tau1, tau2."""

    tau1: tuple
    tau2: tuple

    @classmethod
    def ones(cls, d: Digraph) -> "WeightAssignment":
        return cls((_ONE,) * d.arc_count, (_ONE,) * d.arc_count)

    @classmethod
    def from_maps(cls, d: Digraph, tau1=None, tau2=None) -> "WeightAssignment":
        """Build from partial {arc id: value} maps; missing entries default to 1."""

        def fill(m):
            vals = [_ONE] * d.arc_count
            if m is not None:
                for aid, v in dict(m).items():
                    if not 0 <= aid < d.arc_count:
                        raise GraphError(f"weight for unknown arc id {aid}")
                    vals[aid] = as_fraction(v)
            return tuple(vals)

        return cls(fill(tau1), fill(tau2))

    def tau(self, a: int, b: int):
        return self.tau1[a] * self.tau2[b]


def edge_matrix(d: Digraph, w: WeightAssignment) -> Matrix:
    """The arc-indexed matrix M with entries theta(a, b)."""
    return Matrix(_edge_matrix_data(d, w))


def _edge_matrix_data(d: Digraph, w: WeightAssignment) -> list[list]:
    n = d.arc_count
    m = [[_ZERO] * n for _ in range(n)]
    for a in d.arcs:
        row = m[a.id]
        t1 = w.tau1[a.id]
        for b in d.out_arcs(a.head):
            row[b] = t1 * w.tau2[b]
        for b in d.inverse_set(a.id):
            row[b] = row[b] - _ONE
    return m


def hashimoto(d: Digraph, w: WeightAssignment) -> Poly:
    """The polynomial det(I - t*M); its series inverse is the zeta function."""
    return det_one_minus_t(Matrix(_edge_matrix_data(d, w)))


def _clear_denominators(rows: list[list]) -> tuple[int, list[list[int]]]:
    """(D, D * rows) for a matrix of rationals, D the lcm of the entry
    denominators, so that every scaled entry is a Python int."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _n_k_enumerated_all(m: list[list], upto: int) -> list:
    """N_1..N_upto by direct closed-path enumeration of circular products.

    The walk runs on the Python ints D*M from ``_clear_denominators``, so a
    closed path of length k adds D^k times its circular product and N_k is
    the total over D^k.  From each start arc s it goes level by level: a
    level holds, for each arc a, the list of products of the walks of the
    current length from s to a, and each walk's product is formed on its
    own.  A walk at depth k moves on to arc b only if b leads back to s in
    at most upto - k steps along nonzero entries; every skipped branch
    holds no closed path of length at most ``upto`` and would contribute 0.
    The last level is summed as it is formed and never held, so memory is
    the widest of the levels before it.
    """
    scale, im = _clear_denominators(m)
    rows = [tuple((b, v) for b, v in enumerate(row) if v != 0) for row in im]
    preds = predecessors([[b for b, _ in row] for row in rows])
    totals = [0] * (upto + 1)
    for s in range(len(im)):
        steps = _steps_to(preds, s, upto)
        level = {s: [1]}
        for depth in range(1, upto + 1):
            nxt = {}
            for a, prods in level.items():
                wrap = im[a][s]
                if wrap:
                    totals[depth] += wrap * sum(prods)
                for b, v in rows[a]:
                    if depth + steps[b] > upto:
                        continue
                    if depth + 1 == upto:
                        # b closes at once; the last level is not held
                        totals[upto] += im[b][s] * sum([p * v for p in prods])
                    elif b in nxt:
                        nxt[b] += [p * v for p in prods]
                    else:
                        nxt[b] = [p * v for p in prods]
            if not nxt:
                break
            level = nxt
    return [Fraction(total, scale**k) for k, total in enumerate(totals[1:], start=1)]


def _n_k_trace_all(m: list[list], upto: int) -> list:
    """N_1..N_upto as traces of powers of the theta edge matrix.

    The route clears denominators itself: P = D*M with D the lcm of the
    entry denominators, in Python ints.  It forms P^1..P^h, h = ceil(upto/2),
    multiplying by the sparse rows of P, and reads
    D^k N_k = tr(P^a P^b) = sum_ij P^a[i][j] P^b[j][i], a = k//2, b = k - a.
    """
    n = len(m)
    if n == 0:
        return [_ZERO] * upto
    scale = lcm(*(x.denominator for row in m for x in row))
    p1 = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
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
        traces.append(Fraction(total, scale**k))
    return traces


def _require_consistent(enum_vals, trace_vals):
    for k, (a, b) in enumerate(zip(enum_vals, trace_vals), start=1):
        if a != b:
            raise ConsistencyError(
                f"N_{k} mismatch: enumeration gives {a!r}, trace gives {b!r}"
            )


def n_k_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto, computed by both routes with mandatory agreement."""
    if upto < 1:
        raise ZetaError("power-sum order must be >= 1")
    return _n_k_all(_edge_matrix_data(d, w), upto)


def _n_k_all(m: list[list], upto: int) -> list:
    enum_vals = _n_k_enumerated_all(m, upto)
    trace_vals = _n_k_trace_all(m, upto)
    _require_consistent(enum_vals, trace_vals)
    return trace_vals


def _require_series_order(order: int) -> None:
    if order < 1:
        raise ZetaError("series order must be >= 1")


def exponential_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """exp( sum_{k<=order} N_k/k t^k ), truncated at ``order``."""
    _require_series_order(order)
    return _exp_of_power_sums(n_k_all(d, w, order), order)


def _exp_of_power_sums(sums: list, order: int) -> Series:
    coeffs = [_ZERO] + [v / k for k, v in enumerate(sums, start=1)]
    return Series(coeffs, order).exp()


def euler_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """Product over prime cycles of 1/(1 - circ(X) t^|X|), truncated."""
    _require_series_order(order)
    return _euler(_edge_matrix_data(d, w), order)


def _euler(m: list[list], order: int) -> Series:
    """The Euler product, accumulated as acc[i] = D^i * (coefficient i) over
    the integer matrix D*M from ``_clear_denominators``.  The prime cycles
    are the Lyndon closed paths of D*M's nonzero entries, so the walk skips
    every cycle whose product is 0."""
    scale, im = _clear_denominators(m)
    acc = [1] + [0] * order
    for _, k, c in lyndon_cycles(im, order):
        for i in range(k, order + 1):
            acc[i] += acc[i - k] * c
    return Series([Fraction(x, scale**i) for i, x in enumerate(acc)], order)


def pair_f_poly(pair: PhiPair) -> Poly:
    """The per-pair factor: 1 + n*t on the diagonal, 1 - k*l*t^2 otherwise."""
    if pair.is_diagonal:
        return Poly([1, len(pair.arcs_uv)])
    return Poly([1, 0, -len(pair.arcs_uv) * len(pair.arcs_vu)])


def _weighted_adjacency(d: Digraph, w: WeightAssignment) -> list[list]:
    """Vertex matrix with (u,v) entry sum of tau(a,a) over arcs a in A_uv."""
    nv = d.vertex_count
    a_mat = [[_ZERO] * nv for _ in range(nv)]
    for arc in d.arcs:
        a_mat[arc.tail][arc.head] = a_mat[arc.tail][arc.head] + w.tau(arc.id, arc.id)
    return a_mat


def _sum_over(w_vals, arc_ids):
    return sum((w_vals[a] for a in arc_ids), _ZERO)


def _cleared_vertex_det(nv: int, pairs, f_polys, terms) -> tuple[Poly, Poly]:
    """prod_f * det(I + sum of terms), as a numerator and a denominator.

    Each term (u, v, c, p) adds c / f_p to entry (u, v) of the vertex
    matrix, or c itself when p is None; every c is a polynomial.  Row u is
    multiplied by r_u, the product of the distinct f of the pairs at u,
    which clears its denominators and leaves a polynomial matrix P with
    P(0) = I.  With R the product of all r_u, det(vertex matrix) = det P / R,
    so the result is (prod_f * det P, R).
    """
    at = [{} for _ in range(nv)]
    for pair, f in zip(pairs, f_polys):
        for u in {pair.u, pair.v}:
            at[u][f.coeffs] = f
    one = Poly.one()

    def product(factors):
        acc = one
        for f in factors:
            acc = acc * f
        return acc

    r = [product(at[u].values()) for u in range(nv)]
    # r_u / f for each distinct f at u
    cofactor = [
        {key: product(f for k, f in at[u].items() if k != key) for key in at[u]}
        for u in range(nv)
    ]
    zero = Poly.zero()
    rows = [[r[u] if u == v else zero for v in range(nv)] for u in range(nv)]
    for u, v, c, p in terms:
        mult = r[u] if p is None else cofactor[u][f_polys[p].coeffs]
        rows[u][v] = rows[u][v] + c * mult
    return product(f_polys) * det_poly_matrix(Matrix(rows)), product(r)


@dataclass(frozen=True)
class IharaDigraph:
    """Vertex determinant data for a general digraph.

    ``rhs`` is prod_f * det(I - t*A + t^2*D - t^3*X) reduced as a rational
    function; when the identity holds (always, absent bugs) it is the
    polynomial det(I - t*M).
    """

    pairs: tuple[PhiPair, ...]
    f_factors: tuple[Poly, ...]
    a: Matrix
    d_ul: Matrix
    x_ul: Matrix
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
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("ihara_digraph requires a general-mode digraph")
    return _ihara_digraph(d, w, hashimoto(d, w))


def _ihara_digraph(d: Digraph, w: WeightAssignment, h: Poly) -> IharaDigraph:
    nv = d.vertex_count
    pairs = d.phi_pairs()
    f_polys = tuple(pair_f_poly(p) for p in pairs)

    a_mat = _weighted_adjacency(d, w)
    terms = [
        (u, v, Poly.monomial(1, -a_mat[u][v]), None)
        for u in range(nv)
        for v in range(nv)
        if a_mat[u][v] != 0
    ]
    rzero = RatFunc.zero()
    d_mat = [[rzero] * nv for _ in range(nv)]
    x_mat = [[rzero] * nv for _ in range(nv)]

    t2, minus_t3 = Poly.monomial(2), Poly.monomial(3, -1)

    def add(mat, t_power, u, v, c, p):
        mat[u][v] = mat[u][v] + RatFunc(Poly.constant(c), f_polys[p])
        terms.append((u, v, t_power.scale(c), p))

    for p, pair in enumerate(pairs):
        u, v = pair.u, pair.v
        if pair.is_diagonal:
            s1 = _sum_over(w.tau1, pair.arcs_uv)
            s2 = _sum_over(w.tau2, pair.arcs_uv)
            add(d_mat, t2, u, u, s2 * s1, p)
        else:
            s1_uv = _sum_over(w.tau1, pair.arcs_uv)
            s2_uv = _sum_over(w.tau2, pair.arcs_uv)
            s1_vu = _sum_over(w.tau1, pair.arcs_vu)
            s2_vu = _sum_over(w.tau2, pair.arcs_vu)
            k_uv, l_vu = len(pair.arcs_uv), len(pair.arcs_vu)
            add(d_mat, t2, u, u, s2_uv * s1_vu, p)
            add(d_mat, t2, v, v, s2_vu * s1_uv, p)
            add(x_mat, minus_t3, u, v, l_vu * (s2_uv * s1_uv), p)
            add(x_mat, minus_t3, v, u, k_uv * (s2_vu * s1_vu), p)

    num, den = _cleared_vertex_det(nv, pairs, f_polys, terms)
    agree = num == h * den
    return IharaDigraph(
        pairs=pairs,
        f_factors=f_polys,
        a=Matrix(a_mat),
        d_ul=Matrix(d_mat),
        x_ul=Matrix(x_mat),
        rhs=RatFunc.from_poly(h) if agree else RatFunc(num, den),
        hashimoto=h,
        agree=agree,
    )


@dataclass(frozen=True)
class IharaGraph:
    """Vertex determinant data for the symmetric digraph of a graph.

    ``rhs`` is (1-t^2)^(|E|-|V|) * det(I - t*A + t^2*(D - I)) as a reduced
    rational function (the exponent may be negative).
    """

    a_g: Matrix
    d_g: Matrix
    prefactor_exponent: int
    vertex_det: Poly
    rhs: RatFunc
    hashimoto: Poly
    agree: bool


def ihara_graph(g: Digraph, w: WeightAssignment) -> IharaGraph:
    if g.mode is not GraphMode.SYMMETRIC:
        raise GraphError("ihara_graph requires the symmetric digraph of a graph")
    return _ihara_graph(g, w, hashimoto(g, w))


def _ihara_graph(g: Digraph, w: WeightAssignment, h: Poly) -> IharaGraph:
    nv = g.vertex_count
    a_mat = _weighted_adjacency(g, w)
    d_diag = [_ZERO] * nv
    for arc in g.arcs:
        d_diag[arc.tail] = d_diag[arc.tail] + w.tau1[g.partner(arc.id)] * w.tau2[arc.id]
    # I - t*A + t^2*(D - I) as terms with no pairs: every r_u is 1
    terms = [
        (u, v, Poly.monomial(1, -a_mat[u][v]), None)
        for u in range(nv)
        for v in range(nv)
        if a_mat[u][v] != 0
    ]
    terms += [(u, u, Poly.monomial(2, d_diag[u] - 1), None) for u in range(nv)]
    vertex_det, _ = _cleared_vertex_det(nv, (), (), terms)
    m_exp = g.edge_count - nv
    one_minus_t2 = Poly([1, 0, -1])
    if m_exp >= 0:
        rhs = RatFunc.from_poly(vertex_det * one_minus_t2**m_exp)
    else:
        rhs = RatFunc(vertex_det, one_minus_t2 ** (-m_exp))
    return IharaGraph(
        a_g=Matrix(a_mat),
        d_g=Matrix([[d_diag[i] if i == j else _ZERO for j in range(nv)] for i in range(nv)]),
        prefactor_exponent=m_exp,
        vertex_det=vertex_det,
        rhs=rhs,
        hashimoto=h,
        agree=rhs == RatFunc.from_poly(h),
    )


def sato_ihara_digraph(d: Digraph, tau2=None) -> Poly:
    """Vertex determinant at tau1 = 1 for a general digraph.

    Uses the weighted adjacency with per-pair denominators and the diagonal
    correction from opposite-direction pairs only:

        rhs = prod_f * det(I - t*Au + t^2*Du),
        Au[u][v] = (sum_{a in A_uv} tau2(a)) / f(u,v),
        Du[u][u] = sum_{w != u} |A_wu| (sum_{a in A_uw} tau2(a)) / f(u,w).

    Checked exactly against hashimoto at tau1 = 1; raises
    IharaIdentityError on a mismatch.
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("sato_ihara_digraph requires a general-mode digraph")
    w = WeightAssignment.from_maps(d, tau1=None, tau2=tau2)
    pairs = d.phi_pairs()
    f_polys = tuple(pair_f_poly(p) for p in pairs)
    terms = []
    for p, pair in enumerate(pairs):
        u, v = pair.u, pair.v
        if pair.is_diagonal:
            s2 = _sum_over(w.tau2, pair.arcs_uv)
            terms.append((u, u, Poly.monomial(1, -s2), p))
        else:
            s2_uv = _sum_over(w.tau2, pair.arcs_uv)
            s2_vu = _sum_over(w.tau2, pair.arcs_vu)
            k_uv, l_vu = len(pair.arcs_uv), len(pair.arcs_vu)
            terms.append((u, v, Poly.monomial(1, -s2_uv), p))
            terms.append((v, u, Poly.monomial(1, -s2_vu), p))
            terms.append((u, u, Poly.monomial(2, l_vu * s2_uv), p))
            terms.append((v, v, Poly.monomial(2, k_uv * s2_vu), p))
    num, den = _cleared_vertex_det(d.vertex_count, pairs, f_polys, terms)
    h = hashimoto(d, w)
    if num != h * den:
        raise IharaIdentityError(
            f"tau1=1 digraph expression mismatch: {RatFunc(num, den).render()} "
            f"vs {h.render()}"
        )
    return h


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


def _series_verdict(name: str, s1: Series, s2: Series) -> Verdict:
    k = s1.first_mismatch(s2)
    return Verdict(name, k is None, None if k is None else f"at t^{k}")


def verify_expressions(d: Digraph, w: WeightAssignment, order: int) -> ZetaReport:
    """Compute all four expressions and compare them.

    Series expressions are compared coefficientwise to ``order``, Hashimoto
    and Ihara exactly as rational functions.  The theta matrix is built once
    and shared by the power sums, the Euler product and det(I - t*M).
    """
    _require_series_order(order)
    m = _edge_matrix_data(d, w)
    expo = _exp_of_power_sums(_n_k_all(m, order), order)
    eul = _euler(m, order)
    h = det_one_minus_t(Matrix(m))
    if d.mode is GraphMode.SYMMETRIC:
        ih = _ihara_graph(d, w, h)
    else:
        ih = _ihara_digraph(d, w, h)
    h_series = Series.from_poly(h, order).inv()
    if ih.agree:
        ihara_detail = None
    else:
        diff = ih.rhs - RatFunc.from_poly(h)
        ks = [i for i, c in enumerate(diff.num.coeffs) if c]
        ihara_detail = f"at t^{ks[0]}" if ks else "denominator differs"
    verdicts = (
        _series_verdict("exponential-vs-euler", expo, eul),
        _series_verdict("exponential-vs-hashimoto", expo, h_series),
        _series_verdict("euler-vs-hashimoto", eul, h_series),
        Verdict("hashimoto-vs-ihara", ih.agree, ihara_detail),
    )
    return ZetaReport(
        order=order,
        exponential=expo,
        euler=eul,
        hashimoto=h,
        hashimoto_series=h_series,
        ihara_rhs=ih.rhs,
        verdicts=verdicts,
    )
