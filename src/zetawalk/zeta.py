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

Every Ihara-style operation recomputes det(I - t*M) and verifies the
identity exactly, raising IharaIdentityError with both sides on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, QQ, RatFunc, Series
from .digraph import Digraph, GraphError, GraphMode, PhiPair, iter_prime_cycles
from .linalg import Matrix, det_bareiss, det_field


class ZetaError(Exception):
    """Base class for zeta-engine failures."""


class ConsistencyError(ZetaError):
    """Two mandatory computation routes disagreed (internal defect)."""


class IharaIdentityError(ZetaError):
    """The vertex determinant expression failed to match det(I - t*M)."""


@dataclass(frozen=True)
class WeightAssignment:
    """Total arc weight maps tau1, tau2 over a coefficient field."""

    field: object
    tau1: tuple
    tau2: tuple

    @classmethod
    def ones(cls, d: Digraph, field=QQ) -> "WeightAssignment":
        one = field.one
        return cls(field, (one,) * d.arc_count, (one,) * d.arc_count)

    @classmethod
    def from_maps(cls, d: Digraph, tau1=None, tau2=None, field=QQ) -> "WeightAssignment":
        """Build from partial {arc id: value} maps; missing entries default to 1."""

        def fill(m):
            vals = [field.one] * d.arc_count
            if m is not None:
                for aid, v in dict(m).items():
                    if not 0 <= aid < d.arc_count:
                        raise GraphError(f"weight for unknown arc id {aid}")
                    vals[aid] = field.coerce(v)
            return tuple(vals)

        return cls(field, fill(tau1), fill(tau2))

    def tau(self, a: int, b: int):
        return self.tau1[a] * self.tau2[b]


def theta_value(d: Digraph, w: WeightAssignment, a: int, b: int):
    """The pair weight theta(a, b)."""
    arc_a, arc_b = d.arcs[a], d.arcs[b]
    val = w.field.zero
    if arc_a.head == arc_b.tail:
        val = w.tau1[a] * w.tau2[b]
    if b in d.inverse_set(a):
        val = val - w.field.one
    return val


def edge_matrix(d: Digraph, w: WeightAssignment) -> Matrix:
    """The arc-indexed matrix M with entries theta(a, b)."""
    return Matrix(_edge_matrix_data(d, w))


def _edge_matrix_data(d: Digraph, w: WeightAssignment) -> list[list]:
    field = w.field
    zero, one = field.zero, field.one
    n = d.arc_count
    m = [[zero] * n for _ in range(n)]
    for a in d.arcs:
        row = m[a.id]
        t1 = w.tau1[a.id]
        for b in d.out_arcs(a.head):
            row[b] = t1 * w.tau2[b]
        for b in d.inverse_set(a.id):
            row[b] = row[b] - one
    return m


@dataclass(frozen=True)
class StructuralMatrices:
    """The inverse-indicator, head, and tail matrices, and T = I + tJ.

    Satisfies M = K*L - J entrywise, where M is the theta edge matrix.
    Rows/columns follow ``arc_order`` (construction order by default); under
    the phi-grouped order J is block diagonal with one block per pair.
    """

    j: Matrix
    k: Matrix
    l: Matrix
    t: Matrix
    arc_order: tuple[int, ...]


def structural_matrices(d: Digraph, w: WeightAssignment, arc_order=None) -> StructuralMatrices:
    field = w.field
    zero, one = field.zero, field.one
    order = tuple(arc_order) if arc_order is not None else tuple(range(d.arc_count))
    n, nv = len(order), d.vertex_count
    inv_sets = [d.inverse_set(a) for a in order]
    j = Matrix([[one if order[bj] in inv_sets[ai] else zero for bj in range(n)] for ai in range(n)])
    k = Matrix(
        [
            [w.tau1[a] if d.arcs[a].head == v else zero for v in range(nv)]
            for a in order
        ]
    )
    l = Matrix(
        [
            [w.tau2[b] if d.arcs[b].tail == u else zero for b in order]
            for u in range(nv)
        ]
    )
    pone, pzero = Poly.one(field), Poly.zero(field)
    t_var = Poly.variable(field)
    t = Matrix(
        [
            [
                (pone if ai == bj else pzero) + t_var.scale(j[ai, bj])
                for bj in range(n)
            ]
            for ai in range(n)
        ]
    )
    return StructuralMatrices(j, k, l, t, order)


def hashimoto(d: Digraph, w: WeightAssignment) -> Poly:
    """The polynomial det(I - t*M); its series inverse is the zeta function."""
    field = w.field
    n = d.arc_count
    if n == 0:
        return Poly.one(field)
    m = _edge_matrix_data(d, w)
    one, zero = field.one, field.zero
    rows = [
        [Poly(field, [one if i == j else zero, -m[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    return det_bareiss(Matrix(rows))


def _theta_rows(m: list[list]) -> list[tuple]:
    return [tuple((b, v) for b, v in enumerate(row) if v != 0) for row in m]


def _n_k_enumerated_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto by direct closed-path enumeration of circular products."""
    field = w.field
    m = _edge_matrix_data(d, w)
    rows = _theta_rows(m)
    n = d.arc_count
    totals = [field.zero] * (upto + 1)
    one = field.one

    def walk(a, depth, prod, wrap_col):
        wrap = wrap_col[a]
        if wrap != 0:
            totals[depth] = totals[depth] + prod * wrap
        if depth < upto:
            nxt = depth + 1
            for b, v in rows[a]:
                walk(b, nxt, prod * v, wrap_col)

    for s in range(n):
        wrap_col = [m[a][s] for a in range(n)]
        walk(s, 1, one, wrap_col)
    return totals[1:]


def _n_k_trace_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto as traces of powers of the theta edge matrix."""
    field = w.field
    m = _edge_matrix_data(d, w)
    n = d.arc_count
    if n == 0:
        return [field.zero] * upto
    zero = field.zero
    power = m
    traces = []
    for _ in range(upto):
        traces.append(sum((power[i][i] for i in range(n)), zero))
        if len(traces) == upto:
            break
        nxt = [[zero] * n for _ in range(n)]
        for i in range(n):
            prow = power[i]
            orow = nxt[i]
            for x, pv in enumerate(prow):
                if pv == 0:
                    continue
                mrow = m[x]
                for jj in range(n):
                    mv = mrow[jj]
                    if mv != 0:
                        orow[jj] = orow[jj] + pv * mv
        power = nxt
    return traces


def _require_consistent(field, enum_vals, trace_vals):
    for k, (a, b) in enumerate(zip(enum_vals, trace_vals), start=1):
        if not field.eq(a, b):
            raise ConsistencyError(
                f"N_{k} mismatch: enumeration gives {a!r}, trace gives {b!r}"
            )


def n_k_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto, computed by both routes with mandatory agreement."""
    if upto < 1:
        raise ZetaError("power-sum order must be >= 1")
    enum_vals = _n_k_enumerated_all(d, w, upto)
    trace_vals = _n_k_trace_all(d, w, upto)
    _require_consistent(w.field, enum_vals, trace_vals)
    return trace_vals


def n_k(d: Digraph, w: WeightAssignment, k: int):
    """The weighted closed-path sum N_k (dual-route checked)."""
    return n_k_all(d, w, k)[-1]


def exponential_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """exp( sum_{k<=order} N_k/k t^k ), truncated at ``order``."""
    if order < 1:
        raise ZetaError("series order must be >= 1")
    field = w.field
    sums = n_k_all(d, w, order)
    coeffs = [field.zero] + [v / k for k, v in enumerate(sums, start=1)]
    return Series(field, coeffs, order).exp()


def euler_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """Product over prime cycles of 1/(1 - circ(X) t^|X|), truncated."""
    if order < 1:
        raise ZetaError("series order must be >= 1")
    field = w.field
    m = _edge_matrix_data(d, w)
    acc = [field.one] + [field.zero] * order
    for cyc in iter_prime_cycles(d, order):
        k = len(cyc)
        c = field.one
        for i, a in enumerate(cyc):
            c = c * m[a][cyc[(i + 1) % k]]
            if c == 0:
                break
        if c == 0:
            continue
        for i in range(k, order + 1):
            acc[i] = acc[i] + acc[i - k] * c
    return Series(field, acc, order)


def pair_f_poly(field, pair: PhiPair) -> Poly:
    """The per-pair factor: 1 + n*t on the diagonal, 1 - k*l*t^2 otherwise."""
    if pair.is_diagonal:
        return Poly(field, [field.one, field.coerce(len(pair.arcs_uv))])
    kl = len(pair.arcs_uv) * len(pair.arcs_vu)
    return Poly(field, [field.one, field.zero, -field.coerce(kl)])


def _weighted_adjacency(d: Digraph, w: WeightAssignment) -> list[list]:
    """Vertex matrix with (u,v) entry sum of tau(a,a) over arcs a in A_uv."""
    field = w.field
    nv = d.vertex_count
    a_mat = [[field.zero] * nv for _ in range(nv)]
    for arc in d.arcs:
        a_mat[arc.tail][arc.head] = a_mat[arc.tail][arc.head] + w.tau(arc.id, arc.id)
    return a_mat


def _sum_over(w_vals, arc_ids, zero):
    acc = zero
    for a in arc_ids:
        acc = acc + w_vals[a]
    return acc


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


def ihara_digraph(d: Digraph, w: WeightAssignment, check: bool = True) -> IharaDigraph:
    """The vertex-sized determinant expression of a general digraph.

    Elementwise, with f = f(u,v) and sums over the arcs of one pair:

        A[u][v]  = sum_{a in A_uv} tau1(a) tau2(a)
        D[u][u]  = sum_w (sum_{a in A_uw} tau2(a)) (sum_{a' in A_wu} tau1(a')) / f(u,w)
        X[u][v]  = |A_vu| (sum_{a in A_uv} tau2(a)) (sum_{a' in A_uv} tau1(a')) / f

    The X form is the expansion of the per-pair block product L J^2 K (the
    inverse-indicator matrix squared); it is the only elementwise variant
    that satisfies prod_f * det(I - tA + t^2 D - t^3 X) = det(I - tM) for
    generic weights, which ``check`` asserts exactly.
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("ihara_digraph requires a general-mode digraph")
    field = w.field
    nv = d.vertex_count
    pairs = d.phi_pairs()
    f_polys = tuple(pair_f_poly(field, p) for p in pairs)

    rzero = RatFunc.zero(field)
    a_mat = _weighted_adjacency(d, w)
    d_mat = [[rzero] * nv for _ in range(nv)]
    x_mat = [[rzero] * nv for _ in range(nv)]
    zero = field.zero
    for pair, f in zip(pairs, f_polys):
        f_rf = RatFunc.from_poly(f)
        u, v = pair.u, pair.v
        if pair.is_diagonal:
            s1 = _sum_over(w.tau1, pair.arcs_uv, zero)
            s2 = _sum_over(w.tau2, pair.arcs_uv, zero)
            d_mat[u][u] = d_mat[u][u] + RatFunc.from_poly(Poly.constant(field, s2 * s1)) / f_rf
        else:
            s1_uv = _sum_over(w.tau1, pair.arcs_uv, zero)
            s2_uv = _sum_over(w.tau2, pair.arcs_uv, zero)
            s1_vu = _sum_over(w.tau1, pair.arcs_vu, zero)
            s2_vu = _sum_over(w.tau2, pair.arcs_vu, zero)
            k_uv, l_vu = len(pair.arcs_uv), len(pair.arcs_vu)
            d_mat[u][u] = d_mat[u][u] + RatFunc.from_poly(Poly.constant(field, s2_uv * s1_vu)) / f_rf
            d_mat[v][v] = d_mat[v][v] + RatFunc.from_poly(Poly.constant(field, s2_vu * s1_uv)) / f_rf
            x_mat[u][v] = x_mat[u][v] + RatFunc.from_poly(Poly.constant(field, l_vu * (s2_uv * s1_uv))) / f_rf
            x_mat[v][u] = x_mat[v][u] + RatFunc.from_poly(Poly.constant(field, k_uv * (s2_vu * s1_vu))) / f_rf

    t2 = RatFunc.from_poly(Poly.monomial(field, 2))
    t3 = RatFunc.from_poly(Poly.monomial(field, 3))
    rows = []
    for i in range(nv):
        row = []
        for j in range(nv):
            base = Poly(field, [field.one if i == j else field.zero, -a_mat[i][j]])
            entry = RatFunc.from_poly(base)
            if not d_mat[i][j].is_zero():
                entry = entry + d_mat[i][j] * t2
            if not x_mat[i][j].is_zero():
                entry = entry - x_mat[i][j] * t3
            row.append(entry)
        rows.append(row)
    det = det_field(Matrix(rows), RatFunc.one(field))
    prod_f = Poly.one(field)
    for f in f_polys:
        prod_f = prod_f * f
    rhs = det * RatFunc.from_poly(prod_f)
    h = hashimoto(d, w)
    agree = rhs == RatFunc.from_poly(h)
    if check and not agree:
        raise IharaIdentityError(
            "vertex determinant expression disagrees with det(I - t*M): "
            f"rhs = {rhs.render()} vs hashimoto = {h.render()}"
        )
    return IharaDigraph(
        pairs=pairs,
        f_factors=f_polys,
        a=Matrix(a_mat),
        d_ul=Matrix(d_mat),
        x_ul=Matrix(x_mat),
        rhs=rhs,
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


def ihara_graph(g: Digraph, w: WeightAssignment, check: bool = True) -> IharaGraph:
    if g.mode is not GraphMode.SYMMETRIC:
        raise GraphError("ihara_graph requires the symmetric digraph of a graph")
    field = w.field
    nv = g.vertex_count
    a_mat = _weighted_adjacency(g, w)
    d_diag = [field.zero] * nv
    for arc in g.arcs:
        d_diag[arc.tail] = d_diag[arc.tail] + w.tau1[g.partner(arc.id)] * w.tau2[arc.id]
    one, zero = field.one, field.zero
    rows = [
        [
            Poly(
                field,
                [
                    one if i == j else zero,
                    -a_mat[i][j],
                    (d_diag[i] - one) if i == j else zero,
                ],
            )
            for j in range(nv)
        ]
        for i in range(nv)
    ]
    vertex_det = det_bareiss(Matrix(rows), Poly.one(field))
    m_exp = g.edge_count - nv
    one_minus_t2 = Poly(field, [one, zero, -one])
    if m_exp >= 0:
        rhs = RatFunc.from_poly(vertex_det * one_minus_t2**m_exp)
    else:
        rhs = RatFunc(vertex_det, one_minus_t2 ** (-m_exp))
    h = hashimoto(g, w)
    agree = rhs == RatFunc.from_poly(h)
    if check and not agree:
        raise IharaIdentityError(
            "graph vertex determinant expression disagrees with det(I - t*M): "
            f"rhs = {rhs.render()} vs hashimoto = {h.render()}"
        )
    return IharaGraph(
        a_g=Matrix(a_mat),
        d_g=Matrix([[d_diag[i] if i == j else zero for j in range(nv)] for i in range(nv)]),
        prefactor_exponent=m_exp,
        vertex_det=vertex_det,
        rhs=rhs,
        hashimoto=h,
        agree=agree,
    )


def sato_ihara_digraph(d: Digraph, tau2=None, field=QQ) -> Poly:
    """Vertex determinant at tau1 = 1 for a general digraph.

    Uses the weighted adjacency with per-pair denominators and the diagonal
    correction from opposite-direction pairs only:

        rhs = prod_f * det(I - t*Au + t^2*Du),
        Au[u][v] = (sum_{a in A_uv} tau2(a)) / f(u,v),
        Du[u][u] = sum_{w != u} |A_wu| (sum_{a in A_uw} tau2(a)) / f(u,w).

    Must agree exactly with hashimoto and with the general Ihara expression
    at tau1 = 1; raises IharaIdentityError otherwise.
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("sato_ihara_digraph requires a general-mode digraph")
    if not field.exact:
        raise TypeError("sato operations are exact-field only")
    w = WeightAssignment.from_maps(d, tau1=None, tau2=tau2, field=field)
    nv = d.vertex_count
    pairs = d.phi_pairs()
    rzero = RatFunc.zero(field)
    a_mat = [[rzero] * nv for _ in range(nv)]
    d_mat = [[rzero] * nv for _ in range(nv)]
    zero = field.zero
    prod_f = Poly.one(field)
    for pair in pairs:
        f_rf = RatFunc.from_poly(pair_f_poly(field, pair))
        prod_f = prod_f * pair_f_poly(field, pair)
        u, v = pair.u, pair.v
        if pair.is_diagonal:
            s2 = _sum_over(w.tau2, pair.arcs_uv, zero)
            a_mat[u][u] = a_mat[u][u] + RatFunc.from_poly(Poly.constant(field, s2)) / f_rf
        else:
            s2_uv = _sum_over(w.tau2, pair.arcs_uv, zero)
            s2_vu = _sum_over(w.tau2, pair.arcs_vu, zero)
            k_uv, l_vu = len(pair.arcs_uv), len(pair.arcs_vu)
            a_mat[u][v] = a_mat[u][v] + RatFunc.from_poly(Poly.constant(field, s2_uv)) / f_rf
            a_mat[v][u] = a_mat[v][u] + RatFunc.from_poly(Poly.constant(field, s2_vu)) / f_rf
            d_mat[u][u] = d_mat[u][u] + RatFunc.from_poly(Poly.constant(field, l_vu * s2_uv)) / f_rf
            d_mat[v][v] = d_mat[v][v] + RatFunc.from_poly(Poly.constant(field, k_uv * s2_vu)) / f_rf
    t1 = RatFunc.from_poly(Poly.variable(field))
    t2 = RatFunc.from_poly(Poly.monomial(field, 2))
    rone = RatFunc.one(field)
    rows = [
        [
            (rone if i == j else rzero) - a_mat[i][j] * t1 + d_mat[i][j] * t2
            for j in range(nv)
        ]
        for i in range(nv)
    ]
    rhs = det_field(Matrix(rows), rone) * RatFunc.from_poly(prod_f)
    general = ihara_digraph(d, w)
    if rhs != general.rhs:
        raise IharaIdentityError(
            f"tau1=1 digraph expression mismatch: {rhs.render()} vs {general.hashimoto.render()}"
        )
    return rhs.as_poly()


def sato_ihara_graph(g: Digraph, tau2=None, field=QQ) -> Poly:
    """Vertex determinant at tau1 = 1 for a symmetric digraph.

    A[u][v] = sum_{a in A_uv} tau2(a) and D[u][u] = sum_{a in A_u*} tau2(a);
    rhs = (1-t^2)^(|E|-|V|) det(I - t*A + t^2*(D-I)).  This is the graph
    expression at tau1 = 1, so it is checked exactly against hashimoto
    and raises IharaIdentityError on a mismatch.
    """
    if g.mode is not GraphMode.SYMMETRIC:
        raise GraphError("sato_ihara_graph requires the symmetric digraph of a graph")
    if not field.exact:
        raise TypeError("sato operations are exact-field only")
    return ihara_graph(g, WeightAssignment.from_maps(g, None, tau2, field)).rhs.as_poly()


@dataclass(frozen=True)
class Verdict:
    name: str
    agree: bool
    detail: str | None

    def render(self) -> str:
        return f"VERDICT {self.name} " + ("agree" if self.agree else f"MISMATCH {self.detail}")


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


def verify_expressions(d: Digraph, w: WeightAssignment, order: int | None = None) -> ZetaReport:
    """Compute all four expressions and compare them.

    Series expressions are compared coefficientwise to ``order`` (default
    max(10, arc count)); the Hashimoto and Ihara expressions are compared
    exactly as rational functions.
    """
    if order is None:
        order = max(10, d.arc_count)
    field = w.field
    expo = exponential_truncated(d, w, order)
    eul = euler_truncated(d, w, order)
    if d.mode is GraphMode.SYMMETRIC:
        ih = ihara_graph(d, w, check=False)
    else:
        ih = ihara_digraph(d, w, check=False)
    h = ih.hashimoto
    h_series = Series.from_poly(h, order).inv()
    if ih.agree:
        ihara_detail = None
    else:
        diff = ih.rhs - RatFunc.from_poly(h)
        ks = [i for i, c in enumerate(diff.num.coeffs) if not field.is_zero(c)]
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
