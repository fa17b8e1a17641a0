"""Reference implementations that the tests compare the library against.

The library computes every determinant with ``linalg.char_poly``; these reach
the same quantities by independent routes: Bareiss and cofactor determinants
over any exact entry ring, the Faddeev-LeVerrier characteristic polynomial,
the two inversion identities behind the vertex-determinant reduction
(all-ones and block Woodbury-style, each checked with its denominator
cleared, as A*B == B*A == d*I for a nonzero polynomial d), brute-force closed
paths, the phi-grouped arc order, theta one entry at a time, the
structural matrices, and the walk matrices U and T built entry by entry
with Fraction square roots.  Matrix arithmetic (sums, products, scaling,
transposes, traces) and the series logarithm live here too, since only the
tests use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zetawalk.algebra import Poly, Series, as_fraction
from zetawalk.digraph import Digraph, GraphError, PhiPair
from zetawalk.linalg import Matrix
from zetawalk.zeta import WeightAssignment


def identity(n, one, zero) -> Matrix:
    return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def zeros(rows, cols, zero) -> Matrix:
    return Matrix([[zero] * cols for _ in range(rows)])


def mat_map(m: Matrix, fn) -> Matrix:
    return Matrix([[fn(a) for a in row] for row in m.data])


def mat_scale(m: Matrix, s) -> Matrix:
    return mat_map(m, lambda a: a * s)


def transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.data)))


def trace(m: Matrix):
    m._require_square()
    acc = m[0, 0]
    for i in range(1, m.rows):
        acc = acc + m[i, i]
    return acc


def _entrywise(a: Matrix, b: Matrix, op) -> Matrix:
    if a.shape() != b.shape():
        raise ValueError(f"shape mismatch: {a.shape()} vs {b.shape()}")
    return Matrix([[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, lambda x, y: x + y)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, lambda x, y: x - y)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape()} by {b.shape()}")

    def dot(row, col):
        acc = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            acc = acc + x * y
        return acc

    cols = list(zip(*b.data))
    return Matrix([[dot(row, col) for col in cols] for row in a.data])


def series_log(s: Series) -> Series:
    """log(s) for a series with constant term 1, from n*b_n = n*s_n - sum_{0<j<n} j*b_j*s_{n-j}."""
    c0 = s.coeffs[0]
    if c0 != 1:
        raise ValueError(f"series log requires constant term 1, got {c0}")
    out = [Fraction(0)]
    for n in range(1, s.order + 1):
        acc = sum((j * out[j] * s.coeffs[n - j] for j in range(1, n)), Fraction(0))
        out.append(s.coeffs[n] - acc / n)
    return Series(out, s.order)


def det_bareiss(m: Matrix, one=None):
    """Fraction-free determinant over Fraction, Poly or RatFunc entries."""
    m._require_square()
    n = m.rows
    if n == 0:
        if one is None:
            raise ValueError("empty determinant needs an explicit one")
        return one
    a = [list(row) for row in m.data]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k] - a[k][k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = pivot * a[i][j] - a[i][k] * a[k][j]
                if prev is not None:
                    elt = elt.exact_div(prev) if isinstance(elt, Poly) else elt / prev
                a[i][j] = elt
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(m: Matrix, one=None):
    """Determinant by first-row expansion; oracle for small matrices."""
    m._require_square()
    if m.rows == 0:
        if one is None:
            raise ValueError("empty determinant needs an explicit one")
        return one
    data = m.data

    def rec(rows, cols):
        if len(cols) == 1:
            return data[rows[0]][cols[0]]
        i = rows[0]
        rest = rows[1:]
        acc = None
        for pos, j in enumerate(cols):
            sub_cols = cols[:pos] + cols[pos + 1 :]
            term = data[i][j] * rec(rest, sub_cols)
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    idx = tuple(range(m.rows))
    return rec(idx, idx)


def char_poly_exact(m: Matrix) -> Poly:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recurrence.

    The constant coefficient equals (-1)^n det(m); the result agrees with
    det(lambda*I - m).
    """
    m._require_square()
    n = m.rows
    if n == 0:
        return Poly.one()
    work = mat_map(m, as_fraction)
    ident = identity(n, Fraction(1), Fraction(0))
    cs = [Fraction(1)]
    mk = None
    for k in range(1, n + 1):
        mk = work if mk is None else mat_mul(work, mat_add(mk, mat_scale(ident, cs[-1])))
        cs.append(-trace(mk) / k)
    return Poly(list(reversed(cs)))


def is_scaled_inverse(a: Matrix, b: Matrix, d: Poly) -> bool:
    """a*b == b*a == d*I: for a nonzero polynomial d, b/d is the inverse of a."""
    ident = identity(a.rows, d, Poly.zero())
    return mat_mul(a, b) == ident and mat_mul(b, a) == ident


def allones_scaled_inverse(n: int, k) -> tuple[Matrix, Matrix, Poly]:
    """(I + t*k*J, (1 + t*k*n)*I - t*k*J, 1 + t*k*n) with J the n x n all-ones
    matrix: the claimed (I + t*k*J)^-1 = I - t*k/(1 + t*k*n) * J, scaled."""
    k = Fraction(k)
    tk = Poly.monomial(1, k)
    s = Poly([1, k * n])
    lhs = Matrix([[tk + 1 if i == j else tk for j in range(n)] for i in range(n)])
    claimed = Matrix([[s - tk if i == j else -tk for j in range(n)] for i in range(n)])
    return lhs, claimed, s


def allones_inverse_check(n: int, k) -> bool:
    """Check (I + t*k*ones_n)^-1 == I - t*k/(1 + t*k*n) * ones_n exactly."""
    return is_scaled_inverse(*allones_scaled_inverse(n, k))


def _constant_polys(m: Matrix) -> Matrix:
    return mat_map(m, Poly.constant)


def _blocks(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """The 2x2 block matrix [[tl, tr], [bl, br]]."""
    return Matrix([a + b for a, b in zip(tl.data, tr.data)] + [a + b for a, b in zip(bl.data, br.data)])


def block_matrices(m1: Matrix, m2: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """I + t*M for M = [[0, M1], [M2, 0]] and the Schur complements
    K = I - t^2*M1*M2 and L = I - t^2*M2*M1, over Poly."""
    k, ell = m1.rows, m1.cols
    if m2.shape() != (ell, k):
        raise ValueError(f"M2 must be {ell}x{k}, got {m2.shape()}")
    t = Poly.variable()
    pone, pzero = Poly.one(), Poly.zero()
    p1, p2 = _constant_polys(m1), _constant_polys(m2)
    big = _blocks(zeros(k, k, pzero), mat_scale(p1, t), mat_scale(p2, t), zeros(ell, ell, pzero))
    full = mat_add(identity(k + ell, pone, pzero), big)
    cap_k = mat_sub(identity(k, pone, pzero), mat_scale(mat_mul(p1, p2), t * t))
    cap_l = mat_sub(identity(ell, pone, pzero), mat_scale(mat_mul(p2, p1), t * t))
    return full, cap_k, cap_l


def adjugate(m: Matrix) -> Matrix:
    """adj(m) = det(m) * m^-1 over Poly, from the cofactor minors by Bareiss."""
    n = m.rows
    one = Poly.one()

    def minor(i, j):
        return Matrix([[m[r, c] for c in range(n) if c != j] for r in range(n) if r != i])

    return Matrix([[(-1) ** (i + j) * det_bareiss(minor(j, i), one) for j in range(n)] for i in range(n)])


def block_scaled_inverse(m1: Matrix, m2: Matrix) -> Matrix:
    """d times the claimed inverse of I + t*M, M = [[0, M1], [M2, 0]]:

        (I + t*M)^-1 = [[K^-1, -t*M1*L^-1], [-t*L^-1*M2, L^-1]],

    with each of K^-1 and L^-1 given as its adjugate over d, for
    d = det(I + t*M) = det(K) = det(L).
    """
    _, cap_k, cap_l = block_matrices(m1, m2)
    adj_k, adj_l = adjugate(cap_k), adjugate(cap_l)
    minus_t = Poly.monomial(1, -1)
    top_right = mat_scale(mat_mul(_constant_polys(m1), adj_l), minus_t)
    bottom_left = mat_scale(mat_mul(adj_l, _constant_polys(m2)), minus_t)
    return _blocks(adj_k, top_right, bottom_left, adj_l)


def block_woodbury_check(m1: Matrix, m2: Matrix) -> bool:
    """Verify the block inverse and determinant identities for M = [[0,M1],[M2,0]].

    Checks, by exact polynomial arithmetic:
      * det(I + tM) == det(I - t^2 M2 M1) == det(I - t^2 M1 M2),
      * (I + tM)^-1 equals the stated 2x2 block form, as
        ``is_scaled_inverse`` with d = det(I + tM).
    """
    full, cap_k, cap_l = block_matrices(m1, m2)
    d = det_bareiss(full)
    if d != det_bareiss(cap_l) or d != det_bareiss(cap_k):
        return False
    return is_scaled_inverse(full, block_scaled_inverse(m1, m2), d)


def closed_paths(d: Digraph, k: int) -> list[tuple[int, ...]]:
    """All closed paths of length k, as arc-id tuples (arcs may repeat)."""
    if k < 1:
        raise GraphError("closed path length must be >= 1")
    found = []
    prefix = [0] * k

    def extend(head, depth, start_tail):
        if depth == k:
            if head == start_tail:
                found.append(tuple(prefix))
            return
        for nxt in d.out_arcs(head):
            prefix[depth] = nxt
            extend(d.arcs[nxt].head, depth + 1, start_tail)

    for a in d.arcs:
        prefix[0] = a.id
        extend(a.head, 1, a.tail)
    return found


def pair_arcs(pair: PhiPair) -> tuple[int, ...]:
    """The arcs of a phi pair: A_uv, then A_vu unless u == v."""
    return pair.arcs_uv if pair.is_diagonal else pair.arcs_uv + pair.arcs_vu


def phi_grouped_arc_order(d: Digraph) -> tuple[int, ...]:
    """Arc ids grouped by phi pair (A_uv first, then A_vu within a pair).

    Under this order the inverse-indicator matrix is block diagonal with
    one block per pair.
    """
    return tuple(a for pair in d.phi_pairs() for a in pair_arcs(pair))


def theta_value(d: Digraph, w: WeightAssignment, a: int, b: int):
    """The pair weight theta(a, b)."""
    arc_a, arc_b = d.arcs[a], d.arcs[b]
    val = Fraction(0)
    if arc_a.head == arc_b.tail:
        val = w.tau1[a] * w.tau2[b]
    if b in d.inverse_set(a):
        val = val - 1
    return val


@dataclass(frozen=True)
class StructuralMatrices:
    """The inverse-indicator, head, and tail matrices, and T = I + tJ.

    Satisfies M = K*L - J entrywise, where M is the theta edge matrix.
    Arcs are indexed in ``arc_order`` (construction order by default); under
    the phi-grouped order J is block diagonal with one block per pair.
    """

    j: Matrix
    k: Matrix
    l: Matrix
    t: Matrix


def structural_matrices(d: Digraph, w: WeightAssignment, arc_order=None) -> StructuralMatrices:
    zero, one = Fraction(0), Fraction(1)
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
    pone, pzero = Poly.one(), Poly.zero()
    t_var = Poly.variable()
    t = Matrix(
        [
            [
                (pone if ai == bj else pzero) + t_var.scale(j[ai, bj])
                for bj in range(n)
            ]
            for ai in range(n)
        ]
    )
    return StructuralMatrices(j, k, l, t)


def sqrt_product(x: Fraction, y: Fraction) -> float:
    """sqrt(x*y) through the reduced Fraction x*y, exact on rational squares."""
    prod = x * y
    rn = math.isqrt(prod.numerator)
    rd = math.isqrt(prod.denominator)
    if rn * rn == prod.numerator and rd * rd == prod.denominator:
        return float(Fraction(rn, rd))
    return math.sqrt(float(prod))


def walk_transition(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """U[a, partner(c)] = 2 sqrt(p(a) p(c)) for c leaving tail(a), minus the partner flip."""
    n = g.arc_count
    u = np.zeros((n, n))
    for a in g.arcs:
        pa = probs[a.id]
        for c in g.out_arcs(a.tail):
            u[a.id, g.partner(c)] = 2.0 * sqrt_product(pa, probs[c])
        u[a.id, g.partner(a.id)] -= 1.0
    return u


def walk_discriminant(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a)))."""
    nv = g.vertex_count
    t = np.zeros((nv, nv))
    for a in g.arcs:
        t[a.tail, a.head] += sqrt_product(probs[a.id], probs[g.partner(a.id)])
    return t
