"""Reference implementations that the tests compare the library against.

The library computes every determinant with ``linalg.char_poly_rows``; these
reach the same quantities by independent routes: Bareiss and cofactor
determinants over any exact entry ring (among them det(I - t*M) and the
dense graph vertex determinant), the Faddeev-LeVerrier characteristic
polynomial, the dense companion of a polynomial matrix and the transpose
of integer rows over row denominators cleared column by column (the rows
that ``linalg.det_poly_matrix`` must pass, once each row is in lowest
terms), the digraph vertex
tables A, D and X and Sato's tau1 = 1
matrices Au and Du, summed one rational function at a time, the two
inversion identities behind the vertex-determinant reduction (all-ones and
block Woodbury-style, each checked with its denominator cleared, as
A*B == B*A == d*I for a nonzero polynomial d), brute-force closed paths
and the prime-cycle representatives among them, the power sums N_k by
traces of the theta matrix's powers, the per-length power
sums of the prime cycles' products by Moebius inversion of traces, the
product of Euler factors multiplied in one by one, the
phi-grouped arc order, theta one entry at a time, the structural
matrices, the walk matrices U and T built entry by entry with Fraction
square roots, the dense unitarity residual, and the reports of ``Poly``,
``Series`` and ``RatFunc`` printed from their Fraction coefficients.  The
dense ``Matrix`` type, its arithmetic (sums, products, scaling,
transposes, traces) and the series logarithm live here too, since only
the tests use them.

Polynomial and rational-function entries compute in sympy's ``QQ[t]``
(``RING``, generator ``T``) and ``QQ(t)`` (``FIELD``, generator ``TF``), not
in the library's ``Poly`` and ``RatFunc``, so no reference reuses the gcd or
normalization it checks.  ``coeffs`` turns their results into the Fraction
tuples that ``Poly.coeffs`` and ``RatFunc.num/den.coeffs`` hold, and
``lift`` carries library values the other way, into ``RING`` and ``FIELD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
from sympy import QQ
from sympy.polys.fields import field
from sympy.polys.rings import PolyElement, ring

from zetawalk.algebra import Poly, RatFunc, Series, as_fraction
from zetawalk.digraph import Digraph, GraphError, PhiPair
from zetawalk.zeta import WeightAssignment

RING, T = ring("t", QQ)
FIELD, TF = field("t", QQ)


def coeffs(x):
    """The Fraction coefficients of a ``RING`` element, constant term first,
    as ``Poly.coeffs`` holds them; of a ``FIELD`` element, the pair of
    numerator and denominator coefficients with the denominator monic, as
    ``RatFunc.num.coeffs`` and ``RatFunc.den.coeffs`` hold them."""
    if isinstance(x, PolyElement):
        return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in reversed(x.to_dense()))
    num, den = coeffs(x.numer), coeffs(x.denom)
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def lift(x):
    """A library ``Poly`` as a ``RING`` element, a ``RatFunc`` as a ``FIELD``
    element, for references that compute with library results."""
    if isinstance(x, RatFunc):
        return FIELD(lift(x.num)) / FIELD(lift(x.den))
    return RING.from_list(x.coeffs[::-1])


def render_rational_reference(x: Fraction) -> str:
    """A Fraction as ``str`` prints it, with every digit: ``Decimal`` prints
    the numbers ``str`` refuses past the int-to-string digit limit."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def render_reference(x) -> str:
    """A library ``Poly``, ``Series`` or ``RatFunc`` as its ``render``
    prints it, read off its Fraction ``coeffs``: the nonzero terms
    ``c``, ``c*t`` and ``c*t^i`` joined by `` + ``, or ``0``; a series
    followed by `` + O(t^(order + 1))``, a rational function that is not a
    polynomial as ``(num)/(den)``."""
    if isinstance(x, RatFunc):
        return render_reference(x.num) if x.is_poly() else f"({render_reference(x.num)})/({render_reference(x.den)})"
    terms = []
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        text = render_rational_reference(c)
        terms.append(text if i == 0 else f"{text}*t" if i == 1 else f"{text}*t^{i}")
    body = " + ".join(terms) if terms else "0"
    return f"{body} + O(t^{x.order + 1})" if isinstance(x, Series) else body


class Matrix:
    """Immutable rectangular matrix over a homogeneous element ring."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data):
        data = tuple(tuple(row) for row in rows_data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows in matrix")
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    __hash__ = None

    def shape(self):
        return (self.rows, self.cols)

    def _require_square(self):
        if not self.is_square:
            raise ValueError(f"matrix is not square: {self.shape()}")

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


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
    """Fraction-free determinant over Fraction, QQ[t] or QQ(t) entries."""
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
                    elt = elt.exquo(prev) if isinstance(elt, PolyElement) else elt / prev
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
        return Poly([1])
    work = mat_map(m, as_fraction)
    ident = identity(n, Fraction(1), Fraction(0))
    cs = [Fraction(1)]
    mk = None
    for k in range(1, n + 1):
        mk = work if mk is None else mat_mul(work, mat_add(mk, mat_scale(ident, cs[-1])))
        cs.append(-trace(mk) / k)
    return Poly(list(reversed(cs)))


def transposed_rows(rows: list[list[int]], dens: list[int]) -> tuple[list[list[int]], list[int]]:
    """The transpose of diag(1/d) R, cleared row by row to lowest terms:
    column j becomes a row over e_j, the lcm of the reduced denominators of
    its entries x / d_i."""
    out, out_dens = [], []
    for col in zip(*rows):
        e = math.lcm(*(d // math.gcd(x, d) for x, d in zip(col, dens)))
        out.append([x * e // d for x, d in zip(col, dens)])
        out_dens.append(e)
    return out, out_dens


def dense_companion(p: dict, scale: int) -> tuple[list[list[int]], list[int]]:
    """The rows and row denominators of the companion C of P = Q / scale
    that ``linalg.det_poly_matrix`` linearizes, for its arguments, built
    dense: row (i, v), for each row v of degree k_v > 0 and i < k_v, holds
    -Q_{i+1}[v][u] in column (0, u) and ``scale`` in column (i + 1, v) when
    i + 1 < k_v, all over ``scale``; the indices run over the rows v in
    order."""
    degree = {}
    for (v, _), cs in p.items():
        degree[v] = max(degree.get(v, 0), len(cs) - 1)
    start, size = {}, 0
    for v in sorted(degree):
        if degree[v] > 0:
            start[v] = size
            size += degree[v]
    rows = [[0] * size for _ in range(size)]
    for (v, u), cs in p.items():
        if v in start and u in start:
            for i, c in enumerate(cs[1:], start[v]):
                rows[i][start[u]] = -c
    for v, s in start.items():
        for i in range(s, s + degree[v] - 1):
            rows[i][i + 1] = scale
    return rows, [scale] * size


def is_scaled_inverse(a: Matrix, b: Matrix, d: PolyElement) -> bool:
    """a*b == b*a == d*I: for a nonzero polynomial d, b/d is the inverse of a."""
    ident = identity(a.rows, d, RING.zero)
    return mat_mul(a, b) == ident and mat_mul(b, a) == ident


def allones_scaled_inverse(n: int, k) -> tuple[Matrix, Matrix, PolyElement]:
    """(I + t*k*J, (1 + t*k*n)*I - t*k*J, 1 + t*k*n) with J the n x n all-ones
    matrix: the claimed (I + t*k*J)^-1 = I - t*k/(1 + t*k*n) * J, scaled."""
    k = Fraction(k)
    tk = k * T
    s = 1 + k * n * T
    lhs = Matrix([[tk + 1 if i == j else tk for j in range(n)] for i in range(n)])
    claimed = Matrix([[s - tk if i == j else -tk for j in range(n)] for i in range(n)])
    return lhs, claimed, s


def allones_inverse_check(n: int, k) -> bool:
    """Check (I + t*k*ones_n)^-1 == I - t*k/(1 + t*k*n) * ones_n exactly."""
    return is_scaled_inverse(*allones_scaled_inverse(n, k))


def _constant_polys(m: Matrix) -> Matrix:
    return mat_map(m, RING)


def _blocks(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """The 2x2 block matrix [[tl, tr], [bl, br]]."""
    return Matrix([a + b for a, b in zip(tl.data, tr.data)] + [a + b for a, b in zip(bl.data, br.data)])


def block_matrices(m1: Matrix, m2: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """I + t*M for M = [[0, M1], [M2, 0]] and the Schur complements
    K = I - t^2*M1*M2 and L = I - t^2*M2*M1, over QQ[t]."""
    k, ell = m1.rows, m1.cols
    if m2.shape() != (ell, k):
        raise ValueError(f"M2 must be {ell}x{k}, got {m2.shape()}")
    pone, pzero = RING.one, RING.zero
    p1, p2 = _constant_polys(m1), _constant_polys(m2)
    big = _blocks(zeros(k, k, pzero), mat_scale(p1, T), mat_scale(p2, T), zeros(ell, ell, pzero))
    full = mat_add(identity(k + ell, pone, pzero), big)
    cap_k = mat_sub(identity(k, pone, pzero), mat_scale(mat_mul(p1, p2), T * T))
    cap_l = mat_sub(identity(ell, pone, pzero), mat_scale(mat_mul(p2, p1), T * T))
    return full, cap_k, cap_l


def adjugate(m: Matrix) -> Matrix:
    """adj(m) = det(m) * m^-1 over QQ[t], from the cofactor minors by Bareiss."""
    n = m.rows
    one = RING.one

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
    minus_t = -T
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
            extend(d.heads[nxt], depth + 1, start_tail)

    for a in range(d.arc_count):
        prefix[0] = a
        extend(d.heads[a], 1, d.tails[a])
    return found


def prime_cycle_representatives(d: Digraph, max_len: int) -> list[tuple[int, ...]]:
    """The prime-cycle representatives of lengths 1..max_len, read straight
    off ``closed_paths``: the paths strictly smaller than each of their
    nontrivial rotations.  A proper power equals one of its rotations, and
    every other class has one least rotation.  Ordered by length, then
    lexicographically."""
    return [
        path
        for k in range(1, max_len + 1)
        for path in closed_paths(d, k)
        if all(path < path[i:] + path[:i] for i in range(1, k))
    ]


def lyndon_closed_paths(m: list[list[int]], max_len: int) -> list[tuple[tuple[int, ...], int]]:
    """The Lyndon closed paths of nonzero entries of the square matrix m, of
    lengths 1..max_len, each with its circular product
    m[w0][w1] ... m[w_{k-1}][w0]: every closed path of nonzero entries is
    listed, and those strictly smaller than each of their nontrivial
    rotations kept.  A Lyndon word starts at its least letter, so no path
    is extended by a smaller one.  Ordered by length, then
    lexicographically."""
    found = []

    def extend(path, prod):
        k = len(path)
        c = m[path[-1]][path[0]]
        if c and all(path < path[i:] + path[:i] for i in range(1, k)):
            found.append((path, prod * c))
        if k < max_len:
            for b in range(path[0], len(m)):
                if m[path[-1]][b]:
                    extend(path + (b,), prod * m[path[-1]][b])

    for a in range(len(m)):
        extend((a,), 1)
    return sorted(found, key=lambda wc: (len(wc[0]), wc[0]))


def mobius(n: int) -> int:
    """The Moebius function mu(n) of an integer n >= 1."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def hadamard_power(m: list[list[int]], j: int) -> list[list[int]]:
    """m^(o j), the entrywise j-th power of an integer matrix."""
    return [[x**j for x in row] for row in m]


def prime_cycle_totals(m: list[list[int]], max_len: int, power: int = 1) -> dict[int, Fraction]:
    """{k: g(k, power)} for the k in 1..max_len with g(k, power) != 0,
    g(k, j) the sum of c(X)^j over the Lyndon closed paths X of length k
    of the integer matrix m, c(X) the circular product, by Moebius
    inversion of traces, with no path listed:

        g(k, j) = (1/k) sum_{f | k} mu(k/f) tr((m^(o j k/f))^f),

    m^(o i) the entrywise i-th power.  A closed path of length f is a
    Lyndon word X of some length d | f read f/d times, from one of d
    rotations, so tr((m^(o i))^f) = sum_{d | f} d sum_{|X| = d} c(X)^(i f/d);
    at i = j k/f every exponent is j k/d, and the sum over f leaves
    k g(k, j).  At power 1 it is the trace route to N_k in another form, so
    it checks only the Lyndon walk's per-length totals; the higher powers
    check the words the walk lists."""
    n = len(m)

    def trace_of_power(a, f):
        acc = a
        for _ in range(f - 1):
            acc = [[sum(x * a[i][j] for i, x in enumerate(row) if x) for j in range(n)] for row in acc]
        return sum(acc[i][i] for i in range(n))

    totals = {}
    for k in range(1, max_len + 1):
        s = sum(
            mobius(k // f) * trace_of_power(hadamard_power(m, power * k // f), f)
            for f in range(1, k + 1)
            if k % f == 0
        )
        if s:
            totals[k] = Fraction(s, k)
    return totals


def euler_product_numerators(pairs, order: int) -> list[int]:
    """The coefficients of prod 1/(1 - c t^k) over the (k, c) in ``pairs``,
    to ``order``: each factor multiplied in by one in-place pass
    acc[i] += c acc[i - k], run upwards so that it reads the terms it has
    already updated, with no logarithm and no division."""
    acc = [1] + [0] * order
    for k, c in pairs:
        for i in range(k, order + 1):
            acc[i] += acc[i - k] * c
    return acc


def n_k_trace_all(theta, upto: int) -> list[int]:
    """[D^k N_k for k = 1..upto], N_k = tr T^k = tr M^k, for (D, P = D*T)
    from ``zeta._edge_matrix_data``: the trace route to the power sums,
    which shares no code with the library's closed-path route.  It forms
    each P^k = P^(k-1) P by the sparse rows of P, in Python ints, and reads
    D^k N_k = tr P^k."""
    _, power = theta
    n = len(power)
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in power]
    traces = [sum(row[i] for i, row in enumerate(power))]
    for _ in range(upto - 1):
        nxt = []
        for prow in power:
            orow = [0] * n
            for x, pv in enumerate(prow):
                if pv:
                    for j, v in sparse[x]:
                        orow[j] += pv * v
            nxt.append(orow)
        power = nxt
        traces.append(sum(row[i] for i, row in enumerate(power)))
    return traces


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
    val = Fraction(0)
    if d.heads[a] == d.tails[b]:
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
            [w.tau1[a] if d.heads[a] == v else zero for v in range(nv)]
            for a in order
        ]
    )
    l = Matrix(
        [
            [w.tau2[b] if d.tails[b] == u else zero for b in order]
            for u in range(nv)
        ]
    )
    t = Matrix([[int(ai == bj) + j[ai, bj] * T for bj in range(n)] for ai in range(n)])
    return StructuralMatrices(j, k, l, t)


def sqrt_product(x: Fraction, y: Fraction) -> float:
    """sqrt(x*y) through the reduced Fraction x*y, exact on rational squares."""
    prod = x * y
    rn = math.isqrt(prod.numerator)
    rd = math.isqrt(prod.denominator)
    if rn * rn == prod.numerator and rd * rd == prod.denominator:
        return float(Fraction(rn, rd))
    return math.sqrt(float(prod))


def render_complex(z: complex) -> str:
    """A spectrum report value: both parts by the format spec +.10f."""
    return f"{z.real:+.10f}{z.imag:+.10f}j"


def sorted_spectrum(values) -> list[complex]:
    """The values as complex numbers sorted by real, then imaginary part;
    equal keys, such as -0.0 and +0.0, keep their input order."""
    return sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))


def spectrum_report_lines(name: str, values, records: bool) -> list[str]:
    """The ``spectrum`` report lines ``name[i]`` of ``values``, one
    ``render_complex`` per sorted value."""
    sep = "=" if records else " "
    return [f"{name}[{i}]{sep}{render_complex(z)}" for i, z in enumerate(sorted_spectrum(values))]


def walk_transition(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """U[a, partner(c)] = 2 sqrt(p(a) p(c)) for c leaving tail(a), minus the partner flip."""
    n = g.arc_count
    u = np.zeros((n, n))
    for a, tail in enumerate(g.tails):
        for c in g.out_arcs(tail):
            u[a, g.partner(c)] = 2.0 * sqrt_product(probs[a], probs[c])
        u[a, g.partner(a)] -= 1.0
    return u


def unitarity_defect_dense(u: np.ndarray) -> float:
    """max |U U* - I| over the whole residual matrix at once.

    The Gram is one product: u @ u.T for real input, which numpy computes
    as a symmetric update, and conj(u) @ u.T for complex input, the
    entrywise conjugate of U U*, with the same absolute values.  Up to
    ``walk._BLOCK`` rows the library makes this same product, bit for bit;
    past that it sums the same products in row blocks, in another order.
    """
    gram = (u.conj() if np.iscomplexobj(u) else u) @ u.T
    return float(np.max(np.abs(gram - np.eye(u.shape[0])), initial=0.0))


def walk_discriminant(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a)))."""
    nv = g.vertex_count
    t = np.zeros((nv, nv))
    for a, (tail, head) in enumerate(zip(g.tails, g.heads)):
        t[tail, head] += sqrt_product(probs[a], probs[g.partner(a)])
    return t


def ihara_digraph_tables(d: Digraph, w: WeightAssignment) -> tuple[dict, dict, dict]:
    """The nonzero entries of A, D and X of the digraph vertex expression as
    {(u, v): value} maps, each D and X entry summed one QQ(t) term c / f at a
    time."""
    a, dm, xm = {}, {}, {}
    for arc, key in enumerate(zip(d.tails, d.heads)):
        a[key] = a.get(key, Fraction(0)) + w.tau1[arc] * w.tau2[arc]
    for pair in d.phi_pairs():
        u, v = pair.u, pair.v
        k, l = len(pair.arcs_uv), len(pair.arcs_vu)
        f = 1 + k * TF if pair.is_diagonal else 1 - k * l * TF**2

        def add(m, key, c):
            m[key] = m.get(key, FIELD.zero) + c / f

        def s(tau, arcs):
            return sum((tau[x] for x in arcs), Fraction(0))

        if pair.is_diagonal:
            add(dm, (u, u), s(w.tau2, pair.arcs_uv) * s(w.tau1, pair.arcs_uv))
            continue
        add(dm, (u, u), s(w.tau2, pair.arcs_uv) * s(w.tau1, pair.arcs_vu))
        add(dm, (v, v), s(w.tau2, pair.arcs_vu) * s(w.tau1, pair.arcs_uv))
        add(xm, (u, v), l * s(w.tau2, pair.arcs_uv) * s(w.tau1, pair.arcs_uv))
        add(xm, (v, u), k * s(w.tau2, pair.arcs_vu) * s(w.tau1, pair.arcs_vu))
    return tuple({key: x for key, x in m.items() if x} for m in (a, dm, xm))


def sato_matrices(d: Digraph, w: WeightAssignment) -> tuple[dict, dict]:
    """The nonzero entries of Sato's tau1 = 1 matrices Au and Du as
    {(u, v): QQ(t)} maps, one entry at a time:

        Au[u][v] = (sum_{a in A_uv} tau2(a)) / f(u,v),
        Du[u][u] = sum_{w != u} |A_wu| (sum_{a in A_uw} tau2(a)) / f(u,w).
    """
    nv = d.vertex_count
    au, du = {}, {}
    for u in range(nv):
        for v in range(nv):
            arcs, back = d.arcs_between(u, v), d.arcs_between(v, u)
            if not arcs:
                continue
            k, l = len(arcs), len(back)
            f = 1 + k * TF if u == v else 1 - k * l * TF**2
            s2 = sum((w.tau2[a] for a in arcs), Fraction(0)) / f
            au[u, v] = s2
            if u != v:
                du[u, u] = du.get((u, u), FIELD.zero) + s2 * l
    return tuple({key: x for key, x in m.items() if x} for m in (au, du))


def sato_expression(d: Digraph, w: WeightAssignment):
    """prod_f * det(I - t*Au + t^2*Du) in QQ(t), the determinant by
    elimination on the dense matrix."""
    au, du = sato_matrices(d, w)
    n = d.vertex_count
    rows = [
        [
            int(i == j) - TF * au.get((i, j), FIELD.zero) + TF * TF * du.get((i, j), FIELD.zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    prod_f = FIELD.one
    for pair in d.phi_pairs():
        k, l = len(pair.arcs_uv), len(pair.arcs_vu)
        prod_f = prod_f * (1 + k * TF if pair.is_diagonal else 1 - k * l * TF**2)
    return prod_f * det_bareiss(Matrix(rows), FIELD.one)


def graph_vertex_det(g: Digraph, w: WeightAssignment) -> PolyElement:
    """det(I - t*A + t^2*(D - I)) of a graph by elimination on the dense
    QQ[t] matrix over every vertex, isolated ones included."""
    n = g.vertex_count
    a = [[Fraction(0)] * n for _ in range(n)]
    dg = [Fraction(0)] * n
    for arc, (tail, head) in enumerate(zip(g.tails, g.heads)):
        a[tail][head] += w.tau1[arc] * w.tau2[arc]
        dg[tail] += w.tau1[g.partner(arc)] * w.tau2[arc]
    rows = [
        [int(i == j) - a[i][j] * T + (dg[i] - 1 if i == j else 0) * T**2 for j in range(n)]
        for i in range(n)
    ]
    return det_bareiss(Matrix(rows), RING.one)


def det_one_minus_t_by_elimination(m: Matrix) -> PolyElement:
    """det(I - t*m) by elimination on the QQ[t] matrix I - t*m."""
    n = m.rows
    return det_bareiss(Matrix([[int(i == j) - m[i, j] * T for j in range(n)] for i in range(n)]), RING.one)
