"""Dense matrices over exact scalars, polynomials, and rational functions.

One kernel computes every determinant the library reports: ``char_poly``,
the characteristic polynomial of a square scalar matrix, found by reducing
the matrix to upper Hessenberg form by similarity transforms over its field
and running the recurrence on the leading principal minors (Cohen, *A Course
in Computational Algebraic Number Theory*, Alg. 2.2.9).  It takes O(n^3)
field operations and stays exact over QQ.  Two readings build on it:

* ``det_one_minus_t`` -- det(I - t*m), the characteristic polynomial with
  its coefficients reversed;
* ``det_poly_matrix`` -- det P(t) of a polynomial matrix with P(0) = I, as
  det(I - t*C) of a companion linearization C of P.

Elimination on polynomial or rational-function entries (fraction-free
Bareiss, field elimination, cofactor expansion) and the Faddeev-LeVerrier
characteristic polynomial remain as independent oracles for tests and for
the inversion checks.  Numeric eigenvalues delegate to LAPACK via numpy.

Also provided are executable forms of the two inversion identities used by
the vertex-determinant reduction: the all-ones-matrix inverse and the
off-diagonal block (Woodbury-style) inverse, both verified by exact
rational-function multiplication.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import Poly, QQ, RatFunc


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

    @classmethod
    def zeros(cls, rows, cols, zero):
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n, one, zero):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
            )
        )

    __hash__ = None

    def __add__(self, other) -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other) -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data])

    def __mul__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        bt = tuple(zip(*other.data)) if other.data else ()
        out = []
        for arow in self.data:
            out.append([_dot(arow, bcol) for bcol in bt])
        return Matrix(out)

    def scale(self, s) -> "Matrix":
        return Matrix([[a * s for a in row] for row in self.data])

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)) if self.data else [])

    def trace(self):
        self._require_square()
        if self.rows == 0:
            raise ValueError("trace of an empty matrix needs an explicit zero")
        acc = self.data[0][0]
        for i in range(1, self.rows):
            acc = acc + self.data[i][i]
        return acc

    def shape(self):
        return (self.rows, self.cols)

    def _require_square(self):
        if not self.is_square:
            raise ValueError(f"matrix is not square: {self.shape()}")

    def _require_same_shape(self, other):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _entry_is_zero(x) -> bool:
    if isinstance(x, (Poly, RatFunc)):
        return x.is_zero()
    return x == 0


def _entry_exact_div(a, b):
    if isinstance(a, Poly):
        return a.exact_div(b)
    return a / b


def det_bareiss(m: Matrix, one=None):
    """Fraction-free determinant; entries must admit exact division."""
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
        if _entry_is_zero(a[k][k]):
            for i in range(k + 1, n):
                if not _entry_is_zero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                zero = a[k][k] - a[k][k]
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = pivot * a[i][j] - a[i][k] * a[k][j]
                if prev is not None:
                    elt = _entry_exact_div(elt, prev)
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


def det_field(m: Matrix, one=None):
    """Determinant via Gaussian elimination; entries must form a field."""
    m._require_square()
    n = m.rows
    if n == 0:
        if one is None:
            raise ValueError("empty determinant needs an explicit one")
        return one
    a = [list(row) for row in m.data]
    sign = 1
    for k in range(n):
        if _entry_is_zero(a[k][k]):
            for i in range(k + 1, n):
                if not _entry_is_zero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                zero = a[k][k] - a[k][k]
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            if _entry_is_zero(a[i][k]):
                continue
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
            a[i][k] = a[i][k] - factor * pivot
    det = a[0][0]
    for k in range(1, n):
        det = det * a[k][k]
    return -det if sign < 0 else det


def det_exact(m: Matrix, one=None):
    """Exact determinant, dispatching on the entry ring.

    Polynomial entries go through Bareiss so all intermediates stay
    polynomial; rational-function and scalar entries use field elimination.
    """
    if m.rows == 0:
        return det_field(m, one)
    sample = m.data[0][0]
    if isinstance(sample, Poly):
        return det_bareiss(m, one)
    return det_field(m, one)


def invert_field_matrix(m: Matrix, one, zero) -> Matrix:
    """Gauss-Jordan inverse over a field; raises ValueError when singular."""
    m._require_square()
    n = m.rows
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m.data)]
    for k in range(n):
        if _entry_is_zero(a[k][k]):
            for i in range(k + 1, n):
                if not _entry_is_zero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise ValueError("singular matrix has no inverse")
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        for i in range(n):
            if i == k or _entry_is_zero(a[i][k]):
                continue
            f = a[i][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return Matrix([row[n:] for row in a])


def char_poly_exact(m: Matrix, field=QQ) -> Poly:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recurrence.

    Requires an exact coefficient field.  The constant coefficient equals
    (-1)^n det(m); the result agrees with det(lambda*I - m).
    """
    if not field.exact:
        raise TypeError("char_poly_exact requires an exact field")
    m._require_square()
    n = m.rows
    if n == 0:
        return Poly.one(field)
    work = m.map(field.coerce)
    ident = Matrix.identity(n, field.one, field.zero)
    cs = [field.one]
    mk = None
    for k in range(1, n + 1):
        mk = work if mk is None else work * (mk + ident.scale(cs[-1]))
        cs.append(-mk.trace() / k)
    return Poly(field, list(reversed(cs)))


def char_poly(m: Matrix, field=QQ) -> Poly:
    """Monic characteristic polynomial det(lambda*I - m) of a scalar matrix.

    Reduces a copy of ``m`` to upper Hessenberg form H by similarity
    transforms (pivots found with ``field.is_zero``), then expands the
    characteristic polynomials p_k of H's leading k x k blocks:

        p_k = (x - H[k-1][k-1]) p_{k-1}
              - sum_{i<k} H[i-1][k-1] * H[i][i-1] ... H[k-1][k-2] * p_{i-1}.
    """
    m._require_square()
    n = m.rows
    zero, one = field.zero, field.one
    h = [[field.coerce(x) for x in row] for row in m.data]
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if not field.is_zero(h[i][col])), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        hk = h[k]
        pivot = hk[col]
        for i in range(k + 1, n):
            hi = h[i]
            if field.is_zero(hi[col]):
                continue
            u = hi[col] / pivot
            # row i -= u * row k, then column k += u * column i
            for j in range(k, n):
                if hk[j]:
                    hi[j] = hi[j] - u * hk[j]
            hi[col] = zero
            for row in h:
                if row[i]:
                    row[k] = row[k] + u * row[i]
    polys = [[one]]
    for k in range(1, n + 1):
        prev = polys[-1]
        diag = h[k - 1][k - 1]
        cur = [zero] + prev
        for j, c in enumerate(prev):
            cur[j] = cur[j] - diag * c
        sub = one
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1]
            if not sub:
                break
            coef = sub * h[i - 1][k - 1]
            if coef:
                for j, c in enumerate(polys[i - 1]):
                    cur[j] = cur[j] - coef * c
        polys.append(cur)
    return Poly(field, polys[-1])


def det_one_minus_t(m: Matrix, field=QQ) -> Poly:
    """det(I - t*m): the characteristic polynomial of m, coefficients reversed."""
    return Poly(field, char_poly(m, field).coeffs[::-1])


def det_poly_matrix(p: Matrix, field=QQ) -> Poly:
    """det P(t) of a square matrix of polynomials with P(0) = I.

    With P(t) = I + t*P_1 + ... + t^k*P_k and k_v the degree of row v,
    det P(t) = det(I - t*C) for the companion matrix C with one index (i, v)
    per row v and 0 <= i < k_v: row (i, v) of C holds -P_{i+1}[v][u] in
    column (0, u) and a 1 in column (i + 1, v) when i + 1 < k_v.  C has
    sum_v k_v rows, the degree bound of det P; rows of degree 0 drop out.
    """
    p._require_square()
    n = p.rows
    for v in range(n):
        for u in range(n):
            if not field.eq(p[v, u].coefficient(0), field.one if u == v else field.zero):
                raise ValueError("det_poly_matrix needs P(0) = I")
    degree = [max((e.degree for e in p.row(v)), default=0) for v in range(n)]
    start = []
    size = 0
    for v in range(n):
        start.append(size)
        size += degree[v]
    c = [[field.zero] * size for _ in range(size)]
    for v in range(n):
        for i in range(degree[v]):
            row = c[start[v] + i]
            for u in range(n):
                if degree[u]:
                    row[start[u]] = -p[v, u].coefficient(i + 1)
            if i + 1 < degree[v]:
                row[start[v] + i + 1] = field.one
    return det_one_minus_t(Matrix(c), field)


def eigenvalues_numeric(m) -> list[complex]:
    """All eigenvalues (with multiplicity) of a square numeric matrix.

    Accepts a Matrix, nested lists, or an ndarray; entries are coerced to
    complex doubles.  LAPACK convergence failures are surfaced with the
    matrix shape in the message.
    """
    rows = m.data if isinstance(m, Matrix) else m
    rows = [[complex(x) for x in row] for row in rows]
    if not rows:
        return []
    arr = np.array(rows, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix is not square: {arr.shape}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigenvalue iteration failed for {arr.shape[0]}x{arr.shape[1]} matrix: {exc}"
        ) from exc
    return [complex(v) for v in vals]


def _allones(n, value) -> Matrix:
    return Matrix([[value] * n for _ in range(n)])


def allones_inverse_check(n: int, k) -> bool:
    """Check (I + t*k*ones_n)^-1 == I - t*k/(1 + t*k*n) * ones_n exactly."""
    k = Fraction(k)
    t = Poly.variable(QQ)
    one = RatFunc.one(QQ)
    zero = RatFunc.zero(QQ)
    ident = Matrix.identity(n, one, zero)
    tk = RatFunc.from_poly(t.scale(k))
    lhs = ident + _allones(n, tk)
    coef = tk / RatFunc.from_poly(Poly.one(QQ) + t.scale(k * n))
    claimed = ident - _allones(n, coef)
    return claimed * lhs == ident and lhs * claimed == ident


def block_woodbury_check(m1: Matrix, m2: Matrix) -> bool:
    """Verify the block inverse and determinant identities for M = [[0,M1],[M2,0]].

    Checks, by exact rational-function arithmetic:
      * (I + tM)^-1 equals the stated 2x2 block form,
      * det(I + tM) == det(I - t^2 M2 M1) == det(I - t^2 M1 M2).
    Raises ValueError if I - t^2 M2 M1 is singular as a rational-function
    matrix (cannot happen for generic inputs).
    """
    k, ell = m1.rows, m1.cols
    if m2.shape() != (ell, k):
        raise ValueError(f"M2 must be {ell}x{k}, got {m2.shape()}")
    t = Poly.variable(QQ)
    t2 = t * t
    pone, pzero = Poly.one(QQ), Poly.zero(QQ)

    def as_poly_mat(m):
        return m.map(lambda x: Poly.constant(QQ, x))

    p1, p2 = as_poly_mat(m1), as_poly_mat(m2)
    n = k + ell
    big = Matrix(
        [
            [
                (p1[i, j - k] * t if k <= j else pzero) if i < k else
                (p2[i - k, j] * t if j < k else pzero)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    full = Matrix.identity(n, pone, pzero) + big

    i_k = Matrix.identity(k, pone, pzero)
    i_l = Matrix.identity(ell, pone, pzero)
    cap_l = i_l - (p2 * p1).scale(t2)
    cap_k = i_k - (p1 * p2).scale(t2)

    d_full = det_bareiss(full)
    if d_full != det_bareiss(cap_l) or d_full != det_bareiss(cap_k):
        return False

    rone, rzero = RatFunc.one(QQ), RatFunc.zero(QQ)

    def as_rat_mat(m):
        return m.map(lambda x: x if isinstance(x, RatFunc) else RatFunc.from_poly(x))

    try:
        inv_l = invert_field_matrix(as_rat_mat(cap_l), rone, rzero)
        inv_k = invert_field_matrix(as_rat_mat(cap_k), rone, rzero)
    except ValueError as exc:
        raise ValueError(f"I - t^2*M2*M1 is singular: {exc}") from exc
    rt = RatFunc.from_poly(t)
    r1, r2 = as_rat_mat(p1), as_rat_mat(p2)
    top_right = (r1 * inv_l).scale(-rt)
    bottom_left = (inv_l * r2).scale(-rt)
    claimed = Matrix(
        [
            [
                (inv_k[i, j] if j < k else top_right[i, j - k]) if i < k else
                (bottom_left[i - k, j] if j < k else inv_l[i - k, j - k])
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    rfull = as_rat_mat(full)
    ident = Matrix.identity(n, rone, rzero)
    return claimed * rfull == ident and rfull * claimed == ident
