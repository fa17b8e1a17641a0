"""Dense matrices and the one determinant kernel.

One kernel computes every determinant the library reports: ``char_poly``,
the characteristic polynomial of a square scalar matrix, found by reducing
the matrix to upper Hessenberg form by similarity transforms over QQ and
running the recurrence on the leading principal minors (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9).  It takes O(n^3)
Fraction operations and is exact.  Two readings build on it:

* ``det_one_minus_t`` -- det(I - t*m), the characteristic polynomial with
  its coefficients reversed;
* ``det_poly_matrix`` -- det P(t) of a polynomial matrix with P(0) = I, as
  det(I - t*C) of a companion linearization C of P.

Numeric eigenvalues delegate to LAPACK's general eigensolver via numpy, in
real arithmetic for a real matrix.  The elimination determinants and
inversion identities the tests compare against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import Poly, as_fraction


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

    def row(self, i):
        return self.data[i]

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


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(lambda*I - m) of a scalar matrix.

    Reduces a copy of ``m`` to upper Hessenberg form H by similarity
    transforms (the first nonzero entry below the diagonal is the pivot),
    then expands the characteristic polynomials p_k of H's leading k x k
    blocks:

        p_k = (x - H[k-1][k-1]) p_{k-1}
              - sum_{i<k} H[i-1][k-1] * H[i][i-1] ... H[k-1][k-2] * p_{i-1}.
    """
    m._require_square()
    n = m.rows
    zero, one = Fraction(0), Fraction(1)
    h = [[as_fraction(x) for x in row] for row in m.data]
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if h[i][col]), None)
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
            if not hi[col]:
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
    return Poly(polys[-1])


def det_one_minus_t(m: Matrix) -> Poly:
    """det(I - t*m): the characteristic polynomial of m, coefficients reversed."""
    return Poly(char_poly(m).coeffs[::-1])


def det_poly_matrix(p: Matrix) -> Poly:
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
            if p[v, u].coefficient(0) != (1 if u == v else 0):
                raise ValueError("det_poly_matrix needs P(0) = I")
    degree = [max((e.degree for e in p.row(v)), default=0) for v in range(n)]
    start = []
    size = 0
    for v in range(n):
        start.append(size)
        size += degree[v]
    c = [[Fraction(0)] * size for _ in range(size)]
    for v in range(n):
        for i in range(degree[v]):
            row = c[start[v] + i]
            for u in range(n):
                if degree[u]:
                    row[start[u]] = -p[v, u].coefficient(i + 1)
            if i + 1 < degree[v]:
                row[start[v] + i + 1] = Fraction(1)
    return det_one_minus_t(Matrix(c))


def eigenvalues_numeric(m) -> list[complex]:
    """All eigenvalues (with multiplicity) of a square numeric matrix.

    A real double-precision general eigensolve: an ndarray goes to LAPACK
    unchanged, so a real matrix takes the real solver (dgeev), whose complex
    eigenvalues come in exact conjugate pairs and whose real eigenvalues have
    imaginary part exactly 0.  A Matrix or nested lists become a float array,
    or a complex one only when some entry is complex.  LAPACK convergence
    failures are surfaced with the matrix shape in the message.
    """
    if isinstance(m, np.ndarray):
        arr = m
    else:
        rows = m.data if isinstance(m, Matrix) else m
        is_complex = any(isinstance(x, (complex, np.complexfloating)) for row in rows for x in row)
        arr = np.array(rows, dtype=complex if is_complex else float)
    if arr.shape[:1] == (0,):
        return []
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix is not square: {arr.shape}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigenvalue iteration failed for {arr.shape[0]}x{arr.shape[1]} matrix: {exc}"
        ) from exc
    return vals.astype(complex).tolist()
