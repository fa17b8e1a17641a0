"""Dense matrices and the one determinant kernel.

One kernel computes every determinant the library reports: ``char_poly``,
the characteristic polynomial of a square matrix over QQ, found exactly by
multimodular arithmetic (Dumas, Pernet and Wan, ISSAC 2005):

* Row clearing.  Row i of m has denominator d_i, the lcm of its entries'
  denominators, and integer row R_i = d_i * m_i.  With Delta = prod d_i,
  every Delta * c_k is an integer, because a principal minor of m on the
  rows S has a denominator dividing prod_{i in S} d_i.
* Bound.  Delta * c_k is a sum of at most C(n, k) terms
  det R[S, S] * prod_{i not in S} d_i; by Hadamard's inequality each is at
  most prod_i max(|R_i|, d_i), so |Delta * c_k| <= B =
  2^n * prod_i max(isqrt(|R_i|^2) + 1, d_i), in integers only.
* Per prime.  For a prime p not dividing Delta, m = diag(1/d) R is reduced
  mod p, brought to upper Hessenberg form by similarity transforms, and its
  charpoly read off the leading-minor recurrence (Cohen, *A Course in
  Computational Algebraic Number Theory*, Alg. 2.2.9), all in Python ints.
  Reduction mod p commutes with the charpoly, so any nonzero pivot serves.
* Primes.  30-bit primes, counting down from 2^30, each certified by
  deterministic Miller-Rabin and found only when first needed.
* CRT.  The residues of Delta * c_k are combined until the modulus exceeds
  2B; the symmetric residues are then Delta * c_k exactly.  The loop never
  stops earlier, so the result is proved, not guessed.

Two readings build on it:

* ``det_one_minus_t`` -- det(I - t*m), the characteristic polynomial with
  its coefficients reversed;
* ``det_poly_matrix`` -- det P(t) of a polynomial matrix with P(0) = I, as
  det(I - t*C) of a companion linearization C of P.

Numeric eigenvalues delegate to LAPACK's general eigensolver via numpy, in
real arithmetic for a real matrix.  The elimination determinants, the
Faddeev-LeVerrier charpoly and the inversion identities the tests compare
against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import isqrt, lcm, prod
from operator import itemgetter, mul

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
    """Monic characteristic polynomial det(lambda*I - m) of a matrix over QQ.

    The residues of Delta * c_k modulo primes that do not divide Delta are
    combined by the Chinese remainder theorem until the modulus exceeds
    twice ``_coefficient_bound``; the symmetric residues over Delta are the
    exact coefficients (see the module docstring).
    """
    m._require_square()
    rows, dens = _clear_row_denominators(m)
    delta = prod(dens)
    limit = 2 * _coefficient_bound(rows, dens)
    values = [0] * (len(rows) + 1)
    modulus = 1
    for p in map(_kernel_prime, count()):
        if delta % p == 0:
            continue
        scale = delta % p
        residues = [c * scale % p for c in _char_poly_mod(rows, dens, p)]
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((r - v) * inv % p) for v, r in zip(values, residues)]
        modulus *= p
        if modulus > limit:
            break
    half = modulus // 2
    return Poly([Fraction(v - modulus if v > half else v, delta) for v in values])


def _clear_row_denominators(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """(R, d): d_i is the lcm of the denominators in row i and R_i = d_i * m_i."""
    rows, dens = [], []
    for row in m.data:
        row = [as_fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return rows, dens


def _coefficient_bound(rows: list[list[int]], dens: list[int]) -> int:
    """B = 2^n * prod_i max(isqrt(|R_i|^2) + 1, d_i), which bounds |Delta * c_k|
    for every coefficient c_k of the charpoly (the module docstring proves it)."""
    bound = 1 << len(rows)
    for row, d in zip(rows, dens):
        bound *= max(isqrt(sum(x * x for x in row)) + 1, d)
    return bound


def _char_poly_mod(rows: list[list[int]], dens: list[int], p: int) -> list[int]:
    """Coefficients, constant term first, of the charpoly of diag(1/d) R mod p.

    Reduces the matrix to upper Hessenberg form H by similarity transforms
    mod p (any nonzero pivot is valid, since reduction mod p commutes with
    the charpoly), then expands the characteristic polynomials p_k of H's
    leading k x k blocks (Cohen, Alg. 2.2.9):

        p_k = (x - H[k-1][k-1]) p_{k-1}
              - sum_{i<k} H[i-1][k-1] * H[i][i-1] ... H[k-1][k-2] * p_{i-1}.
    """
    h = [[x * e % p for x in row] for row, e in zip(rows, (pow(d, -1, p) for d in dens))]
    n = len(h)
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if h[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        idx = [i for i in range(k + 1, n) if h[i][col]]
        if not idx:
            continue
        hk = h[k]
        inv = pow(hk[col], -1, p)
        us = [h[i][col] * inv % p for i in idx]
        # row i -= u_i * row k over row k's nonzeros (none left of col), ...
        nz = [(j, b) for j, b in enumerate(hk[col:], col) if b]
        for i, u in zip(idx, us):
            hi = h[i]
            for j, b in nz:
                hi[j] = (hi[j] - u * b) % p
        # ... then the inverse transform: column k += sum_i u_i * column i
        get = itemgetter(*idx, k)
        us.append(1)
        for row in h:
            row[k] = sum(map(mul, us, get(row))) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        diag = h[k - 1][k - 1]
        cur = [0] + prev
        cur[:k] = [a - diag * b for a, b in zip(cur, prev)]
        sub = 1
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1] % p
            if not sub:
                break
            coef = sub * h[i - 1][k - 1] % p
            if coef:
                cur[:i] = [a - coef * b for a, b in zip(cur, polys[i - 1])]
        polys.append([c % p for c in cur])
    return polys[-1]


@cache
def _kernel_prime(i: int) -> int:
    """The i-th prime below 2^30, counting down from the largest; found on
    first use, so importing the module builds no table."""
    q = _kernel_prime(i - 1) - 2 if i else (1 << 30) - 1
    while not _is_prime(q):
        q -= 2
    return q


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for odd 7 < q < 3,215,031,751 (bases 2, 3, 5, 7)."""
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


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
