"""Dense matrices and the one determinant kernel.

One kernel computes every determinant the library reports:
``char_poly_rows``, the characteristic polynomial of m = diag(1/d) R for
integer rows R with positive row denominators d, found exactly by
multimodular arithmetic (Dumas, Pernet and Wan, ISSAC 2005).  Its callers
pass integer rows: ``zeta``'s Hashimoto matrix and every companion below.

* Row clearing.  Row i of m is taken in lowest terms: d_i is the lcm of its
  entries' reduced denominators and R_i = d_i * m_i.  With Delta =
  prod d_i, every Delta * c_k is an integer, because a principal minor of m
  on the rows S has a denominator dividing prod_{i in S} d_i.
* Bound.  Delta * c_k is a sum of at most C(n, k) terms
  det R[S, S] * prod_{i not in S} d_i; by Hadamard's inequality each is at
  most prod_i max(|R_i|, d_i), so |Delta * c_k| <= B =
  2^n * prod_i max(isqrt(|R_i|^2) + 1, d_i), in integers only.
* Rows or columns.  m^T has the charpoly of m, and its rows are m's
  columns.  Both are cleared, and the kernel reduces whichever has the
  smaller B (m on a tie); Delta and B are then those of the matrix
  actually reduced.  Columns win when a few columns carry the
  denominators, as in a companion matrix, whose shift columns hold a
  single 1.  Choosing costs O(n^2), less than one prime.
* Per prime.  For a prime p not dividing Delta, diag(1/d) R is reduced
  mod p, brought to upper Hessenberg form by similarity transforms, and its
  charpoly read off the leading-minor recurrence (Cohen, *A Course in
  Computational Algebraic Number Theory*, Alg. 2.2.9), all in Python ints.
  Reduction mod p commutes with the charpoly, so any nonzero pivot serves.
* Primes.  30-bit primes, counting down from 2^30, each certified by
  deterministic Miller-Rabin and found only when first needed.
* CRT.  The residues of Delta * c_k are combined until the modulus exceeds
  2B; the symmetric residues are then Delta * c_k exactly.  The loop never
  stops earlier, so the result is proved, not guessed.

det(I - t*m) is the characteristic polynomial with its coefficients
reversed.  ``det_poly_matrix`` builds on that: det P(t) of a sparse
polynomial matrix P = diag(1/e) Q with P(0) = I, given as
{(v, u): integer coefficients of Q[v][u]} and the row scales e_v, is
det(I - t*C) of a companion linearization C of P.  Rows that are absent are
rows of the identity and never enter C; C's rows are integer rows over
e_v, so it goes to ``char_poly_rows`` with no Fraction.

Numeric eigenvalues delegate to LAPACK's general eigensolver via numpy, in
real arithmetic for a real matrix.  ``eigenvalues_numeric`` imports numpy
when it is called, so that the exact kernel, and every CLI verb but
``spectrum``, starts without loading it.  The elimination determinants, the
Faddeev-LeVerrier charpoly and the inversion identities the tests compare
against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul


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


def char_poly_rows(rows: list[list[int]], dens: list[int]) -> tuple[list[int], int]:
    """(c, Delta): c_k / Delta, constant term first, are the coefficients of
    the charpoly of m = diag(1/d) R, for integer rows R and positive d.

    m and m^T have the same charpoly.  Both are cleared row by row to
    lowest terms, and the kernel reduces the one with the smaller bound B
    (``_coefficient_bound``); Delta is the product of that one's row
    denominators.  The residues of Delta * c_k modulo primes that do not
    divide Delta are combined by the Chinese remainder theorem until the
    modulus exceeds 2B; the symmetric residues are then Delta * c_k exactly
    (see the module docstring).
    """
    bound, rows, dens = min(
        ((_coefficient_bound(*rd), *rd) for rd in (_lowest_terms(rows, dens), _transposed(rows, dens))),
        key=itemgetter(0),
    )
    delta = prod(dens)
    limit = 2 * bound
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
    return [v - modulus if v > half else v for v in values], delta


def _lowest_terms(rows: list[list[int]], dens: list[int]) -> tuple[list[list[int]], list[int]]:
    """diag(1/d) R with each row's common factor divided out, so that d_i is
    the lcm of the reduced denominators of row i."""
    out, out_dens = [], []
    for row, d in zip(rows, dens):
        g = gcd(d, *row)
        out.append([x // g for x in row] if g > 1 else row)
        out_dens.append(d // g)
    return out, out_dens


def _transposed(rows: list[list[int]], dens: list[int]) -> tuple[list[list[int]], list[int]]:
    """The transpose of diag(1/d) R, cleared row by row to lowest terms."""
    out, out_dens = [], []
    for col in zip(*rows):
        e = lcm(*(d // gcd(x, d) for x, d in zip(col, dens)))
        out.append([x * e // d for x, d in zip(col, dens)])
        out_dens.append(e)
    return out, out_dens


def _coefficient_bound(rows: list[list[int]], dens: list[int]) -> int:
    """B = 2^n * prod_i max(isqrt(|R_i|^2) + 1, d_i), which bounds |Delta * c_k|
    for every coefficient c_k of the charpoly (the module docstring proves it)."""
    bound = 1 << len(rows)
    for row, d in zip(rows, dens):
        bound *= max(isqrt(sum(map(mul, row, row))) + 1, d)
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


def det_poly_matrix(p: dict[tuple[int, int], list[int]], dens: dict[int, int]) -> tuple[list[int], int]:
    """(c, Delta): det P(t) = sum_k c_k t^k / Delta for a sparse polynomial
    matrix P = diag(1/e) Q with P(0) = I.

    ``p`` maps (v, u) to the integer coefficients, constant term first, of
    Q[v][u]; ``dens`` maps v to the integer e_v (1 when absent).  A row with
    no entry is a row of the identity.  With Q = Q_0 + t*Q_1 + ... and k_v
    the degree of row v, det P(t) = det(I - t*C) for the companion matrix C
    with one index (i, v) per row v and 0 <= i < k_v: row (i, v) of C holds
    -Q_{i+1}[v][u] / e_v in column (0, u) and a 1 in column (i + 1, v) when
    i + 1 < k_v, so e_v clears the whole row.  C has sum_v k_v rows, the
    degree bound of det P; rows of degree 0 drop out, with their columns,
    since det P expands along them.
    """
    degree = {}
    for (v, u), cs in p.items():
        if (cs[0] if cs else 0) != (dens.get(v, 1) if u == v else 0):
            raise ValueError("det_poly_matrix needs P(0) = I")
        degree[v] = max(degree.get(v, 0), len(cs) - 1)
    if any((v, v) not in p for v in degree):
        raise ValueError("det_poly_matrix needs P(0) = I")
    start, size = {}, 0
    for v in sorted(degree):
        if degree[v] > 0:
            start[v] = size
            size += degree[v]
    rows = [[0] * size for _ in range(size)]
    row_dens = [0] * size
    for (v, u), cs in p.items():
        if v in start and u in start:
            s = start[u]
            for i, c in enumerate(cs[1:], start[v]):
                rows[i][s] = -c
    for v, s in start.items():
        e = dens.get(v, 1)
        for i in range(s, s + degree[v]):
            row_dens[i] = e
            if i + 1 < s + degree[v]:
                rows[i][i + 1] = e
    values, delta = char_poly_rows(rows, row_dens)
    return values[::-1], delta


def eigenvalues_numeric(m) -> list[complex]:
    """All eigenvalues (with multiplicity) of a square numeric matrix.

    A real double-precision general eigensolve: an ndarray goes to LAPACK
    unchanged, so a real matrix takes the real solver (dgeev), whose complex
    eigenvalues come in exact conjugate pairs and whose real eigenvalues have
    imaginary part exactly 0.  A Matrix or nested lists become a float array,
    or a complex one only when some entry is complex.  LAPACK convergence
    failures are surfaced with the matrix shape in the message.
    """
    import numpy as np
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
