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
* Bound.  Delta * c_k is, up to sign, the sum over the row sets S of size
  n - k of det R[S, S] * prod_{i not in S} d_i.  By Hadamard's inequality
  |det R[S, S]| <= prod_{i in S} r_i with r_i = isqrt(|R_i|^2) + 1 > |R_i|,
  so |Delta * c_k| is at most the coefficient of x^(n-k) in
  prod_i (d_i + r_i x); B is the largest of those coefficients, in integers
  only.  It never exceeds 2^n * prod_i max(r_i, d_i), the sum of them all.
* Rows or columns.  m^T has the charpoly of m, and its rows are m's
  columns.  Both are cleared, and the kernel reduces whichever has the
  smaller B (m on a tie); Delta and B are then those of the matrix
  actually reduced.  Columns win when a few columns carry the
  denominators, as in a companion matrix, whose shift columns hold a
  single 1.  Choosing costs O(n^2), less than one pass.
* Primes.  30-bit primes, counting down from 2^30, each certified by
  deterministic Miller-Rabin and found only when first needed.  The primes
  dividing Delta are skipped.
* Per pass.  Up to _PRIMES_PER_PASS of the kernel primes are multiplied
  into one modulus q.  diag(1/d) R is reduced mod q (no prime of q divides
  Delta, so each d_i is a unit), brought to upper Hessenberg form by
  similarity transforms, and its charpoly read off the leading-minor
  recurrence (Cohen, *A Course in Computational Algebraic Number Theory*,
  Alg. 2.2.9), all in Python ints.  Reduction mod q commutes with the
  charpoly, so any pivot that is a unit mod q serves; the recurrence needs
  no inverse.  When a column's nonzero entries all share a factor g with q,
  q splits into g and q / g, each a product of kernel primes, which are
  reduced on their own and combined by CRT.  A pass mod q costs less than
  a pass per prime: the interpreter's cost per operation dominates, and
  operands of a few hundred bits add little to it.
* CRT.  The residues of Delta * c_k are combined, pass after pass, until
  the modulus exceeds 2B; the symmetric residues are then Delta * c_k
  exactly.  The last pass takes no prime past the one that carries the
  modulus over 2B, and the loop never stops earlier, so the result is
  proved, not guessed.

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


# Kernel primes multiplied into the modulus of one Hessenberg pass.  Of the
# group sizes measured on random graphs of 48, 100 and 160 arcs, 8 was the
# fastest overall; 4 and 16 were no better.
_PRIMES_PER_PASS = 8


def char_poly_rows(rows: list[list[int]], dens: list[int]) -> tuple[list[int], int]:
    """(c, Delta): c_k / Delta, constant term first, are the coefficients of
    the charpoly of m = diag(1/d) R, for n integer rows R of length n and n
    positive d.

    m and m^T have the same charpoly.  Both are cleared row by row to
    lowest terms, and the kernel reduces the one with the smaller bound B
    (``_coefficient_bound``); Delta is the product of that one's row
    denominators.  The residues of Delta * c_k modulo products of primes
    that do not divide Delta are combined by the Chinese remainder theorem
    until the modulus exceeds 2B; the symmetric residues are then
    Delta * c_k exactly (see the module docstring).
    """
    n = len(rows)
    if len(dens) != n or any(len(row) != n for row in rows) or not all(d > 0 for d in dens):
        raise ValueError("char_poly_rows needs n rows of length n and n positive denominators")
    bound, rows, dens = min(
        ((_coefficient_bound(*rd), *rd) for rd in (_lowest_terms(rows, dens), _transposed(rows, dens))),
        key=itemgetter(0),
    )
    delta = prod(dens)
    limit = 2 * bound
    primes = (p for p in map(_kernel_prime, count()) if delta % p)
    values = [0] * (n + 1)
    modulus = 1
    while modulus <= limit:
        q = 1
        for _ in range(_PRIMES_PER_PASS):
            q *= next(primes)
            if modulus * q > limit:
                break
        scale = delta % q
        residues = [c * scale % q for c in _char_poly_mod(rows, dens, q)]
        values = _crt(values, modulus, residues, q)
        modulus *= q
    half = modulus // 2
    return [v - modulus if v > half else v for v in values], delta


def _crt(values: list[int], modulus: int, residues: list[int], q: int) -> list[int]:
    """The numbers in [0, modulus * q) congruent to ``values`` mod ``modulus``
    and to ``residues`` mod ``q``, for coprime moduli."""
    inv = pow(modulus, -1, q)
    return [v + modulus * ((r - v) * inv % q) for v, r in zip(values, residues)]


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
    """B, the largest coefficient of prod_i (d_i + (isqrt(|R_i|^2) + 1) x),
    which bounds |Delta * c_k| for every coefficient c_k of the charpoly
    (the module docstring proves it)."""
    poly = [1]
    for row, d in zip(rows, dens):
        r = isqrt(sum(map(mul, row, row))) + 1
        poly = [a * d + b * r for a, b in zip(poly + [0], [0] + poly)]
    return max(poly)


def _char_poly_mod(rows: list[list[int]], dens: list[int], q: int) -> list[int]:
    """Coefficients, constant term first, of the charpoly of diag(1/d) R mod
    q, a product of kernel primes that divide no d_i.

    Reduces the matrix to upper Hessenberg form H by similarity transforms
    mod q, each pivot the first entry of its column that is a unit mod q,
    then expands the characteristic polynomials p_k of H's leading k x k
    blocks (Cohen, Alg. 2.2.9):

        p_k = (x - H[k-1][k-1]) p_{k-1}
              - sum_{i<k} H[i-1][k-1] * H[i][i-1] ... H[k-1][k-2] * p_{i-1}.

    A column whose nonzero entries are all non-units splits q by the gcd
    of the first with q; each factor is reduced on its own from the start.
    """
    h = [[x * e % q for x in row] for row, e in zip(rows, (pow(d, -1, q) for d in dens))]
    n = len(h)
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if h[i][col] and gcd(h[i][col], q) == 1), None)
        if piv is None:
            g = next((gcd(h[i][col], q) for i in range(k, n) if h[i][col]), None)
            if g is None:
                continue
            return _crt(_char_poly_mod(rows, dens, g), g, _char_poly_mod(rows, dens, q // g), q // g)
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        idx = [i for i in range(k + 1, n) if h[i][col]]
        if not idx:
            continue
        hk = h[k]
        inv = pow(hk[col], -1, q)
        us = [h[i][col] * inv % q for i in idx]
        # row i -= u_i * row k over row k's nonzeros (none left of col), ...
        nz = [(j, b) for j, b in enumerate(hk[col:], col) if b]
        for i, u in zip(idx, us):
            hi = h[i]
            for j, b in nz:
                hi[j] = (hi[j] - u * b) % q
        # ... then the inverse transform: column k += sum_i u_i * column i
        get = itemgetter(*idx, k)
        us.append(1)
        for row in h:
            row[k] = sum(map(mul, us, get(row))) % q
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        diag = h[k - 1][k - 1]
        cur = [0] + prev
        cur[:k] = [a - diag * b for a, b in zip(cur, prev)]
        sub = 1
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1] % q
            if not sub:
                break
            coef = sub * h[i - 1][k - 1] % q
            if coef:
                cur[:i] = [a - coef * b for a, b in zip(cur, polys[i - 1])]
        polys.append([c % q for c in cur])
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
