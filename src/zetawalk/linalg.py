"""The one exact determinant kernel.

One kernel computes every determinant the library reports:
``char_poly_rows``, the characteristic polynomial of m = diag(1/d) R for
integer rows R with positive row denominators d, found exactly by
multimodular arithmetic (Dumas, Pernet and Wan, ISSAC 2005).  Its callers
pass integer rows: ``zeta``'s Hashimoto matrix and every companion below.

* Row clearing.  Row i of m is taken in lowest terms: d_i is the lcm of its
  entries' reduced denominators and R_i = d_i * m_i.  With Delta =
  prod d_i, every Delta * c_k is an integer, because a principal minor of m
  on the rows S has a denominator dividing prod_{i in S} d_i.
* Bound.  B = prod_i (d_i + r_i) with r_i = isqrt(|R_i|^2) + 1 > |R_i|.
  Delta * c_k is, up to sign, the sum over the row sets S of size n - k of
  det R[S, S] * prod_{i not in S} d_i, and by Hadamard's inequality
  |det R[S, S]| <= prod_{i in S} r_i, so |Delta * c_k| is at most the
  coefficient of x^(n-k) in prod_i (d_i + r_i x), whose n + 1 coefficients
  sum to B.  B is thus at most log2(n + 1) bits above the largest of them,
  and never exceeds 2^n * prod_i max(r_i, d_i).  One loop clears the rows
  and multiplies up Delta and B, in integers only.
* Primes.  30-bit primes, counting down from 2^30, each certified by
  trial division and found only when first needed, once per process.  The
  primes dividing Delta are skipped.
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
polynomial matrix P = Q / s with P(0) = I, given as
{(v, u): integer coefficients of Q[v][u]} and the one scale s, is
det(I - t*C) of a companion linearization C of P.  Rows that are absent are
rows of the identity and never enter C.  C^T has C's charpoly, and it is
built directly, with no Fraction: C's denominator s sits in its columns
(0, u), and every other column holds a single 1, so C^T carries s in only
as many rows as P has, and each of its other rows is a single 1 over 1.
The kernel's row clearing takes each row to lowest terms.  C itself is
never formed.

Only ``zeta`` calls this module, and it works in Python ints alone: the
numeric eigensolve lives in ``walk``.  The dense matrix type, the
elimination determinants, the Faddeev-LeVerrier charpoly, the inversion
identities, and the dense companion with its transpose cleared column by
column, which the tests compare against, live in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from math import gcd, isqrt
from operator import itemgetter, mul


# Kernel primes multiplied into the modulus of one Hessenberg pass.  Of the
# group sizes measured on random graphs of 48, 100 and 160 arcs, 8 was the
# fastest overall; 4 and 16 were no better.
_PRIMES_PER_PASS = 8


def char_poly_rows(rows: list[list[int]], dens: list[int]) -> tuple[list[int], int]:
    """(c, Delta): c_k / Delta, constant term first, are the coefficients of
    the charpoly of m = diag(1/d) R, for n integer rows R of length n and n
    positive d.

    One loop clears the rows to lowest terms and multiplies up Delta, the
    product of their denominators, and the bound B.  The residues of
    Delta * c_k modulo products of primes that do not divide Delta are
    combined by the Chinese remainder theorem until the modulus exceeds 2B;
    the symmetric residues are then Delta * c_k exactly (see the module
    docstring).  m^T has the same charpoly, so a caller whose denominators
    sit in a few columns passes m^T (``det_poly_matrix``).
    """
    n = len(rows)
    if len(dens) != n or any(len(row) != n for row in rows) or not all(d > 0 for d in dens):
        raise ValueError("char_poly_rows needs n rows of length n and n positive denominators")
    cleared, cleared_dens = [], []
    delta = bound = 1
    for row, d in zip(rows, dens):
        g = gcd(d, *row)
        if g > 1:
            row, d = [x // g for x in row], d // g
        cleared.append(row)
        cleared_dens.append(d)
        delta *= d
        bound *= d + isqrt(sum(map(mul, row, row))) + 1
    rows, dens = cleared, cleared_dens
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
    """Trial division by the odd numbers up to sqrt(q), for odd q > 1."""
    return all(q % f for f in range(3, isqrt(q) + 1, 2))


def det_poly_matrix(p: dict[tuple[int, int], list[int]], scale: int) -> tuple[list[int], int]:
    """(c, Delta): det P(t) = sum_k c_k t^k / Delta for a sparse polynomial
    matrix P = Q / scale with P(0) = I.

    ``p`` maps (v, u) to the integer coefficients, constant term first, of
    Q[v][u], and ``scale`` is a positive int.  A row with no entry is a row
    of the identity.  With Q = Q_0 + t*Q_1 + ... and k_v the degree of row
    v, det P(t) = det(I - t*C) for the companion matrix C with one index
    (i, v) per row v and 0 <= i < k_v: row (i, v) of C holds
    -Q_{i+1}[v][u] / scale in column (0, u) and a 1 in column (i + 1, v)
    when i + 1 < k_v.  C has sum_v k_v rows, the degree bound of det P;
    rows of degree 0 drop out, with their columns, since det P expands
    along them.

    C^T goes to ``char_poly_rows``: its row (0, u) holds -Q_{i+1}[v][u] in
    column (i, v) over ``scale``, and its row (i + 1, v) a single 1 in
    column (i, v) over 1.  The kernel takes each row to lowest terms.
    """
    degree = {}
    for (v, u), cs in p.items():
        if (cs[0] if cs else 0) != (scale if u == v else 0):
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
    row_dens = [1] * size
    for v, s in start.items():
        row_dens[s] = scale
        for i in range(s + 1, s + degree[v]):
            rows[i][i - 1] = 1
    for (v, u), cs in p.items():
        if v in start and u in start:
            rows[start[u]][start[v] : start[v] + len(cs) - 1] = [-c for c in cs[1:]]
    values, delta = char_poly_rows(rows, row_dens)
    return values[::-1], delta
