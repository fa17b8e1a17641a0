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
  collect per-pair weight sums (D and X carry 1/f denominators).  The
  pairs are the blocks of the inverse relation; those of the symmetric
  digraph of a graph are its edges, each with f = 1 - t^2, and the same
  expression reads

      det(I - t*M) = (1 - t^2)^(|E| - |V|) * det(I - t*A + t^2*(D - I)).

The theta matrix is built once, in integers: ``_edge_matrix_data`` returns
(D, P) with P = D*T, T = S M S^-1, S = diag(1/q2), tau = p/q and D the lcm
of T's row denominators q1(a) q2(a).  T has M's characteristic polynomial,
the traces of M's powers and every closed path's circular product, so
Hashimoto and the two series routes all run on (D, P), and no other
code computes D.

Every determinant here is read off one scalar kernel,
``linalg.char_poly_rows``, which takes integer rows with row denominators:

* det(I - t*M) is the charpoly of T = diag(1/D) P, reversed (``_hashimoto``).
* the vertex determinant is assembled sparsely, in Python ints, by
  ``_vertex_det`` from one row form: the term (v, k, n, f) of row u adds
  (n / S) t^k / f to entry (u, v) of the vertex matrix, with n a nonzero
  int, S the one scale of the whole vertex side, and f a block factor as
  an integer coefficient tuple, or None for the terms of A.  Each row is
  cleared once: r_u, the product of the distinct f of row u, and S clear
  it to an integer polynomial row, so P(t) = Q(t) / S has P(0) = I and
  det(vertex matrix) = det(P) / prod_u r_u; det(P) is that of I - t*C for
  the companion C of P (``linalg.det_poly_matrix``).  A row with no term
  is a row of the identity and is never materialized.

Every Ihara-style operation builds its vertex side without det(I - t*M),
in both modes from the blocks of the inverse relation (``_vertex_side``),
as (fs, factors, det P): the blocks' f and the distinct f of each cleared
row, all of constant term 1.  The vertex side clears tau1 once to ints
over s1, the lcm of its denominators, and tau2 over s2, and keeps A, the
per-block tau sums and every term's coefficient as ints over S = s1 s2;
it reads the weights itself, so a defect in the one theta builder shows
as a Hashimoto-vs-Ihara mismatch.  One check, ``_identity``, cancels fs
against factors, which for a graph leaves (1 - t^2)^(|E| - |V'|) on one
side, V' the rows of P, and compares num * det P with det(I - t*M) * den,
num and den the products of what is left, as integer polynomials
cross-multiplied by their denominators.  On a match the reported
right-hand side is det(I - t*M); a mismatch builds the reduced quotient
num * det P / den and names the first power of t at which the two sides
differ.  ``verify_expressions`` reports that power and makes no Fraction
on the vertex side.  ``ihara_digraph`` and ``ihara_graph`` report
``agree`` and alone build report tables, {(u, v): value} maps of nonzero
entries, the only place a vertex-side Fraction is made: those of A (both
modes) and of a graph's D hold Fractions.  Both read D off what
``_vertex_det`` keeps of the rows it cleared, r_u and the t^2 parts: a
digraph's D entry is the t^2 part of cleared row u over S r_u, one RatFunc
of two integer polynomials.  A digraph's X entry has one term, from one
block, and is that term over S f.

The series routes run in Python ints, on P.  A length-k term of a path
route, closed paths for N_k or prime cycles for the Euler product, then
carries D^k.  The closed-path route returns the ints D^k N_k, the only N_k
route of the library, and the exponential (``_exp_of_power_sums``) and the
Euler product (``_euler``) are integer numerators f_n and acc_n over D^n,
with D read once off (D, P).  ``verify`` compares them in ints: f_n with
acc_n, and each with det(I - t*M) = sum_k H_k t^k / Delta by
sum_j x_j D^(k-j) H_(k-j) = [k = 0] Delta for k <= order.  As h_0 = 1, the
first k where that fails is the first power of t at which x differs from
1/det(I - t*M).  Only a printed series is reduced, once by gcd, as the
pairs (x, D^n): on agreement the report's Euler and Hashimoto series are
the exponential itself, and the Euler ``Series`` and ``Series.inv`` of
det(I - t*M) are built on a mismatch only.  Every other result here
reaches its ``Poly``, ``Series`` or ``RatFunc`` through that class's
internal constructor, as ints over positive denominators, so ``verify``
(but for that inverse, which runs over Fractions), ``hashimoto``, ``exp``
and ``euler`` build no Fraction.  The
closed-path route counts each closed path from its least arc s.  It sums
the first-return loops s -> x_1 -> ... -> s with every x_i > s by a vector
recurrence over the arcs above s, without listing one, and an integer
recurrence turns the loops' totals into s's share of every N_k
(``_n_k_enumerated_all``).  The prime-cycle walk
(``digraph.lyndon_cycles``) follows the nonzero entries of P, those of M,
only.  The Euler product multiplies in 1/(1 - c t^k) for the prime cycles
of length k <= order/2 only.  Past order/2 the cross terms of the factors
have degree above the order, so the product of those factors is
1 + sum_k C_k t^k, with C_k the total of c over the cycles of length k;
the walk lists the cycles up to order/2 only and yields one C_k for each
longer length, and it sums every length past (order + 1) // 2 by lookups
after a prefix of that length, without a frame (``_euler``).
The exponential's recurrence n f_n = sum_k D^k N_k f_(n-k) divides exactly
on the power sums of the integer matrix P; a remainder shows a wrong
enumeration and raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import lcm
from operator import mul

from .algebra import Poly, RatFunc, Series, _exact_quotient, _trim, as_fraction
from .digraph import Digraph, GraphError, GraphMode, PhiPair, lyndon_cycles
from .linalg import char_poly_rows, det_poly_matrix


_ONE = Fraction(1)


class ZetaError(Exception):
    """Base class for zeta-engine failures."""


class ConsistencyError(ZetaError):
    """A computation broke an invariant that holds on correct code (internal
    defect): the power sums gave a non-integer exponential numerator."""


@dataclass(frozen=True)
class WeightAssignment:
    """Total rational arc weight maps tau1, tau2, indexed by arc id; each
    entry goes through ``algebra.as_fraction``, so a float raises TypeError."""

    tau1: tuple
    tau2: tuple

    def __post_init__(self):
        object.__setattr__(self, "tau1", tuple(map(as_fraction, self.tau1)))
        object.__setattr__(self, "tau2", tuple(map(as_fraction, self.tau2)))

    @classmethod
    def from_maps(cls, d: Digraph, tau1=None, tau2=None) -> "WeightAssignment":
        """Build from partial {arc id: value} maps; missing entries default to 1."""

        def fill(m):
            vals = [_ONE] * d.arc_count
            if m is not None:
                for aid, v in dict(m).items():
                    if not 0 <= aid < d.arc_count:
                        raise GraphError(f"weight for unknown arc id {aid}")
                    vals[aid] = v
            return tuple(vals)

        return cls(fill(tau1), fill(tau2))


def edge_matrix(d: Digraph, w: WeightAssignment) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the arc-indexed matrix M with entries theta(a, b), read
    back from ``_edge_matrix_data``: M[a][b] = q2(a) P[a][b] / (D q2(b))."""
    scale, rows = _edge_matrix_data(d, w)
    q2 = [x.denominator for x in w.tau2]
    return tuple(
        tuple(Fraction(q2[a] * x, scale * q2[b]) for b, x in enumerate(row)) for a, row in enumerate(rows)
    )


def _edge_matrix_data(d: Digraph, w: WeightAssignment) -> tuple[int, list[list[int]]]:
    """(D, P): the integer matrix P = D * S M S^-1, with S = diag(1/q2) and
    tau = p/q, and D the lcm of the row denominators e_a = q1(a) q2(a).
    Row a of P is D / e_a times

        p1(a) p2(b) [b leaves head(a)] - q1(a) q2(b) [b inverse of a],

    read straight off tau1 and tau2.  Every zeta entry point calls this
    first, so it alone checks the weights' lengths."""
    n = d.arc_count
    tau1, tau2 = w.tau1, w.tau2
    if len(tau1) != n or len(tau2) != n:
        raise GraphError(f"weights for {len(tau1)} and {len(tau2)} arcs on a digraph with {n}")
    dens = [t1.denominator * t2.denominator for t1, t2 in zip(tau1, tau2)]
    scale = lcm(*dens)
    rows = []
    for a, head in enumerate(d.heads):
        t1, m = tau1[a], scale // dens[a]
        out, back = m * t1.numerator, m * t1.denominator
        row = [0] * n
        for b in d.out_arcs(head):
            row[b] = out * tau2[b].numerator
        for b in d.inverse_set(a):
            row[b] -= back * tau2[b].denominator
        rows.append(row)
    return scale, rows


def hashimoto(d: Digraph, w: WeightAssignment) -> Poly:
    """The polynomial det(I - t*M); its series inverse is the zeta function."""
    return _hashimoto(_edge_matrix_data(d, w))[0]


def _hashimoto(theta) -> tuple[Poly, tuple[list[int], int]]:
    """(h, (H, Delta)) with h = det(I - t*M) = sum_k H_k t^k / Delta, the
    reversed charpoly of P / D for (D, P) from ``_edge_matrix_data``; the
    kernel takes each row to lowest terms, so Delta is that of the rows'
    own denominators, not D^n."""
    scale, rows = theta
    values, delta = char_poly_rows(rows, [scale] * len(rows))
    values = values[::-1]
    return Poly._from_ints(values, repeat(delta)), (values, delta)


def _n_k_enumerated_all(theta, upto: int) -> list[int]:
    """[D^k N_k for k = 1..upto], N_k the sum of circular products over
    closed paths, grouped by their least arc; D is theta's, the one scale.

    The route runs on the Python ints P = D*T from ``_edge_matrix_data``,
    with T = S M S^-1, so a closed path of length k adds D^k times its
    circular product (the same in T as in M).

    N_k sums the product of every closed path, a sequence of k arcs read
    from each of its k start positions.  Group the paths by their least arc
    s.  For a path P that visits s n times, the pairs (P, i) with P_i = s
    match one to one, by rotating P to start at i, the pairs (W, i) of a
    closed path W that starts at s and any of the k positions i.  Such a W
    with n visits of s is a sequence of n first-return loops
    s -> x_1 -> ... -> x_{j-1} -> s with every x_i > s.  So with F_s(t) the
    total product of the loops at s, by length, the paths with least arc s
    add

        sum_n (k / n) [t^k] F_s(t)^n = k [t^k] -log(1 - F_s(t)) = m_k

    to N_k: each path once, from each start position.  Then
    m_k = k f_k + sum_{j<k} m_j f_{k-j} with f_k = [t^k] F_s, and as it is
    homogeneous of degree k, it holds for D^k m_k and D^k f_k, so
    D^k N_k = sum_s D^k m_k is found in ints.

    f_k is a sum over walks, so the route sums them instead of listing
    them.  From each s, after j - 1 steps the map ``walks`` holds, for each
    arc b > s, the D^(j-1)-scaled total product of the walks
    s -> x_1 -> ... -> b of j - 1 transitions with every x_i > s; it starts
    as {s: 1}.  Then D f_1 = P[s][s] and D^j f_j = sum_a walks[a] P[a][s].
    A step follows the nonzero entries of each row, restricted to columns
    > s, so no walk returns to s or goes below it.  The cost is polynomial:
    upto steps over at most the nonzero entries of P, per start arc.
    """
    im = theta[1]
    rows = [tuple((b, v) for b, v in enumerate(row) if v != 0) for row in im]
    totals = [0] * (upto + 1)
    for s in range(len(im)):
        loops = [0, im[s][s]] + [0] * (upto - 1)  # loops[k] = D^k f_k
        walks = {s: 1}
        for j in range(2, upto + 1):
            nxt = {}
            for a, x in walks.items():
                for b, v in rows[a]:
                    if b > s:
                        nxt[b] = nxt.get(b, 0) + x * v
            walks = nxt
            loops[j] = sum(x * im[a][s] for a, x in walks.items())
        if any(loops):
            shares = [0]  # shares[k] = D^k m_k
            for k in range(1, upto + 1):
                shares.append(k * loops[k] + sum(map(mul, shares[1:k], loops[k - 1 : 0 : -1])))
                totals[k] += shares[k]
    return totals[1:]


def n_k_all(d: Digraph, w: WeightAssignment, upto: int) -> list:
    """N_1..N_upto, by the closed-path route."""
    if upto < 1:
        raise ZetaError("power-sum order must be >= 1")
    theta = _edge_matrix_data(d, w)
    return [Fraction(x, theta[0] ** k) for k, x in enumerate(_n_k_enumerated_all(theta, upto), start=1)]


def _require_series_order(order: int) -> None:
    if order < 1:
        raise ZetaError("series order must be >= 1")


def exponential_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """exp( sum_{k<=order} N_k/k t^k ), truncated at ``order``."""
    _require_series_order(order)
    theta = _edge_matrix_data(d, w)
    return _over_powers(_exp_of_power_sums(_n_k_enumerated_all(theta, order), order), theta[0], order)


def _exp_of_power_sums(xs: list[int], order: int) -> list[int]:
    """[f_n for n = 0..order], exp( sum_k N_k/k t^k ) = sum_n f_n t^n / D^n
    for xs = [D^k N_k].

    The N_k are the power sums tr T^k of T = P / D, for the integer matrix
    P, so the series is 1/det(I - u*P) at u = t/D, whose coefficients f_n
    are integers.  Then n f_n = sum_{k=1..n} x_k f_{n-k} divides exactly;
    a remainder raises ConsistencyError.
    """
    fs = [1]
    for n in range(1, order + 1):
        f, r = divmod(sum(map(mul, xs, reversed(fs))), n)
        if r:
            raise ConsistencyError(f"the power sums give a non-integer exponential numerator at t^{n}")
        fs.append(f)
    return fs


def _powers(x: int, n: int):
    """x^0, x^1, ..., x^n."""
    return accumulate(repeat(x, n), mul, initial=1)


def _over_powers(nums: list[int], scale: int, order: int) -> Series:
    """sum_n nums[n] t^n / scale^n to ``order``."""
    return Series._from_ints(nums, _powers(scale, order), order)


def euler_truncated(d: Digraph, w: WeightAssignment, order: int) -> Series:
    """Product over prime cycles of 1/(1 - circ(X) t^|X|), truncated."""
    _require_series_order(order)
    theta = _edge_matrix_data(d, w)
    return _over_powers(_euler(theta, order), theta[0], order)


def _euler(theta, order: int) -> list[int]:
    """The Euler product, accumulated as acc[i] = D^i * (coefficient i) over
    the integer matrix P = D*T from ``_edge_matrix_data``.  The prime cycles
    are the Lyndon closed paths of P's nonzero entries, those of M, so the
    walk skips every cycle whose product is 0.

    A cycle of length k <= order/2 multiplies acc by 1/(1 - c t^k).  One of
    length k > order/2 has the factor 1 + c t^k to ``order``, since c^2 t^2k
    is past it, and every cross term between two such factors has degree
    above ``order`` as well.  So their product is 1 + sum_k C_k t^k, with
    C_k the total of c over the cycles of length k: the walk lists only the
    cycles of length <= order/2 and adds up the longer ones itself, one C_k
    per length, and acc is multiplied by that sum once at the end.  It
    walks the prefixes shorter than (order + 1) // 2 and reads the totals
    of every longer length off suffix sums.
    """
    im = theta[1]
    half = order // 2
    acc = [1] + [0] * order
    totals = [0] * (order + 1)  # totals[k] = C_k for k > order/2
    for _, k, c in lyndon_cycles(im, order, half):
        if k > half:
            totals[k] += c
        else:
            for i in range(k, order + 1):
                acc[i] += acc[i - k] * c
    # i - k <= order/2 below, so acc[i - k] is still the short cycles' product
    for i in range(order, half, -1):
        acc[i] += sum(map(mul, totals[half + 1 : i + 1], reversed(acc[: i - half])))
    return acc


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials, constant term first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _product(polys) -> list[int]:
    acc = [1]
    for f in polys:
        acc = _mul(acc, f)
    return acc


def _vertex_det(rows: dict, scale: int) -> tuple[list, tuple[list[int], int], dict]:
    """(factors, det P, cleared): det(I + sum of terms) = det P / prod(factors).

    ``rows`` maps u to the nonzero terms (v, k, n, f) of row u: each adds
    (n / scale) t^k / f to entry (u, v), or (n / scale) t^k when f is None,
    for an int n and an integer coefficient tuple f.  Each row is cleared
    once: r_u is the product of its distinct f, which ``factors`` lists row
    by row, and P is the vertex matrix with each row u multiplied by r_u, so
    that a term's (n / scale) / f becomes n / scale times r_u / f.  Each
    term is added once, so cleared, into its entry of the integer
    polynomial matrix Q = scale * P, with Q(0) = scale * I; det P is
    (c, Delta) from ``det_poly_matrix``.  ``cleared`` maps u to
    (r_u, {v: c}), c the integer polynomial sum n r_u / f over the t^2
    terms of entry (u, v), kept for the report tables alone: that part of
    the entry is t^2 c / (scale r_u).  A row with no term keeps the row of
    the identity and is never materialized.
    """
    factors, q, cleared = [], {}, {}
    for u, terms in rows.items():
        distinct = dict.fromkeys(f for *_, f in terms if f is not None)
        ru = _product(distinct)
        # a row with one distinct factor, as every graph row is, has cofactor 1
        cofactor = {f: _exact_quotient(ru, f) if len(distinct) > 1 else [1] for f in distinct}
        factors += distinct
        q[u, u] = [scale * x for x in ru]
        t2 = {}
        for v, k, n, f in terms:
            mult = ru if f is None else cofactor[f]
            entry = q.setdefault((u, v), [])
            entry += [0] * (k + len(mult) - len(entry))
            for i, x in enumerate(mult, k):
                entry[i] += n * x
            if k == 2:
                part = t2.setdefault(v, [])
                part += [0] * (len(mult) - len(part))
                for i, x in enumerate(mult):
                    part[i] += n * x
        cleared[u] = ru, t2
    q = {key: cs for key, cs in q.items() if _trim(cs) or key[0] == key[1]}
    return factors, det_poly_matrix(q, scale), cleared


def _identity(fs, factors, kd, hk) -> tuple[Poly, RatFunc, int | None]:
    """(h, rhs, k) for the vertex identity prod(fs) * det P = h * prod(factors),
    where kd = (K, Delta) gives det P = K / Delta and hk = (h, (H, Delta_h)),
    from ``_hashimoto``, gives h = det(I - t*M) = H / Delta_h.

    The two factor multisets cancel first, leaving num of fs and den of
    factors; the identity is checked as the integer polynomial equation
    num * K * Delta_h == H * den * Delta.  On a match rhs is h and k is
    None.  Otherwise rhs is the reduced quotient num * det P / den and k the
    first power of t at which the two sides differ; every factor has
    constant term 1, so k is also the first nonzero coefficient of rhs - h.
    """
    (k_vals, delta), (h, (h_vals, h_delta)) = kd, hk
    num, den = [], list(factors)
    for f in fs:
        if f in den:
            den.remove(f)
        else:
            num.append(f)
    num, den = _product(num), _product(den)
    lhs = _trim(_mul(num, [x * h_delta for x in k_vals]))
    rhs = _trim(_mul(den, [x * delta for x in h_vals]))
    if lhs == rhs:
        return h, RatFunc.from_poly(h), None
    k = next(i for i, (a, b) in enumerate(zip_longest(lhs, rhs, fillvalue=0)) if a != b)
    return h, RatFunc._from_ints(_mul(num, k_vals), [delta * x for x in den]), k


def _vertex_side(d: Digraph, w: WeightAssignment):
    """The vertex side (fs, factors, det P) of prod(fs) * det(I - t*A + t^2*D - t^3*X),
    fs the blocks' f, and the parts the Ihara reports read: the blocks
    (u, v, out, back), the scale S, A as {(u, v): n}, zero sums included,
    the rows of terms and the rows cleared by ``_vertex_det``.  Each
    nonzero term goes straight to its row u as (v, k, n, f): those of -A at
    t^1, of D at t^2 and of -X at t^3, the last two divided by their
    block's f; every n stands for n / S.

    The blocks are those of the inverse relation: a digraph's phi pairs, out
    holding the arcs u -> v and back the arcs v -> u, or a graph's edges,
    arcs 2i and 2i+1.  A block with out = back holds a digraph's loops at u,
    each the inverse of every loop: it takes one direction, D terms only,
    with f = 1 + |A_uu| t.  Any other block takes both directions, with
    f = 1 - |out||back| t^2, so 1 - t^2 for every edge of a graph, loops
    included; there each row's t^3 terms cancel t^3 A r_u, and P is
    I - t*A + t^2*(D - I) on the rows that have a nonzero term.

    tau1 is cleared once to ints over s1, the lcm of its denominators, and
    tau2 over s2, so every coefficient is an int over S = s1 s2: each one
    is a product of a tau1 sum and a tau2 sum.  No Fraction is made here.
    """
    if d.mode is GraphMode.SYMMETRIC:
        blocks = [(d.tails[a], d.heads[a], (a,), (a + 1,)) for a in range(0, d.arc_count, 2)]
    else:
        blocks = [(p.u, p.v, p.arcs_uv, p.arcs_vu) for p in d.phi_pairs()]
    s1 = lcm(*(x.denominator for x in w.tau1))
    s2 = lcm(*(x.denominator for x in w.tau2))
    tau1 = [x.numerator * (s1 // x.denominator) for x in w.tau1]
    tau2 = [x.numerator * (s2 // x.denominator) for x in w.tau2]
    a_map = {}
    for a, key in enumerate(zip(d.tails, d.heads)):
        a_map[key] = a_map.get(key, 0) + tau1[a] * tau2[a]
    rows = {}

    def add(u, v, k, n, f=None):
        if n:
            rows.setdefault(u, []).append((v, k, n, f))

    for (u, v), n in a_map.items():
        add(u, v, 1, -n)
    fs = []
    for u, v, out, back in blocks:
        out1 = sum(tau1[a] for a in out)
        out2 = sum(tau2[a] for a in out)
        if out == back:
            f = (1, len(out))
            add(u, u, 2, out2 * out1, f)
        else:
            f = (1, 0, -len(out) * len(back))
            back1 = sum(tau1[a] for a in back)
            back2 = sum(tau2[a] for a in back)
            for x, y, sum2, sum1, sum1_other, n_back in (
                (u, v, out2, out1, back1, len(back)),
                (v, u, back2, back1, out1, len(out)),
            ):
                add(x, x, 2, sum2 * sum1_other, f)
                add(x, y, 3, -n_back * sum2 * sum1, f)
        fs.append(f)
    scale = s1 * s2
    factors, det_p, cleared = _vertex_det(rows, scale)
    return (fs, factors, det_p), (blocks, scale, a_map, rows, cleared)


def _fractions(table: dict, scale: int) -> dict:
    """A table of ints over ``scale`` as a report table of Fractions,
    nonzero entries only."""
    return {key: Fraction(n, scale) for key, n in table.items() if n}


def _digraph_tables(rows: dict, cleared: dict, scale: int) -> tuple[dict, dict]:
    """The D and X report tables {(u, v): RatFunc} of nonzero entries.  D
    is the t^2 part of each row cleared by ``_vertex_det``, c / (scale r_u).
    An X entry is the one t^3 term (v, 3, n, f) of row u, made by one block,
    so it is -n / (scale f), over that block's own factor."""
    d_table = {}
    for u, (ru, t2) in cleared.items():
        den = [scale * x for x in ru]
        for v, c in t2.items():
            if any(c):
                d_table[u, v] = RatFunc._from_ints(c, den)
    x_table = {
        (u, v): RatFunc._from_ints([-n], [scale * x for x in f])
        for u, terms in rows.items()
        for v, k, n, f in terms
        if k == 3
    }
    return d_table, x_table


@dataclass(frozen=True)
class IharaDigraph:
    """Vertex determinant data for a general digraph.

    ``a``, ``d_ul`` and ``x_ul`` hold the nonzero entries of A, D and X as
    {(u, v): value} maps.  ``rhs`` is prod_f * det(I - t*A + t^2*D - t^3*X)
    reduced as a rational function; when the identity holds (always, absent
    bugs) it is the polynomial det(I - t*M).
    """

    pairs: tuple[PhiPair, ...]
    f_factors: tuple[Poly, ...]
    a: dict
    d_ul: dict
    x_ul: dict
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

    At tau1 = 1 this is Sato's expression prod_f * det(I - t*Au + t^2*Du),
    with Au[u][v] = (sum_{a in A_uv} tau2(a)) / f(u,v) and
    Du[u][u] = sum_{w != u} |A_wu| (sum_{a in A_uw} tau2(a)) / f(u,w),
    entry by entry: off the diagonal -t A - t^3 X = -t Au, because
    f + |A_uv||A_vu| t^2 = 1; on it the loop terms of A and D combine to
    -t Au[u][u], since f(u,u) - |A_uu| t = 1, and the other terms of D are
    those of Du.
    """
    if d.mode is not GraphMode.GENERAL:
        raise GraphError("ihara_digraph requires a general-mode digraph")
    theta = _edge_matrix_data(d, w)
    side, (blocks, scale, a_map, rows, cleared) = _vertex_side(d, w)
    h, rhs, k = _identity(*side, _hashimoto(theta))
    d_table, x_table = _digraph_tables(rows, cleared, scale)
    return IharaDigraph(
        pairs=tuple(PhiPair(*block) for block in blocks),
        f_factors=tuple(Poly(f) for f in side[0]),
        a=_fractions(a_map, scale),
        d_ul=d_table,
        x_ul=x_table,
        rhs=rhs,
        hashimoto=h,
        agree=k is None,
    )


@dataclass(frozen=True)
class IharaGraph:
    """Vertex determinant data for the symmetric digraph of a graph.

    ``a_g`` and ``d_g`` hold the nonzero entries of A and D as
    {(u, v): value} maps.  ``rhs`` is (1-t^2)^(|E|-|V|) *
    det(I - t*A + t^2*(D - I)) as a reduced rational function (the exponent
    may be negative).
    """

    a_g: dict
    d_g: dict
    prefactor_exponent: int
    vertex_det: Poly
    rhs: RatFunc
    hashimoto: Poly
    agree: bool


def ihara_graph(g: Digraph, w: WeightAssignment) -> IharaGraph:
    """The vertex-sized determinant expression of a graph, from the blocks
    of ``_vertex_side``, one per edge with f = 1 - t^2.

    Every row with a nonzero term has one, as a nonzero A[u][v] comes with
    the nonzero X term of an arc u -> v, so its r_u is 1 - t^2 and each
    cofactor is 1: D[u][u], the sum of tau1(a ^ 1) tau2(a) over the arcs a
    leaving u, is the t^2 part of cleared row u.  A row with no nonzero
    term is the row (1 - t^2) e_u of I - t*A + t^2*(D - I) and adds no row
    to P and no factor to clear, so the vertex det is
    (1 - t^2)^(|V| - rows of P) det P.
    """
    if g.mode is not GraphMode.SYMMETRIC:
        raise GraphError("ihara_graph requires the symmetric digraph of a graph")
    theta = _edge_matrix_data(g, w)
    side, (_, scale, a_map, _, cleared) = _vertex_side(g, w)
    h, rhs, k = _identity(*side, _hashimoto(theta))
    k_vals, delta = side[2]
    d_g = {(u, u): t2[u][0] for u, (_, t2) in cleared.items() if u in t2}
    rows_missing = g.vertex_count - len(cleared)
    # (1 - t^2)^n for n = rows_missing: c_(i+1) = -c_i (n - i) / (i + 1) at t^2i
    prefactor = [1]
    for i in range(rows_missing):
        prefactor += [0, -prefactor[-1] * (rows_missing - i) // (i + 1)]
    return IharaGraph(
        a_g=_fractions(a_map, scale),
        d_g=_fractions(d_g, scale),
        prefactor_exponent=g.edge_count - g.vertex_count,
        vertex_det=Poly._from_ints(_mul(prefactor, k_vals), repeat(delta)),
        rhs=rhs,
        hashimoto=h,
        agree=k is None,
    )


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


def _verdict(name: str, k: int | None) -> Verdict:
    """Agreement, or a mismatch first seen at t^k."""
    return Verdict(name, k is None, None if k is None else f"at t^{k}")


def _first_non_inverse(xs: list[int], scale: int, h_ints) -> int | None:
    """The least k at which x = sum_n xs[n] t^n / D^n, D = ``scale``,
    differs from 1/h, or None, for h = sum_k H_k t^k / Delta, given as
    h_ints = (H, Delta), with h_0 = 1: the least k with
    sum_j xs[j] D^(k-j) H_(k-j) != [k = 0] Delta, since x h - 1 = (x - 1/h) h
    starts where x - 1/h does."""
    h_vals, delta = h_ints
    scaled = [x * p for x, p in zip(h_vals, _powers(scale, len(xs) - 1))]
    for k in range(len(xs)):
        if sum(map(mul, scaled, reversed(xs[: k + 1]))) != (0 if k else delta):
            return k
    return None


def verify_expressions(d: Digraph, w: WeightAssignment, order: int) -> ZetaReport:
    """Compute all four expressions and compare them.

    Series expressions are compared coefficientwise to ``order``, as the
    integer numerators over D^n, Hashimoto and Ihara exactly as rational
    functions.  The theta matrix (D, P) is built once and shared by the
    power sums, the Euler product and Hashimoto; the vertex side reads tau1
    and tau2 on its own.  On agreement the report's Euler and Hashimoto
    series are the exponential, the one series reduced.
    """
    _require_series_order(order)
    theta = _edge_matrix_data(d, w)
    scale = theta[0]
    fs = _exp_of_power_sums(_n_k_enumerated_all(theta, order), order)
    acc = _euler(theta, order)
    side, _ = _vertex_side(d, w)
    hk = _hashimoto(theta)
    h, ihara_rhs, k = _identity(*side, hk)
    k_euler = next((n for n, (f, a) in enumerate(zip(fs, acc)) if f != a), None)
    k_expo_h = _first_non_inverse(fs, scale, hk[1])
    expo = _over_powers(fs, scale, order)
    if k_euler is None:
        eul, k_euler_h = expo, k_expo_h
    else:
        eul, k_euler_h = _over_powers(acc, scale, order), _first_non_inverse(acc, scale, hk[1])
    if k_expo_h is None or k_euler_h is None:
        h_series = expo if k_expo_h is None else eul
    else:
        h_series = Series._from_ints(hk[1][0], repeat(hk[1][1]), order).inv()
    verdicts = (
        _verdict("exponential-vs-euler", k_euler),
        _verdict("exponential-vs-hashimoto", k_expo_h),
        _verdict("euler-vs-hashimoto", k_euler_h),
        _verdict("hashimoto-vs-ihara", k),
    )
    return ZetaReport(
        order=order,
        exponential=expo,
        euler=eul,
        hashimoto=h,
        hashimoto_series=h_series,
        ihara_rhs=ihara_rhs,
        verdicts=verdicts,
    )
