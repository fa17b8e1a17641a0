"""Szegedy and Grover walk transition matrices and their spectra.

The walk lives on the arcs of the symmetric digraph of a finite simple
loopless graph.  Given a transition probability p with unit row sums per
tail vertex, the transition matrix is

    U[a, a'] = 2 sqrt(p(a) p(inv(a'))) [tail(a) = head(a')] - [a' = inv(a)]

(the Grover walk is the uniform case p(a) = 1/deg(tail(a))).  The paper's
determinant expression gives its characteristic polynomial through the
vertex-sized discriminant T[u][v] = sum_{a in A_uv} sqrt(p(a) p(inv(a))):

    det(lambda I - U) = (lambda^2 - 1)^(|E|-|V|)
                        * prod_mu (lambda^2 - 2 mu lambda + 1),

over the eigenvalues mu of T.  The spectrum is read off this factorization;
the CLI checks it against a direct numeric eigensolve of U (the oracle).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .digraph import Digraph, GraphMode
from .linalg import eigenvalues_numeric  # noqa: F401  (the direct-spectrum oracle, re-exported)


class WalkError(ValueError):
    """Invalid input for the quantum-walk layer."""


def _require_walk_graph(g: Digraph) -> None:
    if g.mode is not GraphMode.SYMMETRIC:
        raise WalkError("walks require the symmetric digraph of a graph")
    for a in g.arcs:
        if a.tail == a.head:
            raise WalkError(f"loop arc {a.id} at vertex {a.tail}: walks need a loopless graph")
    for v in range(g.vertex_count):
        for u in range(v, g.vertex_count):
            if len(g.arcs_between(v, u)) > 1:
                raise WalkError(f"multi-edge between {v} and {u}: walks need a simple graph")
    if any(g.degree(v) == 0 for v in range(g.vertex_count)):
        raise WalkError("walks need minimum degree >= 1")


def uniform_probability(g: Digraph) -> dict[int, Fraction]:
    """The Grover assignment p(a) = 1/deg(tail(a))."""
    return {a.id: Fraction(1, g.degree(a.tail)) for a in g.arcs}


def validate_probability(g: Digraph, p) -> dict[int, Fraction]:
    """Check totality, positivity, and unit row sums per tail vertex.

    Row sums must be exactly 1 for rational inputs; float inputs are
    allowed a 1e-12 slack.
    """
    probs = {}
    has_float = False
    for a in g.arcs:
        if a.id not in p:
            raise WalkError(f"missing probability for arc {a.id}")
        raw = p[a.id]
        has_float = has_float or isinstance(raw, float)
        val = Fraction(raw)
        if not 0 < val <= 1:
            raise WalkError(f"probability {val} for arc {a.id} outside (0, 1]")
        probs[a.id] = val
    for v in range(g.vertex_count):
        total = sum(probs[a] for a in g.out_arcs(v))
        bad = abs(total - 1) > Fraction(1, 10**12) if has_float else total != 1
        if bad:
            raise WalkError(f"probabilities at vertex {v} sum to {total}, expected 1")
    return probs


def _sqrt_product(x: Fraction, y: Fraction) -> float:
    """sqrt(x*y) with an exact path when the product is a rational square."""
    prod = x * y
    rn = math.isqrt(prod.numerator)
    rd = math.isqrt(prod.denominator)
    if rn * rn == prod.numerator and rd * rd == prod.denominator:
        return float(Fraction(rn, rd))
    return math.sqrt(float(prod))


def _transition(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """U for validated probabilities, visiting only adjacent arc pairs.

    The arcs b with head(b) = tail(a) are the partners of the arcs leaving
    tail(a), and inv(partner(c)) = c.
    """
    n = g.arc_count
    u = np.zeros((n, n))
    for a in g.arcs:
        pa = probs[a.id]
        for c in g.out_arcs(a.tail):
            u[a.id, g.partner(c)] = 2.0 * _sqrt_product(pa, probs[c])
        u[a.id, g.partner(a.id)] -= 1.0
    return u


def _discriminant(g: Digraph, probs: dict[int, Fraction]) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a)))."""
    nv = g.vertex_count
    t = np.zeros((nv, nv))
    for a in g.arcs:
        t[a.tail, a.head] += _sqrt_product(probs[a.id], probs[g.partner(a.id)])
    return t


def _quadratic_roots(mu: float) -> tuple[complex, complex]:
    """Roots of lambda^2 - 2*mu*lambda + 1.

    A near-zero discriminant is snapped to zero: the square root would
    amplify O(eps) eigensolver noise in mu to O(sqrt(eps)), turning exact
    double roots (mu = +-1) into spurious complex pairs.  True
    discriminants of desk-scale instances are either exactly zero or far
    from the snap threshold.
    """
    disc = (2.0 * mu) ** 2 - 4.0
    root = 0.0 if abs(disc) <= 1e-11 else np.sqrt(complex(disc))
    return ((2.0 * mu + root) / 2.0, (2.0 * mu - root) / 2.0)


def _signed_unit_adjustment(values: list[complex], copies: int, tol: float) -> list[complex]:
    """Add (copies > 0) or cancel (copies < 0) that many +1/-1 pairs."""
    out = list(values)
    if copies >= 0:
        out.extend([1.0 + 0.0j, -1.0 + 0.0j] * copies)
        return out
    for sign in (1.0, -1.0):
        for _ in range(-copies):
            best, best_err = None, None
            for i, v in enumerate(out):
                err = abs(v - sign)
                if best_err is None or err < best_err:
                    best, best_err = i, err
            if best is None or best_err > tol:
                raise WalkError(
                    f"cannot cancel a {sign:+.0f} eigenvalue from the quadratic roots "
                    f"(closest residual {best_err})"
                )
            out.pop(best)
    return out


def _spectrum(g: Digraph, probs: dict[int, Fraction], tol: float) -> list[complex]:
    """{+1, -1} each |E|-|V| times plus the roots of lambda^2 - 2 mu lambda + 1.

    T is symmetric (sqrt(p(a) p(inv(a))) is the same for a and inv(a)), so
    its spectrum is real and eigvalsh applies.  When |E| < |V| the
    prefactor divides the product, so +-1 roots are cancelled, not added.
    """
    roots: list[complex] = []
    for mu in np.linalg.eigvalsh(_discriminant(g, probs)):
        roots.extend(_quadratic_roots(float(mu)))
    return _signed_unit_adjustment(roots, g.edge_count - g.vertex_count, tol)


def szegedy_transition(g: Digraph, p) -> np.ndarray:
    """The arc-indexed Szegedy transition matrix for probabilities ``p``."""
    _require_walk_graph(g)
    return _transition(g, validate_probability(g, p))


def grover_transition(g: Digraph) -> np.ndarray:
    """The Grover transition matrix 2/deg(tail(a)) on adjacencies minus the partner flip."""
    _require_walk_graph(g)
    return _transition(g, uniform_probability(g))


def unitarity_defect(u: np.ndarray) -> float:
    """max |U U* - I|, the unitarity residual."""
    n = u.shape[0]
    return float(np.max(np.abs(u @ u.conj().T - np.eye(n)))) if n else 0.0


def grover_discriminant(g: Digraph) -> np.ndarray:
    """T[u][v] = 1/deg(u) on edges, 0 elsewhere.

    This is D^-1 A, similar to the symmetric Szegedy discriminant at the
    uniform probabilities, so both have the same eigenvalues.
    """
    _require_walk_graph(g)
    nv = g.vertex_count
    t = np.zeros((nv, nv))
    for u in range(nv):
        for v in range(nv):
            if u != v and g.arcs_between(u, v):
                t[u, v] = 1.0 / g.degree(u)
    return t


def szegedy_discriminant(g: Digraph, p) -> np.ndarray:
    """T[u][v] = sum over arcs a in A_uv of sqrt(p(a) p(inv(a)))."""
    _require_walk_graph(g)
    return _discriminant(g, validate_probability(g, p))


def grover_spectrum_via_zeta(g: Digraph, tol: float = 1e-8) -> list[complex]:
    """Spectrum of the Grover walk from the vertex factorization."""
    _require_walk_graph(g)
    return _spectrum(g, uniform_probability(g), tol)


def szegedy_spectrum_via_factorization(g: Digraph, p, tol: float = 1e-8) -> list[complex]:
    """Spectrum of the Szegedy walk from the vertex factorization.

    ``tol`` bounds the distance of a quadratic root cancelled against the
    (lambda^2 - 1) prefactor when |E| < |V|.
    """
    _require_walk_graph(g)
    return _spectrum(g, validate_probability(g, p), tol)


def spectrum_deviation(s1, s2) -> float:
    """Smallest max pairwise distance over perfect matchings of two multisets."""
    a = np.asarray(list(s1), dtype=complex)
    b = np.asarray(list(s2), dtype=complex)
    if a.shape != b.shape:
        raise WalkError(f"spectra have different sizes: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
