import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetawalk.algebra import Poly
from zetawalk.digraph import build_digraph, symmetric_digraph
from zetawalk.instances import fixture_digraph
from zetawalk import linalg
from zetawalk.linalg import Matrix, char_poly_rows, det_poly_matrix, eigenvalues_numeric
from zetawalk.walk import grover_transition, spectrum_deviation, szegedy_transition
from zetawalk.zeta import WeightAssignment, ihara_digraph, ihara_graph

from conftest import inversion_inputs, random_probability, random_walk_graph
from oracles import (
    allones_inverse_check, allones_scaled_inverse, block_matrices, block_scaled_inverse,
    block_woodbury_check, char_poly_exact, det_bareiss, det_cofactor, identity, is_scaled_inverse,
    mat_mul, mat_sub, transpose, zeros,
)


def P(*coeffs):
    return Poly(coeffs)


def clear_rows(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """(R, d): d_i is the lcm of the denominators in row i and R_i = d_i * m_i."""
    rows, dens = [], []
    for row in m.data:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return rows, dens


def char_poly(m: Matrix) -> Poly:
    """det(lambda*I - m) of a square Fraction matrix, by ``char_poly_rows``."""
    values, delta = char_poly_rows(*clear_rows(m))
    return Poly([Fraction(v, delta) for v in values])


def frac_matrix(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def random_frac_matrix(rng, rows, cols):
    return Matrix(
        [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_det_swap_matrix_poly():
    m = Matrix([[P(1), P(0, -1)], [P(0, -1), P(1)]])
    assert det_bareiss(m) == P(1, 0, -1)


def test_det_one_by_one():
    assert det_bareiss(Matrix([[P(1, 2)]])) == P(1, 2)


def test_det_empty_needs_one():
    empty = Matrix([])
    assert det_bareiss(empty, one=P(1)) == P(1)
    with pytest.raises(ValueError):
        det_bareiss(empty)


def test_det_non_square_errors():
    with pytest.raises(ValueError, match="square"):
        det_bareiss(frac_matrix([[1, 2, 3], [4, 5, 6]]))


def test_bareiss_equals_cofactor_small(rng):
    for n in range(1, 6):
        for _ in range(6):
            m = random_frac_matrix(rng, n, n)
            assert det_bareiss(m) == det_cofactor(m)
        mp = Matrix(
            [
                [Poly([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert det_bareiss(mp) == det_cofactor(mp)


def test_det_singular_is_zero():
    m = frac_matrix([[1, 2], [2, 4]])
    assert det_bareiss(m) == 0
    mp = Matrix([[P(1, 1), P(1, 1)], [P(2), P(2)]])
    assert det_bareiss(mp).is_zero()


def test_det_commutation_identity(rng):
    # det(I - XY) == det(I - YX) for conformable rectangular matrices
    for k in range(1, 6):
        for ell in range(1, 6):
            x = random_frac_matrix(rng, k, ell)
            y = random_frac_matrix(rng, ell, k)
            ik = identity(k, Fraction(1), Fraction(0))
            il = identity(ell, Fraction(1), Fraction(0))
            assert det_bareiss(mat_sub(ik, mat_mul(x, y))) == det_bareiss(mat_sub(il, mat_mul(y, x)))


def test_char_poly_identity_matrix():
    m = identity(3, Fraction(1), Fraction(0))
    assert char_poly_exact(m) == P(-1, 3, -3, 1)


def test_char_poly_swap():
    assert char_poly_exact(frac_matrix([[0, 1], [1, 0]])) == P(-1, 0, 1)


def test_char_poly_zero_matrix():
    for n in (1, 2, 4):
        m = zeros(n, n, Fraction(0))
        assert char_poly_exact(m) == Poly.monomial(n, 1)


def test_char_poly_constant_term_is_signed_det(rng):
    for n in (2, 3, 4):
        m = random_frac_matrix(rng, n, n)
        chi = char_poly_exact(m)
        assert chi.lead() == 1 and chi.degree == n
        assert chi.coefficient(0) == (-1) ** n * det_bareiss(m)


def test_char_poly_agrees_with_resolvent_determinant(rng):
    for n in (2, 3, 4):
        m = random_frac_matrix(rng, n, n)
        assert char_poly_exact(m) == resolvent_det(m)


def test_char_poly_vanishes_on_triangular_eigenvalues():
    m = frac_matrix([[2, 5, 1], [0, 3, 7], [0, 0, -4]])
    chi = char_poly_exact(m)
    for lam in (2, 3, -4):
        assert chi.evaluate(Fraction(lam)) == 0


def test_eigenvalues_swap():
    vals = sorted(eigenvalues_numeric([[0, 1], [1, 0]]), key=lambda z: z.real)
    assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12


def test_eigenvalues_diagonal():
    vals = sorted(v.real for v in eigenvalues_numeric([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    assert np.allclose(vals, [2, 3, 5], atol=1e-12)


def test_eigenvalues_match_char_poly_roots(rng):
    m = random_frac_matrix(rng, 5, 5)
    chi = char_poly_exact(m)
    roots = np.roots([float(c) for c in reversed(chi.coeffs)])
    direct = eigenvalues_numeric(m)
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    direct = sorted(direct, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(roots, direct)) < 1e-8


def test_eigenvalues_requires_square():
    with pytest.raises(ValueError, match="square"):
        eigenvalues_numeric([[1, 2, 3], [4, 5, 6]])


def test_eigenvalues_real_input_reaches_lapack_as_float64(monkeypatch):
    seen = []
    eigvals = np.linalg.eigvals

    def recording(a):
        seen.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    u = grover_transition(fixture_digraph("k4"))
    eigenvalues_numeric(u)
    eigenvalues_numeric([[0, 1], [1, 0]])
    eigenvalues_numeric(frac_matrix([[1, 2], [3, 4]]))
    assert seen == [np.float64] * 3
    eigenvalues_numeric([[0, 1j], [1, 0]])
    assert seen[-1] == np.complex128


def test_eigenvalues_match_the_complex_route_on_walk_matrices(rng):
    def ordered(values):
        return sorted(values, key=lambda z: (z.real, z.imag))

    for nv in (4, 8, 16, 32, 64):
        g = random_walk_graph(rng, nv)
        for u in (grover_transition(g), szegedy_transition(g, random_probability(rng, g))):
            vals = eigenvalues_numeric(u)
            assert spectrum_deviation(vals, np.linalg.eigvals(u.astype(complex))) <= 1e-12
            # dgeev returns exact conjugate pairs and real eigenvalues with imaginary part 0
            assert ordered(vals) == ordered(z.conjugate() for z in vals)


def test_allones_inverse_examples():
    assert allones_inverse_check(1, 2)
    assert allones_inverse_check(3, 1)
    assert allones_inverse_check(5, 7)


def test_allones_inverse_rational_scalar():
    assert allones_inverse_check(4, Fraction(3, 7))


def test_block_woodbury_scalar_case():
    m1 = frac_matrix([[1]])
    m2 = frac_matrix([[1]])
    assert block_woodbury_check(m1, m2)
    # the determinant itself: det(I + tM) for M = [[0,1],[1,0]] is 1 - t^2
    big = Matrix([[P(1), P(0, 1)], [P(0, 1), P(1)]])
    assert det_bareiss(big) == P(1, 0, -1)


def test_block_woodbury_column_case():
    m1 = frac_matrix([[1], [1]])
    m2 = frac_matrix([[1, 1]])
    assert block_woodbury_check(m1, m2)
    big = Matrix(
        [
            [P(1), P(), P(0, 1)],
            [P(), P(1), P(0, 1)],
            [P(0, 1), P(0, 1), P(1)],
        ]
    )
    assert det_bareiss(big) == P(1, 0, -2)


def test_block_woodbury_random(rng):
    for k, ell in [(2, 3), (3, 2), (3, 3), (1, 4), (4, 1)]:
        m1 = random_frac_matrix(rng, k, ell)
        m2 = random_frac_matrix(rng, ell, k)
        assert block_woodbury_check(m1, m2)


def test_block_woodbury_shape_mismatch():
    with pytest.raises(ValueError, match="M2 must be"):
        block_woodbury_check(frac_matrix([[1, 2]]), frac_matrix([[1, 2]]))


def corrupt_one_coefficient(m: Matrix, rng) -> Matrix:
    """m with 1 added to one coefficient (up to one above the degree) of one entry."""
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    rows = [list(row) for row in m.data]
    rows[i][j] = rows[i][j] + Poly.monomial(rng.randint(0, rows[i][j].degree + 1))
    return Matrix(rows)


def test_inversion_checks_reject_a_corrupted_inverse(rng):
    # the scaled-inverse test behind both checks of acceptance criterion 5,
    # on the same inputs, with the claimed inverse off by one coefficient
    allones, blocks = inversion_inputs()
    for n, k in allones:
        lhs, claimed, s = allones_scaled_inverse(n, k)
        assert not is_scaled_inverse(lhs, corrupt_one_coefficient(claimed, rng), s)
    for m1, m2 in blocks:
        full = block_matrices(m1, m2)[0]
        d = det_bareiss(full)
        claimed = block_scaled_inverse(m1, m2)
        assert is_scaled_inverse(full, claimed, d)
        assert not is_scaled_inverse(full, corrupt_one_coefficient(claimed, rng), d)


def resolvent_det(m: Matrix) -> Poly:
    """det(lambda*I - m) by fraction-free elimination on polynomial entries."""
    n = m.rows
    lam = Poly.variable()
    return det_bareiss(
        Matrix(
            [
                [(lam if i == j else Poly.zero()) - Poly.constant(m[i, j]) for j in range(n)]
                for i in range(n)
            ]
        ),
        Poly.one(),
    )


def assert_char_poly(m: Matrix):
    chi = char_poly(m)
    assert chi == char_poly_exact(m)
    assert chi == resolvent_det(m)


def test_char_poly_random_rational(rng):
    for n in range(1, 9):
        for density in (0.3, 1.0):
            for _ in range(4):
                m = Matrix(
                    [
                        [
                            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < density else Fraction(0)
                            for _ in range(n)
                        ]
                        for _ in range(n)
                    ]
                )
                assert_char_poly(m)


def test_char_poly_empty_and_scalar():
    assert char_poly(Matrix([])) == P(1)
    assert char_poly(frac_matrix([[Fraction(3, 2)]])) == P(Fraction(-3, 2), 1)
    assert char_poly(frac_matrix([[0]])) == P(0, 1)


def test_char_poly_zero_pivots(rng):
    # permutations, nilpotent shifts and block-triangular matrices put zeros
    # on the subdiagonal, so the Hessenberg reduction must swap or skip
    for n in range(2, 8):
        perm = list(range(n))
        rng.shuffle(perm)
        assert_char_poly(frac_matrix([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]))
        shift = frac_matrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        assert_char_poly(shift)
        assert char_poly(shift) == Poly.monomial(n, 1)
        assert_char_poly(transpose(shift))
        k = n // 2
        blocks = Matrix(
            [
                [
                    Fraction(0) if (i >= k and j < k) else Fraction(rng.randint(-3, 3))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        assert_char_poly(blocks)
        assert_char_poly(transpose(blocks))


# The multimodular kernel against the Faddeev-LeVerrier and elimination
# oracles, and its bound, prime choice and residue recombination.
def assert_kernel(m: Matrix):
    chi = char_poly(m)
    assert chi == char_poly_exact(m)
    assert chi.coefficient(0) == (-1) ** m.rows * det_bareiss(m, Fraction(1))


def record_primes(monkeypatch) -> list[int]:
    """The primes char_poly_rows reduces modulo, in order, from now on."""
    seen = []
    per_prime = linalg._char_poly_mod

    def recording(rows, dens, p):
        seen.append(p)
        return per_prime(rows, dens, p)

    monkeypatch.setattr(linalg, "_char_poly_mod", recording)
    return seen


def clearings(m: Matrix) -> list[tuple[int, int]]:
    """(Delta, B) for m and for m^T, each cleared row by row."""
    out = []
    for a in (m, transpose(m)):
        rows, dens = clear_rows(a)
        out.append((math.prod(dens), linalg._coefficient_bound(rows, dens)))
    return out


def primes_needed(m: Matrix) -> list[int]:
    """The kernel primes not dividing Delta, up to the first whose product
    exceeds 2B, for whichever of m and m^T has the smaller B (m on a tie)."""
    delta, bound = min(clearings(m), key=lambda db: db[1])
    return primes_up_to(delta, 2 * bound)


def primes_up_to(delta: int, limit: int) -> list[int]:
    used, modulus, i = [], 1, 0
    while modulus <= limit:
        p = linalg._kernel_prime(i)
        i += 1
        if delta % p:
            used.append(p)
            modulus *= p
    return used


def test_kernel_matches_oracles_on_random_rational_matrices(rng):
    for n in range(11):
        for density in (0.25, 0.6, 1.0):
            m = Matrix(
                [
                    [
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < density else Fraction(0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            assert_kernel(m)


def test_kernel_skips_pivots_of_zero_columns(rng):
    # every column below the subdiagonal is zero (upper Hessenberg already),
    # and block upper triangular matrices zero whole columns below the diagonal
    for n in range(2, 11):
        hess = Matrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) if i <= j + 1 else Fraction(0) for j in range(n)] for i in range(n)]
        )
        assert_kernel(hess)
        upper = Matrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) if i <= j else Fraction(0) for j in range(n)] for i in range(n)]
        )
        assert_kernel(upper)
        assert_kernel(transpose(upper))


def test_kernel_on_singular_and_nilpotent_matrices(rng):
    for n in range(2, 11):
        # rank n - 1: the last row is a combination of the others
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n - 1)]
        cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]
        rows.append([sum((c * row[j] for c, row in zip(cs, rows)), Fraction(0)) for j in range(n)])
        singular = Matrix(rows)
        assert char_poly(singular).coefficient(0) == 0
        assert_kernel(singular)
        # a strictly upper triangular matrix under a dense rational similarity
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if j > i else Fraction(0) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for col in range(n):  # row i += c * row j ...
                a[i][col] += c * a[j][col]
            for row in a:  # ... column j -= c * column i
                row[j] -= c * row[i]
        nilpotent = Matrix(a)
        assert char_poly(nilpotent) == Poly.monomial(n, 1)
        assert_kernel(nilpotent)


def test_kernel_skips_a_prime_that_divides_a_denominator(rng, monkeypatch):
    first = linalg._kernel_prime(0)
    seen = record_primes(monkeypatch)
    for n in range(1, 7):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), first)
        m = Matrix(rows)
        seen.clear()
        assert_kernel(m)
        assert seen and first not in seen
        assert seen == primes_needed(m)


def test_kernel_with_200_bit_numerators_uses_many_primes(rng, monkeypatch):
    seen = record_primes(monkeypatch)
    for n in range(1, 6):
        m = Matrix(
            [[Fraction(rng.choice([-1, 1]) * rng.randrange(2**200, 2**201), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        )
        seen.clear()
        assert_kernel(m)
        assert len(seen) > 5 and seen == primes_needed(m)


def is_prime_by_trial_division(q: int) -> bool:
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


def test_kernel_primes_are_the_primes_below_2_to_the_30():
    primes = [linalg._kernel_prime(i) for i in range(12)]
    below = [q for q in range((1 << 30) - 1, primes[-1] - 1, -1) if is_prime_by_trial_division(q)]
    assert primes == below
    assert all(linalg._is_prime(q) == is_prime_by_trial_division(q) for q in range(9, 20001, 2))
    # strong pseudoprimes to base 2, to bases 2 and 3, to bases 2, 3 and 5,
    # and a Carmichael number coprime to 2, 3, 5 and 7, which passes a Fermat test
    for q in (2047, 1373653, 25326001, 29341):
        assert not linalg._is_prime(q)


def sylvester_hadamard(n: int) -> list[list[int]]:
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("n", [2, 4, 8])
def test_coefficient_bound_holds_where_hadamard_is_tight(n):
    h = sylvester_hadamard(n)
    for m in (
        Matrix([[Fraction(x) for x in row] for row in h]),
        Matrix([[Fraction(x, 3) for x in row] for row in h]),
        Matrix([[Fraction(x, i + 1) for x in row] for i, row in enumerate(h)]),
        Matrix([[Fraction(x, j + 1) for j, x in enumerate(row)] for row in h]),
    ):
        chi = char_poly_exact(m)
        assert chi == char_poly(m)
        # the bound holds for the row clearing of m and of m^T alike
        for delta, bound in clearings(m):
            for c in chi.coeffs:
                assert (delta * c).denominator == 1 and abs(delta * c) <= bound
    # |det H| = n^(n/2) meets Hadamard's inequality with equality
    assert abs(det_bareiss(Matrix([[Fraction(x) for x in row] for row in h]))) == n ** (n // 2)


def test_kernel_reduces_the_transpose_when_its_bound_is_smaller(rng, monkeypatch):
    # every entry of column 0 has denominator 7^30: each row of m needs 7^30,
    # while m^T needs it in one row only
    seen = record_primes(monkeypatch)
    for n in range(2, 8):
        m = Matrix(
            [
                [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), 7**30 if j == 0 else 1) for j in range(n)]
                for _ in range(n)
            ]
        )
        (row_delta, row_bound), (col_delta, col_bound) = clearings(m)
        assert col_bound < row_bound
        seen.clear()
        assert_kernel(m)
        assert seen == primes_needed(m) == primes_up_to(col_delta, 2 * col_bound)
        assert len(seen) < len(primes_up_to(row_delta, 2 * row_bound))


def test_every_residue_reaches_the_result(rng, monkeypatch):
    m = Matrix([[Fraction(rng.randint(-9, 9) * 10**12 + 1, rng.randint(1, 9)) for _ in range(6)] for _ in range(6)])
    expected = char_poly_exact(m)
    used = primes_needed(m)
    assert len(used) >= 3
    per_prime = linalg._char_poly_mod
    for target in used:
        for k in (0, 3):

            def perturbed(rows, dens, p, target=target, k=k):
                res = per_prime(rows, dens, p)
                if p == target:
                    res[k] = (res[k] + 1) % p
                return res

            monkeypatch.setattr(linalg, "_char_poly_mod", perturbed)
            assert char_poly(m) != expected
    monkeypatch.setattr(linalg, "_char_poly_mod", per_prime)
    assert char_poly(m) == expected


def random_poly_matrix(rng, n, degree):
    """I + t*P_1 + ... with row v of degree at most ``degree`` (some rows lower)."""
    rows = []
    for v in range(n):
        dv = rng.randint(0, degree)
        row = []
        for u in range(n):
            cs = [Fraction(1 if u == v else 0)]
            cs += [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dv)]
            row.append(Poly(cs))
        rows.append(row)
    return Matrix(rows)


def det_dense_poly_matrix(pm: Matrix) -> Poly:
    """``det_poly_matrix`` on a dense Matrix of Polys, each row cleared to
    integers by the lcm of its coefficient denominators."""
    p, dens = {}, {}
    for v, row in enumerate(pm.data):
        dens[v] = e = math.lcm(*(c.denominator for x in row for c in x.coeffs))
        for u, x in enumerate(row):
            if x or u == v:
                p[v, u] = [int(c * e) for c in x.coeffs]
    values, delta = det_poly_matrix(p, dens)
    return Poly([Fraction(c, delta) for c in values])


def test_companion_linearization_quadratic(rng):
    # det(I + t*P1 + t^2*P2) against elimination on the polynomial entries
    for n in range(1, 6):
        for _ in range(5):
            p1 = random_frac_matrix(rng, n, n)
            p2 = random_frac_matrix(rng, n, n)
            pm = Matrix(
                [[Poly([Fraction(i == j), p1[i, j], p2[i, j]]) for j in range(n)] for i in range(n)]
            )
            assert det_dense_poly_matrix(pm) == det_bareiss(pm)


def test_companion_linearization_mixed_row_degrees(rng):
    for n in range(1, 5):
        for _ in range(8):
            pm = random_poly_matrix(rng, n, 4)
            assert det_dense_poly_matrix(pm) == det_bareiss(pm)
    # a row of degree 0 is a row of the identity and drops out
    pm = Matrix([[P(1), P(0, 2, 1)], [P(), P(1)]])
    assert det_dense_poly_matrix(pm) == P(1)


def test_companion_linearization_needs_identity_at_zero():
    with pytest.raises(ValueError, match="P\\(0\\) = I"):
        det_dense_poly_matrix(Matrix([[P(2, 1)]]))


# The digraph identity, which runs the row clearing and the linearization
# against det(I - t*M), on generated multi-digraphs with loops and parallel arcs.
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(lambda x: x != 0)


@st.composite
def weighted_multidigraphs(draw):
    nv = draw(st.integers(1, 4))
    arcs = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=9))
    d = build_digraph(nv, arcs)
    n = d.arc_count
    tau1 = draw(st.lists(rationals, min_size=n, max_size=n))
    tau2 = draw(st.lists(rationals, min_size=n, max_size=n))
    return d, WeightAssignment.from_maps(d, dict(enumerate(tau1)), dict(enumerate(tau2)))


@settings(max_examples=60, deadline=None)
@given(weighted_multidigraphs())
def test_ihara_digraph_identity_property(instance):
    d, w = instance
    res = ihara_digraph(d, w)
    assert res.agree
    assert res.rhs.as_poly() == res.hashimoto


# The graph identity, with its (1 - t^2)^(|E|-|V|) prefactor, on generated
# multigraphs with loops, parallel edges and isolated vertices.
@st.composite
def weighted_multigraphs(draw):
    nv = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=5))
    g = symmetric_digraph(nv, edges)
    n = g.arc_count
    tau1 = draw(st.lists(rationals, min_size=n, max_size=n))
    tau2 = draw(st.lists(rationals, min_size=n, max_size=n))
    return g, WeightAssignment.from_maps(g, dict(enumerate(tau1)), dict(enumerate(tau2)))


@settings(max_examples=60, deadline=None)
@given(weighted_multigraphs())
def test_ihara_graph_identity_property(instance):
    g, w = instance
    res = ihara_graph(g, w)
    assert res.agree
    assert res.prefactor_exponent == g.edge_count - g.vertex_count
    assert res.rhs.as_poly() == res.hashimoto
