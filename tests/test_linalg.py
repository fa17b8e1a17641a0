import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetawalk.algebra import Poly
from zetawalk.digraph import GraphMode, build_digraph, symmetric_digraph
from zetawalk import linalg, zeta
from zetawalk.instances import instance_digraph, instance_weights, parse_instance
from zetawalk.linalg import char_poly_rows, det_poly_matrix
from zetawalk.zeta import WeightAssignment, ihara_digraph, ihara_graph

from conftest import inversion_inputs
from test_golden import GOLDEN, LARGE, large_instance
from oracles import (
    RING, T, Matrix, allones_inverse_check, allones_scaled_inverse, block_matrices, block_scaled_inverse,
    block_woodbury_check, char_poly_exact, coeffs, dense_companion, det_bareiss, det_cofactor, identity,
    is_scaled_inverse, lift, mat_mul, mat_sub, transpose, transposed_rows, zeros,
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
    m = Matrix([[RING.one, -T], [-T, RING.one]])
    assert det_bareiss(m) == 1 - T**2


def test_det_one_by_one():
    assert det_bareiss(Matrix([[1 + 2 * T]])) == 1 + 2 * T


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
                [rng.randint(-3, 3) + rng.randint(-3, 3) * T for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert det_bareiss(mp) == det_cofactor(mp)


def test_det_singular_is_zero():
    m = frac_matrix([[1, 2], [2, 4]])
    assert det_bareiss(m) == 0
    mp = Matrix([[1 + T, 1 + T], [RING(2), RING(2)]])
    assert det_bareiss(mp) == RING.zero


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
        assert char_poly_exact(m) == P(*[0] * n, 1)


def test_char_poly_constant_term_is_signed_det(rng):
    for n in (2, 3, 4):
        m = random_frac_matrix(rng, n, n)
        chi = char_poly_exact(m)
        assert chi.coeffs[-1] == 1 and chi.degree == n
        assert chi.coeffs[0] == (-1) ** n * det_bareiss(m)


def test_char_poly_agrees_with_resolvent_determinant(rng):
    for n in (2, 3, 4):
        m = random_frac_matrix(rng, n, n)
        assert char_poly_exact(m).coeffs == coeffs(resolvent_det(m))


def test_char_poly_vanishes_on_triangular_eigenvalues():
    m = frac_matrix([[2, 5, 1], [0, 3, 7], [0, 0, -4]])
    chi = lift(char_poly_exact(m))
    for lam in (2, 3, -4):
        assert chi(Fraction(lam)) == 0


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
    big = Matrix([[RING.one, T], [T, RING.one]])
    assert det_bareiss(big) == 1 - T**2


def test_block_woodbury_column_case():
    m1 = frac_matrix([[1], [1]])
    m2 = frac_matrix([[1, 1]])
    assert block_woodbury_check(m1, m2)
    big = Matrix(
        [
            [RING.one, RING.zero, T],
            [RING.zero, RING.one, T],
            [T, T, RING.one],
        ]
    )
    assert det_bareiss(big) == 1 - 2 * T**2


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
    rows[i][j] = rows[i][j] + T ** rng.randint(0, len(coeffs(rows[i][j])))
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


def resolvent_det(m: Matrix):
    """det(lambda*I - m) by fraction-free elimination on QQ[lambda] entries."""
    n = m.rows
    return det_bareiss(
        Matrix([[(T if i == j else RING.zero) - m[i, j] for j in range(n)] for i in range(n)]),
        RING.one,
    )


def assert_char_poly(m: Matrix):
    chi = char_poly(m)
    assert chi == char_poly_exact(m)
    assert chi.coeffs == coeffs(resolvent_det(m))


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
        assert char_poly(shift) == P(*[0] * n, 1)
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
    assert chi.coeffs[0] == (-1) ** m.rows * det_bareiss(m, Fraction(1))


def record_moduli(monkeypatch) -> list[int]:
    """The moduli char_poly_rows reduces modulo, one per pass, in order,
    from now on."""
    seen = []
    per_pass = linalg._char_poly_mod

    def recording(rows, dens, q):
        seen.append(q)
        return per_pass(rows, dens, q)

    monkeypatch.setattr(linalg, "_char_poly_mod", recording)
    return seen


def kernel_factors(q: int) -> list[int]:
    """The kernel primes whose product is q, in kernel order."""
    out = []
    for p in map(linalg._kernel_prime, itertools.count()):
        if q == 1:
            return out
        assert p > 1 << 29, "not a product of kernel primes"
        if q % p == 0:
            out.append(p)
            q //= p


def primes_of(moduli: list[int]) -> list[int]:
    return [p for q in moduli for p in kernel_factors(q)]


def clearing(m: Matrix) -> tuple[int, int]:
    """(Delta, B) for m cleared row by row."""
    rows, dens = clear_rows(m)
    return math.prod(dens), linalg._coefficient_bound(rows, dens)


def primes_needed(m: Matrix) -> list[int]:
    """The kernel primes not dividing Delta, up to the first whose product
    exceeds 2B, for m cleared row by row."""
    delta, bound = clearing(m)
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
        assert char_poly(singular).coeffs[0] == 0
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
        assert char_poly(nilpotent) == P(*[0] * n, 1)
        assert_kernel(nilpotent)


def test_kernel_rejects_non_square_input():
    for rows, dens in (([[1, 2]], [1]), ([[1], [2]], [1, 1]), ([[1, 2], [3, 4]], [1]), ([[1]], [0]), ([[1]], [-2])):
        with pytest.raises(ValueError, match="n rows of length n"):
            char_poly_rows(rows, dens)


@st.composite
def rows_over_denominators(draw):
    """(R, e, k): n integer rows R over positive row denominators e, where
    row i and e_i share a drawn factor g_i, and g_i = 0 makes a zero row,
    and a multiplier k of lcm(e)."""
    n = draw(st.integers(0, 5))
    rows, dens = [], []
    for _ in range(n):
        g = draw(st.integers(0, 6))
        rows.append([g * x for x in draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))])
        dens.append(max(g, 1) * draw(st.integers(1, 9)))
    return rows, dens, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(rows_over_denominators())
@example(([[0, 0, 0], [4, -6, 2], [-3, 0, 9]], [5, 2, 6], 1))
def test_one_common_denominator_leaves_the_kernel_unchanged(case):
    # (R, e) and ([R_i (L / e_i)], [L] * n) are the same matrix diag(1/e) R
    # for any multiple L of lcm(e), and the kernel takes every row to
    # lowest terms first, so it returns the same (c, Delta) for both
    rows, dens, k = case
    common = k * math.lcm(*dens)
    scaled = [[x * (common // e) for x in row] for row, e in zip(rows, dens)]
    assert char_poly_rows(scaled, [common] * len(rows)) == char_poly_rows(rows, dens)


def test_kernel_skips_a_prime_that_divides_a_denominator(rng, monkeypatch):
    first = linalg._kernel_prime(0)
    seen = record_moduli(monkeypatch)
    for n in range(1, 7):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), first)
        m = Matrix(rows)
        seen.clear()
        assert_kernel(m)
        assert seen and all(q % first for q in seen)
        assert primes_of(seen) == primes_needed(m)


def test_kernel_with_200_bit_numerators_uses_many_primes(rng, monkeypatch):
    seen = record_moduli(monkeypatch)
    for n in range(1, 6):
        m = Matrix(
            [[Fraction(rng.choice([-1, 1]) * rng.randrange(2**200, 2**201), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        )
        seen.clear()
        assert_kernel(m)
        used = primes_needed(m)
        assert len(used) > 5 and primes_of(seen) == used
        # every pass but the last takes a full group
        assert [len(kernel_factors(q)) for q in seen[:-1]] == [linalg._PRIMES_PER_PASS] * (len(seen) - 1)


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


def minor_sum_bounds(rows: list[list[int]], dens: list[int]) -> list[int]:
    """b_j = sum over the j-row sets S of prod_{i in S} r_i * prod_{i not in S} d_i,
    r_i = isqrt(|R_i|^2) + 1: by Hadamard, |Delta * c_{n-j}| <= b_j."""
    n = len(rows)
    norms = [math.isqrt(sum(x * x for x in row)) + 1 for row in rows]
    return [
        sum(
            math.prod(norms[i] if i in s else dens[i] for i in range(n))
            for s in map(set, itertools.combinations(range(n), j))
        )
        for j in range(n + 1)
    ]


def hadamard_product_bound(rows: list[list[int]], dens: list[int]) -> int:
    """2^n * prod_i max(isqrt(|R_i|^2) + 1, d_i), which bounds the sum of
    every minor_sum_bounds term."""
    return 2 ** len(rows) * math.prod(max(math.isqrt(sum(x * x for x in row)) + 1, d) for row, d in zip(rows, dens))


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
        # the bound holds for the row clearing of m and of m^T alike, and
        # Hadamard's inequality summed over the principal minors bounds each
        # coefficient on its own
        for a in (m, transpose(m)):
            rows, dens = clear_rows(a)
            delta, bound = math.prod(dens), linalg._coefficient_bound(rows, dens)
            per_power = minor_sum_bounds(rows, dens)
            assert bound == max(per_power) <= hadamard_product_bound(rows, dens)
            for k, c in enumerate(chi.coeffs):
                assert (delta * c).denominator == 1 and abs(delta * c) <= per_power[n - k]
    # |det H| = n^(n/2) meets Hadamard's inequality with equality
    assert abs(det_bareiss(Matrix([[Fraction(x) for x in row] for row in h]))) == n ** (n // 2)


def test_coefficient_bound_never_exceeds_the_product_bound(rng):
    for n in range(9):
        for scale in (1, 10**6, 2**200):
            m = random_frac_matrix(rng, n, n)
            m = Matrix([[x * rng.randint(1, scale) for x in row] for row in m.data])
            for a in (m, transpose(m)):
                rows, dens = clear_rows(a)
                assert linalg._coefficient_bound(rows, dens) <= hadamard_product_bound(rows, dens)
                if n <= 6:
                    assert linalg._coefficient_bound(rows, dens) == max(minor_sum_bounds(rows, dens))


def orientation_primes(rows: list[list[int]], dens: list[int]) -> tuple[int, int]:
    """How many kernel primes char_poly_rows takes on the rows it is given,
    and how many it would take on their transpose."""
    counts = []
    for r, d in (linalg._lowest_terms(rows, dens), transposed_rows(rows, dens)):
        counts.append(len(primes_up_to(math.prod(d), 2 * linalg._coefficient_bound(r, d))))
    return counts[0], counts[1]


def golden_and_large_instances():
    for path in sorted(GOLDEN.glob("*.zw")):
        yield path.name, path.read_text(encoding="utf-8")
    for case in sorted(LARGE):
        yield f"large-{case[0]}", large_instance(*case)


def test_each_caller_passes_the_orientation_that_needs_no_more_primes(monkeypatch):
    # zeta passes the Hashimoto rows as they are and det_poly_matrix the
    # transpose of its companion; on every golden and large instance the
    # orientation passed needs no more primes than the other one
    real = linalg.char_poly_rows
    calls = []

    def recording(caller):
        def call(rows, dens):
            calls.append((caller, orientation_primes(rows, dens)))
            return real(rows, dens)

        return call

    monkeypatch.setattr(zeta, "char_poly_rows", recording("hashimoto"))
    monkeypatch.setattr(linalg, "char_poly_rows", recording("companion"))
    for name, text in golden_and_large_instances():
        inst = parse_instance(text, name)
        d = instance_digraph(inst)
        (ihara_graph if d.mode is GraphMode.SYMMETRIC else ihara_digraph)(d, instance_weights(inst, d))
    assert {caller for caller, _ in calls} == {"hashimoto", "companion"}
    assert all(given <= other for _, (given, other) in calls), calls


def test_every_residue_reaches_the_result(rng, monkeypatch):
    m = Matrix([[Fraction(rng.randint(-9, 9) * 10**12 + 1, rng.randint(1, 9)) for _ in range(6)] for _ in range(6)])
    expected = char_poly_exact(m)
    used = primes_needed(m)
    moduli = record_moduli(monkeypatch)
    assert char_poly(m) == expected
    assert len(used) >= 3 and primes_of(moduli) == used
    assert any(len(kernel_factors(q)) > 1 for q in moduli)
    per_pass = linalg._char_poly_mod
    for target in used:
        for k in (0, 3):

            def perturbed(rows, dens, q, target=target, k=k):
                # add 1 to residue k modulo the target prime alone: the
                # CRT lift that is 1 mod target and 0 mod its group's rest
                res = per_pass(rows, dens, q)
                if q % target == 0:
                    rest = q // target
                    res[k] = (res[k] + rest * pow(rest, -1, target)) % q
                return res

            monkeypatch.setattr(linalg, "_char_poly_mod", perturbed)
            assert char_poly(m) != expected
    monkeypatch.setattr(linalg, "_char_poly_mod", per_pass)
    assert char_poly(m) == expected


def symmetric_with_first_column(rng, col: list[int]) -> Matrix:
    """A symmetric integer matrix whose first column is ``col``, so that it
    and its transpose are reduced alike, with the first Hessenberg pivot
    taken from col[1:]."""
    n = len(col)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = col[j] if i == 0 else rng.randint(-9, 9)
    return frac_matrix(a)


def test_kernel_pivots_on_a_unit_modulo_a_group_of_primes(rng, monkeypatch):
    # the first nonzero pivot candidate, 2 * p, is no unit modulo a group
    # holding p; the 7 below it is, and the kernel pivots there
    p = linalg._kernel_prime(0)
    seen = record_moduli(monkeypatch)
    for _ in range(5):
        m = symmetric_with_first_column(rng, [1, 2 * p, 0, 7, -p, 3])
        seen.clear()
        assert_kernel(m)
        # one pass per group: no split, so p is never a modulus of its own
        assert seen[0] % p == 0 and len(kernel_factors(seen[0])) > 1 and p not in seen


def test_kernel_splits_a_group_on_a_column_of_non_units(rng, monkeypatch):
    # every nonzero pivot candidate is a multiple of p: the group splits
    # into p, where the column is zero, and the rest, where it holds units
    p = linalg._kernel_prime(0)
    seen = record_moduli(monkeypatch)
    for _ in range(5):
        m = symmetric_with_first_column(rng, [1, 3 * p, 0, -2 * p, 5 * p])
        seen.clear()
        assert_kernel(m)
        q = seen[0]
        assert len(kernel_factors(q)) > 1
        assert seen[1:3] == [p, q // p]


def random_poly_matrix(rng, n, degree):
    """I + t*P_1 + ... with row v of degree at most ``degree`` (some rows lower)."""
    rows = []
    for v in range(n):
        dv = rng.randint(0, degree)
        row = []
        for u in range(n):
            cs = [Fraction(1 if u == v else 0)]
            cs += [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dv)]
            row.append(RING.from_list(cs[::-1]))
        rows.append(row)
    return Matrix(rows)


def det_dense_poly_matrix(pm: Matrix) -> Poly:
    """``det_poly_matrix`` on a dense Matrix of QQ[t] entries, cleared to
    integers by the lcm of all its coefficient denominators."""
    scale = math.lcm(*(c.denominator for row in pm.data for x in row for c in coeffs(x)))
    p = {}
    for v, row in enumerate(pm.data):
        for u, x in enumerate(row):
            if x or u == v:
                p[v, u] = [int(c * scale) for c in coeffs(x)]
    values, delta = det_poly_matrix(p, scale)
    return Poly([Fraction(c, delta) for c in values])


def test_companion_linearization_quadratic(rng):
    # det(I + t*P1 + t^2*P2) against elimination on the polynomial entries
    for n in range(1, 6):
        for _ in range(5):
            p1 = random_frac_matrix(rng, n, n)
            p2 = random_frac_matrix(rng, n, n)
            pm = Matrix(
                [[int(i == j) + p1[i, j] * T + p2[i, j] * T**2 for j in range(n)] for i in range(n)]
            )
            assert det_dense_poly_matrix(pm).coeffs == coeffs(det_bareiss(pm))


def test_companion_linearization_mixed_row_degrees(rng):
    for n in range(1, 5):
        for _ in range(8):
            pm = random_poly_matrix(rng, n, 4)
            assert det_dense_poly_matrix(pm).coeffs == coeffs(det_bareiss(pm))
    # a row of degree 0 is a row of the identity and drops out
    pm = Matrix([[RING.one, 2 * T + T**2], [RING.zero, RING.one]])
    assert det_dense_poly_matrix(pm) == P(1)


def random_sparse_poly_matrix(rng, n):
    """(p, scale), the arguments of ``det_poly_matrix``, for a sparse P on n
    rows: some rows absent, the others of degree 0-4 with 0-3 entries off
    the diagonal (zero coefficients among them), over a scale from a mixed
    set."""
    p = {}
    scale = rng.choice([1, 1, 2, 3, 4, 6, 35, 2**70])
    for v in range(n):
        if rng.random() < 0.25:
            continue
        degree = rng.randint(0, 4)
        cols = {v} | set(rng.sample(range(n), rng.randint(0, min(3, n))))
        for u in cols:
            cs = [scale if u == v else 0]
            cs += [rng.choice([0, rng.randint(-9, 9), rng.randint(-10**6, 10**6) * scale]) for _ in range(rng.randint(0, degree))]
            p[v, u] = cs
    return p, scale


def golden_vertex_sides(monkeypatch) -> list[tuple[dict, int]]:
    """The arguments of the ``det_poly_matrix`` call of each golden's ihara."""
    seen = []

    def recording(p, scale):
        seen.append((p, scale))
        return det_poly_matrix(p, scale)

    monkeypatch.setattr(zeta, "det_poly_matrix", recording)
    for path in sorted(GOLDEN.glob("*.zw")):
        inst = parse_instance(path.read_text(encoding="utf-8"), path.name)
        d = instance_digraph(inst)
        (ihara_graph if d.mode is GraphMode.SYMMETRIC else ihara_digraph)(d, instance_weights(inst, d))
    monkeypatch.undo()
    return seen


def test_det_poly_matrix_passes_the_cleared_transpose_of_the_dense_companion(rng, monkeypatch):
    # det_poly_matrix builds C^T directly; after the kernel's first step,
    # clearing each row to lowest terms, the kernel must hold exactly the
    # rows and denominators of the dense companion C, transposed and cleared
    cases = golden_vertex_sides(monkeypatch)
    assert len(cases) == len(list(GOLDEN.glob("*.zw")))
    cases += [random_sparse_poly_matrix(rng, rng.randint(1, 6)) for _ in range(300)]
    calls = []
    real = linalg.char_poly_rows
    monkeypatch.setattr(linalg, "char_poly_rows", lambda rows, dens: calls.append((rows, dens)) or real(rows, dens))
    for p, scale in cases:
        det_poly_matrix(p, scale)
        expected = transposed_rows(*dense_companion(p, scale))
        assert linalg._lowest_terms(*calls.pop()) == linalg._lowest_terms(*expected)


def test_companion_linearization_needs_identity_at_zero():
    with pytest.raises(ValueError, match="P\\(0\\) = I"):
        det_dense_poly_matrix(Matrix([[2 + T]]))


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
    assert res.rhs.is_poly() and res.rhs.num == res.hashimoto


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
    assert res.rhs.is_poly() and res.rhs.num == res.hashimoto
