"""Mutant catalogue: deliberate faults that named tests must catch.

Each mutant replaces one anchor, which must occur exactly once in its file
under ``src/``, and names the pytest node ids that must fail with it.  The
runner copies ``src/`` and ``tests/`` to a temporary directory and first
runs every named test there unmutated: each must pass, or a kill would
mean nothing.  It then applies one mutant at a time and runs its tests
with ``-x -q``.  A mutant is killed when pytest reports a failed test
(exit 1).  The runner exits 1 when a mutant survives, when an anchor is
missing or repeated, or when pytest cannot run a mutant's tests.

    python tests/mutants.py                      # every mutant
    python tests/mutants.py series-inv-no-c0     # the named ones

pytest does not collect this file, since its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # under src/
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "coefficient-bound-halved",
        "zetawalk/linalg.py",
        "    limit = 2 * bound\n",
        "    limit = bound\n",
        ("tests/test_linalg.py::test_coefficient_bound_holds_where_hadamard_is_tight",),
    ),
    Mutant(
        "hadamard-row-norm-off-by-one",
        "zetawalk/linalg.py",
        "bound *= d + isqrt(sum(map(mul, row, row))) + 1",
        "bound *= d + isqrt(sum(map(mul, row, row)))",
        ("tests/test_linalg.py::test_coefficient_bound_holds_where_hadamard_is_tight",),
    ),
    Mutant(
        # the last Hessenberg pass is skipped whenever an earlier one ran:
        # the loop ends once one more full group of primes would pass 2B
        "crt-one-pass-early",
        "zetawalk/linalg.py",
        "    while modulus <= limit:\n",
        "    while modulus == 1 or modulus << 30 * _PRIMES_PER_PASS <= limit:\n",
        ("tests/test_linalg.py::test_kernel_with_200_bit_numerators_uses_many_primes",),
    ),
    Mutant(
        "kernel-prime-divides-delta",
        "zetawalk/linalg.py",
        "primes = (p for p in map(_kernel_prime, count()) if delta % p)",
        "primes = map(_kernel_prime, count())",
        ("tests/test_linalg.py::test_kernel_skips_a_prime_that_divides_a_denominator",),
    ),
    Mutant(
        # 2 stop < max_len at odd max_len: a tail past the summed prefix
        # compares a letter that no frame has placed
        "half-stop-one-below",
        "zetawalk/digraph.py",
        "    stop = max((max_len + 1) // 2, listed, min(2, max_len))\n",
        "    stop = max((max_len + 1) // 2 - 1, listed, min(2, max_len))\n",
        ("tests/test_zeta.py::test_euler_matches_the_hashimoto_inverse_at_orders_1_to_12",),
    ),
    Mutant(
        # the same words and totals with one length more walked by frames:
        # only the frame count shows it
        "half-stop-one-above",
        "zetawalk/digraph.py",
        "    stop = max((max_len + 1) // 2, listed, min(2, max_len))\n",
        "    stop = max((max_len + 1) // 2 + 1, listed, min(2, max_len))\n",
        ("tests/test_digraph.py::test_lyndon_walk_pushes_no_frame_for_the_summed_lengths",),
    ),
    Mutant(
        # the same words and totals, each length walked by a frame: only
        # the frame count shows it
        "walk-sums-no-length",
        "zetawalk/digraph.py",
        "    stop = max((max_len + 1) // 2, listed, min(2, max_len))\n",
        "    stop = max_len\n",
        ("tests/test_digraph.py::test_lyndon_walk_pushes_no_frame_for_the_summed_lengths",),
    ),
    Mutant(
        # at most one tail that restarts at s: s u s u' (u, u' > w[1]) is
        # two tails of two letters, which neither fixture has at unit weights
        "restart-recurrence-without-product-terms",
        "zetawalk/digraph.py",
        "for i in range(1, n):\n                        u[n] += vv[i] * u[n - 1 - i]\n                    totals[stop + n] += u[n]\n",
        "totals[stop + n] += u[n] + sum(vv[i] * u[n - 1 - i] for i in range(1, n))\n",
        ("tests/test_digraph.py::test_lyndon_walk_matches_brute_force_words_and_totals",),
    ),
    Mutant(
        # the last letter kept at period p never starts a new one
        "kept-period-chain-one-step-short",
        "zetawalk/digraph.py",
        "                for n in range(summed + 1):\n",
        "                for n in range(summed):\n",
        (
            "tests/test_digraph.py::test_lyndon_walk_matches_brute_force_words_and_totals",
            "tests/test_zeta.py::test_euler_matches_the_hashimoto_inverse_at_orders_1_to_12",
        ),
    ),
    Mutant(
        "exp-division-unchecked",
        "zetawalk/zeta.py",
        "        if r:\n            raise ConsistencyError(",
        "        if False:\n            raise ConsistencyError(",
        ("tests/test_zeta.py::test_exp_recurrence_refuses_a_non_integer_numerator",),
    ),
    Mutant(
        "identity-sign-flip",
        "zetawalk/zeta.py",
        "rhs = _trim(_mul(den, [x * delta for x in h_vals]))",
        "rhs = _trim(_mul(den, [-x * delta for x in h_vals]))",
        (
            "tests/test_zeta.py::test_ihara_graph_random_instances",
            "tests/test_zeta.py::test_ihara_digraph_random_instances",
        ),
    ),
    Mutant(
        # the blocks' factors uncancelled while the cleared rows' are: the
        # factors both sides share multiply the left side alone
        "identity-factors-not-cancelled",
        "zetawalk/zeta.py",
        "            den.remove(f)\n        else:\n            num.append(f)\n",
        "            den.remove(f)\n        num.append(f)\n",
        (
            "tests/test_zeta.py::test_ihara_graph_random_instances",
            "tests/test_zeta.py::test_ihara_digraph_random_instances",
        ),
    ),
    Mutant(
        "vertex-side-without-d",
        "zetawalk/zeta.py",
        "                add(x, x, 2, sum2 * sum1_other, f)\n",
        "",
        (
            "tests/test_zeta.py::test_ihara_graph_random_instances",
            "tests/test_zeta.py::test_ihara_digraph_random_instances",
        ),
    ),
    Mutant(
        # the t^2 parts kept for the report tables summed without their
        # cofactors r_u / f; det P still holds them: only a row with two
        # distinct block factors shows it, in its D entry alone
        "table-part-without-cofactor",
        "zetawalk/zeta.py",
        "                for i, x in enumerate(mult):\n                    part[i] += n * x\n",
        "                part[0] += n\n",
        ("tests/test_zeta.py::test_sparse_vertex_side_matches_the_references",),
    ),
    Mutant(
        # the digraph report's X entries made from their one term with
        # its sign flipped: X printed as -X
        "digraph-table-sign-flip",
        "zetawalk/zeta.py",
        "RatFunc._from_ints([-n], ",
        "RatFunc._from_ints([n], ",
        ("tests/test_zeta.py::test_cancelling_pair_sums",),
    ),
    Mutant(
        "series-inv-no-c0",
        "zetawalk/algebra.py",
        "ys.append(-sum(map(mul, rest[:n], reversed(ys))) / c0)",
        "ys.append(-sum(map(mul, rest[:n], reversed(ys))))",
        ("tests/test_algebra.py::test_series_inverse_identity_exact",),
    ),
    # the RatFunc reduction: its gcd, the pseudo-remainders and the exact
    # quotient, on which every digraph D and X table entry relies
    Mutant(
        "ratfunc-content-kept",
        "zetawalk/algebra.py",
        "    a, b = _primitive(a), _primitive(b)\n",
        "",
        (
            "tests/test_algebra.py::test_ratfunc_canonical_form_unique",
            "tests/test_algebra.py::test_ratfunc_cancels_high_degree_common_factors",
        ),
    ),
    Mutant(
        "ratfunc-loop-not-primitive",
        "zetawalk/algebra.py",
        "a, b = b, _primitive(_pseudo_remainder(a, b))",
        "a, b = b, _pseudo_remainder(a, b)",
        (
            "tests/test_algebra.py::test_ratfunc_canonical_form_unique",
            "tests/test_algebra.py::test_ratfunc_cancels_a_shared_single_root",
        ),
    ),
    Mutant(
        "ratfunc-gcd-one",
        "zetawalk/algebra.py",
        "g = _primitive_gcd(a, b)",
        "g = [1]",
        (
            "tests/test_algebra.py::test_ratfunc_product_cancels",
            "tests/test_algebra.py::test_ratfunc_canonical_form_unique",
        ),
    ),
    Mutant(
        # each step subtracts q * b one place too low; on the perturbed
        # mismatch quotients the coefficients grow for minutes, so the
        # small cases kill it
        "ratfunc-pseudo-remainder-shifted",
        "zetawalk/algebra.py",
        "for i, y in enumerate(b[:-1], len(r) + 1 - len(b)):",
        "for i, y in enumerate(b[:-1], len(r) - len(b)):",
        (
            "tests/test_algebra.py::test_ratfunc_product_cancels",
            "tests/test_algebra.py::test_ratfunc_canonical_form_unique",
        ),
    ),
    Mutant(
        # only a gcd that does not divide shows it: the real gcd always does
        "ratfunc-remainder-unchecked",
        "zetawalk/algebra.py",
        "    if any(r):\n        raise ValueError(f\"inexact",
        "    if False:\n        raise ValueError(f\"inexact",
        ("tests/test_algebra.py::test_ratfunc_refuses_a_gcd_that_does_not_divide",),
    ),
    Mutant(
        "ratfunc-not-monic",
        "zetawalk/algebra.py",
        "        lead = b[-1]\n",
        "        lead = 1\n",
        (
            "tests/test_algebra.py::test_ratfunc_canonical_form_unique",
            "tests/test_algebra.py::test_ratfunc_with_a_constant_numerator_is_canonical",
        ),
    ),
    Mutant(
        "transition-flip-on-the-diagonal",
        "zetawalk/walk.py",
        "- (out == rows)",
        "- ((out ^ 1) == rows)",
        ("tests/test_walk.py::test_single_edge_transition_matrix",),
    ),
    Mutant(
        # a disagreeing rhs printed as the hashimoto line's render
        "ihara-rhs-shared-on-mismatch",
        "zetawalk/cli.py",
        'rep.add("rhs", h if data.agree else data.rhs.render())',
        'rep.add("rhs", h)',
        (
            "tests/test_cli.py::test_ihara_prints_a_disagreeing_rhs_from_its_own_render[paper-digraph]",
            "tests/test_cli.py::test_ihara_prints_a_disagreeing_rhs_from_its_own_render[paper-graph]",
        ),
    ),
    Mutant(
        # the plain-argv reader takes every value as its token: "--order 1_0"
        # is read as the string "1_0", where argparse refuses it
        "plain-reader-skips-type",
        "zetawalk/cli.py",
        "            value = token if action.type is None else action.type(token)\n",
        "            value = token\n",
        (
            "tests/test_cli.py::test_plain_reader_declines_or_matches_argparse",
            "tests/test_cli.py::test_cli_rejects_nonpositive_order[verify-1_0]",
        ),
    ),
    Mutant(
        # "--format json" is read, where argparse refuses a value outside choices
        "plain-reader-skips-choices",
        "zetawalk/cli.py",
        "        if action.choices is not None and value not in action.choices:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_plain_reader_declines_or_matches_argparse",),
    ),
)


def _pytest(root: Path, ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=root, env=env, capture_output=True, text=True,
    )


def run(mutants) -> int:
    """Run each mutant's tests on it; returns the number of failures."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=junk)
        clean = _pytest(root, sorted({t for m in mutants for t in m.tests}))
        if clean.returncode:
            print(f"the unmutated tree fails its tests (pytest exit {clean.returncode}):\n{clean.stdout}")
            return 1
        for m in mutants:
            path = root / "src" / m.file
            text = path.read_text(encoding="utf-8")
            found = text.count(m.anchor)
            if found != 1:
                print(f"{m.id}: anchor occurs {found} times in src/{m.file}")
                failures += 1
                continue
            path.write_text(text.replace(m.anchor, m.replacement), encoding="utf-8")
            try:
                result = _pytest(root, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            if result.returncode == 1:
                print(f"{m.id}: killed")
            else:
                verdict = "SURVIVED" if result.returncode == 0 else f"pytest exit {result.returncode}"
                print(f"{m.id}: {verdict}\n{result.stdout}{result.stderr}")
                failures += 1
    return failures


def main(argv) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}")
        return 2
    failures = run([known[name] for name in argv] if argv else MUTANTS)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
