"""Byte-identical CLI reports against recorded golden files.

Each instance ``tests/golden/<name>.zw`` has one report per verb in
``tests/golden/<name>.<verb>.txt``.  The reports name the instance by its
bare file name, so they are produced with ``tests/golden`` as the working
directory.  To re-record them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

Three larger seeded instances, of 50-80 arcs with weights +-a/b, are
generated here rather than stored, and their ``hashimoto`` and ``ihara``
reports are checked against SHA-256 digests: their determinant bounds take
the kernel through more than one group of primes, and ``verify`` on them
would be too slow for the golden set.
"""

import hashlib
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from zetawalk import linalg
from zetawalk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
VERBS = {
    "ihara": ["ihara"],
    "hashimoto": ["hashimoto"],
    "verify": ["verify", "--order", "10"],
}
INSTANCES = sorted(p.stem for p in GOLDEN.glob("*.zw"))


def report(name: str, verb: str) -> tuple[int, str]:
    argv = VERBS[verb]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([argv[0], f"{name}.zw", *argv[1:]])
    return code, out.getvalue()


def test_golden_set_covers_the_edge_cases():
    assert len(INSTANCES) >= 12
    for name in ("paper-digraph", "paper-graph", "digraph-empty", "graph-empty",
                 "digraph-isolated-vertex", "graph-isolated-vertex",
                 "digraph-loops-parallel", "graph-loops-parallel",
                 "digraph-zero-weight", "graph-zero-weight"):
        assert name in INSTANCES


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("name", INSTANCES)
def test_report_is_byte_identical(name, verb, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, text = report(name, verb)
    assert code == 0
    assert text == (GOLDEN / f"{name}.{verb}.txt").read_text(encoding="utf-8")


def large_instance(seed: int, mode: str, vertices: int, arcs: int) -> str:
    """A simple graph or digraph without loops, every tau1 and tau2 +-a/b
    with a, b <= 9."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < (arcs // 2 if mode == "graph" else arcs):
        u, v = rng.sample(range(vertices), 2)
        pairs.add((min(u, v), max(u, v)) if mode == "graph" else (u, v))
    key = "edge" if mode == "graph" else "arc"
    lines = [f"mode {mode}", f"vertices {vertices}"]
    lines += [f"{key} {i} {u} {v}" for i, (u, v) in enumerate(sorted(pairs))]
    for tau in ("tau1", "tau2"):
        lines += [f"{tau} {a} {rng.choice([-1, 1]) * rng.randint(1, 9)}/{rng.randint(1, 9)}" for a in range(arcs)]
    return "\n".join(lines) + "\n"


LARGE = {
    (1, "graph", 12, 50): {
        "hashimoto": "770da66c21dff4dd4dd37b28eb9578670cb82172ea19f32701501182d2489521",
        "ihara": "d8c917da33e2eaf5ea2b366386f2fd0d196de161bb3be3a3f7b389aabeac5055",
    },
    (2, "digraph", 14, 60): {
        "hashimoto": "74b6a8f2ef820534422b6533f839a8d63bd23a05f9d957c89e2cc2fda9c7ca1a",
        "ihara": "61fdd8c29f4d305372c4e65a479ab96820c0749fe3bbd7b86193ea680b1da1e0",
    },
    (3, "graph", 16, 80): {
        "hashimoto": "8093395a9eadb53d4dc6523b76755f74c6c31ff7b49020ea77de2167c24610cb",
        "ihara": "e8b0701ce4d8e5a09054c7556c4b177d35b9c0efb7ca3427121f7c2559fe73ff",
    },
}


@pytest.mark.parametrize("verb", ["hashimoto", "ihara"])
@pytest.mark.parametrize("case", sorted(LARGE))
def test_large_instance_report_matches_its_digest(case, verb, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "large.zw").write_text(large_instance(*case), encoding="utf-8")
    passes = []
    per_pass = linalg._char_poly_mod

    def counting(rows, dens, q):
        passes.append(len(rows))
        return per_pass(rows, dens, q)

    monkeypatch.setattr(linalg, "_char_poly_mod", counting)
    code, text = report("large", verb)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LARGE[case][verb]
    # the arc-sized determinant takes more than one pass
    assert passes.count(case[3]) > 1


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name in INSTANCES:
        for verb in VERBS:
            code, text = report(name, verb)
            if code != 0:
                sys.exit(f"{name} {verb}: exit {code}")
            (GOLDEN / f"{name}.{verb}.txt").write_text(text, encoding="utf-8")
    print(f"recorded {len(INSTANCES) * len(VERBS)} reports in {GOLDEN}")
