"""Byte-identical CLI reports against recorded golden files.

Each instance ``tests/golden/<name>.zw`` has one report per verb in
``tests/golden/<name>.<verb>.txt``.  The reports name the instance by its
bare file name, so they are produced with ``tests/golden`` as the working
directory.  To re-record them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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
                 "digraph-loops-parallel", "graph-loops-parallel"):
        assert name in INSTANCES


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("name", INSTANCES)
def test_report_is_byte_identical(name, verb, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, text = report(name, verb)
    assert code == 0
    assert text == (GOLDEN / f"{name}.{verb}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name in INSTANCES:
        for verb in VERBS:
            code, text = report(name, verb)
            if code != 0:
                sys.exit(f"{name} {verb}: exit {code}")
            (GOLDEN / f"{name}.{verb}.txt").write_text(text, encoding="utf-8")
    print(f"recorded {len(INSTANCES) * len(VERBS)} reports in {GOLDEN}")
