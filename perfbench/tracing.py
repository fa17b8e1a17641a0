"""Spans recorded from outside the program, around zetawalk's public calls.

The recorder replaces public functions by timing wrappers at the names their
callers look up (the ``zetawalk.cli`` imports, and the module globals that
``zeta`` and ``walk`` call each other through), and puts them back on exit.
A span is (name, start, end, parent, instance); the parent is the span open
when the call began, so nested public calls become child spans and a span's
self time is its duration minus its children's.

``iter_prime_cycles`` is a generator interleaved with the Euler
accumulation, so it has no contiguous span: the benchmark times it in a
separate probe, and metrics computed by subtraction are marked derived.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (object path, attribute, span name).  A name is patched everywhere a
# caller looks it up, so that nested calls are seen as well.
PATCHES = (
    ("zetawalk.cli", "load_instance", "instances.parse"),
    ("zetawalk.cli", "instance_digraph", "digraph.build"),
    ("zetawalk.cli", "instance_weights", "instances.weights"),
    ("zetawalk.cli", "verify_expressions", "zeta.verify"),
    ("zetawalk.cli", "hashimoto", "zeta.hashimoto"),
    ("zetawalk.cli", "ihara_graph", "zeta.ihara_graph"),
    ("zetawalk.cli", "ihara_digraph", "zeta.ihara_digraph"),
    ("zetawalk.zeta", "exponential_truncated", "zeta.exponential"),
    ("zetawalk.zeta", "euler_truncated", "zeta.euler"),
    ("zetawalk.zeta", "n_k_all", "zeta.n_k_all"),
    ("zetawalk.zeta", "hashimoto", "zeta.hashimoto"),
    ("zetawalk.zeta", "ihara_graph", "zeta.ihara_graph"),
    ("zetawalk.zeta", "ihara_digraph", "zeta.ihara_digraph"),
    # Not public, but the builder of the theta matrix that hashimoto, n_k_all
    # and euler_truncated each call; public edge_matrix is never called.
    ("zetawalk.zeta", "_edge_matrix_data", "zeta.edge_matrix"),
    ("zetawalk.algebra.Series", "inv", "algebra.series_inv"),
    ("zetawalk.algebra.Series", "render", "algebra.render"),
    ("zetawalk.algebra.Poly", "render", "algebra.render"),
    ("zetawalk.algebra.RatFunc", "render", "algebra.render"),
    ("zetawalk.cli", "grover_transition", "walk.transition"),
    ("zetawalk.cli", "szegedy_transition", "walk.transition"),
    ("zetawalk.walk", "szegedy_transition", "walk.transition"),
    ("zetawalk.cli", "grover_spectrum_via_zeta", "walk.via_zeta"),
    ("zetawalk.cli", "szegedy_spectrum_via_factorization", "walk.via_zeta"),
    ("zetawalk.cli", "spectrum_deviation", "walk.deviation"),
    ("zetawalk.cli", "unitarity_defect", "walk.unitarity"),
    ("zetawalk.cli", "eigenvalues_numeric", "linalg.eigenvalues"),
    ("zetawalk.walk", "eigenvalues_numeric", "linalg.eigenvalues"),
)

ROOT_SPAN = "cli.main"


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, instance]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instance = None

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _resolve(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        ``top`` sums the spans whose parent is a ROOT_SPAN, the library
        time directly under the CLI.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "top": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
            if parent is not None and self.spans[parent][0] == ROOT_SPAN:
                entry["top"] += end - start
        return out

    def as_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "instance": i}
            for n, s, e, p, i in self.spans
        ]
