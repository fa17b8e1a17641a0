"""The machine-speed reference that the benchmark's timings are scaled by.

On a shared host the same call takes from 1.0x to 1.9x its best time, in
stretches of one to tens of seconds.  Its CPU time tracks its wall time
(the host steals no time from the process): other tenants slow the whole
core.  A fixed kernel of pure-Python arithmetic and a small LAPACK call,
timed just before and just after a call, slows with it, so the benchmark
reports each call's time scaled by
REFERENCE_S over the kernel's time around the call: the time the call would
take on a machine where the kernel takes REFERENCE_S.  Run on the machine
in ``BASELINE.md``, the scaled times read as its seconds at its fastest.

A change to the program moves its scaled times in proportion to its work,
as it moves its wall times; the scale factor is the benchmark's own and is
the same for every commit.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy

# The kernel's best time on the machine in BASELINE.md.
REFERENCE_S = 0.00045
REPEATS = 3
_MATRIX = numpy.random.default_rng(0).standard_normal((32, 32))


def _kernel() -> None:
    """Rational and integer arithmetic and dict updates, like the exact
    layers, then a dense eigensolve, like the walk layer; about half each."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    numpy.linalg.eigvals(_MATRIX)


def reference_s() -> float:
    """The kernel's best time of REPEATS, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the kernel's times before and after."""
    return seconds * REFERENCE_S * 2 / (before + after)
