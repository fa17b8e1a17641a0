"""zetawalk benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py         # the benchmark's own checks

Workloads (see ``workloads.py``):

* ``verify-oracle`` - ``verify --order 10`` on acceptance-style small
  instances plus the paper fixtures; bound by closed-path enumeration and
  prime-cycle generation;
* ``ihara-exact`` - ``ihara`` on 8-14 arc simple graphs and multi-digraphs
  with random rational weights; bound by exact determinants;
* ``walk-spectrum`` - ``spectrum grover`` and ``spectrum szegedy`` on
  connected graphs with 6-200 vertices; bound by building U and the numeric
  eigensolve.

Every run happens in a fresh worker process with BLAS/OpenMP threads pinned
to one, so that ``peak_rss_mb`` and ``setup_s`` belong to that workload
alone.  ``setup_s`` (process start to the first timed call) is the median
over SETUP_SAMPLES process start-ups.  Every time the run reports is scaled
to reference speed (``speed.py``): the host's speed swings by up to 1.9x,
and a fixed kernel timed around each call and each start-up takes that
out.  The unscaled wall times are printed beside the metrics.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, computed from each case's median scaled call over the
run's passes; with ``--trace 1`` it holds
the per-layer metrics from a traced run, and the lines above it give the
per-layer table and the tracing overhead.

Exit codes: 0 when every output checked correct, 1 when a check failed,
2 when the run could not be made (no zetawalk sources beside this
directory, or a worker that crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def run_worker(argv, deadline: float) -> tuple[dict, list[str], float]:
    """Start a worker; returns its JSON result, its other stdout lines and its set-up time.

    The set-up time runs from the worker's start to its first timed call,
    scaled to reference speed by the speed reference's times just before
    the start and just after the set-up.
    """
    env = dict(os.environ, **THREAD_PINS)
    workdir = tempfile.mkdtemp(prefix="run-", dir=HERE)
    reference = speed.reference_s()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv, "--workdir", workdir],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker ran out of time after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    setup = speed.scaled(result.pop("first_call_at") - started, reference, result.pop("setup_reference"))
    return result, lines[:-1], setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zetawalk benchmark run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "zetawalk" / "__init__.py").is_file():
        print(f"perfbench: no zetawalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(common + ["--setup-only"], deadline)[2])
        result, lines, setup = run_worker(common, deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(setup)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
