"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The checker counts a corrupted report as failed: a ``hashimoto`` line with
   one coefficient changed, a report whose bytes differ from the recorded
   digest, and a spectrum with one eigenvalue moved.  The checker's input is
   perturbed; the program is not patched.
2. A short run of every workload, untraced and traced, prints every metric
   that BENCHMARK.json names, with its unit, and exits 0.

Exits 0 when everything holds and 1 otherwise, listing what did not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import worker
import workloads

SEED = 7


def corrupt_coefficient(report: str) -> str:
    """Add 1 to the constant term of the hashimoto line."""
    lines = report.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("hashimoto "):
            head, _, rest = line[len("hashimoto "):].partition(" + ")
            lines[i] = f"hashimoto {Fraction(head) + 1} + {rest}"
            return "".join(lines)
    raise ValueError("no hashimoto line")


def shrink_first_eigenvalue(report: str) -> str:
    """Move direct[0] off the unit circle, to 0.9 times its value."""
    lines = report.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("direct[0] "):
            z = 0.9 * complex(line.split()[1])
            lines[i] = f"direct[0] {z.real:+.10f}{z.imag:+.10f}j\n"
            return "".join(lines)
    raise ValueError("no direct[0] line")


def checker_failures() -> list[str]:
    errors = []
    for name, verb in (("verify-oracle", "verify"), ("ihara-exact", "ihara")):
        ws = workloads.build(name, SEED)
        with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
            os.chdir(tmp)
            texts = worker.write_instances(ws, Path(tmp))
            case = next(c for c in ws.cases if c.argv[0] == verb and c.size_class != "fixture")
            good = worker.call(case.argv)
            os.chdir(worker.HERE)
        checker = worker.Checker(ws, texts, None)
        if checker.first(case, good).failed:
            errors.append(f"{name}: the unmodified report of {case.id} is counted as failed")
        bad = worker.Call(corrupt_coefficient(good.stdout), good.stderr, good.code, good.seconds)
        if not worker.Checker(ws, texts, None).first(case, bad).failed:
            errors.append(f"{name}: a changed hashimoto coefficient is not caught")
        digests = {"seed": ws.seed, "fixtures": {}, "reports": {name: {case.id: "0" * 64}}}
        if not worker.Checker(ws, texts, digests).first(case, good).failed:
            errors.append(f"{name}: a report that differs from its recorded digest is not caught")

    ws = workloads.build("walk-spectrum", SEED)
    with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
        os.chdir(tmp)
        texts = worker.write_instances(ws, Path(tmp))
        case = ws.cases[0]
        good = worker.call(case.argv)
        os.chdir(worker.HERE)
    if worker.Checker(ws, texts, None).first(case, good).failed:
        errors.append(f"walk-spectrum: the unmodified report of {case.id} is counted as failed")
    bad = worker.Call(shrink_first_eigenvalue(good.stdout), good.stderr, good.code, good.seconds)
    if not worker.Checker(ws, texts, None).first(case, bad).failed:
        errors.append("walk-spectrum: a moved eigenvalue is not caught")
    return errors


def run_failures() -> list[str]:
    errors = []
    bench = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(worker.HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
                cwd=worker.ROOT, capture_output=True, text=True, timeout=180,
            )
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                errors.append(f"{tag}: metrics {sorted(got.items())} != {sorted(wanted.items())}")
            for metric, unit in wanted.items():
                if not any(ln.startswith(f"{metric} = ") and ln.endswith(f" {unit}") for ln in lines):
                    errors.append(f"{tag}: {metric} is not printed with its unit {unit}")
            print(f"ok {tag}: {result['attempted']} calls, {result['failed']} failed", flush=True)
    return errors


def main() -> int:
    errors = checker_failures()
    print("checker: " + ("ok" if not errors else f"{len(errors)} problem(s)"), flush=True)
    errors += run_failures()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("passed" if not errors else "failed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
