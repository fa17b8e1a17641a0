"""One run of one workload, in a process of its own.

Started by ``run.py`` with the BLAS/OpenMP thread pins already in the
environment.  The run writes the workload's instance files for the seed,
makes one untimed warm-up call per verb, then calls ``zetawalk.cli.main``
in-process in a closed loop (one client; the next call starts when the
previous one returns): the once-per-run cases, then whole passes through the
instance set, one pass per PASS_SECONDS of ``--seconds``.  Each untraced
call is timed between two runs of the speed reference (``speed.py``), and
its time is reported scaled to reference speed.  Every output is checked
outside the timed region.
The last line of standard output is a JSON object for ``run.py``.

With ``--trace 1`` every call is made twice, untraced and traced; the run
writes the spans to ``perfbench/out/`` and reports the per-layer times over
the traced calls and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from zetawalk import cli  # noqa: E402
from zetawalk.digraph import iter_prime_cycles  # noqa: E402
from zetawalk.instances import fixture_text, instance_digraph, load_instance  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = HERE / "golden" / "digests.json"
OUT_DIR = HERE / "out"
EXACT_VERBS = ("verify", "ihara")
# A run makes seconds / PASS_SECONDS passes through its set (at least one).
# The number depends on neither the program's speed nor the machine's, so
# each case's latency is always the median of the same number of calls.  Only
# a pass that would end past OVERRUN * seconds of verb time is dropped, so
# that a slow machine cannot stretch a run without bound.
PASS_SECONDS = 8
OVERRUN = 1.25


@dataclass
class Call:
    stdout: str
    stderr: str
    code: int | None  # None: an exception escaped cli.main
    seconds: float


def call(argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run goes on; an escaped exception is a failed call
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Call(out.getvalue(), err.getvalue(), code, seconds)


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    """A report's fingerprint: the first 16 hex digits of its SHA-256."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """The checked result of a case's first call; later calls must repeat it."""

    stdout: str
    failed: bool
    problems: list[str]
    calibration_failed: bool = False
    coeff_bits: int = 0


@dataclass
class Checker:
    """Checks every call's output; the first call of a case is checked in full."""

    ws: workloads.WorkloadSet
    texts: dict[str, str]
    digests: dict | None  # None: record mode, no digest check
    outcomes: dict[str, Outcome] = field(default_factory=dict)

    def expected_digest(self, case: workloads.Case):
        if self.digests is None or case.argv[0] not in EXACT_VERBS:
            return None
        if case.size_class == "fixture":
            return self.digests["fixtures"].get(case.id, "missing")
        if self.ws.seed == self.digests["seed"]:
            return self.digests["reports"][self.ws.name].get(case.id, "missing")
        return None

    def first(self, case: workloads.Case, c: Call) -> Outcome:
        inst = checks.parse_instance(self.texts[case.file])
        verb = case.argv[0]
        if c.code is None:
            last = c.stderr.strip().splitlines()[-1:] or ["(no message)"]
            return Outcome(c.stdout, True, [f"exception: {last[0]}"])
        if verb in EXACT_VERBS:
            problems = checks.check_exact(c.stdout, c.code, inst)
            expected = self.expected_digest(case)
            if expected is not None and digest(c.stdout) != expected:
                problems.append(f"report digest {digest(c.stdout)} != recorded {expected}")
            bits = checks.coeff_bits(c.stdout) if c.code == 0 else 0
            return Outcome(c.stdout, bool(problems), problems, coeff_bits=bits)
        problems, calibration = checks.check_spectrum(c.stdout, c.code, c.stderr, inst, case.argv[2])
        return Outcome(c.stdout, bool(problems) or calibration, problems, calibration)

    def check(self, case: workloads.Case, c: Call) -> Outcome:
        known = self.outcomes.get(case.id)
        if known is None:
            known = self.outcomes[case.id] = self.first(case, c)
        elif c.stdout != known.stdout:
            return Outcome(c.stdout, True, ["output differs from the first call of this case"])
        return known


def write_instances(ws: workloads.WorkloadSet, directory: Path) -> dict[str, str]:
    texts = dict(ws.files)
    for file, name in ws.fixtures.items():
        texts[file] = fixture_text(name)
    for file, text in texts.items():
        (directory / file).write_text(text, encoding="utf-8")
    return texts


def warm_up(ws: workloads.WorkloadSet, checker: Checker) -> None:
    """One untimed call per verb, on the smallest case that uses it."""
    by_verb = {}
    for case in sorted(ws.once + ws.cases, key=lambda c: c.arcs):
        by_verb.setdefault((case.argv[0], *case.argv[2:]), case)
    for case in by_verb.values():
        checker.check(case, call(case.argv))


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Tally:
    latencies: dict[str, list[float]] = field(default_factory=dict)  # case id -> scaled call times
    wall: dict[str, list[float]] = field(default_factory=dict)  # case id -> call times
    attempted: int = 0
    failed: int = 0
    problems: dict[str, list[str]] = field(default_factory=dict)  # case id -> problems

    def add(self, case, c: Call, outcome: Outcome, scaled: float) -> None:
        self.latencies.setdefault(case.id, []).append(scaled)
        self.wall.setdefault(case.id, []).append(c.seconds)
        self.attempted += 1
        self.failed += outcome.failed
        if outcome.problems:
            self.problems[case.id] = outcome.problems


def run_calls(cases, checker: Checker, tally: Tally, recorder=None) -> float:
    """Call each case in turn; returns the summed verb time.

    Untraced calls alternate with runs of the speed reference, so that each
    call lies between two of them, and a call's time at reference speed is
    tallied beside its wall time.
    """
    spent = 0.0
    reference = speed.reference_s() if recorder is None else 0.0
    for case in cases:
        if recorder is None:
            c = call(case.argv)
            before, reference = reference, speed.reference_s()
            scaled = speed.scaled(c.seconds, before, reference)
        else:
            recorder.instance = case.id
            with recorder.span(tracing.ROOT_SPAN):
                c = call(case.argv)
            scaled = c.seconds
        spent += c.seconds
        tally.add(case, c, checker.check(case, c), scaled)
    return spent


def run_passes(ws, seconds: float, run) -> int:
    """The once-per-run cases, then whole passes through the set.

    ``run(cases)`` makes the calls and returns their verb time.  Returns
    the number of passes made, at least one.
    """
    spent = run(ws.once)
    passes = pass_count(seconds)
    last = 0.0
    for done in range(passes):
        if done and spent + last > OVERRUN * seconds:
            return done
        last = run(ws.cases)
        spent += last
    return passes


@dataclass
class PairedRun:
    """Makes each call twice, untraced and traced, in alternating order.

    Both calls of a pair see the same state of the machine, so the
    difference of the two totals is the tracing overhead.
    """

    checker: Checker
    tally: Tally
    recorder: tracing.Recorder
    untraced_s: float = 0.0
    traced_s: float = 0.0
    called: list = field(default_factory=list)

    def __call__(self, cases) -> float:
        """Returns the untraced verb time of ``cases``, the time one side takes."""
        before = self.untraced_s
        for case in cases:
            traced_first = len(self.called) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    with self.recorder.installed():
                        self.traced_s += run_calls([case], self.checker, self.tally, self.recorder)
                else:
                    self.untraced_s += run_calls([case], self.checker, self.tally)
            self.called.append(case)
        return self.untraced_s - before


def pass_count(seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS))


def case_times(times: dict[str, list[float]], cases) -> list[float]:
    """Each case's median call time."""
    return [statistics.median(times[case.id]) for case in cases]


def end_to_end(tally: Tally, cases) -> dict:
    """End-to-end metrics over the median scaled call time of each case in ``cases``.

    Call times are scaled to reference speed (``speed.py``), which takes out
    most of the host's slowdowns; a case's median call over passes some
    seconds apart drops the calls that the scaling corrected worst.
    ``instances_per_s`` is the number of cases over the sum of their
    median times: the loop's rate at reference speed.
    """
    times = case_times(tally.latencies, cases)
    return {
        "instances_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "instance_s_p50": {"value": statistics.median(times), "unit": "s"},
        "instance_s_p90": {"value": quantile(times, 0.9) if len(times) > 1 else times[0], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "ok_share": {"value": (tally.attempted - tally.failed) / tally.attempted, "unit": "ratio"},
    }


def probe(cases) -> dict[str, float]:
    """Prime-cycle generation timed on its own, once per traced verify call."""
    out = {"digraph.prime_cycles_s": 0.0, "digraph.prime_cycles": 0}
    for case in cases:
        if case.argv[0] != "verify":
            continue
        inst = load_instance(case.file)
        d = instance_digraph(inst)
        start = time.perf_counter()
        cycles = list(iter_prime_cycles(d, workloads.ORDER))
        out["digraph.prime_cycles_s"] += time.perf_counter() - start
        out["digraph.prime_cycles"] += len(cycles)
    return out


# (metric, how, span names): "total" sums whole spans, "self" their self
# time; derived metrics are computed by subtraction and marked in the table.
# All are totals over the traced calls.
LAYER_TIMES = (
    ("instances.parse_s", "total", ("instances.parse",)),
    ("zeta.n_k_all_s", "total", ("zeta.n_k_all",)),
    ("zeta.euler_s", "total", ("zeta.euler",)),
    ("zeta.series_exp_s", "self", ("zeta.exponential",)),
    ("zeta.hashimoto_s", "total", ("zeta.hashimoto",)),
    ("zeta.edge_matrix_s", "total", ("zeta.edge_matrix",)),
    ("zeta.ihara_graph_s", "total", ("zeta.ihara_graph",)),
    ("zeta.ihara_digraph_s", "total", ("zeta.ihara_digraph",)),
    ("zeta.ihara_vertex_s", "self", ("zeta.ihara_graph", "zeta.ihara_digraph")),
    ("algebra.series_inv_s", "total", ("algebra.series_inv",)),
    ("algebra.render_s", "self", ("algebra.render",)),
    ("walk.transition_s", "total", ("walk.transition",)),
    ("walk.via_zeta_s", "self", ("walk.via_zeta",)),
    ("walk.deviation_s", "total", ("walk.deviation",)),
    ("walk.unitarity_s", "total", ("walk.unitarity",)),
    ("linalg.eigenvalues_s", "total", ("linalg.eigenvalues",)),
)
DERIVED = {
    "zeta.series_exp_s": "exponential span minus its n_k_all child",
    "zeta.ihara_vertex_s": "ihara spans minus their hashimoto child",
    "zeta.euler_accumulate_s": "euler span minus its edge-matrix child and the prime-cycle probe",
    "cli.verb_s": "untraced verb time minus traced library calls under the CLI",
}
NOTES = {
    "digraph.prime_cycles_s": "probe",
    "zeta.edge_matrix_s": "spans of the internal builder _edge_matrix_data",
}


def layer_metrics(ws, checker, recorder, called, untraced_s, traced_s) -> tuple[dict, list[str]]:
    """Per-layer times over the traced calls, their shares of the traced verb time, counts."""
    spans = recorder.totals()
    times = {}
    for metric, how, names in LAYER_TIMES:
        times[metric] = sum(spans.get(n, {}).get(how, 0.0) for n in names)
    probes = probe(called)
    times["digraph.prime_cycles_s"] = probes["digraph.prime_cycles_s"]
    euler_self = spans.get("zeta.euler", {}).get("self", 0.0)
    times["zeta.euler_accumulate_s"] = euler_self - times["digraph.prime_cycles_s"]
    library = sum(entry["top"] for entry in spans.values())
    times["cli.verb_s"] = untraced_s - library

    outcomes = [checker.outcomes[c.id] for c in called]
    exact = [c for c in called if c.argv[0] in EXACT_VERBS]
    counts = {
        "digraph.prime_cycles": (probes["digraph.prime_cycles"], "count"),
        "digraph.closed_walks": (sum(c.closed_walks for c in called), "count"),
        "digraph.over_walk_cap": (ws.over_walk_cap, "count"),
        "zeta.coeff_bits_max": (max((o.coeff_bits for o in outcomes), default=0), "bits"),
        "zeta.arcs": (sum(c.arcs for c in exact), "count"),
        "zeta.vertices": (sum(c.vertices for c in exact), "count"),
        "walk.calibration_failed": (sum(o.calibration_failed for o in outcomes), "count"),
    }
    metrics = {"instances.parse_s": {"value": times["instances.parse_s"], "unit": "s"}}
    table = [f"per-layer times over {len(called)} traced calls ({traced_s:.3f} s)",
             f"{'metric':28} {'seconds':>10} {'share':>7}  note"]
    for metric in sorted(times):
        share = times[metric] / traced_s
        metrics[metric[:-2] + "_share"] = {"value": share, "unit": "ratio"}
        note = "derived: " + DERIVED[metric] if metric in DERIVED else NOTES.get(metric, "")
        table.append(f"{metric:28} {times[metric]:10.6f} {share:7.2%}  {note}")
    for metric, (value, unit) in counts.items():
        metrics[metric] = {"value": value, "unit": unit}
        table.append(f"{metric:28} {value:>10} {unit}")
    overhead = (traced_s - untraced_s) / untraced_s
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
    table.append(
        f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
        f"= {traced_s - untraced_s:+.4f} s ({overhead:+.2%}) over the same {len(called)} calls"
    )
    return metrics, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True, help="empty directory for the instance files")
    p.add_argument("--setup-only", action="store_true", help="stop before the first timed call")
    args = p.parse_args(argv)

    ws = workloads.build(args.workload, args.seed)
    os.chdir(args.workdir)  # reports name instance files by relative path
    checker = Checker(ws, write_instances(ws, args.workdir), load_digests())
    warm_up(ws, checker)
    first_call_at = time.monotonic()
    setup_reference = speed.reference_s()  # run.py scales setup_s by it
    if args.setup_only:
        print(json.dumps({"first_call_at": first_call_at, "setup_reference": setup_reference}))
        return 0

    tally = Tally()
    lines = [f"env {json.dumps(environment())}"]
    if args.trace:
        recorder = tracing.Recorder()
        paired = PairedRun(checker, tally, recorder)
        run_passes(ws, args.seconds / 2, paired)
        metrics, table = layer_metrics(
            ws, checker, recorder, paired.called, paired.untraced_s, paired.traced_s
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": recorder.as_json()}),
            encoding="utf-8",
        )
        lines += table + [f"spans written to {spans_file.relative_to(ROOT)}"]
    else:
        start = time.perf_counter()
        done = run_passes(ws, args.seconds, lambda cases: run_calls(cases, checker, tally))
        loop_s = time.perf_counter() - start
        metrics = end_to_end(tally, ws.cases)
        lines.append(
            f"{args.workload} seed {args.seed}: {len(ws.once)} once-per-run cases and "
            f"{done} passes through {len(ws.cases)} cases, "
            f"{tally.attempted} calls, {tally.failed} failed; timed loop {loop_s:.2f} s, "
            f"{tally.attempted / loop_s:.3f} calls/s; latencies are each case's median call"
        )
        wall = case_times(tally.wall, ws.cases)
        lines.append(
            f"unscaled wall times: instances_per_s {len(wall) / sum(wall):.6g} 1/s, "
            f"instance_s_p50 {statistics.median(wall):.6g} s, instance_s_p90 {quantile(wall, 0.9):.6g} s"
        )
        lines += [
            f"once-per-run {case.id}: {tally.latencies[case.id][0]:.4f} s scaled, "
            f"{tally.wall[case.id][0]:.4f} s wall (not in the latency metrics)"
            for case in ws.once
        ]
    if args.workload == "verify-oracle":
        lines.append(
            f"known defect: {ws.over_walk_cap} of {ws.draws} draws exceed the walk cap "
            f"{workloads.WALK_CAP} and are not run (verify has no enumeration budget)"
        )
    calibration = sum(checker.outcomes[c.id].calibration_failed for c in ws.cases)
    if calibration:
        lines.append(
            f"known defect: {calibration} of {len(ws.cases)} cases are szegedy calls that exit "
            f"{checks.EXIT_INPUT}: {checks.CALIBRATION_MESSAGE}"
        )
    lines += [f"problem {case_id}: {'; '.join(p)}" for case_id, p in list(tally.problems.items())[:20]]
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "first_call_at": first_call_at,
        "setup_reference": setup_reference,
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
