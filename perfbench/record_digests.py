"""Record the report digests that ``worker.py`` checks exact reports against.

Runs every ``verify``/``ihara`` case of the default seed, and the paper
fixtures, once; refuses to record a report that fails the benchmark's own
checks.  Run it only when a change to the program is meant to change the
reports:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import worker
import workloads

DEFAULT_SEED = 1


def main() -> int:
    digests = {"seed": DEFAULT_SEED, "fixtures": {}, "reports": {}}
    for name in ("verify-oracle", "ihara-exact"):
        ws = workloads.build(name, DEFAULT_SEED)
        digests["reports"][name] = {}
        with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
            os.chdir(tmp)
            checker = worker.Checker(ws, worker.write_instances(ws, Path(tmp)), None)
            for case in ws.once + ws.cases:
                c = worker.call(case.argv)
                outcome = checker.first(case, c)
                if outcome.failed:
                    print(f"{name} {case.id}: {outcome.problems}", file=sys.stderr)
                    return 1
                target = digests["fixtures"] if case.size_class == "fixture" else digests["reports"][name]
                target[case.id] = worker.digest(c.stdout)
            os.chdir(worker.HERE)
    worker.DIGESTS.parent.mkdir(exist_ok=True)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {worker.DIGESTS.relative_to(worker.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
