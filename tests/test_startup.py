"""Start-up cost: what a cold process loads before and after the walk verb."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COLD_START = textwrap.dedent(
    """
    import io, sys
    from contextlib import redirect_stdout
    import zetawalk
    from zetawalk import cli

    paper, triangle = sys.argv[1], sys.argv[2]
    for args in (["verify", paper, "--order", "10"], ["ihara", paper], ["hashimoto", paper]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(args) == 0, args
    assert cli.main(["fixtures", "triangle", "-o", triangle]) == 0
    loaded = sorted({"numpy", "scipy"} & set(sys.modules))
    assert not loaded, f"the exact verbs loaded {loaded}"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["spectrum", triangle, "grover"]) == 0
    assert "numpy" in sys.modules
    assert "scipy" not in sys.modules, "spectrum loaded scipy"
    """
)


def test_exact_verbs_start_without_numpy_or_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    paper = ROOT / "tests" / "golden" / "paper-graph.zw"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(paper), str(tmp_path / "triangle.zw")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

