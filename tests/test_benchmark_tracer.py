"""The benchmark's tracer wraps jetsuff's public functions by name, so a
rename or deletion of one of them breaks ``perfbench/run.py --trace 1``.
Installing the tracer in a fresh interpreter catches that here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_this_tree():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
