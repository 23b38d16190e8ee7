"""The benchmark's input files must load on this tree.

``perfbench/run.py`` times fresh interpreters that run its ``SETUP_CODE``
on each workload's germ files and Z cloud; a loader that rejects one of
them turns every command of that workload into an exit 1. The child
process imports ``run`` and ``workloads`` itself, because ``run`` sets
the BLAS thread variables on import.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs run.SETUP_CODE as measure_setup does, once per workload and once on
# every bundled germ file, then reads both --seq files as construct does;
# prints one JSON list of [what, exit code, stderr].
SETUP_ALL = """
import json, subprocess, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads
sys.path.insert(0, str(run.SRC))
from jetsuff.germ import json_numbers
ctx = workloads.Context(run.ROOT, Path(sys.argv[2]), 0)
specs = {name: {"germs": [str(ctx.germ(g)) for g in germs],
                "z": [str(ctx.cloud_path)] if cloud else []}
         for name, (_, germs, cloud) in workloads.WORKLOADS.items()}
specs["germs/"] = {"germs": [str(p) for p in sorted((run.ROOT / "germs").glob("*.json"))
                             if p.stem != "x2y2_diagonal_seq"], "z": []}
results = []
for name, spec in specs.items():
    proc = subprocess.run([sys.executable, "-c", run.SETUP_CODE, str(run.SRC),
                           json.dumps(spec)], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=120)
    results.append([name, proc.returncode, proc.stderr])
for path in (ctx.seq_path, run.ROOT / "germs" / "x2y2_diagonal_seq.json"):
    json_numbers(json.loads(path.read_text())["points"], "--seq points")
    results.append([path.name, 0, ""])
print(json.dumps(results))
"""


def test_benchmark_inputs_load(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_ALL, str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert {"survey", "witness", "germs/", "x2y2_diagonal.json"} <= {r[0] for r in results}
    assert [r for r in results if r[1] != 0] == []
