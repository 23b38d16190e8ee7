"""Every benchmark command must pass its oracle on this tree.

``perfbench/run.py`` counts a command as failed when its output breaks
the oracle in ``perfbench/oracles.py``, and a change that fails more
commands than its parent is a regression. This runs every command of every
workload once, at two seeds, and checks that none fails. The
child process puts ``perfbench/`` first on its path, because ``run`` sets
the BLAS thread variables on import and because ``tests/oracles.py`` would
shadow ``perfbench/oracles.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs every command of every workload once into sys.argv[2], then its
# verify, as perfbench/run.py does; prints {workload: [failing labels]}.
RUN_ALL = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads
sys.path.insert(0, str(run.SRC))
import jetsuff.cli
work, seed, failing = Path(sys.argv[2]), int(sys.argv[3]), {}
for name, (build, _, _) in workloads.WORKLOADS.items():
    ctx = workloads.Context(run.ROOT, work, seed)
    ctx.cli = jetsuff.cli
    failing[name] = []
    for i, cmd in enumerate(build(ctx)):
        out = work / name / f"c{i}"
        out.mkdir(parents=True)
        try:
            problems = cmd.verify(cmd.run(out), out)
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failing[name].append(cmd.label)
print(json.dumps(failing))
"""


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_oracles_pass(tmp_path, seed):
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(ROOT / "perfbench"), str(tmp_path), str(seed)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    failing = json.loads(proc.stdout.splitlines()[-1])
    assert set(failing) == {"survey", "trivialize", "trivialize_m2", "witness"}
    assert {name: labels for name, labels in failing.items() if labels} == {}
