"""A CLI call loads numpy and no scipy module at all, also with a sampled Z:
scipy.special, scipy.stats, scipy.integrate, scipy.optimize and
scipy.spatial would each add a large share of the start-up time. The test
reads ``sys.modules`` in a fresh interpreter, so it does not depend on
timings."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ["scipy.special", "scipy.stats", "scipy.integrate", "scipy.optimize",
         "scipy.spatial"]

# Imports the CLI and loads every bundled germ, prints the scipy modules
# loaded, then builds a SampledZ, takes distances to it and prints the heavy
# ones.
PROBE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
import jetsuff.cli
from jetsuff.germ import SampledZ, load_germ
heavy = json.loads(sys.argv[3])
for path in sorted(Path(sys.argv[2]).glob("*.json")):
    if path.stem != "x2y2_diagonal_seq":  # a sequence, not a germ
        load_germ(path)
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
SampledZ(n=2, points=np.array([[0.0, 0.0], [1.0, 0.0]])).distance_many(np.eye(2))
print(json.dumps([m for m in heavy if m in sys.modules]))
"""


def test_cli_import_loads_no_heavy_scipy_package():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "germs"),
         json.dumps(HEAVY)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_load, after_cloud = (json.loads(line) for line in proc.stdout.splitlines())
    assert after_load == []
    assert after_cloud == []
