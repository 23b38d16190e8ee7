"""The benchmark's tracer wraps jetsuff's public functions by name, so a
rename or deletion of one of them breaks ``perfbench/run.py --trace 1``.
Installing the tracer in a fresh interpreter catches that here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_this_tree():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Two traced runs of one command, into the output directories of benchmark
# rounds 9 and 10, with the bytes written counted as perfbench/run.py counts
# them; prints the count metrics of each run, one JSON list.
TWO_ROUNDS = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, workloads
import jetsuff.cli
tracer = tracing.Tracer()
tracing.install(tracer)
work = Path(sys.argv[3])
cloud = work / "cloud.json"
cloud.write_text(json.dumps({"variant": "samples",
                             "points": workloads.axis_cloud().tolist()}))
runs = []
for r in ("r9", "r10"):
    out = work / r / "c0"
    code = jetsuff.cli.main(["--germ", sys.argv[4], "--cmd", "check", "--z", str(cloud),
                             "--seed", "1", "--out", str(out)])
    tracer.counts["cli.report.bytes"] += sum(
        p.stat().st_size for p in out.rglob("*") if p.is_file())
    layers = tracer.layer_metrics()
    tracer.reset()
    runs.append({"exit": code, "counts": {name: layers[name]
                 for name, unit in tracing.PER_LAYER if unit != "s"}})
print(json.dumps(runs))
"""


def test_traced_counts_equal_across_rounds(tmp_path):
    # perfbench/run.py declares a traced run incorrect when a count metric
    # changes between rounds; the round number is in the output path
    proc = subprocess.run(
        [sys.executable, "-c", TWO_ROUNDS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path), str(ROOT / "germs" / "x2.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    r9, r10 = json.loads(proc.stdout.splitlines()[-1])
    assert r9["exit"] == r10["exit"] == 0
    assert r9["counts"]["cli.report.bytes"] > 0
    assert r9["counts"] == r10["counts"]


# One traced check; prints its exit code and the two point counts.
ONE_CHECK = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import jetsuff.cli
tracer = tracing.Tracer()
tracing.install(tracer)
code = jetsuff.cli.main(["--germ", sys.argv[4], "--cmd", "check", "--samples", "512",
                         "--annuli", "4", "--seed", "1", "--out", sys.argv[3]])
layers = tracer.layer_metrics()
print(json.dumps([code, layers["lojasiewicz.points.evaluated"],
                  layers["lojasiewicz.points.skipped"]]))
"""


@pytest.mark.parametrize("germ", [ROOT / "germs" / "x2.json",
                                  ROOT / "perfbench" / "germs" / "z2.json"])
def test_traced_check_counts_every_sample(tmp_path, germ):
    # the tracer counts each annulus's rows as _ratio_stats receives them, so
    # scaling the outermost annulus must still hand it all 4 x 512 rows
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CHECK, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path), str(germ)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, evaluated, skipped = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert evaluated + skipped == 4 * 512
