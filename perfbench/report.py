#!/usr/bin/env python3
"""Run the benchmark and print what it measured.

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --workloads witness --seed 3
    python3 perfbench/report.py --spread 10          # seeds 0..9, untraced

The default mode runs each workload once untraced and twice traced with the
same seed. It prints every end-to-end and per-layer metric with its unit,
the oracle result of each command, the tracing overhead (traced minus
untraced wall_s), and whether every count repeats exactly across the two
traced runs. ``--spread N`` runs N seeds per workload and prints, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list]:
    """(last-line result, results file, the other stdout lines) of one run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    path = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("results "))
    return json.loads(lines[-1]), json.loads((ROOT / path).read_text()), lines[:-1]


def report(workloads, seed, seconds):
    for w in workloads:
        print(f"== {w} (seed {seed}, {seconds:g} s)")
        result, doc, lines = run(w, seed, seconds, 0)
        if w == workloads[0]:
            print(lines[0])  # the run record
        for ln in lines:
            if ln.startswith(("command ", "rounds ")):
                print("  " + ln)
        print(f"  correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
        t1, d1, _ = run(w, seed, seconds, 1)
        t2, _, _ = run(w, seed, seconds, 1)
        traced = statistics.median(r["wall_s"] for r in d1["rounds"])
        untraced = result["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead (wall_s): {traced:.4f} s traced - "
              f"{untraced:.4f} s untraced = {traced - untraced:+.4f} s "
              f"({(traced / untraced - 1) * 100:+.1f}%)")
        for name, m in t1["metrics"].items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
        counts = [n for n, m in t1["metrics"].items() if m["unit"] != "s"]
        differ = [n for n in counts
                  if t1["metrics"][n]["value"] != t2["metrics"][n]["value"]]
        print(f"  counts repeated across two traced runs: "
              f"{'all ' + str(len(counts)) if not differ else 'NO, differ: ' + ', '.join(differ)}")


def spread(workloads, first_seed, n, seconds):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for w in workloads:
        values = {}
        for seed in range(first_seed, first_seed + n):
            result, _, _ = run(w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {n} seeds from {first_seed}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            print(f"  {name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound {bounds[name]}  "
                  f"{'ok' if share < bounds[name] / 3 else 'WIDE'}")
        print(f"  values {json.dumps(values)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--spread", type=int, metavar="N",
                    help="run N seeds per workload and print the spreads")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.spread:
        spread(workloads, args.seed, args.spread, args.seconds)
    else:
        report(workloads, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
