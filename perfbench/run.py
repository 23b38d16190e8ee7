#!/usr/bin/env python3
"""Closed-loop benchmark of jetsuff: one client, one process, one command
after another.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 4 --trace 0

Runs whole rounds of the workload's commands (see workloads.py) until the
commands have taken ``--seconds`` in total (at reference speed, see
reference.py), checking every output against its oracle after each round. With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see tracing.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record,
per-command results and (traced) spans go to ``.perfbench/runs/``.
"""

import os

BLAS_THREADS = 1  # of the 2 CPUs; set before numpy loads, inherited by children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 3   # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10   # samples the reported tail percentile must leave beyond it

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"),
              ("cmd_tail_s", "s"), ("fail_ratio", "ratio"), ("peak_rss_mb", "MB")]

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import jetsuff.cli
from jetsuff.germ import load_germ, zspec_from_json
spec = json.loads(sys.argv[2])
for path in spec["germs"]:
    load_germ(path)
for path in spec["z"]:
    with open(path) as fh:
        zspec_from_json(json.load(fh), 2)
"""


def measure_setup(ctx, germs, cloud) -> list[float]:
    """Wall time of fresh interpreters that import jetsuff.cli and load the
    workload's input files, as every CLI call pays it, at reference start-up
    speed (measured by a fixed interpreter start before and after each)."""
    spec = json.dumps({"germs": [str(ctx.germ(g)) for g in germs],
                       "z": [str(ctx.cloud_path)] if cloud else []})
    times, before = [], reference.startup_speed()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), spec],
                       cwd=ROOT, check=True, timeout=120)
        dt = time.perf_counter() - t0
        after = reference.startup_speed()
        times.append(dt * (before + after) / 2)
        before = after
    return times


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_record(args) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "blas": blas,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_rounds(commands, seconds, work: Path, probe, tracer):
    """Run whole rounds until the commands have taken ``seconds`` at
    reference speed, so the number of rounds does not follow the machine's
    speed; verify each round's outputs after it, outside the timed region."""
    rounds, measured = [], 0.0
    while not rounds or measured < seconds:
        r = len(rounds)
        outs, timed = [], []
        for i, cmd in enumerate(commands):
            out = work / f"r{r}" / f"c{i}"
            out.mkdir(parents=True)
            if tracer:
                tracer.begin_command(f"{r}.{i}")
            timed.append(probe.measure(lambda: cmd.run(out)))
            if tracer:
                tracer.end_command()
            outs.append(out)
        measured += sum(dt for _, _, dt in timed)

        records, unreadable = [], False
        for cmd, out, (result, raw, dt) in zip(commands, outs, timed):
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                try:
                    problems = cmd.verify(result, out)
                except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                    problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
                    unreadable = True
            records.append({"label": cmd.label, "seconds": dt, "raw_seconds": raw,
                            "exit": result if isinstance(result, int) else None,
                            "problems": problems})
        layers = None
        if tracer:
            tracer.counts["cli.report.bytes"] += sum(_dir_bytes(o) for o in outs)
            layers = tracer.layer_metrics()
            tracer.reset()
        shutil.rmtree(work / f"r{r}")
        rounds.append({"wall_s": sum(c["seconds"] for c in records),
                       "raw_wall_s": sum(c["raw_seconds"] for c in records),
                       "commands": records, "layers": layers,
                       "unreadable": unreadable})
    return rounds


def tail(times: list[float]):
    """(value, percentile, samples beyond): the highest percentile that
    leaves at least TAIL_BEYOND samples above it, or the maximum when the
    run has too few samples for that."""
    s = sorted(times)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def end_to_end(rounds, setup_times) -> dict:
    times = [c["seconds"] for r in rounds for c in r["commands"]]
    # add-one (rule of succession) estimate per round, worst round: never 0,
    # and the same for any run length while no command fails
    fail_ratio = max((sum(bool(c["problems"]) for c in r["commands"]) + 1)
                     / (len(r["commands"]) + 2) for r in rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail(times)[0],
        "fail_ratio": fail_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(rounds) -> tuple[dict, list[str]]:
    """Counts from the first round (and the rounds that repeat it), times
    as the median over rounds; lists every count that changed between
    rounds."""
    first = rounds[0]["layers"]
    drift = [f"{name}: {[r['layers'][name] for r in rounds]}"
             for name, unit in tracing.PER_LAYER
             if unit != "s" and any(r["layers"][name] != first[name] for r in rounds)]
    out = {}
    for name, unit in tracing.PER_LAYER:
        value = (statistics.median(r["layers"][name] for r in rounds) if unit == "s"
                 else first[name])
        out[name] = {"value": value, "unit": unit}
    return out, drift


def summarize_commands(rounds) -> list[str]:
    lines, by_label = [], {}
    for r in rounds:
        for c in r["commands"]:
            by_label.setdefault(c["label"], []).append(c)
    for label, cs in by_label.items():
        med = statistics.median(c["seconds"] for c in cs)
        raw = statistics.median(c["raw_seconds"] for c in cs)
        bad = [c for c in cs if c["problems"]]
        exits = sorted({c["exit"] for c in cs if c["exit"] is not None})
        if bad:
            verdict = f"FAILED {len(bad)}/{len(cs)}: " + "; ".join(bad[0]["problems"])
        else:
            verdict = "oracle ok" + (f", exit {exits[0]}" if exits else "")
        lines.append(f"command {label}: x{len(cs)} median {med:.4f} s "
                     f"(raw {raw:.4f} s), {verdict}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (SRC / "jetsuff" / "__init__.py", ROOT / "germs" / "x2.json")
               if not p.is_file()]
    if missing:
        print(f"error: not a jetsuff checkout, missing {missing[0]}", file=sys.stderr)
        return 1

    build, germs, cloud = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(ROOT, work, args.seed)
        setup_times = [] if args.trace else measure_setup(ctx, germs, cloud)
        sys.path.insert(0, str(SRC))
        import jetsuff.cli
        ctx.cli = jetsuff.cli
        probe, tracer = reference.Probe(), None
        if args.trace:
            tracer = tracing.Tracer(probe.clock)
            tracing.install(tracer)
        rounds = run_rounds(build(ctx), args.seconds, work, probe, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args)
    drift = []
    if args.trace:
        metrics, drift = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, setup_times)
    attempted = sum(len(r["commands"]) for r in rounds)
    failed = sum(bool(c["problems"]) for r in rounds for c in r["commands"])
    correct = not drift and not any(r["unreadable"] for r in rounds)

    times = [c["seconds"] for r in rounds for c in r["commands"]]
    value, pct, beyond = tail(times)
    doc = {"record": record, "metrics": metrics, "setup_times": setup_times,
           "rounds": [{k: r[k] for k in ("wall_s", "raw_wall_s", "commands")}
                      for r in rounds],
           "tail": {"value": value, "percentile": pct, "beyond": beyond,
                    "samples": len(times)},
           "raw_wall_s": statistics.median(r["raw_wall_s"] for r in rounds),
           "counter_drift": drift}
    if tracer:
        doc["spans"] = tracer.span_records()
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(doc))

    print("record " + json.dumps(record, sort_keys=True))
    for line in summarize_commands(rounds):
        print(line)
    for line in drift:
        print(f"counter changed between rounds: {line}")
    print(f"rounds {len(rounds)}, commands {len(times)}, tail p{pct:.1f} "
          f"with {beyond} samples beyond")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"results {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
