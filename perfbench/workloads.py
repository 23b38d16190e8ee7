"""The four benchmark workloads: command lists plus the oracle for each output.

A command is one CLI call (``jetsuff.cli.main`` in process) or one library
pipeline. Its ``run`` is timed; its ``verify`` runs afterwards, outside the
timed region, and returns the problems the oracles found. The workload seed
drives every Sobol pattern through ``--seed``; the germ files are fixed.

The ``implicit`` Z variant (about 11 ms per distance call, Powell) is in no
workload: a change to it needs a workload added first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

HERE = Path(__file__).resolve().parent
RADII = [0.5, 0.25, 0.125, 0.0625]   # the CLI's four default annuli
LARGE_SAMPLES = 2048                  # 4x the CLI default of 512
M2_GRID = 4                           # isotopy grid points for trivialize_m2
WITNESS_SEEDS = 8                     # Sobol patterns per witness round


@dataclass
class Command:
    label: str
    run: Callable[[Path], object]
    verify: Callable[[object, Path], list[str]]


def axis_cloud() -> np.ndarray:
    """Points of Z = {x1 = 0} in R^2: the origin and 16 points per octave
    on each half of the x2 axis, from 1 down to 2^-40.

    Every octave is the one above it times 1/2, which is exact in binary, so
    distances to the cloud scale exactly with the dyadic annuli and the
    estimator's per-annulus minima agree.
    """
    base = 2.0 ** (-np.arange(16) / 16)
    mags = np.concatenate([base * 2.0 ** -o for o in range(41)])
    pts = [(0.0, 0.0)] + [(0.0, s * v) for v in mags for s in (1.0, -1.0)]
    return np.array(pts)


class Context:
    """Paths and seed shared by a workload's commands."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.seed = root, seed
        self.cloud = axis_cloud()
        self.cloud_path = work / "x1_axis_cloud.json"
        self.cloud_path.write_text(json.dumps(
            {"variant": "samples", "points": self.cloud.tolist()}))
        self.seq_path = work / "x2y2_diagonal.json"
        # the prescribed sequence of scripts/run_construction.py
        self.seq_path.write_text(json.dumps(
            {"points": [[3.0 ** -v, 3.0 ** -v] for v in range(1, 6)]}))
        self.cli = None  # jetsuff.cli, bound once jetsuff is imported

    def germ(self, name: str) -> Path:
        bundled = self.root / "germs" / f"{name}.json"
        return bundled if bundled.exists() else HERE / "germs" / f"{name}.json"


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _cli(ctx: Context, label: str, argv: list[str], verify, seed=None) -> Command:
    """A CLI call; ``verify(code, out)`` is consulted unless it exits 1."""
    seed = ctx.seed if seed is None else seed

    def run(out: Path) -> int:
        return ctx.cli.main(argv + ["--seed", str(seed), "--out", str(out)])

    def check(code: int, out: Path) -> list[str]:
        if code == 1:
            return ["exit 1 (error)"]
        return verify(code, out)

    return Command(label, run, check)


def _expect_exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit {code}, expected {want}"]


# ------------------------------------------------------------------ survey

def _check(ctx, name, samples, *, z=None, **expect) -> Command:
    argv = ["--germ", str(ctx.germ(name)), "--cmd", "check", "--samples", str(samples)]
    form, k, _ = orc.GERMS[name]
    label = f"check {name} n={samples}"
    if z is not None:
        argv += ["--z", str(z)]
        form = orc.x2_cloud(ctx.cloud)
        label = f"check {name} z=cloud n={samples}"

    def verify(code, out):
        return (_expect_exit(code, 0)
                + orc.check_estimate(_report(out)["estimate"], form, k, **expect))
    return _cli(ctx, label, argv, verify)


def _exponent(ctx, name, samples, *, z=None) -> Command:
    argv = ["--germ", str(ctx.germ(name)), "--cmd", "exponent", "--samples", str(samples)]
    degree = orc.GERMS[name][2]
    label = f"exponent {name} n={samples}"
    if z is not None:
        argv += ["--z", str(z)]
        label = f"exponent {name} z=cloud n={samples}"

    def verify(code, out):
        return _expect_exit(code, 0) + orc.check_exponent(_report(out), degree)
    return _cli(ctx, label, argv, verify)


def _corollary(ctx, name, pair, samples, **expect) -> Command:
    argv = ["--germ", str(ctx.germ(name)), "--pair", str(ctx.germ(pair)),
            "--cmd", "corollary", "--samples", str(samples)]

    def verify(code, out):
        return _expect_exit(code, 0) + orc.check_corollary(
            _report(out)["corollary"], **expect)
    return _cli(ctx, f"corollary {name}/{pair} n={samples}", argv, verify)


def survey(ctx: Context) -> list[Command]:
    cmds = []
    for n in (512, LARGE_SAMPLES):
        cmds += [
            _check(ctx, "x2", n, C=2.0), _exponent(ctx, "x2", n),
            _check(ctx, "sum_of_squares", n, C=2.0), _exponent(ctx, "sum_of_squares", n),
            _check(ctx, "x2y2", n, C_min=2 * 2 ** 0.5), _exponent(ctx, "x2y2", n),
            _check(ctx, "z2", n, C=2.0), _exponent(ctx, "z2", n),
            # the cloud lies in Z, so its distances are larger: C_hat <= 2
            _check(ctx, "x2", n, z=ctx.cloud_path, C_max=2.0),
            _exponent(ctx, "x2", n, z=ctx.cloud_path),
            # P = x1^4: C2 = 2 x1^2 = 8 C1, a factor 1/4 per halving
            _corollary(ctx, "x2", "x2_plus_x4", n, C=2.0, c2_per_c1=8.0, c2_scale=0.25),
            # P = (x1^3, x2^3): C2 homogeneous of degree 1
            _corollary(ctx, "z2", "z2_plus_cubes", n, C=2.0, c2_per_c1=None,
                       c2_scale=0.5),
        ]
    return cmds


# ------------------------------------------------------------------ trivialize

def _read_trajectories(path: Path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = (rows.shape[1] - 3) // 2
    N = int(rows[:, 0].max()) + 1
    T = rows.shape[0] // N
    rows = rows.reshape(N, T, -1)
    return (rows[:, 0, 2:2 + n], rows[0, :, 1], rows[:, :, 2 + n:2 + 2 * n],
            rows[:, :, -1])


def _trivialize_problems(est, consts, max_inverse, gron_ok, trajectories,
                         name, pair) -> list[str]:
    form, k, _ = orc.GERMS[name]
    problems = orc.check_estimate(est, form, k, C=2.0)
    if max_inverse > orc.CONSERVATION:
        problems.append(f"inverse residual {max_inverse:.3e} > {orc.CONSERVATION}")
    if not gron_ok:
        problems.append("Gronwall check reported violations")
    problems += orc.check_trajectories(*trajectories, *orc.DEFORMATIONS[pair], consts)
    return problems


def trivialize(ctx: Context) -> list[Command]:
    argv = ["--germ", str(ctx.germ("x2")), "--pair", str(ctx.germ("x2_plus_x3")),
            "--cmd", "trivialize"]

    def verify(code, out):
        doc = _report(out)
        return _expect_exit(code, 0) + _trivialize_problems(
            doc["estimate"], doc["constants"], doc["max_inverse_residual"],
            doc["gronwall"]["ok"], _read_trajectories(out / "trajectories.csv"),
            "x2", "x2_plus_x3")
    return [_cli(ctx, "trivialize x2/x2_plus_x3", argv, verify)]


def trivialize_m2(ctx: Context) -> list[Command]:
    from jetsuff import germ, lojasiewicz, sampling, trivializer

    def run(out: Path):
        f, z = germ.load_germ(ctx.germ("z2"))
        f1, _ = germ.load_germ(ctx.germ("z2_plus_cubes"))
        pair = germ.GermPair(f=f, f1=f1, z=z)
        est = lojasiewicz.estimate_condition(f, z, f.k, RADII, 512, ctx.seed)
        consts = trivializer.calibrate_constants(pair, est, seed=ctx.seed)
        F = trivializer.build_F(pair, seed=ctx.seed)
        vf = trivializer.VectorFieldW(F, consts)
        grid = sampling.ball_sample(f.n, M2_GRID, ctx.seed,
                                    radius=0.66 * consts.U_radius)
        result = trivializer.isotopy(vf, grid, tol=1e-9)
        return est, consts, result, trivializer.gronwall_check(result, consts, z)

    def verify(outcome, out):
        est, consts, res, gron = outcome
        return _trivialize_problems(
            est.to_dict(), consts.to_dict(), res.max_inverse_residual, gron.ok,
            (res.grid, res.times, res.forward, res.conservation), "z2", "z2_plus_cubes")
    return [Command("pipeline z2/z2_plus_cubes", run, verify)]


# ------------------------------------------------------------------ witness

def witness(ctx: Context) -> list[Command]:
    form, k, _ = orc.GERMS["x3"]

    def verify_check(code, out):
        doc = _report(out)
        problems = _expect_exit(code, 2) + orc.check_estimate(
            doc["estimate"], form, k, verdict="fails")
        if doc.get("violation_sequence") is None:
            return problems + ["no violation sequence reported"]
        return problems + orc.check_violation_sequence(doc["violation_sequence"], form, k)

    def verify_construct_x3(code, out):
        doc = _report(out)
        seq = doc["sequence"]
        problems = []
        for i, (x, d) in enumerate(zip(seq["points"], seq["dists"])):
            if abs(d - form(x)[1]) > orc.REL * d:
                problems.append(f"center {i}: dist {d!r} != |x1|")
        return problems + orc.check_construction(doc, code, orc.hessian_x3)

    def verify_construct_x2y2(code, out):
        return orc.check_construction(_report(out), code, orc.hessian_x2y2)

    x3, x2y2 = str(ctx.germ("x3")), str(ctx.germ("x2y2"))
    cmds = []
    # the Nelder-Mead work varies with the Sobol pattern, so each round
    # spreads it over WITNESS_SEEDS patterns derived from the workload seed
    for j in range(WITNESS_SEEDS):
        seed = WITNESS_SEEDS * ctx.seed + j
        cmds += [
            _cli(ctx, f"check x3 #{j}", ["--germ", x3, "--cmd", "check"],
                 verify_check, seed),
            _cli(ctx, f"construct x3 #{j}", ["--germ", x3, "--cmd", "construct"],
                 verify_construct_x3, seed),
        ]
    return cmds + [_cli(ctx, "construct x2y2 diagonal",
                        ["--germ", x2y2, "--cmd", "construct", "--seq", str(ctx.seq_path)],
                        verify_construct_x2y2)]


# name -> (function making the commands, germ files it loads, whether it loads
# the Z cloud)
WORKLOADS = {
    "survey": (survey, ["x2", "sum_of_squares", "x2y2", "z2", "x2_plus_x4",
                        "z2_plus_cubes"], True),
    "trivialize": (trivialize, ["x2", "x2_plus_x3"], False),
    "trivialize_m2": (trivialize_m2, ["z2", "z2_plus_cubes"], False),
    "witness": (witness, ["x3", "x2y2"], False),
}
