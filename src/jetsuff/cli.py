"""Experiment driver.

Loads germ definitions from JSON, runs one command (``--cmd``) and writes
machine-readable reports into the output directory. Exit status: 0 when the
checked property holds, 2 when it fails (a violation was found, no minor is
active off Z, the field broke its bound, or a trajectory left the ball), 1
on bad input or a broken minor identity. Reports embed
a hash of the configuration and the package version; the timestamp field is
the only nondeterministic entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, bl_construct, lojasiewicz, trivializer
from .errors import (CalibrationError, ConstructionError, ConvergenceError,
                     CoveringViolationError, DomainExitError, InvalidInputError,
                     MinorIdentityError)
from .germ import GermPair, load_germ, zspec_from_json
from .sampling import ball_sample

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    germ: str
    pair: str | None = None
    z: str | None = None
    k: int | None = None
    seed: int = 0
    annuli: int = 4
    samples: int = 512
    tol_ode: float = 1e-9
    out: str = "out"

    def __post_init__(self):
        if self.tol_ode <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")
        if self.command not in COMMANDS:
            raise InvalidInputError(f"unknown command {self.command!r}")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _radii(count: int, r0: float = 0.5) -> list[float]:
    return [r0 * 0.5 ** i for i in range(count)]


def _load(config: ExperimentConfig):
    f, z = load_germ(config.germ)
    if config.z is not None:
        with open(config.z) as fh:
            z = zspec_from_json(json.load(fh), f.n, germ=f)
    if z is None:
        raise InvalidInputError("no ZSpec: provide one in the germ file or via --z")
    if config.k is not None:
        f = type(f)(f.n, f.m, config.k, f.components)
    return f, z


def _write_report(config: ExperimentConfig, payload: dict, outdir: Path):
    doc = {
        "config": asdict(config),
        "config_hash": config.hash(),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    doc.update(payload)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_check(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    f, z = _load(config)
    report = lojasiewicz.estimate_condition(
        f, z, f.k, _radii(config.annuli), config.samples, config.seed)
    payload = {"estimate": report.to_dict()}
    status = EXIT_OK
    if report.verdict != "holds":
        status = EXIT_VIOLATION
        seq = lojasiewicz.find_violation_sequence(f, z, f.k, config.seed)
        payload["violation_sequence"] = seq.to_dict() if seq else None
    report.write_csv(outdir / "annuli.csv")
    _write_report(config, payload, outdir)
    return status


def _cmd_exponent(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    f, z = _load(config)
    theta = lojasiewicz.fit_exponent(
        f, z, _radii(config.annuli), config.samples, config.seed)
    plausible = theta <= f.k - 1 + 0.1
    _write_report(config, {"fitted_exponent": theta, "k": f.k,
                           "plausible": plausible}, outdir)
    return EXIT_OK if plausible else EXIT_VIOLATION


def _load_pair(config: ExperimentConfig) -> GermPair:
    if config.pair is None:
        raise InvalidInputError("this command needs --pair")
    f, z = _load(config)
    f1, _ = load_germ(config.pair)
    if config.k is not None:
        f1 = type(f1)(f1.n, f1.m, config.k, f1.components)
    return GermPair(f=f, f1=f1, z=z)


def _cmd_trivialize(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    pair = _load_pair(config)
    est = lojasiewicz.estimate_condition(
        pair.f, pair.z, pair.f.k, _radii(config.annuli), config.samples, config.seed)
    if est.verdict != "holds":
        _write_report(config, {"estimate": est.to_dict(),
                               "error": "condition does not hold"}, outdir)
        return EXIT_VIOLATION
    consts = trivializer.calibrate_constants(pair, est, seed=config.seed)
    F = trivializer.build_F(pair, seed=config.seed)
    vf = trivializer.VectorFieldW(F, consts)
    grid = ball_sample(pair.f.n, 64, config.seed, radius=0.66 * consts.U_radius)
    result = trivializer.isotopy(vf, grid, tol=config.tol_ode)
    gron = trivializer.gronwall_check(result, consts, pair.z)
    payload = {
        "estimate": est.to_dict(),
        "constants": consts.to_dict(),
        "max_conservation_residual": result.max_conservation,
        "max_inverse_residual": result.max_inverse_residual,
        "gronwall": gron.to_dict(),
    }
    result.write_csv(outdir / "trajectories.csv")
    _write_report(config, payload, outdir)
    ok = (result.max_conservation <= 1e-6 and result.max_inverse_residual <= 1e-6
          and gron.ok)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_corollary(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    pair = _load_pair(config)
    rep = lojasiewicz.check_corollary_hypotheses(
        pair, _radii(config.annuli, r0=0.25), config.samples, config.seed)
    _write_report(config, {"corollary": rep.to_dict()}, outdir)
    return EXIT_OK if rep.passes else EXIT_VIOLATION


def _cmd_construct(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    f, z = _load(config)
    if seq_path is not None:
        with open(seq_path) as fh:
            doc = json.load(fh)
        try:
            points = np.asarray(doc["points"], dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError("--seq points must be a list of coordinate lists") from None
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("--seq points must be finite")
        dists = z.distance_many(points)
    else:
        seq = lojasiewicz.find_violation_sequence(f, z, f.k, config.seed)
        if seq is None:
            raise ConvergenceError("no violating sequence found; supply --seq")
        points, dists = np.asarray(seq.points), np.asarray(seq.dists)
    lambdas = bl_construct.choose_lambdas(f, points, z)
    pf = bl_construct.assemble_F(f, points, dists, lambdas)
    rep = bl_construct.verify_construction(pf, z, seed=config.seed)
    _write_report(config, {"construction": rep.to_dict(),
                           "lambdas": lambdas,
                           "sequence": {"points": points.tolist(),
                                        "dists": dists.tolist()}}, outdir)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


# Every handler takes (config, outdir, seq_path); only construct reads --seq,
# which stays out of the config so that report.json's config block omits it.
COMMANDS = {
    "check": _cmd_check,
    "exponent": _cmd_exponent,
    "trivialize": _cmd_trivialize,
    "corollary": _cmd_corollary,
    "construct": _cmd_construct,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jetsuff", description=__doc__)
    p.add_argument("--germ", required=True, help="germ JSON file")
    p.add_argument("--pair", help="second germ JSON file (same jet)")
    p.add_argument("--z", help="ZSpec JSON file overriding the germ file's block")
    p.add_argument("--k", type=int, help="override the jet order")
    p.add_argument("--cmd", required=True, choices=list(COMMANDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--annuli", type=int, default=4)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol-ode", type=float, default=1e-9)
    p.add_argument("--seq", help="JSON file with explicit sequence points (construct)")
    p.add_argument("--out", default="out", help="output directory")
    return p


def run(config: ExperimentConfig, seq_path=None) -> int:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return COMMANDS[config.command](config, outdir, seq_path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            command=args.cmd, germ=args.germ, pair=args.pair, z=args.z, k=args.k,
            seed=args.seed, annuli=args.annuli, samples=args.samples,
            tol_ode=args.tol_ode, out=args.out)
        return run(config, seq_path=args.seq)
    except (InvalidInputError, CalibrationError, ConstructionError,
            ConvergenceError, MinorIdentityError, OSError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (CoveringViolationError, DomainExitError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
