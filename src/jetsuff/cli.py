"""Experiment driver.

Loads germ definitions from JSON, runs one command (``--cmd``) and writes
machine-readable reports into the output directory. Exit status: 0 when the
checked property holds, 2 when it fails (a violation was found, no minor is
active off Z, the field broke its bound, a trajectory left the ball, or
``construct`` certified no witness), 1 on bad input or a broken minor
identity. Reports embed a hash of the configuration and the package
version; the timestamp field is the only nondeterministic entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, bl_construct, lojasiewicz, trivializer
from .errors import (CalibrationError, ConstructionError, ConvergenceError,
                     CoveringViolationError, DomainExitError, InvalidInputError,
                     MinorIdentityError)
from .germ import GermPair, _rows, json_numbers, load_germ, read_json, zspec_from_json
from .linmap import row_norms
from .report import write_json
from .sampling import ball_sample

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """The parsed options that report.json records; ``build_parser`` holds
    their defaults. ``main`` passes ``--out`` and ``--seq`` to the command
    beside it, so that a report does not depend on the directory it is written to."""

    command: str
    germ: str
    pair: str | None
    z: str | None
    k: int | None
    seed: int
    annuli: int
    samples: int
    tol_ode: float

    def __post_init__(self):
        if not 0.0 < self.tol_ode < np.inf:
            raise InvalidInputError("tolerances must be finite and positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _radii(count: int, r0: float = 0.5) -> list[float]:
    return [r0 * 0.5 ** i for i in range(count)]


def _germ(path, config: ExperimentConfig):
    """The germ in ``path``, at jet order ``--k`` when given, and its Z block."""
    f, z = load_germ(path)
    if config.k is not None:
        f = type(f)(f.n, f.m, config.k, f.components)
    return f, z


def _load(config: ExperimentConfig):
    f, z = _germ(config.germ, config)
    if config.z is not None:
        z = zspec_from_json(read_json(config.z), f.n)
    if z is None:
        raise InvalidInputError("no ZSpec: provide one in the germ file or via --z")
    return f, z


def _write_report(config: ExperimentConfig, payload: dict, outdir: Path):
    doc = {
        "config": asdict(config),
        "config_hash": config.hash(),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    doc.update(payload)
    write_json(outdir / "report.json", doc)


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
    return GermPair(f=f, f1=_germ(config.pair, config)[0], z=z)


def _cmd_trivialize(config: ExperimentConfig, outdir: Path, seq_path) -> int:
    pair = _load_pair(config)
    est = lojasiewicz.estimate_condition(
        pair.f, pair.z, pair.f.k, _radii(config.annuli), config.samples, config.seed)
    if est.verdict != "holds":
        _write_report(config, {"estimate": est.to_dict(),
                               "error": "condition does not hold"}, outdir)
        return EXIT_VIOLATION
    F = trivializer.build_F(pair)  # a pair off the jet fails before calibration
    consts = trivializer.calibrate_constants(pair, est, seed=config.seed)
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
    if f.m != 1:  # before the violation search, which would run in vain
        raise InvalidInputError("construction applies to scalar germs")
    if seq_path is not None:
        doc = read_json(seq_path)
        if isinstance(doc, dict) and "estimate" in doc:  # a check report.json
            doc = doc.get("violation_sequence")
            if doc is None:
                raise InvalidInputError("--seq report has no violation sequence")
        try:
            points = json_numbers(doc["points"], "--seq points")
        except InvalidInputError:  # a ValueError that already names the fault
            raise
        except (KeyError, TypeError, ValueError):
            raise InvalidInputError("--seq points must be a list of coordinate lists") from None
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("--seq points must be finite")
        points = _rows(points, f.n)
        # the germ lives at 0 and every scan stays in the unit ball
        with np.errstate(over="ignore"):  # a norm beyond the float range is > 1 all the same
            outside = np.flatnonzero(row_norms(points) > 1)
        if len(outside):
            raise InvalidInputError(f"--seq point {points[outside[0]].tolist()} "
                                    "lies outside the unit ball")
        dists = z.distance_many(points)
    else:
        seq = lojasiewicz.find_violation_sequence(f, z, f.k, config.seed)
        if seq is None:  # not certified, as a sequence that fails its checks
            print("not certified: no violating sequence found; supply --seq", file=sys.stderr)
            return EXIT_VIOLATION
        points, dists = np.asarray(seq.points), np.asarray(seq.dists)
    lambdas = bl_construct.choose_lambdas(f, points, dists)
    pf = bl_construct.assemble_F(f, points, dists, lambdas)
    rep = bl_construct.verify_construction(pf, z, seed=config.seed)
    _write_report(config, {"construction": rep.to_dict(),
                           "lambdas": lambdas,
                           "sequence": {"points": points.tolist(),
                                        "dists": dists.tolist()}}, outdir)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


# Every handler takes (config, outdir, seq_path); only construct reads --seq.
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
    p.add_argument("--cmd", dest="command", required=True, choices=list(COMMANDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--annuli", type=int, default=4)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol-ode", type=float, default=1e-9)
    p.add_argument("--seq", help="JSON file with explicit sequence points, or a check "
                   "report.json with a violation sequence (construct)")
    p.add_argument("--out", default="out", help="output directory")
    return p


_PARSER = build_parser()  # one per process: in-process callers call main many times


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed why; its exit 2 would read as a violation
        if exc.code == EXIT_OK:  # --help
            raise
        return EXIT_ERROR
    try:
        config = ExperimentConfig(**{f.name: getattr(args, f.name)
                                     for f in fields(ExperimentConfig)})
        return COMMANDS[config.command](config, Path(args.out), args.seq)
    except (InvalidInputError, CalibrationError, ConstructionError,
            ConvergenceError, MinorIdentityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (CoveringViolationError, DomainExitError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
