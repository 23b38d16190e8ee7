import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jetsuff import linmap, lojasiewicz, trivializer
from jetsuff.cli import main
from jetsuff.errors import CoveringViolationError, DomainExitError
from jetsuff.report import write_json

ROOT = Path(__file__).resolve().parent.parent
GERMS = ROOT / "germs"
# points beyond radius 1, where no scan looks
OUTSIDE_BALL = [[[2, 0.5], [0.9, 0.2], [0.4, 0.05]],
                [[1e100, 1e100], [1e40, 1e40], [1e10, 1e10]]]


def run_cli(*args):
    return main([str(a) for a in args])


def z_args(tmp_path, via, z_doc):
    """CLI arguments giving x2 with ``z_doc`` as its Z, by ``--z`` or inside
    a copy of the germ file."""
    if via == "--z":
        z = tmp_path / "z.json"
        z.write_text(json.dumps(z_doc))
        return ["--germ", GERMS / "x2.json", "--z", z]
    germ = json.loads((GERMS / "x2.json").read_text())
    germ["z"] = z_doc
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(germ))
    return ["--germ", path]


class TestExitCodes:
    def test_check_holds(self, tmp_path):
        code = run_cli("--germ", GERMS / "x2.json", "--cmd", "check",
                       "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["estimate"]["verdict"] == "holds"
        assert doc["estimate"]["C_hat"] == pytest.approx(2.0, abs=0.02)
        assert (tmp_path / "annuli.csv").exists()

    def test_check_fails_with_sequence(self, tmp_path):
        code = run_cli("--germ", GERMS / "x3.json", "--cmd", "check",
                       "--out", tmp_path)
        assert code == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["estimate"]["verdict"] == "fails"
        assert doc["violation_sequence"] is not None

    @pytest.mark.parametrize("args", [
        # ratios that grow as the radius shrinks
        ("--germ", GERMS / "x2_plus_x.json"),
        ("--germ", GERMS / "x2_plus_x3.json"),
        # above the sharp order 2 of x^2 and 3 of x^3
        ("--germ", GERMS / "x2.json", "--k", 3),
        ("--germ", GERMS / "x3.json", "--k", 4),
    ])
    def test_check_holds_on_growing_ratios(self, tmp_path, args):
        assert run_cli(*args, "--cmd", "check", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        est = doc["estimate"]
        assert est["verdict"] == "holds" and est["C_hat"] > 0
        assert min(est["minima"]) >= 0.5 * est["minima"][0]
        assert "violation_sequence" not in doc

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("germ, order", [("x2_x4", 4), ("x3_x1x4", 3)])
    def test_non_homogeneous_germ_at_and_below_its_order(self, tmp_path, germ, order, seed):
        # x1^2 + x2^4 over {0} and x1^3 + x1 x2^4 over {x1 = 0}: each annulus
        # is evaluated on its own, and the condition holds from k = order
        args = ("--germ", GERMS / f"{germ}.json", "--cmd", "check", "--seed", seed)
        assert run_cli(*args, "--k", 2, "--out", tmp_path / "low") == 2
        doc = json.loads((tmp_path / "low" / "report.json").read_text())
        assert doc["estimate"]["verdict"] == "fails"
        assert doc["violation_sequence"] is not None
        assert run_cli(*args, "--out", tmp_path / "at") == 0
        doc = json.loads((tmp_path / "at" / "report.json").read_text())
        assert doc["estimate"]["k"] == order
        assert doc["estimate"]["verdict"] == "holds"

    def test_exponent(self, tmp_path):
        code = run_cli("--germ", GERMS / "x2.json", "--cmd", "exponent",
                       "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["fitted_exponent"] == pytest.approx(1.0, abs=0.05)

    def test_corollary_pass_and_fail(self, tmp_path):
        assert run_cli("--germ", GERMS / "x2.json", "--pair",
                       GERMS / "x2_plus_x4.json", "--cmd", "corollary",
                       "--out", tmp_path / "a") == 0
        assert run_cli("--germ", GERMS / "x2.json", "--pair",
                       GERMS / "x2_plus_x.json", "--cmd", "corollary",
                       "--out", tmp_path / "b") == 2

    @pytest.mark.parametrize("germ", ["x3", "x4"])
    @pytest.mark.parametrize("seed", range(4))
    def test_construct_certifies_witness(self, tmp_path, germ, seed):
        # nondegeneracy relative to lambda: these exited 2 ("degenerate
        # Hessian") and 1 ("could not avoid Hessian eigenvalue")
        assert run_cli("--germ", GERMS / f"{germ}.json", "--cmd", "construct",
                       "--seed", seed, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["construction"]["ok"] and doc["construction"]["failures"] == []

    @pytest.mark.parametrize("germ", ["x2", "x2y2"])
    def test_construct_without_a_sequence_is_not_certified(self, tmp_path, capsys, germ):
        # the condition holds, so the search finds no sequence: exit 2, as a
        # sequence that fails its checks, not 1 (bad input)
        assert run_cli("--germ", GERMS / f"{germ}.json", "--cmd", "construct",
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == "not certified: no violating sequence found; supply --seq\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", range(4))
    def test_construct_reads_a_check_report(self, tmp_path, monkeypatch, seed):
        # the sequence that check found, without searching again
        x3 = ("--germ", GERMS / "x3.json", "--seed", seed)
        assert run_cli(*x3, "--cmd", "check", "--out", tmp_path / "check") == 2
        assert run_cli(*x3, "--cmd", "construct", "--out", tmp_path / "search") == 0

        def uncalled(*args, **kwargs):
            raise AssertionError("searched for a sequence that check found")
        monkeypatch.setattr(lojasiewicz, "find_violation_sequence", uncalled)
        assert run_cli(*x3, "--cmd", "construct", "--seq", tmp_path / "check" / "report.json",
                       "--out", tmp_path / "seq") == 0
        search, seq = (re.sub(rb'"timestamp": "[^"]*"', b"",
                              (tmp_path / d / "report.json").read_bytes())
                       for d in ("search", "seq"))
        assert search == seq

    @pytest.mark.parametrize("germ, null", [("x2", False), ("x3", True)])
    def test_check_report_without_a_sequence(self, tmp_path, capsys, germ, null):
        # x2's check holds, so its report has no sequence; a null one is
        # what check writes where the search finds none
        report = tmp_path / "check" / "report.json"
        run_cli("--germ", GERMS / f"{germ}.json", "--cmd", "check", "--out", report.parent)
        if null:
            doc = json.loads(report.read_text())
            doc["violation_sequence"] = None
            report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--germ", GERMS / "x3.json", "--cmd", "construct", "--seq", report,
                       "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: --seq report has no violation sequence\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seq", [None, [[0.4, 0.1, 0.0], [0.1, 0.02, 0.0], [0.02, 0.005, 0.0]]],
                             ids=["search", "seq"])
    def test_construct_refuses_a_map_germ(self, tmp_path, capsys, monkeypatch, seq):
        # without --seq this ran the whole violation search, then exited 2
        def uncalled(*args, **kwargs):
            raise AssertionError("searched for a sequence on a map germ")
        monkeypatch.setattr(lojasiewicz, "find_violation_sequence", uncalled)
        args = ["--germ", ROOT / "perfbench" / "germs" / "z2.json", "--cmd", "construct"]
        if seq is not None:
            (tmp_path / "seq.json").write_text(json.dumps({"points": seq}))
            args += ["--seq", tmp_path / "seq.json"]
        assert run_cli(*args, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: construction applies to scalar germs\n"
        assert not (tmp_path / "out").exists()

    def test_samples_beyond_the_sobol_sequence(self, tmp_path, capsys):
        # a count beyond 2^30 (10^20, say) used to grow the Sobol table until
        # the process was killed
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "check", "--samples",
                       2 ** 30 + 1, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_malformed_germ_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("--germ", bad, "--cmd", "check", "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: {bad}: invalid JSON at line 1\n"

    def test_pair_off_the_jet_refused(self, tmp_path, capsys):
        # f1 = x1^2 + 10^-13 x2 takes negative values where f = x1^2 does not;
        # a 1e-12 budget on sampled jets certified it with exit 0
        f1 = json.loads((GERMS / "x2.json").read_text())
        f1["components"][0].append({"coeff": "1/10000000000000", "exponents": [0, 1]})
        (tmp_path / "f1.json").write_text(json.dumps(f1))
        assert run_cli("--germ", GERMS / "x2.json", "--pair", tmp_path / "f1.json",
                       "--cmd", "trivialize", "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: pair is not a common k-Z-jet: f1 - f has the term x2 in component 1\n")

    def test_pair_checked_before_calibration(self, tmp_path, capsys, monkeypatch):
        # P = x1 used to cost a full calibration, then fail on the P bounds
        def uncalled(*args, **kwargs):
            raise AssertionError("calibrated a pair off the jet")
        monkeypatch.setattr(trivializer, "calibrate_constants", uncalled)
        assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x.json",
                       "--cmd", "trivialize", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: pair is not a common k-Z-jet: f1 - f has the term x1 in component 1\n")

    def test_trivialize_where_the_condition_fails(self, tmp_path):
        assert run_cli("--germ", GERMS / "x3.json", "--pair", GERMS / "x3.json",
                       "--cmd", "trivialize", "--out", tmp_path) == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["error"] == "condition does not hold"
        assert doc["estimate"]["verdict"] == "fails" and "constants" not in doc

    @pytest.mark.parametrize("seed", range(4))
    def test_trivialize_calibrates_where_C_was_measured(self, tmp_path, seed):
        # P = x1^6 at k = 5: calibrating from radius 1, outside the estimator's
        # ball of radius 0.5, gave U = 0.9 and C'' = 5,471, and a run that had
        # not ended after 180 s
        f1 = json.loads((GERMS / "x2.json").read_text())
        f1["components"][0].append({"coeff": "1", "exponents": [6, 0]})
        (tmp_path / "f1.json").write_text(json.dumps(f1))
        assert run_cli("--germ", GERMS / "x2.json", "--pair", tmp_path / "f1.json", "--k", 5,
                       "--cmd", "trivialize", "--seed", seed, "--out", tmp_path / "out") == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["constants"]["U_radius"] <= doc["estimate"]["radii"][0]
        assert doc["constants"]["C_dprime"] < 2 and doc["gronwall"]["ok"]

    def test_missing_pair(self, tmp_path):
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "corollary",
                       "--out", tmp_path) == 1

    def test_germ_without_z_and_no_z_flag(self, tmp_path, capsys):
        germ = json.loads((GERMS / "x2.json").read_text())
        del germ["z"]
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(germ))
        assert run_cli("--germ", path, "--cmd", "check", "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: no ZSpec: provide one in the germ file or via --z\n")
        assert not (tmp_path / "out").exists()


# every bundled scalar germ at its file's k, and three that fail at k = 2
SCALAR_GERMS = ([(path.stem, None) for path in sorted(GERMS.glob("*.json"))
                 if path.stem != "x2y2_diagonal_seq"]
                + [(name, 2) for name in ("x2_x4", "x3_x1x4", "x2y2")])
FAILING = {("x3", None), ("x4", None), ("x2_x4", 2), ("x3_x1x4", 2), ("x2y2", 2)}
# the (k-1)-jet at 0 does not vanish at the file's k, which construct refuses
JET_AT_0 = {("x2_plus_x", None), ("x2_x4", None)}


class TestNegativeSide:
    """check and construct agree on every bundled scalar germ: where check
    says "fails", construct certifies the sequence it finds; where it says
    "holds", construct finds none, and a sequence of check's own argmins
    fails construct's checks."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("germ, k", SCALAR_GERMS)
    def test_construct_agrees_with_check(self, tmp_path, germ, k, seed):
        args = ["--germ", GERMS / f"{germ}.json", "--seed", seed, *(("--k", k) if k else ())]
        check = run_cli(*args, "--cmd", "check", "--annuli", 6, "--out", tmp_path / "check")
        estimate = json.loads((tmp_path / "check" / "report.json").read_text())["estimate"]
        construct = run_cli(*args, "--cmd", "construct", "--out", tmp_path / "search")
        if (germ, k) in FAILING:
            assert estimate["verdict"] == "fails" and (check, construct) == (2, 0)
            return
        assert estimate["verdict"] == "holds" and (check, construct) == (0, 2)
        # argmins 0, 2 and 4, whose distances more than halve; the 4 default
        # argmins' halve exactly, which assemble_F rejects (exit 1)
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"points": [estimate["argmins"][i] for i in (0, 2, 4)]}))
        code = run_cli(*args, "--cmd", "construct", "--seq", seq, "--out", tmp_path / "seq")
        if (germ, k) in JET_AT_0:
            assert code == 1 and not (tmp_path / "seq").exists()
            return
        assert code == 2
        assert not json.loads((tmp_path / "seq" / "report.json").read_text())["construction"]["ok"]


class TestExitCodeTaxonomy:
    """0: the property holds; 1: bad input; 2: the property failed."""

    @pytest.mark.parametrize("extra, code", [
        ((), 0),
        (("--tol-ode", "-1"), 1),
        (("--annuli", "3"), 1),  # fewer than 4 annuli is rejected, not raised
    ])
    def test_check_flags(self, tmp_path, extra, code):
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "check", *extra,
                       "--out", tmp_path) == code

    @pytest.mark.parametrize("args", [
        ("--germ", GERMS / "x2.json", "--cmd", "bogus"),
        ("--cmd", "check"),
        ("--germ", GERMS / "x2.json", "--cmd", "check", "--seed", "abc"),
    ], ids=["unknown-cmd", "missing-germ", "non-integer-seed"])
    def test_bad_arguments(self, tmp_path, capsys, args):
        # argparse's own exit 2 read as a failed property
        assert run_cli(*args, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: jetsuff ") and "\njetsuff: error: " in err
        assert not any(tmp_path.iterdir())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: jetsuff ")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # --tol-ode inf used to exit 0 and write "Infinity" into report.json
        assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x3.json",
                       "--cmd", "trivialize", "--tol-ode", tol, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: tolerances must be finite and positive\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("via", ["--z", "germ file"])
    @pytest.mark.parametrize("z_doc", [
        {"variant": "implicit"},
        {"variant": "implicit", "tol": "abc"},
        *({"variant": "implicit", "tol": tol} for tol in (1e-8, -1e-8, float("inf"),
                                                          float("nan"))),
    ])
    def test_implicit_z_rejected(self, tmp_path, capsys, via, z_doc):
        # Z is a closed form or a point cloud; the minimizer-located
        # {nu(df) = 0} is no longer a variant
        out = tmp_path / "out"
        assert run_cli(*z_args(tmp_path, via, z_doc), "--cmd", "check",
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown ZSpec variant 'implicit'; use analytic or samples\n"
        assert not out.exists()  # --out is made by the first output file

    @pytest.mark.parametrize("via", ["--z", "germ file"])
    @pytest.mark.parametrize("points, entry", [
        ([[False, False], [False, True]], "False"),  # ran as {(0, 0), (0, 1)}: holds
        ([["0", "0"], ["0", "0.5"]], "'0'"),  # read as numbers
        ([[0.0, 0.0], [None, 1.0]], "None"),
    ])
    def test_cloud_entries_must_be_json_numbers(self, tmp_path, capsys, via, points,
                                                entry):
        z_doc = {"variant": "samples", "points": points}
        assert run_cli(*z_args(tmp_path, via, z_doc), "--cmd", "check",
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: sample cloud points must be numbers, got {entry}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("exponents", [2.5, 0], "exponents must be integers, got 2.5"),
        ("k", "2", "n, m and k must be integers, got '2'"),
        ("coeff", False, "non-string coefficients must be numbers, got False"),
    ])
    def test_germ_fields_must_be_json_integers(self, tmp_path, capsys, field, value,
                                               message):
        # "exponents": [2.5, 0] used to run as x1^2 and exit 0 with C_hat 2.0
        germ = json.loads((GERMS / "x2.json").read_text())
        if field == "k":
            germ[field] = value
        else:
            germ["components"][0][0][field] = value
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(germ))
        assert run_cli("--germ", path, "--cmd", "check", "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: malformed germ document: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("coords", [[1.5], [True]])
    def test_non_integer_z_coords(self, tmp_path, capsys, coords):
        # [1.5] used to end in a numpy TypeError traceback; [true] ran as x1
        z = tmp_path / "z.json"
        z.write_text(json.dumps({"variant": "analytic", "form": "subspace",
                                 "coords": coords}))
        assert run_cli("--germ", GERMS / "x2.json", "--z", z, "--cmd", "check",
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: coordinates must be integers")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("via", ["--z", "germ file"])
    @pytest.mark.parametrize("z_doc, message", [
        ({"variant": "analytic", "form": "subspace", "coords": "1"}, "not supported"),
        ({"variant": "analytic", "form": "subspace"}, "'coords'"),
        ([0.0], "not a JSON object"),
    ])
    def test_malformed_z_document(self, tmp_path, capsys, via, z_doc, message):
        # all but the missing key used to end in a traceback
        assert run_cli(*z_args(tmp_path, via, z_doc), "--cmd", "check",
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: malformed Z document: ")
        assert message in err

    @pytest.mark.parametrize("flag", ["--z", "--seq"])
    def test_bad_json_names_the_file(self, tmp_path, capsys, flag):
        # used to print "error: Expecting value: line 1 column 1 (char 0)"
        bad = tmp_path / "bad.json"
        bad.write_text("\n{not json")
        out = tmp_path / "out"
        assert run_cli("--germ", GERMS / "x2.json", flag, bad, "--cmd",
                       "construct" if flag == "--seq" else "check", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: invalid JSON at line 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{"pts": [[0.1, 0.1]]}, [[0.1, 0.1]], "points"])
    def test_sequence_document_without_points(self, tmp_path, capsys, doc):
        # a missing "points" key used to print "error: 'points'"
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        assert run_cli("--germ", GERMS / "x2y2.json", "--cmd", "construct",
                       "--seq", seq, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == "error: --seq points must be a list of coordinate lists\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("coeff", 10 ** 400, "coefficient beyond the float range"),
        ("coeff", f"{10 ** 400}/3", "coefficient beyond the float range"),
        ("coeff", "1e400", "coefficient beyond the float range"),
        ("coeff", "1/0", "coefficient beyond the float range"),
        ("exponents", [2 ** 63, 0], f"bad exponent tuple ({2 ** 63}, 0) for n=2"),
        # JSON's NaN and Infinity: the exact jet check has no Fraction for them
        ("coeff", float("nan"), "coefficients must be finite, got nan"),
        ("coeff", float("-inf"), "coefficients must be finite, got -inf"),
    ])
    def test_germ_numbers_beyond_range(self, tmp_path, capsys, field, value, message):
        # each used to end in an OverflowError (ZeroDivisionError) traceback
        germ = json.loads((GERMS / "x2.json").read_text())
        germ["components"][0][0][field] = value
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(germ))
        out = tmp_path / "out"
        assert run_cli("--germ", path, "--cmd", "check", "--out", out) == 1
        assert capsys.readouterr().err == f"error: malformed germ document: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("via", ["--z", "germ file", "--seq"])
    def test_json_coordinates_beyond_float_range(self, tmp_path, capsys, via):
        # 10^400 used to end in "OverflowError: int too large to convert to float"
        points = [[0, 0], [10 ** 400, 1]]
        if via == "--seq":
            seq = tmp_path / "seq.json"
            seq.write_text(json.dumps({"points": points}))
            args, what = ["--germ", GERMS / "x2y2.json", "--seq", seq], "--seq points"
        else:
            z_doc = {"variant": "samples", "points": points}
            args, what = z_args(tmp_path, via, z_doc), "sample cloud points"
        out = tmp_path / "out"
        assert run_cli(*args, "--cmd", "construct" if via == "--seq" else "check",
                       "--out", out) == 1
        assert capsys.readouterr().err == f"error: {what} must lie in the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["check", "trivialize", "construct"])
    def test_k_whose_dist_power_underflows(self, tmp_path, capsys, cmd):
        # dist^399 is 0.0 on the inner annuli of x2: check exited 0 with
        # "Infinity" in report.json and a RuntimeWarning on stderr, and the
        # violation search of construct started Nelder-Mead from inf minima
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x3.json",
                           "--k", 400, "--cmd", cmd, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: k=400: ")
        assert "radius 0.125 is not finite" in err
        assert not out.exists()

    def test_annulus_inside_the_dist_floor(self, tmp_path, capsys):
        # the 30th annulus has radius 2^-30 < DIST_FLOOR, so no row is off Z
        out = tmp_path / "out"
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "check", "--annuli", 60,
                       "--out", out) == 1
        assert (capsys.readouterr().err
                == "error: all samples at radius 9.313225746154785e-10 fell into Z\n")
        assert not out.exists()

    def test_corollary_without_a_regular_sample(self, tmp_path, capsys):
        # f = 0 has nu(df) = 0 everywhere: corollary exited 0 with "C": Infinity
        germ = json.loads((GERMS / "x2.json").read_text())
        germ["components"][0][0]["coeff"] = "0"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(germ))
        out = tmp_path / "out"
        assert run_cli("--germ", path, "--pair", path, "--cmd", "corollary",
                       "--out", out) == 1
        assert (capsys.readouterr().err
                == "error: every sample fell into Z or where nu(df) vanishes\n")
        assert not out.exists()

    def test_report_json_is_strict(self, tmp_path):
        with pytest.raises(ValueError, match="Out of range float"):
            write_json(tmp_path / "out" / "report.json", {"C": float("inf")})
        assert not (tmp_path / "out").exists()

    def test_internal_key_error_is_not_bad_input(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(lojasiewicz, "estimate_condition", broken)
        with pytest.raises(KeyError, match="internal"):
            run_cli("--germ", GERMS / "x2.json", "--cmd", "check", "--out", tmp_path)

    def test_germ_without_components(self, tmp_path, capsys):
        # m = 0 used to end in "ValueError: cannot reshape array of size 0"
        germ = tmp_path / "m0.json"
        germ.write_text(json.dumps({"n": 1, "m": 0, "k": 2, "components": [], "z": {
            "variant": "analytic", "form": "subspace", "coords": [1]}}))
        out = tmp_path / "out"
        assert run_cli("--germ", germ, "--cmd", "check", "--out", out) == 1
        assert capsys.readouterr().err == "error: need 1 <= m <= n, got m=0, n=1\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["check", "exponent", "trivialize", "corollary",
                                     "construct"])
    def test_negative_seed(self, tmp_path, capsys, cmd):
        assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x3.json",
                       "--cmd", cmd, "--seed", -1, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"

    @pytest.mark.parametrize("error", [CoveringViolationError, DomainExitError])
    def test_runtime_violation(self, tmp_path, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("no active minor")
        monkeypatch.setattr(lojasiewicz, "estimate_condition", fail)
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "check",
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no active minor" in err

    def test_field_bound_violation(self, tmp_path, monkeypatch, capsys):
        tiny = trivializer.TrivializationConstants(
            C=2.0, C_prime=1.0, C_dprime=1e-3, U_radius=0.2, r0=0.2 * np.exp(-1e-3))
        monkeypatch.setattr(trivializer, "calibrate_constants",
                            lambda *args, **kwargs: tiny)
        assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x3.json",
                       "--cmd", "trivialize", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "field bound violated" in err

    def test_minor_identity_error(self, tmp_path, monkeypatch, capsys):
        # every maximal minor nonzero with all its subminors zero
        def broken(a):
            batch = a.shape[:-2]
            return None, np.ones((*batch, 1)), np.zeros((*batch, 1)), None
        monkeypatch.setattr(linmap, "minor_table", broken)
        assert run_cli("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x3.json",
                       "--cmd", "trivialize", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == "error: nonzero minor with vanishing subminors\n"

    @pytest.mark.parametrize("points, message", [
        ([[0.1, float("nan")], [0.01, 0.01], [0.001, 0.001]], "finite"),
        ([[0.1, 0.1], [False, 0.01]], "--seq points must be numbers, got False"),
        ([["0.1", "0.1"], [0.01, 0.01]], "--seq points must be numbers, got '0.1'"),
        ([[0.1, 0.0], [0.01, 0.01], [0.001, 0.001]], "lies on Z"),
        ([[0.1, 0.1], [0.01]], "coordinate lists"),
        ([0.1, 0.1], "shape"),
        (OUTSIDE_BALL[0], "--seq point [2.0, 0.5] lies outside the unit ball"),
        (OUTSIDE_BALL[1], "--seq point [1e+100, 1e+100] lies outside the unit ball"),
        ([[0.5, 0.5], [1e200, 1e200], [0.1, 0.1]],
         "--seq point [1e+200, 1e+200] lies outside the unit ball"),
    ])
    def test_bad_sequence_file(self, tmp_path, capsys, points, message):
        assert_bad_sequence(tmp_path, capsys, "x2y2", points, message)

    @pytest.mark.parametrize("germ", ["x3", "x4"])
    @pytest.mark.parametrize("points", OUTSIDE_BALL)
    def test_sequence_outside_the_unit_ball(self, tmp_path, capsys, germ, points):
        # x3 used to certify both (exit 0) and x4 the first; x4 ended the
        # second in a ValueError traceback (NaN in report.json)
        point = [float(v) for v in points[0]]
        assert_bad_sequence(tmp_path, capsys, germ, points,
                            f"--seq point {point} lies outside the unit ball")


def assert_bad_sequence(tmp_path, capsys, germ, points, message):
    """construct with ``points`` as --seq exits 1 with one error line that
    says ``message``, and no RuntimeWarning."""
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"points": points}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("--germ", GERMS / f"{germ}.json", "--cmd", "construct",
                       "--seq", seq, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def _strip_timestamp(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    return json.dumps(doc, sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("--cmd", "check"),
        ("--cmd", "exponent"),
    ])
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path, args):
        # identical invocations, same output directory
        assert run_cli("--germ", GERMS / "x2.json", *args, "--seed", 7,
                       "--out", tmp_path) in (0, 2)
        first = _strip_timestamp(tmp_path / "report.json")
        assert run_cli("--germ", GERMS / "x2.json", *args, "--seed", 7,
                       "--out", tmp_path) in (0, 2)
        assert first == _strip_timestamp(tmp_path / "report.json")

    def test_csv_identical(self, tmp_path):
        for d in ("r1", "r2"):
            run_cli("--germ", GERMS / "x3.json", "--cmd", "check", "--seed", 3,
                    "--out", tmp_path / d)
        assert ((tmp_path / "r1" / "annuli.csv").read_bytes()
                == (tmp_path / "r2" / "annuli.csv").read_bytes())

    @pytest.mark.parametrize("args", [
        ("--germ", GERMS / "x2.json", "--cmd", "check"),
        ("--germ", GERMS / "x2.json", "--cmd", "exponent"),
        ("--germ", GERMS / "x2.json", "--pair", GERMS / "x2_plus_x4.json",
         "--cmd", "corollary"),
        ("--germ", GERMS / "x2y2.json", "--cmd", "construct",
         "--seq", GERMS / "x2y2_diagonal_seq.json"),
    ], ids=lambda a: a[a.index("--cmd") + 1])
    def test_report_independent_of_out_dir(self, tmp_path, args):
        # r9/c0 and r10/c0 differ in length, as the benchmark's rounds do
        reports = []
        for d in ("r9", "r10"):
            out = tmp_path / d / "c0"
            assert run_cli(*args, "--seed", 1, "--out", out) in (0, 2)
            reports.append(re.sub(rb'"timestamp": "[^"]*"', b"",
                                  (out / "report.json").read_bytes()))
        assert reports[0] == reports[1]

    def test_report_carries_provenance(self, tmp_path):
        run_cli("--germ", GERMS / "x2.json", "--cmd", "check", "--out", tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config_hash"]
        assert doc["version"]


def readme_cli_lines():
    """The ``jetsuff`` lines of the README's CLI block, split into words."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("jetsuff ")]


def test_readme_has_every_command():
    cmds = {argv[argv.index("--cmd") + 1] for argv in readme_cli_lines()}
    assert cmds == {"check", "exponent", "trivialize", "corollary", "construct"}


def test_readme_names_every_script():
    # a script deleted without its README line, or added without one, fails here
    block = (ROOT / "README.md").read_text().split("## Scripts", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    named = {word for line in block.splitlines() for word in shlex.split(line, comments=True)
             if word.startswith("scripts/")}
    assert named == {f"scripts/{p.name}" for p in (ROOT / "scripts").iterdir() if p.is_file()}


def test_readme_survey_script_runs(tmp_path):
    # the README's Scripts line, with a smaller sample count
    proc = subprocess.run(
        [sys.executable, "scripts/run_condition_survey.py", "--out", str(tmp_path),
         "--samples", "256"], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["germ", "verdict", "C_hat", "exponent"]
    assert [row.split()[0] for row in rows] == ["x2", "x3", "sum_of_squares", "x2y2"]
    assert all(len(row.split()) == 4 for row in rows)


def readme_ids(lines):
    """Each line's ``--cmd``; a command's later lines add their germ's stem."""
    ids, seen = [], set()
    for argv in lines:
        cmd = argv[argv.index("--cmd") + 1]
        stem = Path(argv[argv.index("--germ") + 1]).stem
        ids.append(f"{cmd}-{stem}" if cmd in seen else cmd)
        seen.add(cmd)
    return ids


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=readme_ids(readme_cli_lines()))
def test_readme_cli_example_runs(tmp_path, monkeypatch, argv):
    # as written, from the repository root, with the output under tmp_path
    monkeypatch.chdir(ROOT)
    args = argv[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / args[out])
    assert main(args) in (0, 2)
    assert (tmp_path / argv[out + 1] / "report.json").exists()
