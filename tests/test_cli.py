import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from jetsuff import linmap, lojasiewicz, trivializer
from jetsuff.cli import main
from jetsuff.errors import CoveringViolationError, DomainExitError

GERMS = Path(__file__).resolve().parent.parent / "germs"


def run_cli(*args):
    return main([str(a) for a in args])


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

    def test_malformed_germ_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("--germ", bad, "--cmd", "check", "--out", tmp_path) == 1

    def test_missing_pair(self, tmp_path):
        assert run_cli("--germ", GERMS / "x2.json", "--cmd", "corollary",
                       "--out", tmp_path) == 1


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
        ([[0.1, 0.0], [0.01, 0.01], [0.001, 0.001]], "lies on Z"),
        ([[0.1, 0.1], [0.01]], "coordinate lists"),
        ([0.1, 0.1], "shape"),
    ])
    def test_bad_sequence_file(self, tmp_path, capsys, points, message):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"points": points}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("--germ", GERMS / "x2y2.json", "--cmd", "construct",
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

    def test_report_carries_provenance(self, tmp_path):
        run_cli("--germ", GERMS / "x2.json", "--cmd", "check", "--out", tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config_hash"]
        assert doc["version"]
