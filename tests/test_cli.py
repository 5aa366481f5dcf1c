"""Command line interface: exit codes, file outputs, determinism.

Everything drives cli.main(argv) in-process so coverage tools see it;
outputs land in tmp_path.
"""

import json
import os

import numpy as np
import pytest

from dirac_thermo import cli
from dirac_thermo.errors import TemperatureSignError


def write_cfg(tmp_path, name="cfg.json", **raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_csv_columns(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = [line.split(",") for line in lines[1:]]
    return header, {h: [row[i] for row in data] for i, h in enumerate(header)}


class TestRun:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, t_end=0.2, h=1e-3, out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 0
        csv_path = tmp_path / "out" / "trajectory.csv"
        header, cols = read_csv_columns(csv_path)
        assert header == ["t", "q0", "S", "v0", "p0", "E", "Sdot",
                          "constraint_residual", "dirac_residual"]
        assert len(cols["t"]) == 201
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["model"] == "piston"
        assert summary["formulation"] == "lagrangian"
        assert summary["completed"] is True
        assert summary["stored_states"] == 201
        assert summary["csv_rows"] == 201
        assert summary["max_dirac_residual"] <= 1e-9
        # stdout carries the same summary
        assert json.loads(capsys.readouterr().out)["model"] == "piston"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = write_cfg(tmp_path, name=f"{sub}.json", t_end=0.2, h=1e-3,
                            out=str(tmp_path / sub))
            assert cli.main(["run", "--config", cfg]) == 0
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_frictionless_run_freezes_entropy(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            model={"kind": "piston", "params": {"lam": 0.0}},
            t_end=0.2, h=1e-3, out=str(tmp_path / "out"),
        )
        assert cli.main(["run", "--config", cfg]) == 0
        _, cols = read_csv_columns(tmp_path / "out" / "trajectory.csv")
        assert set(cols["S"]) == {"0"}

    def test_default_run_entropy_monotone(self, tmp_path):
        cfg = write_cfg(tmp_path, t_end=0.2, h=1e-3, out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 0
        _, cols = read_csv_columns(tmp_path / "out" / "trajectory.csv")
        S = np.array([float(x) for x in cols["S"]])
        assert np.min(np.diff(S)) >= 0.0

    def test_long_run_is_decimated_unless_full_resolution(self, tmp_path):
        base = dict(model={"kind": "reactions"}, t_end=2.4, h=2e-4)
        cfg = write_cfg(tmp_path, name="d.json", out=str(tmp_path / "dec"), **base)
        assert cli.main(["run", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "dec" / "summary.json").read_text())
        assert summary["stored_states"] == 12001
        assert summary["csv_rows"] == 6001  # stride 2 keeps it under the row cap
        cfg = write_cfg(tmp_path, name="f.json", out=str(tmp_path / "full"), **base)
        assert cli.main(["run", "--config", cfg, "--full-resolution"]) == 0
        summary = json.loads((tmp_path / "full" / "summary.json").read_text())
        assert summary["csv_rows"] == 12001

    def test_implicit_formulation_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, formulation="implicit-P", t_end=0.05, h=1e-3,
                        out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["completed"] is True
        assert summary["max_dirac_residual"] <= 1e-8

    def test_flag_overrides_beat_config(self, tmp_path):
        cfg = write_cfg(tmp_path, t_end=5.0, h=1e-3, out=str(tmp_path / "ignored"))
        out = tmp_path / "flag"
        code = cli.main(["run", "--config", cfg, "--t-end", "0.1",
                         "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == 0.1
        assert summary["stored_states"] == 101


class TestCheck:
    def test_piston_all_suites_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, t_end=0.3, h=1e-3)
        assert cli.main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        for suite in ("isotropy", "gradient", "legendre-roundtrip",
                      "entropy-production", "cross-formulation",
                      "action-variation"):
            assert f"{suite}: OK" in out
        assert "FAIL" not in out

    def test_membrane_all_suites_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "membrane"}, t_end=0.3, h=1e-3)
        assert cli.main(["check", "--config", cfg]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_degenerate_model_skips_momentum_suites(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "reactions"}, t_end=0.3, h=1e-3)
        assert cli.main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "legendre-roundtrip: skipped: degenerate Lagrangian" in out
        assert "cross-formulation: skipped: degenerate Lagrangian" in out
        assert out.count("OK") == 4


class TestCompareAndIsotropy:
    def test_compare_piston(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, t_end=0.2, h=1e-3)
        assert cli.main(["compare", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "routes: lagrangian, hamilton-dirac-N" in out
        dev = float(out.split("max ")[1].split(",")[0])
        assert dev <= 1e-9

    def test_compare_reactions_reports_gate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "reactions"}, t_end=0.2, h=1e-3)
        assert cli.main(["compare", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "unavailable" in out
        assert "velocity-independent" in out

    def test_isotropy_lists_all_arenas(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli.main(["isotropy", "--config", cfg]) == 0
        out = capsys.readouterr().out
        for arena in ("P:", "TstarQ:", "M:", "N:"):
            assert arena in out
        assert out.count("[OK]") == 4

    def test_isotropy_degenerate_gates_momentum_arenas(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "reactions"})
        assert cli.main(["isotropy", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("[OK]") == 2
        assert "skipped (degenerate Lagrangian" in out

    def test_seed_env_is_honored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "7")
        cfg = write_cfg(tmp_path)
        assert cli.main(["isotropy", "--config", cfg]) == 0
        assert capsys.readouterr().out.count("[OK]") == 4


class TestErrorExits:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, run={"t_end": 0.5})
        assert cli.main(["run", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["run", "--config", missing]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_nonpositive_t_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli.main(["run", "--config", cfg, "--t-end", "-1"]) == 2
        assert "t_end must be positive" in capsys.readouterr().err

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tolerances={"bogus": 1.0})
        assert cli.main(["check", "--config", cfg]) == 2
        assert "unknown tolerance keys" in capsys.readouterr().err

    def test_invalid_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "not-an-int")
        cfg = write_cfg(tmp_path)
        assert cli.main(["check", "--config", cfg]) == 2
        assert cli.SEED_ENV in capsys.readouterr().err

    def test_bad_initial_shape(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, initial={"q": [1.0, 2.0], "S": 0.0},
                        t_end=0.1, out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 2
        assert "bad initial state" in capsys.readouterr().err

    def test_negative_friction_parameter(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "piston", "params": {"lam": -1.0}})
        assert cli.main(["run", "--config", cfg]) == 3
        assert "model build error" in capsys.readouterr().err

    def test_momentum_route_rejected_for_degenerate_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "reactions"},
                        formulation="hamilton-dirac-N", t_end=0.1,
                        out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "formulation unavailable" in err
        assert "velocity-independent" in err

    def test_domain_error_mid_run_is_an_integration_failure(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, model):
            raise TemperatureSignError("temperature went negative")

        monkeypatch.setattr(cli, "_run_trajectory", fail)
        cfg = write_cfg(tmp_path, t_end=0.1, out=str(tmp_path / "out"))
        assert cli.main(["run", "--config", cfg]) == 4
        assert "integration failed" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"kind": "turbine"})
        assert cli.main(["run", "--config", cfg]) == 2
        assert "unknown model kind" in capsys.readouterr().err
