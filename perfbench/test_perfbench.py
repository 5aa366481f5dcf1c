"""Checks of the benchmark itself; not part of the library's test suite.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import bench
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def _traced(seed: int) -> dict:
    proc = _run(ROOT, "--workload", "routes", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_repeat_exactly_for_one_seed():
    first, second = _traced(3), _traced(3)
    exact = {
        name: m for name, m in first["metrics"].items()
        if m["unit"] in ("count", "bytes", "ratio")
    }
    assert "systems.lagrangian_calls_per_rate" in exact
    assert "dynamics.implicit_newton_iters_per_step" in exact
    assert exact == {name: second["metrics"][name] for name in exact}


def test_instruments_restore_the_library(tmp_path):
    def snapshot():
        return {
            (module.__name__, attr): value
            for module in tracing._library_modules()
            for attr, value in vars(module).items()
            if callable(value)
        }

    prep = bench.prepare("routes", 0, tmp_path)
    before, solve = snapshot(), np.linalg.solve
    tracer = tracing.Tracer()
    with tracer.installed():
        assert snapshot() != before
        assert bench.execute(prep, 0).status == "ok"
    with tracing.IntegrationTimer().installed():
        assert snapshot() != before
    assert snapshot() == before
    assert np.linalg.solve is solve
    assert len(tracer) > 0


def test_known_failures_count_as_failed(tmp_path):
    prep = bench.prepare("routes", 0, tmp_path)
    status = {}
    for i, op in enumerate(prep.ops[: len(prep.ops) // bench.ROUTES_STRATA]):
        status[op.label] = bench.execute(prep, i).status
    assert status["run:membrane:implicit-P"] == "failed"
    assert status["run:reactions:hamilton-dirac-N"] == "ok"  # the expected exit-3 gate
    assert status["run:piston:implicit-P"] == "ok"


def test_unexpected_failure_breaks_correctness(tmp_path, monkeypatch):
    prep = bench.prepare("routes", 0, tmp_path)

    def crash(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(prep.cli, "main", crash)
    ops = prep.ops[: len(prep.ops) // bench.ROUTES_STRATA]
    outcomes = [bench.execute(prep, i) for i in range(len(ops))]
    counts = bench.tally(ops, [bench.Round(outcomes)], "routes", 0)
    # normally passing ops and known failures alike: a crash is incorrect
    assert counts["failed"] == counts["incorrect"] == len(ops)


def test_bound_violation_marks_output_incorrect(tmp_path):
    summary = {
        "completed": True, "csv_rows": 1, "energy_drift": 0.0,
        "min_entropy_step": -1e-6, "max_constraint_residual": 0.0, "max_dirac_residual": 0.0,
    }
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "trajectory.csv").write_text("t\n0\n")
    op = bench.Op("run", "piston", {})
    assert bench._check_run(op, tmp_path).status == "incorrect"
    summary["min_entropy_step"] = 0.0
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert bench._check_run(op, tmp_path).status == "ok"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "routes", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
