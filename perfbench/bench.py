"""Benchmark worker: one process per workload.

``run.py`` starts this file in a fresh interpreter, once per set-up
sample (``setup``) and once for the measurement (``measure``). The
worker builds the workload's operations from the seed, drives the
dirac-thermo CLI verbs in-process, checks every output, and prints one
JSON line.

``record`` rewrites ``digests.json``, the trajectory CSV digests that
later runs compare against. Run it only when a change to the CSV output
is intended and justified (it records seeds ``DIGEST_SEEDS``):

    PYTHONPATH=src python3 perfbench/bench.py record
"""

import time

PROCESS_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path

from tracing import IntegrationTimer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

# Bounds stated by tests/test_acceptance.py.
ENTROPY_STEP_FLOOR = -1e-12
ROUTE_DEVIATION_MAX = 1e-6
ISOTROPY_MAX = 1e-10
BATTERY_SOLUTION_MAX = 1e-6
BATTERY_REJECTION_MIN = 1e-3

SUMMARY_KEYS = ("energy_drift", "min_entropy_step", "max_constraint_residual", "max_dirac_residual")
EXIT_BUILD = 3
EXIT_INTEGRATION = 4

# 10 200 RK4 steps: above the CLI's 10 000-row cap, so the CSV is decimated.
MEMBRANE_T_END = 10.2
ROUTES_T_END = 0.4
# routes draws one state per fifth of each model's entropy range. The
# reactions implicit-P failure depends on the state (it fails for
# S >= 4 on the default box), so stratifying makes its failure count
# the same on every seed instead of hiding it on some.
ROUTES_STRATA = 5
# record writes the CSV digests of these seeds.
DIGEST_SEEDS = range(24)
# Traced rounds stop once this many spans are held (24 bytes each).
SPAN_CAP = 3_000_000


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI verb (or the battery API call) on one model and state."""

    verb: str
    kind: str
    initial: dict
    formulation: str = "lagrangian"
    t_end: float = 1.0
    h: float = 1e-3
    full_resolution: bool = False
    expect_exit: int = 0
    # a documented defect: exit 4 (integration failed) counts as failed
    # but not as incorrect; any other failure of any op is incorrect
    known_failure: bool = False

    @property
    def label(self) -> str:
        if self.verb == "run":
            return f"run:{self.kind}:{self.formulation}"
        return f"{self.verb}:{self.kind}"

    def config(self, out_dir: Path) -> dict:
        return {
            "model": {"kind": self.kind},
            "formulation": self.formulation,
            "t_end": self.t_end,
            "h": self.h,
            "initial": self.initial,
            "out": str(out_dir),
        }

    def argv(self, config_path: Path) -> list:
        flags = ["--full-resolution"] if self.full_resolution else []
        return [self.verb, "--config", str(config_path), *flags]


def draw_initial(model, rng, stratum=None) -> dict:
    """A state from the model's domain box; ``stratum`` = (k, count)
    restricts the entropy to the k-th of ``count`` equal slices."""
    box = model.domain_box
    if stratum is not None:
        k, count = stratum
        width = (box.s_hi - box.s_lo) / count
        box = dataclasses.replace(
            box, s_lo=box.s_lo + k * width, s_hi=box.s_lo + (k + 1) * width
        )
    q, v, S = box.sample(rng)
    initial = {"q": [float(x) for x in q], "S": float(S)}
    if not model.degenerate:
        initial["v"] = [float(x) for x in v]
    return initial


def membrane_rk4_ops(dt, rng) -> list:
    start = draw_initial(dt.build_membrane(), rng)
    return [
        Op("run", "membrane", start, formulation, t_end=MEMBRANE_T_END)
        for formulation in ("lagrangian", "hamilton-dirac-N")
    ]


def routes_ops(dt, rng) -> list:
    models = {kind: getattr(dt, f"build_{kind}")() for kind in ("piston", "reactions", "membrane")}
    ops = []
    for k in range(ROUTES_STRATA):
        start = {kind: draw_initial(m, rng, (k, ROUTES_STRATA)) for kind, m in models.items()}
        full = dict(t_end=ROUTES_T_END, full_resolution=True)
        for formulation in ("lagrangian", "hamilton-dirac-N", "implicit-P"):
            ops.append(Op("run", "piston", start["piston"], formulation, **full))
        ops.append(Op("run", "reactions", start["reactions"], "lagrangian", **full))
        # known failure in the top stratum only: exits 4 for S >= 4
        ops.append(Op("run", "reactions", start["reactions"], "implicit-P",
                      known_failure=k == ROUTES_STRATA - 1, **full))
        ops.append(Op("run", "reactions", start["reactions"], "hamilton-dirac-N",
                      expect_exit=EXIT_BUILD, **full))
        # known failure: exits 4 at the CLI default h=1e-3 (fixed
        # finite-difference Jacobian); counted as failed, never dropped
        ops.append(Op("run", "membrane", start["membrane"], "implicit-P",
                      known_failure=True, **full))
    return ops


def verify_ops(dt, rng) -> list:
    ops = []
    for kind in ("piston", "membrane", "reactions"):
        start = draw_initial(getattr(dt, f"build_{kind}")(), rng)
        ops += [Op(verb, kind, start) for verb in ("check", "compare", "isotropy", "battery")]
    return ops


WORKLOADS = {"membrane-rk4": membrane_rk4_ops, "routes": routes_ops, "verify": verify_ops}


# --- set-up --------------------------------------------------------------


@dataclasses.dataclass
class Prepared:
    ops: list
    dirs: list
    cli: object
    verify: object


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Import, write and load every op's config, build its model and
    gate the Hamiltonian picture where an op will need it."""
    import numpy as np
    import scipy.linalg

    import dirac_thermo as dt
    from dirac_thermo import cli, verify

    source = Path(dt.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"dirac_thermo imported from {source}, not from {ROOT / 'src'}")
    ops = WORKLOADS[workload](dt, np.random.default_rng(seed))
    dirs, gated = [], set()
    for i, op in enumerate(ops):
        out_dir = workdir / f"op{i:02d}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(json.dumps(op.config(out_dir)))
        model = cli.build_model(cli.load_config(str(out_dir / "config.json")))
        needs_gate = op.formulation == "hamilton-dirac-N" or op.verb != "run"
        if needs_gate and not model.degenerate and op.kind not in gated:
            dt.build_hamiltonian_model(model)
            gated.add(op.kind)
        dirs.append(out_dir)
    # first-use costs of the linear algebra the ops rely on
    np.linalg.solve(np.eye(2), np.ones(2))
    scipy.linalg.null_space(np.ones((1, 2)))
    return Prepared(ops=ops, dirs=dirs, cli=cli, verify=verify)


# --- one op: run and check -----------------------------------------------


@dataclasses.dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "failed" (a known failure) or "incorrect" (any other fault)
    detail: str = ""
    digest: str = ""
    csv_bytes: int = 0
    integration_s: float = 0.0  # inside integrate_explicit/integrate_implicit_P
    steps: int = 0


def _floats(pattern: str, text: str) -> list:
    return [float(x) for x in re.findall(pattern, text)]


def _check_run(op: Op, out_dir: Path) -> Outcome:
    summary = json.loads((out_dir / "summary.json").read_text())
    values = [summary[key] for key in SUMMARY_KEYS]
    csv = (out_dir / "trajectory.csv").read_bytes()
    digest = hashlib.sha256(csv).hexdigest()
    rows = csv.count(b"\n") - 1
    if not summary["completed"] or not all(math.isfinite(v) for v in values):
        return Outcome(0.0, "incorrect", "non-finite or incomplete summary", digest, len(csv))
    if summary["min_entropy_step"] < ENTROPY_STEP_FLOOR:
        return Outcome(0.0, "incorrect", f"entropy step {summary['min_entropy_step']:.3e}",
                       digest, len(csv))
    if rows != summary["csv_rows"]:
        return Outcome(0.0, "incorrect", f"csv has {rows} rows, summary says "
                       f"{summary['csv_rows']}", digest, len(csv))
    return Outcome(0.0, "ok", "", digest, len(csv))


def _check_text(op: Op, text: str) -> Outcome:
    if op.verb == "compare":
        devs = _floats(r" vs \S+: max (\S+),", text)
        if op.kind != "reactions" and not devs:
            return Outcome(0.0, "incorrect", "no route deviation reported")
        bad = [d for d in devs if not d <= ROUTE_DEVIATION_MAX]
        return Outcome(0.0, "incorrect", f"route deviation {bad}") if bad else Outcome(0.0, "ok")
    if op.verb == "isotropy":
        defects = _floats(r"isotropy defect (\S+) \[OK\]", text)
        if len(defects) != text.count("isotropy defect") or not defects:
            return Outcome(0.0, "incorrect", "isotropy report incomplete or failing")
        bad = [d for d in defects if not d <= ISOTROPY_MAX]
        return Outcome(0.0, "incorrect", f"isotropy defect {bad}") if bad else Outcome(0.0, "ok")
    if "FAIL" in text:
        return Outcome(0.0, "incorrect", "a check suite failed")
    return Outcome(0.0, "ok")


def execute(prep: Prepared, i: int) -> Outcome:
    """Run op ``i`` in-process, timing only the library call, then
    check its exit code and outputs."""
    op, out_dir = prep.ops[i], prep.dirs[i]
    config_path = out_dir / "config.json"
    for stale in ("trajectory.csv", "summary.json"):
        with contextlib.suppress(FileNotFoundError):
            (out_dir / stale).unlink()
    text, battery, code, error = io.StringIO(), None, None, ""
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = time.perf_counter()
        try:
            if op.verb == "battery":
                cfg = prep.cli.load_config(str(config_path))
                model = prep.cli.build_model(cfg)
                battery = prep.verify.formulation_equivalence_battery(model, cfg.initial)
                code = 0
            else:
                code = prep.cli.main(op.argv(config_path))
        except Exception as exc:  # any escape from the library is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if code is None:
        return Outcome(seconds, "incorrect", error)
    if code != op.expect_exit:
        known = op.known_failure and code == EXIT_INTEGRATION
        return Outcome(seconds, "failed" if known else "incorrect",
                       f"exit {code}: {err.getvalue().strip()[:200]}")
    if op.expect_exit != 0:
        outcome = Outcome(0.0, "ok")
    elif op.verb == "run":
        outcome = _check_run(op, out_dir)
    elif op.verb == "battery":
        worst, weakest = battery.worst_solution_residual(), battery.weakest_rejection()
        ok = worst <= BATTERY_SOLUTION_MAX and weakest >= BATTERY_REJECTION_MIN
        outcome = Outcome(0.0, "ok" if ok else "incorrect",
                          "" if ok else f"battery {worst:.3e}/{weakest:.3e}")
    else:
        outcome = _check_text(op, text.getvalue())
    outcome.seconds = seconds
    return outcome


# --- rounds ----------------------------------------------------------------


@dataclasses.dataclass
class Round:
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def csv_bytes(self) -> int:
        return sum(o.csv_bytes for o in self.outcomes)


def run_round(prep: Prepared, timer=None) -> Round:
    """Every op of the workload once, in order."""
    outcomes = []
    for i, op in enumerate(prep.ops):
        if timer is not None:
            timer.label = op.label
            before = (timer.seconds[op.label], timer.steps[op.label])
        outcome = execute(prep, i)
        if timer is not None:
            outcome.integration_s = timer.seconds[op.label] - before[0]
            outcome.steps = timer.steps[op.label] - before[1]
        outcomes.append(outcome)
    return Round(outcomes)


def op_medians(rounds: list, attr: str) -> float:
    """Sum over ops of each op's median across rounds: a median round
    that a noise burst in one op of one round does not move."""
    per_op = zip(*[[getattr(o, attr) for o in r.outcomes] for r in rounds])
    return sum(statistics.median(values) for values in per_op)


def quartile_spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tally(ops: list, rounds: list, workload: str, seed: int) -> dict:
    """Attempts, failures and CSV digest comparisons over all rounds."""
    outcomes = [o for r in rounds for o in r.outcomes]
    failed = [o for o in outcomes if o.status != "ok"]
    labels = [op.label for op in ops] * len(rounds)
    by_label = Counter(f"{label} ({o.status})" for label, o in zip(labels, outcomes) if o.status != "ok")
    first = [o.digest for o in rounds[0].outcomes]
    unstable = sum(
        1 for r in rounds[1:] for o, d in zip(r.outcomes, first) if o.digest != d
    )
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    changes = sum(1 for a, b in zip(first, recorded) if a != b) if recorded else 0
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "incorrect": sum(1 for o in outcomes if o.status == "incorrect") + unstable,
        "failures": dict(sorted(by_label.items())),
        "failure_details": sorted({o.detail for o in failed}),
        "csv_digest_changes": changes,
        "digests_checked": len(recorded) if recorded else 0,
    }


def metric(value, unit, samples, spread=None) -> dict:
    out = {"value": value, "unit": unit, "samples": samples}
    if spread is not None:
        out["spread"] = spread
    return out


def measure_plain(prep: Prepared, seconds: float) -> tuple:
    timer = IntegrationTimer()
    rounds = []
    start = time.perf_counter()
    with timer.installed():
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(prep, timer))
    walls = [r.wall for r in rounds]
    speeds = [sum(o.steps for o in r.outcomes) / sum(o.integration_s for o in r.outcomes)
              for r in rounds]
    steps = op_medians(rounds, "steps")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": metric(op_medians(rounds, "seconds"), "s", len(walls), quartile_spread(walls)),
        "steps_per_s": metric(steps / op_medians(rounds, "integration_s"), "1/s", len(speeds),
                              quartile_spread(speeds)),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB", 1),
    }
    per_10k = {
        label: timer.seconds[label] / timer.steps[label] * 1e4
        for label in sorted(timer.steps)
        if timer.steps[label]
    }
    return rounds, metrics, {"integration_s_per_10k_steps": per_10k}


def measure_traced(prep: Prepared, seconds: float, workload: str) -> tuple:
    """Alternate untraced and traced rounds; per-layer numbers come from
    the traced ones, tracing overhead from the difference."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds and len(tracer) < SPAN_CAP):
        with IntegrationTimer().installed():  # as in measure_plain, for a like-for-like wall
            plain.append(run_round(prep))
        with tracer.installed():
            traced.append(run_round(prep))
    walls = [r.wall for r in traced]
    metrics = {
        name: metric(value, unit, samples)
        for name, (value, unit, samples) in tracer.summary(walls, [r.csv_bytes for r in traced]).items()
    }
    untraced = op_medians(plain, "seconds")
    metrics["trace.overhead_pct"] = metric(
        (op_medians(traced, "seconds") / untraced - 1.0) * 100.0, "%", len(walls)
    )
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    tracer.save(spans)
    return plain + traced, metrics, {"spans_file": str(spans.relative_to(ROOT))}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _workdir(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "record":
        return record()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = _workdir(args.mode)
    try:
        prep = prepare(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - PROCESS_START
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            rounds, metrics, extra = measure_traced(prep, args.seconds, args.workload)
        else:
            rounds, metrics, extra = measure_plain(prep, args.seconds)
        counts = tally(prep.ops, rounds, args.workload, args.seed)
        metrics["error_rate"] = metric(counts["failed"] / counts["attempted"], "ratio",
                                       counts["attempted"])
        metrics["csv_digest_changes"] = metric(counts["csv_digest_changes"], "count",
                                               counts["digests_checked"])
        print(json.dumps({
            "metrics": metrics,
            "counts": counts,
            "rounds": len(rounds),
            "setup_s": setup_s,
            "environment": environment(),
            **extra,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record() -> int:
    """Write the CSV digests of one round per workload and seed."""
    table = {}
    for workload in sorted(WORKLOADS):
        for seed in DIGEST_SEEDS:
            workdir = _workdir("record")
            try:
                prep = prepare(workload, seed, workdir)
                if not any(op.verb == "run" for op in prep.ops):
                    break
                rnd = run_round(prep)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.setdefault(workload, {})[str(seed)] = [o.digest for o in rnd.outcomes]
            print(workload, seed, file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
