"""dirac-thermo benchmark entry point.

    python3 perfbench/run.py --workload {membrane-rk4,routes,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. Each set-up sample and the measurement run in fresh worker
processes (``bench.py``) with BLAS/OpenMP pinned to one thread. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it print every metric with its unit and sample count.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench.py"
WORKLOADS = ("membrane-rk4", "routes", "verify")
SETUP_SAMPLES = 9
# The invocation, workers included, must end within set-up + --seconds
# + one more (plain and traced) round: 170 s at --seconds 25.
SETUP_ALLOWANCE_S = 60.0
ROUND_ALLOWANCE_S = 85.0

END_TO_END = ("setup_s", "wall_s", "steps_per_s", "peak_rss_mb")

# ROADMAP "Recent" figures (shared 2-core machine, variance not measured).
BASELINE_10K = {
    "run:piston:lagrangian": 2.0,
    "run:membrane:lagrangian": 6.2,
    "run:piston:hamilton-dirac-N": 2.2,
    "run:piston:implicit-P": 2.3,  # 0.23 s per 1000 steps
}
BASELINE_US = {
    "dynamics.rate_us.lagrangian.piston": 35,
    "dynamics.rate_us.lagrangian.membrane": 121,
    "dynamics.diagnostics_us.lagrangian.piston": 32,
    "dynamics.diagnostics_us.lagrangian.membrane": 52,
    "dynamics.rate_us.hamilton.piston": 27,
}


def quartile_spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # imports read and write bytecode under .perfbench_out/, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_out" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["DIRAC_THERMO_SEED"] = str(seed)
    return env


def run_worker(args: list, env: dict, deadline: float) -> dict:
    """Run one worker to completion and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            # SIGTERM first, so the worker removes its working directory
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def report(result: dict, args) -> None:
    env = result["environment"]
    kind = "untraced and traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}: {result['rounds']} {kind} rounds")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    counts = result["counts"]
    print(f"ops: {counts['attempted']} attempted, {counts['failed']} failed, "
          f"{counts['incorrect']} incorrect")
    for label, count in counts["failures"].items():
        print(f"  {count:5d} x {label}")
    for detail in counts["failure_details"]:
        print(f"  failure detail: {detail}")
    for name, m in result["metrics"].items():
        spread = f", IQR/median {m['spread']:.3f}" if "spread" in m else ""
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']}{spread})")
    if "spans_file" in result:
        print(f"  spans written to {result['spans_file']}")
    for label, seconds in result.get("integration_s_per_10k_steps", {}).items():
        base = BASELINE_10K.get(label)
        note = f" (ROADMAP baseline {base} s)" if base else ""
        print(f"  baseline check: {label} {seconds:.3f} s per 10k steps{note}")
    for name, base in BASELINE_US.items():
        m = result["metrics"].get(name)
        if m and m["samples"]:
            print(f"  baseline check: {name} {m['value']:.1f} us traced "
                  f"(ROADMAP baseline {base} us, untraced)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dirac-thermo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dirac_thermo" / "__init__.py").is_file():
        print(f"no dirac_thermo sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so run_worker stops and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + args.seconds + ROUND_ALLOWANCE_S
    env = worker_env(args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            # the first sample fills the bytecode cache and is discarded
            for _ in range(SETUP_SAMPLES + 1):
                setup.append(run_worker(["setup", *common], env, deadline)["setup_s"])
            setup = setup[1:]
        result = run_worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(setup), "unit": "s", "samples": len(setup),
            "spread": quartile_spread(setup),
        }
    report(result, args)
    wanted = END_TO_END if not args.trace else [m for m in metrics if m not in END_TO_END]
    counts = result["counts"]
    print(json.dumps({
        "correct": counts["incorrect"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
