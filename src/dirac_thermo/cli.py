"""Command-line front end.

Verbs:

* ``run``     integrate one model with one formulation, write a
              trajectory CSV and a diagnostics summary
* ``check``   run the invariant suites against a model configuration
* ``compare`` table of pairwise deviations between formulation routes
* ``isotropy`` induced-subspace dimension and isotropy report per arena

Configuration is a JSON file; every field has a default, and the
command-line flags override the file. Exit codes: 0 success, 1 a check
suite failed, 2 configuration problem, 3 model build problem, 4
integration failure. The environment variable DIRAC_THERMO_SEED fixes
the seed used by sampling-based checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .dirac import dirac_basis
from .duals import ScalarField, fd_check
from .dynamics import (
    Trajectory,
    hamilton_field_N,
    integrate_explicit,
    integrate_implicit_P,
    lagrangian_field,
    monitor,
    trajectory_rows,
    vector_field_lagrangian,
)
from .errors import (
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    IntegrationError,
    ModelBuildError,
    NewtonError,
)
from .legendre import (
    build_hamiltonian_model,
    embed_jL,
    generalized_energy,
    hamiltonian,
    hamiltonian_S_derivative,
    inverse_partial_legendre,
    momentum_map,
)
from .model import (
    PointN,
    SimpleThermoModel,
    arena_dim,
    arena_slots,
    make_point,
    point_from_vector,
    temperature,
)
from .systems import (
    MembraneParams,
    PistonParams,
    ReactionParams,
    build_membrane,
    build_piston,
    build_reactions,
)
from .verify import (
    action_variation_residual,
    admissible_variation,
    constraint_violating_variation,
    cross_formulation_compare,
    lagrangian_chart_initial,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "build_model",
    "cmd_check",
    "cmd_compare",
    "cmd_isotropy",
    "cmd_run",
    "load_config",
    "main",
]

SEED_ENV = "DIRAC_THERMO_SEED"
FORMULATIONS = ("lagrangian", "hamilton-dirac-N", "implicit-P")
MAX_CSV_ROWS = 10_000
ISOTROPY_SAMPLES = 20  # domain samples per arena in the isotropy report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUILD = 3
EXIT_INTEGRATION = 4

_BUILDERS = {
    "piston": (PistonParams, build_piston),
    "membrane": (MembraneParams, build_membrane),
    "reactions": (ReactionParams, build_reactions),
}

_DEFAULT_INITIAL = {
    "piston": {"q": [1.0], "v": [0.0], "S": 0.0},
    "membrane": {"q": [0.0, 0.0, 0.0], "v": [0.5, -0.3, 0.1], "S": 1.0},
    "reactions": {"q": [0.0], "S": 0.0},
}

_DEFAULT_TOLERANCES = {
    "isotropy": 1e-10,
    "gradient": 1e-6,
    "roundtrip": 1e-10,
    "temperature_match": 1e-9,
    "entropy": 1e-12,
    "cross_formulation": 1e-6,
    "action_variation": 1e-3,
}


class ConfigError(ValueError):
    """Bad configuration file or bad flag values."""


@dataclass
class RunConfig:
    kind: str = "piston"
    params: dict = field(default_factory=dict)
    formulation: str = "lagrangian"
    t_end: float = 1.0
    h: float = 1e-3
    initial: Optional[dict] = None
    out: str = "."
    tolerances: Dict[str, float] = field(default_factory=dict)
    full_resolution: bool = False
    seed: int = 0

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, _DEFAULT_TOLERANCES[key]))


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Read a JSON config file (all keys optional) and apply overrides
    from the command line. Raises ConfigError on anything malformed."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    known = {"model", "formulation", "t_end", "h", "initial", "out", "tolerances"}
    stray = set(raw) - known
    if stray:
        raise ConfigError(
            f"unknown config keys: {sorted(stray)} (expected a subset of {sorted(known)})"
        )
    model_section = raw.get("model", {})
    if not isinstance(model_section, dict):
        raise ConfigError("config key 'model' must be an object")
    stray = set(model_section) - {"kind", "params"}
    if stray:
        raise ConfigError(f"unknown model keys: {sorted(stray)}")
    cfg = RunConfig(
        kind=str(model_section.get("kind", "piston")),
        params=dict(model_section.get("params", {})),
        formulation=str(raw.get("formulation", "lagrangian")),
        t_end=float(raw.get("t_end", 1.0)),
        h=float(raw.get("h", 1e-3)),
        initial=raw.get("initial"),
        out=str(raw.get("out", ".")),
        tolerances=dict(raw.get("tolerances", {})),
    )
    overrides = overrides or {}
    for key in ("formulation", "out"):
        if overrides.get(key) is not None:
            setattr(cfg, key, overrides[key])
    for key in ("t_end", "h"):
        if overrides.get(key) is not None:
            setattr(cfg, key, float(overrides[key]))
    if overrides.get("full_resolution"):
        cfg.full_resolution = True
    try:
        cfg.seed = int(os.environ.get(SEED_ENV, "0"))
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer")

    if cfg.kind not in _BUILDERS:
        raise ConfigError(
            f"unknown model kind {cfg.kind!r} (expected one of {sorted(_BUILDERS)})"
        )
    if cfg.formulation not in FORMULATIONS:
        raise ConfigError(
            f"unknown formulation {cfg.formulation!r} (expected one of {FORMULATIONS})"
        )
    if not cfg.t_end > 0.0:
        raise ConfigError(f"t_end must be positive, got {cfg.t_end}")
    if not cfg.h > 0.0:
        raise ConfigError(f"step h must be positive, got {cfg.h}")
    if cfg.initial is None:
        cfg.initial = dict(_DEFAULT_INITIAL[cfg.kind])
    unknown = set(cfg.tolerances) - set(_DEFAULT_TOLERANCES)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    return cfg


def build_model(cfg: RunConfig) -> SimpleThermoModel:
    params_type, builder = _BUILDERS[cfg.kind]
    try:
        params = params_type(**{k: _tuplify(v) for k, v in cfg.params.items()})
    except TypeError as err:
        raise ModelBuildError(f"bad parameters for {cfg.kind}: {err}")
    return builder(params)


# --- run -------------------------------------------------------------------


def _run_trajectory(cfg: RunConfig, model: SimpleThermoModel) -> Trajectory:
    try:
        flat = lagrangian_chart_initial(model, cfg.initial)
    except (DimensionMismatchError, KeyError, TypeError) as err:
        raise ConfigError(f"bad initial state: {err}")
    n = model.n
    if cfg.formulation == "lagrangian":
        return integrate_explicit(lagrangian_field(model), flat, cfg.t_end, cfg.h)
    q0, S0 = flat[:n], float(flat[n])
    v0 = flat[n + 1 :] if flat.size > n + 1 else np.zeros(n)
    if cfg.formulation == "hamilton-dirac-N":
        hmodel = build_hamiltonian_model(model)
        p0 = momentum_map(model, q0, v0, S0)
        return integrate_explicit(
            hamilton_field_N(hmodel), np.concatenate([q0, [S0], p0]), cfg.t_end, cfg.h
        )
    # implicit-P: start on the algebraic slice with a consistent rate slot
    _, _, Sdot0 = vector_field_lagrangian(model, q0, v0, S0)
    p0 = momentum_map(model, q0, v0, S0)
    start = make_point("P", n, q=q0, S=S0, v=v0, W=Sdot0, p=p0, lam=0.0)
    return integrate_implicit_P(model, start, cfg.t_end, cfg.h)


def _csv_header(n: int) -> str:
    cols = ["t"]
    cols += [f"q{i}" for i in range(n)]
    cols += ["S"]
    cols += [f"v{i}" for i in range(n)]
    cols += [f"p{i}" for i in range(n)]
    cols += ["E", "Sdot", "constraint_residual", "dirac_residual"]
    return ",".join(cols)


def write_trajectory_csv(
    path: str, model: SimpleThermoModel, traj: Trajectory, full_resolution: bool
) -> int:
    """Write the stored states (decimated to a bounded row count unless
    full resolution is requested). Returns the number of data rows."""
    n = model.n
    count = len(traj.states)
    stride = 1 if full_resolution else max(1, math.ceil(count / MAX_CSV_ROWS))
    states, diags = trajectory_rows(traj), traj.diagnostics
    # (q, S, v, p): the rate slot W is not a CSV column
    table = np.column_stack([
        traj.times, states[:, : 2 * n + 1], states[:, 2 * n + 2 :], diags.energy,
        diags.entropy_rate, diags.constraint_residual, diags.dirac_residual,
    ])[::stride]
    # one format string for the whole table, a line per row
    text = "\n".join([_csv_header(n), *[",".join(["%.17g"] * table.shape[1])] * len(table)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text % tuple(table.ravel().tolist()) + "\n")
    return len(table)


def cmd_run(cfg: RunConfig, model: SimpleThermoModel) -> int:
    traj = _run_trajectory(cfg, model)
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "trajectory.csv")
    rows = write_trajectory_csv(csv_path, model, traj, cfg.full_resolution)
    report = monitor(traj, model)
    summary = {
        "model": model.name,
        "formulation": cfg.formulation,
        "t_end": cfg.t_end,
        "h": cfg.h,
        "completed": traj.completed,
        "stored_states": len(traj.states),
        "csv_rows": rows,
        "energy_drift": report.energy_drift,
        "min_entropy_step": report.min_entropy_step,
        "max_constraint_residual": report.max_constraint_residual,
        "max_dirac_residual": report.max_dirac_residual,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    with open(os.path.join(cfg.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    if not traj.completed:
        print("integration aborted on a non-finite state", file=sys.stderr)
        return EXIT_INTEGRATION
    return EXIT_OK


# --- check -----------------------------------------------------------------


def _isotropy_rows(cfg: RunConfig, model: SimpleThermoModel):
    """Per-arena (dimension ok?, max isotropy defect) rows."""
    rng = np.random.default_rng(cfg.seed)
    arenas = ["P", "M"] if model.degenerate else ["P", "TstarQ", "M", "N"]
    rows = []
    for arena in arenas:
        expected = arena_dim(arena, model.n)
        worst = 0.0
        dims_ok = True
        for _ in range(ISOTROPY_SAMPLES):
            q, v, S = model.domain_box.sample(rng)
            p = momentum_map(model, q, v, S)
            W = rng.uniform(-1, 1) if arena == "P" else 0.0
            full = make_point("P", model.n, q=q, S=S, v=v, W=W, p=p, lam=0.0)
            point = point_from_vector(arena, model.n, full.row[arena_slots(arena, model.n)])
            try:
                basis = dirac_basis(arena, model, point)
            except DiracThermoError:
                dims_ok = False
                continue
            dims_ok = dims_ok and basis.dimension == expected
            worst = max(worst, basis.isotropy_defect)
        rows.append((arena, expected, dims_ok, worst))
    return rows


def _suite_isotropy(cfg, model):
    tol = cfg.tolerance("isotropy")
    rows = _isotropy_rows(cfg, model)
    bad = [r for r in rows if not r[2] or r[3] > tol]
    detail = "; ".join(f"{a}: dim {d}, defect {w:.2e}" for a, d, _, w in rows)
    return (len(bad) == 0, detail)


def _suite_gradient(cfg, model):
    tol = cfg.tolerance("gradient")
    n = model.n
    flat = ScalarField(
        arity=2 * n + 1,
        evaluator=lambda *args: model.lagrangian(
            tuple(args[:n]), tuple(args[n + 1 :]), args[n]
        ),
    )
    rng = np.random.default_rng(cfg.seed + 1)
    worst = 0.0
    for _ in range(20):
        q, v, S = model.domain_box.sample(rng)
        point = np.concatenate([q, [S], v])
        worst = max(worst, fd_check(flat, point))
    return (worst <= tol, f"max dual-vs-difference deviation {worst:.2e}")


def _suite_roundtrip(cfg, model):
    if model.degenerate:
        return (None, "skipped: degenerate Lagrangian")
    tol = cfg.tolerance("roundtrip")
    ttol = cfg.tolerance("temperature_match")
    rng = np.random.default_rng(cfg.seed + 2)
    worst_v = worst_e = worst_t = 0.0
    for _ in range(20):
        q, v, S = model.domain_box.sample(rng)
        p = momentum_map(model, q, v, S)
        v_back = inverse_partial_legendre(model, q, p, S, v0=v)
        worst_v = max(worst_v, float(np.max(np.abs(v_back - v))))
        point = PointN(q=q, S=S, p=p)
        e_val = generalized_energy("M", model, embed_jL(model, point, v0=v))
        worst_e = max(worst_e, abs(e_val - hamiltonian(model, q, p, S, v0=v)))
        worst_t = max(
            worst_t,
            abs(temperature(model, q, v, S) - hamiltonian_S_derivative(model, q, p, S, v0=v)),
        )
    ok = worst_v <= tol and worst_e <= tol and worst_t <= ttol
    return (ok, f"fiber {worst_v:.2e}, energy {worst_e:.2e}, temperature {worst_t:.2e}")


def _suite_entropy(cfg, model):
    tol = cfg.tolerance("entropy")
    t_end = min(cfg.t_end, 1.0)
    h = max(cfg.h, 1e-3)
    flat = lagrangian_chart_initial(model, cfg.initial)
    traj = integrate_explicit(lagrangian_field(model), flat, t_end, h)
    report = monitor(traj, model)
    ok = traj.completed and report.min_entropy_step >= -tol
    return (ok, f"min entropy step {report.min_entropy_step:.2e}")


def _suite_cross(cfg, model):
    if model.degenerate:
        return (None, "skipped: degenerate Lagrangian")
    tol = cfg.tolerance("cross_formulation")
    report = cross_formulation_compare(
        model, cfg.initial, t_end=min(cfg.t_end, 0.5), h=max(cfg.h, 1e-3)
    )
    worst = max(report.deviations.values()) if report.deviations else float("nan")
    return (worst <= tol, f"max route deviation {worst:.2e}")


def _suite_action(cfg, model):
    tol = cfg.tolerance("action_variation")
    h = max(cfg.h, 1e-3)
    flat = lagrangian_chart_initial(model, cfg.initial)
    traj = integrate_explicit(lagrangian_field(model), flat, min(cfg.t_end, 0.5), h)
    res = action_variation_residual(
        model, traj, admissible_variation(model, traj, seed=cfg.seed)
    )
    bad = action_variation_residual(
        model, traj, constraint_violating_variation(traj, seed=cfg.seed)
    )
    ok = res <= tol and bad >= 1e-1
    return (ok, f"admissible {res:.2e}, violating {bad:.2e}")


def cmd_check(cfg: RunConfig, model: SimpleThermoModel) -> int:
    suites = [
        ("isotropy", _suite_isotropy),
        ("gradient", _suite_gradient),
        ("legendre-roundtrip", _suite_roundtrip),
        ("entropy-production", _suite_entropy),
        ("cross-formulation", _suite_cross),
        ("action-variation", _suite_action),
    ]
    failed = False
    for name, fn in suites:
        ok, detail = fn(cfg, model)
        if ok is None:
            print(f"{name}: {detail}")
        elif ok:
            print(f"{name}: OK ({detail})")
        else:
            print(f"{name}: FAIL ({detail})")
            failed = True
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- compare / isotropy ------------------------------------------------------


def cmd_compare(cfg: RunConfig, model: SimpleThermoModel) -> int:
    report = cross_formulation_compare(model, cfg.initial, cfg.t_end, cfg.h)
    print(f"routes: {', '.join(report.available)}")
    for (a, b), dev in sorted(report.deviations.items()):
        final = report.final_deviations[(a, b)]
        print(f"{a} vs {b}: max {dev:.6e}, final {final:.6e}")
    for name, reason in sorted(report.unavailable.items()):
        print(f"{name}: unavailable ({reason})")
    return EXIT_OK


def cmd_isotropy(cfg: RunConfig, model: SimpleThermoModel) -> int:
    tol = cfg.tolerance("isotropy")
    rows = _isotropy_rows(cfg, model)
    failed = False
    for arena, expected, dims_ok, worst in rows:
        status = "OK" if dims_ok and worst <= tol else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{arena}: dimension {expected} {'ok' if dims_ok else 'WRONG'}, "
              f"isotropy defect {worst:.3e} [{status}]")
    if model.degenerate:
        print("TstarQ, N: skipped (degenerate Lagrangian has no momentum chart)")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- entry point -------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-thermo",
        description="Simulate and verify simple thermodynamic systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "check", "compare", "isotropy"):
        sp = sub.add_parser(verb)
        sp.add_argument("--config", default=None, help="JSON configuration file")
        sp.add_argument("--out", default=None, help="output directory (run)")
        sp.add_argument("--h", type=float, default=None, help="time step override")
        sp.add_argument("--t-end", type=float, default=None, help="end time override")
        sp.add_argument(
            "--formulation",
            default=None,
            choices=FORMULATIONS,
            help="integration route override",
        )
        sp.add_argument(
            "--full-resolution",
            action="store_true",
            help="write every stored state instead of decimating",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {
        "out": args.out,
        "h": args.h,
        "t_end": args.t_end,
        "formulation": args.formulation,
        "full_resolution": args.full_resolution,
    }
    try:
        cfg = load_config(args.config, overrides)
        model = build_model(cfg)
        command = {
            "run": cmd_run,
            "check": cmd_check,
            "compare": cmd_compare,
            "isotropy": cmd_isotropy,
        }[args.verb]
        return command(cfg, model)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelBuildError as err:
        print(f"model build error: {err}", file=sys.stderr)
        return EXIT_BUILD
    except DegenerateLagrangianError as err:
        print(f"formulation unavailable for this model: {err}", file=sys.stderr)
        return EXIT_BUILD
    except DiracThermoError as err:
        # under run, any remaining domain error was raised mid-integration
        if args.verb == "run" or isinstance(err, (IntegrationError, NewtonError)):
            print(f"integration failed: {err}", file=sys.stderr)
            return EXIT_INTEGRATION
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
