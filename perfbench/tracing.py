"""Instrumentation for the benchmark, applied from outside the library.

Nothing here edits ``dirac_thermo``. Both instruments rebind the
library's public functions at every module name that holds them (the
defining module, every module that imported the name, and the package
namespace), and put the originals back when their ``installed()``
context exits.

* :class:`IntegrationTimer` times only the integrator entry points. It
  stays on while end-to-end wall time is measured, so that
  ``steps_per_s`` can divide completed steps by the time spent inside
  the integration calls.
* :class:`Tracer` records one span (name, start, end, parent) per call
  into each layer, keeps the spans in memory as flat arrays, and turns
  them into per-layer metrics at the end. It also counts model
  evaluations, implicit residuals and linear solves exactly.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from dirac_thermo.errors import NewtonError

LAYERS = ("cli", "verify", "dynamics", "dirac", "legendre", "model", "duals")

# Public functions recorded as spans named "<layer>.<function>". The
# model's own evaluators (the systems layer) are counted, not spanned:
# a span around each of the thousands of Lagrangian calls per step
# would cost more than the calls. Their time shows in the self time of
# the duals or model span that evaluates them.
SPANNED = {
    "duals": ("gradient", "hessian_matrix", "second_directional", "fd_check"),
    "model": (
        "lagrangian_value",
        "lagrangian_partials",
        "entropy_slope",
        "temperature",
        "friction_value",
        "external_value",
        "velocity_hessian",
        "mixed_velocity_term",
        "momentum_rate",
        "friction_velocity_jacobian",
    ),
    "legendre": (
        "hamiltonian",
        "hamiltonian_partials",
        "hamiltonian_S_derivative",
        "embed_jL",
        "generalized_energy",
        "build_hamiltonian_model",
    ),
    "dirac": ("phenomenological_constraint_residual",),
    "dynamics": (
        "vector_field_lagrangian",
        "vector_field_N",
        "solution_pair_P",
        "solution_pair_M",
        "solution_pair_TstarQ",
        "solution_pair_N",
        "solution_pair_N_hamiltonian",
        "monitor",
    ),
    "verify": (
        "cross_formulation_compare",
        "formulation_equivalence_battery",
        "action_variation_residual",
        "admissible_variation",
        "constraint_violating_variation",
    ),
    "cli": (
        "main",
        "load_config",
        "cmd_run",
        "cmd_check",
        "cmd_compare",
        "cmd_isotropy",
        "write_trajectory_csv",
    ),
}

# Spans split by their first argument, the arena tag.
PER_ARENA = ("condition_matrix", "dirac_membership", "dirac_basis")

RATE_EVENTS = ("lagrangian", "friction")


def _library_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "dirac_thermo" or name.startswith("dirac_thermo."))
    ]


@contextmanager
def rebound(replacements: dict, extra=()):
    """Point every library module attribute bound to a key of
    ``replacements`` at its value for the duration of the block.

    ``extra`` lists (object, attribute, new value) triples patched the
    same way, such as ``numpy.linalg.solve``.
    """
    by_id = {id(original): new for original, new in replacements.items()}
    undo = []
    try:
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                new = by_id.get(id(value))
                if new is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
        for owner, attr, new in extra:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _steps(trajectory) -> int:
    """Integrator steps behind a trajectory; a run that stopped on a
    non-finite state also spent the step that produced it."""
    return len(trajectory.times) - 1 + (0 if trajectory.completed else 1)


class IntegrationTimer:
    """Seconds and completed steps inside the integrator entry points,
    accumulated per caller-set ``label``."""

    def __init__(self):
        self.label = ""
        self.seconds = Counter()
        self.steps = Counter()

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                trajectory = fn(*args, **kwargs)
            finally:
                self.seconds[self.label] += perf_counter() - t0
            self.steps[self.label] += _steps(trajectory)
            return trajectory

        return timed

    def installed(self):
        from dirac_thermo import dynamics

        return rebound(
            {
                dynamics.integrate_explicit: self._wrap(dynamics.integrate_explicit),
                dynamics.integrate_implicit_P: self._wrap(dynamics.integrate_implicit_P),
            }
        )


class Tracer:
    """Span recorder and exact counters for the traced rounds."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.events = Counter()  # model evaluations, residuals, momentum maps
        self.tallies = Counter()  # (span name, event) -> events inside those spans
        self.solves = Counter()  # span name -> linear solves made directly in it
        self.steps = Counter()  # integrator span name -> steps attempted
        self.results = Counter()  # span name -> sum of its integer return values
        self._replacements = None

    def __len__(self) -> int:
        return len(self.starts)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # --- span wrappers -------------------------------------------------

    def span(self, fn, name, tally=(), on_exit=None, event=None, sum_result=False):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of (args, kwargs) giving one.
        ``tally`` lists events whose growth during the call is credited
        to (name, event); ``on_exit(name, result, error, deltas)`` sees the
        outcome and those growths; ``event`` is counted once per call;
        ``sum_result`` adds an integer return value to ``results``.
        """
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        events = self.events
        fixed = None if callable(name) else self._id(name)
        plain = not (tally or on_exit or sum_result)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if event is not None:
                events[event] += 1
            if plain:
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    starts[i] = t0
                    stack.pop()
            snap = [events[e] for e in tally]
            result, error = None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
                label = self.names[nid]
                deltas = {e: events[e] - s for e, s in zip(tally, snap)}
                for e, d in deltas.items():
                    self.tallies[(label, e)] += d
                if sum_result and error is None:
                    self.results[label] += int(result)
                if on_exit is not None:
                    on_exit(label, result, error, deltas)

        return wrapper

    def _counted(self, fn, event):
        events = self.events

        def counted(*args, **kwargs):
            events[event] += 1
            return fn(*args, **kwargs)

        return counted

    def _solve(self, fn):
        solves, stack, name_ids, names = self.solves, self.stack, self.name_ids, self.names

        def solve(*args, **kwargs):
            if stack:
                solves[names[name_ids[stack[-1]]]] += 1
            return fn(*args, **kwargs)

        return solve

    # --- what gets wrapped -------------------------------------------------

    def _explicit_steps(self, label, trajectory, error, deltas):
        if error is None:
            self.steps[label] += _steps(trajectory)

    def _implicit_steps(self, label, trajectory, error, deltas):
        # The integrator maps momenta once on entry and once per
        # completed step, so a step that raised is the one after them.
        if error is None:
            self.steps[label] += _steps(trajectory)
        elif isinstance(error, NewtonError):
            self.steps[label] += deltas["momentum_map"]

    def _field(self, build, route):
        def build_traced(arg):
            field = build(arg)
            model = getattr(arg, "source", arg)
            prefix = f"dynamics.%s.{route}.{model.name}"
            return dataclasses.replace(
                field,
                rate=self.span(field.rate, prefix % "rate", tally=RATE_EVENTS),
                diagnostics=self.span(
                    field.diagnostics, prefix % "diagnostics", tally=RATE_EVENTS
                ),
            )

        return build_traced

    def _counting_model(self, build_model):
        def build(cfg):
            model = build_model(cfg)
            return dataclasses.replace(
                model,
                lagrangian=self._counted(model.lagrangian, "lagrangian"),
                friction=self._counted(model.friction, "friction"),
            )

        return build

    def _replacement_map(self) -> dict:
        mods = {
            layer: importlib.import_module(f"dirac_thermo.{layer}")
            for layer in SPANNED
        }
        out = {}
        for layer, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                out[fn] = self.span(fn, f"{layer}.{fname}")
        for fname in PER_ARENA:
            fn = getattr(mods["dirac"], fname)
            out[fn] = self.span(
                fn,
                lambda a, k, _f=fname: f"dirac.{_f}.{a[0] if a else k['arena']}",
            )
        legendre, dynamics, cli = mods["legendre"], mods["dynamics"], mods["cli"]
        out[legendre.momentum_map] = self.span(
            legendre.momentum_map, "legendre.momentum_map", event="momentum_map"
        )
        out[legendre.inverse_partial_legendre] = self.span(
            legendre.inverse_partial_legendre,
            lambda a, k: "legendre.inverse_partial_legendre"
            + ("" if k.get("v0", a[4] if len(a) > 4 else None) is not None else "_cold"),
        )
        out[dynamics.integrate_explicit] = self.span(
            dynamics.integrate_explicit,
            "dynamics.integrate_explicit",
            on_exit=self._explicit_steps,
        )
        out[dynamics.integrate_implicit_P] = self.span(
            dynamics.integrate_implicit_P,
            "dynamics.integrate_implicit_P",
            tally=("residual", "momentum_map"),
            on_exit=self._implicit_steps,
        )
        out[dynamics.implicit_residual_P] = self.span(
            dynamics.implicit_residual_P, "dynamics.implicit_residual_P", event="residual"
        )
        out[dynamics.lagrangian_field] = self._field(dynamics.lagrangian_field, "lagrangian")
        out[dynamics.hamilton_field_N] = self._field(dynamics.hamilton_field_N, "hamilton")
        out[cli.build_model] = self.span(
            self._counting_model(cli.build_model), "cli.build_model"
        )
        out[cli.write_trajectory_csv] = self.span(
            cli.write_trajectory_csv, "cli.write_trajectory_csv", sum_result=True
        )
        return out

    @contextmanager
    def installed(self):
        """Trace one round: rebind, record, restore."""
        if self._replacements is None:
            self._replacements = self._replacement_map()
        with rebound(
            self._replacements,
            extra=[(np.linalg, "solve", self._solve(np.linalg.solve))],
        ):
            yield self

    # --- turning spans into metrics ----------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_ids, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.intc).astype(np.int64)
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        return ids, parents, starts, ends

    def save(self, path) -> None:
        ids, parents, starts, ends = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_ids=ids, parents=parents,
            starts=starts, ends=ends,
        )

    def summary(self, round_walls: list, csv_bytes: list) -> dict:
        """Per-layer metrics as name -> (value, unit, samples).

        ``round_walls`` are the op wall times of the traced rounds and
        ``csv_bytes`` the CSV bytes each of them wrote.
        """
        ids, parents, starts, ends = self.arrays()
        k = len(self.names)
        dur = ends - starts
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        index = {name: i for i, name in enumerate(self.names)}
        rounds = len(round_walls)
        out = {}

        def n_calls(name):
            return int(calls[index[name]]) if name in index else 0

        def per_call(metric, span, unit, scale):
            n = n_calls(span)
            value = total[index[span]] / n * scale if n else 0.0
            out[metric] = (float(value), unit, n)

        def ratio(metric, num, den, unit="count", samples=None):
            out[metric] = (num / den if den else 0.0, unit, den if samples is None else samples)

        for fname in ("gradient", "hessian_matrix", "second_directional"):
            per_call(f"duals.{fname}_us", f"duals.{fname}", "us", 1e6)
        for fname in ("lagrangian_partials", "velocity_hessian", "mixed_velocity_term", "momentum_rate"):
            per_call(f"model.{fname}_us", f"model.{fname}", "us", 1e6)

        rates = [n for n in self.names if n.startswith("dynamics.rate.")]
        diags = [n for n in self.names if n.startswith("dynamics.diagnostics.")]
        rate_calls = sum(n_calls(n) for n in rates)
        diag_calls = sum(n_calls(n) for n in diags)
        ratio("systems.lagrangian_calls_per_rate",
              sum(self.tallies[(n, "lagrangian")] for n in rates), rate_calls)
        ratio("systems.lagrangian_calls_per_diagnostics",
              sum(self.tallies[(n, "lagrangian")] for n in diags), diag_calls)
        ratio("systems.friction_calls_per_rate",
              sum(self.tallies[(n, "friction")] for n in rates), rate_calls)

        warm, cold = "legendre.inverse_partial_legendre", "legendre.inverse_partial_legendre_cold"
        per_call("legendre.inverse_partial_legendre_us", warm, "us", 1e6)
        ratio("legendre.newton_iters_per_solve",
              self.solves[warm] + self.solves[cold], n_calls(warm) + n_calls(cold))
        per_call("legendre.build_hamiltonian_model_ms", "legendre.build_hamiltonian_model", "ms", 1e3)

        for arena in ("M", "N"):
            per_call(f"dirac.dirac_membership_us.{arena}", f"dirac.dirac_membership.{arena}", "us", 1e6)
        for fname in ("condition_matrix", "dirac_basis"):
            for arena in ("P", "TstarQ", "M", "N"):
                per_call(f"dirac.{fname}_us.{arena}", f"dirac.{fname}.{arena}", "us", 1e6)

        for kind in ("rate", "diagnostics"):
            for route, model in (
                ("lagrangian", "piston"), ("lagrangian", "membrane"), ("lagrangian", "reactions"),
                ("hamilton", "piston"), ("hamilton", "membrane"),
            ):
                per_call(f"dynamics.{kind}_us.{route}.{model}",
                         f"dynamics.{kind}.{route}.{model}", "us", 1e6)

        rk4 = "dynamics.integrate_explicit"
        rk4_steps = self.steps[rk4]
        ratio("dynamics.rk4_self_us_per_step",
              own[index[rk4]] * 1e6 if rk4 in index else 0.0, rk4_steps, "us")
        imp = "dynamics.integrate_implicit_P"
        imp_steps = self.steps[imp]
        ratio("dynamics.implicit_step_us",
              total[index[imp]] * 1e6 if imp in index else 0.0, imp_steps, "us")
        ratio("dynamics.implicit_residual_calls_per_step",
              self.tallies[(imp, "residual")], imp_steps)
        ratio("dynamics.implicit_newton_iters_per_step", self.solves[imp], imp_steps)
        per_call("dynamics.monitor_ms", "dynamics.monitor", "ms", 1e3)

        for fname in ("cross_formulation_compare", "formulation_equivalence_battery",
                      "action_variation_residual"):
            per_call(f"verify.{fname}_s", f"verify.{fname}", "s", 1.0)

        csv = "cli.write_trajectory_csv"
        per_call("cli.write_trajectory_csv_ms", csv, "ms", 1e3)
        ratio("cli.csv_rows_per_s", self.results[csv],
              total[index[csv]] if csv in index else 0.0, "1/s", samples=n_calls(csv))
        out["cli.csv_bytes"] = (statistics.median(csv_bytes), "bytes", rounds)

        mean_wall = statistics.fmean(round_walls)
        layered = 0.0
        for layer in LAYERS:
            mask = np.array([n.startswith(layer + ".") for n in self.names], dtype=bool)
            seconds = float(own[mask].sum()) / rounds if mask.any() else 0.0
            layered += seconds
            out[f"trace.self_s.{layer}"] = (seconds, "s", rounds)
        out["trace.wall_s"] = (mean_wall, "s", rounds)
        out["trace.untraced_s"] = (mean_wall - layered, "s", rounds)
        out["trace.spans_per_round"] = (len(self) / rounds, "count", rounds)
        return out
