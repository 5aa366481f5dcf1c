"""Evolution fields, integrators, and invariant monitoring.

Three ways to move a simple thermodynamic system forward in time:

* an explicit field on the momentum arena (Hamiltonian picture),
* an explicit field on the velocity side (works for degenerate models
  too, where the equation of motion is algebraic in the rate),
* an implicit Euler scheme solving the full stacked residual on the
  largest arena with Newton steps.

They are the three :data:`ROUTES`; :func:`integrate_route` is the one
place that turns an initial condition into a route's start state and
trajectory, for the command line and the cross-checks alike.

Each explicit side evaluates a state into one work record, the rate
plus the partials, friction and external force it was built from
(``_lagrangian_work`` in both velocity-side regimes, whose regular
regime reads one jet of L, ``_momentum_work`` one fiber solve);
the vector fields, the solution data and each field's rate, stored row
and per-step diagnostics (energy, entropy, entropy rate, the
rate-constraint residual and the membership residual of the state, rate
and energy differential) read it. One assembly (``_solution_data``)
writes those (state, tangent, covector) rows of any arena from a work
record, each group at its place in the arena's row; the
``solution_pair_*`` helpers and the records share it. The data are P's
at the arena's slots: the sign flip between the velocity and momentum
sides lives in the TstarQ and N condition rows (``dirac.condition_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dirac import _conditions
from .errors import (
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    IntegrationError,
    NewtonError,
    TemperatureSignError,
)
from .legendre import (
    HamiltonianModel,
    HamiltonianPartials,
    build_hamiltonian_model,
    hamiltonian_partials,
    momentum_map,
)
from .model import (
    ArenaPoint,
    SimpleThermoModel,
    TangentCovectorPair,
    _arena_dtype,
    _arena_layout,
    _as_array,
    _covector_jet,
    _force_jets,
    _lagrangian_first_order,
    _lagrangian_hessian,
    _momentum_rate_from,
    _records,
    _solve,
    arena_dim,
    external_value,
    friction_value,
    lagrangian_jet,
    make_point,
)

__all__ = [
    "ROUTES",
    "DiagnosticsRecord",
    "DiagnosticsReport",
    "ExplicitField",
    "Trajectory",
    "hamilton_field_N",
    "implicit_residual_P",
    "integrate_explicit",
    "integrate_implicit_P",
    "integrate_route",
    "lagrangian_chart_initial",
    "lagrangian_field",
    "monitor",
    "solution_pair_M",
    "solution_pair_N",
    "solution_pair_N_hamiltonian",
    "solution_pair_P",
    "solution_pair_TstarQ",
    "trajectory_rows",
    "vector_field_N",
    "vector_field_lagrangian",
]

ROUTES = ("lagrangian", "hamilton-dirac-N", "implicit-P")  # the velocity side first
IMPLICIT_NEWTON_TOL = 1e-10
IMPLICIT_MAX_ITER = 25
CONSISTENCY_TOL = 1e-8


class DiagnosticsRecord(NamedTuple):
    energy: float
    entropy: float
    entropy_rate: float
    constraint_residual: float
    dirac_residual: float


# one stored diagnostics row, a column per record field
_DIAGNOSTICS = np.dtype([(name, float) for name in DiagnosticsRecord._fields])


def _record(energy, S, Sdot, constraint, residual) -> DiagnosticsRecord:
    """Diagnostics record from the constraint value and membership residual."""
    return DiagnosticsRecord(
        energy=energy,
        entropy=S,
        entropy_rate=Sdot,
        constraint_residual=abs(constraint),
        dirac_residual=float(np.abs(residual).max()),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    energy_drift: float
    min_entropy_step: float
    max_constraint_residual: float
    max_dirac_residual: float


@dataclass
class Trajectory:
    """Fixed-step integration output, one row per stored time.

    ``states`` is a record array over the (K, d) arena rows in the
    arena's flat order, a field per coordinate group: ``states.q`` is
    the (K, n) configuration block, ``states.S`` the entropy column and
    ``states[k].p`` one momentum. A run of a plain callable has no arena
    and stores its flat (K, d) vectors as they are. ``rates`` is (K, c),
    the integrator's rate at each stored state in its own chart (which
    can be smaller than the arena). ``diagnostics`` is a record array
    with the fields of :class:`DiagnosticsRecord` (``diagnostics.energy``,
    ``diagnostics[k].dirac_residual``), empty for a plain callable.
    ``completed`` is False when the run aborted on a non-finite state;
    every array then holds the states stored up to that point.
    """

    times: np.ndarray
    states: np.ndarray
    rates: np.ndarray
    diagnostics: np.ndarray
    arena: str
    completed: bool = True


def _stored(h, k, arena, n, states, rates, diagnostics, completed) -> Trajectory:
    """The first k rows of an integrator's (states, rates, diagnostics)
    buffers as a trajectory."""
    return Trajectory(
        times=np.arange(k) * h,
        states=_records(states[:k], _arena_dtype(arena, n)) if arena else states[:k],
        rates=rates[:k],
        diagnostics=_records(diagnostics[:k], _DIAGNOSTICS),
        arena=arena,
        completed=completed,
    )


def trajectory_rows(trajectory: Trajectory) -> np.ndarray:
    """(q, S, v, W=Sdot, p) rows of a stored trajectory, one per state.

    W is the stored entropy rate. On the momentum chart the stored
    rate's configuration block is the inverted fiber velocity, so no
    fiber solve is needed; the other charts store v in their states."""
    states, rates = trajectory.states, trajectory.rates
    n = states.q.shape[1]
    v = states.v if "v" in states.dtype.names else rates[:, :n]
    return np.column_stack([states.q, states.S, v, rates[:, n], states.p])


# --- one evaluation per state ---------------------------------------------


def _entropy_rate(model: SimpleThermoModel, F, v, s) -> float:
    """Sdot = <F, v>/s: the rate constraint s Sdot = <F, v> solved for the
    entropy rate, with s the entropy slope dL/dS (minus the temperature).

    Friction-free points move entropy nowhere, which keeps pure
    mechanics (entropy-independent models) inside the fields without a
    slope read; where friction acts, a slope that is not negative (a
    temperature that is not positive) is a domain violation and is
    raised as such. A NaN slope gives a NaN rate, so a run that blew up
    stops on its non-finite state.
    """
    if not np.count_nonzero(F):  # F.any(), without its Python-level wrapper
        return 0.0
    if s >= 0.0:
        raise TemperatureSignError(
            f"dL/dS = {s:.6g} must be negative where friction acts (model {model.name})"
        )
    return float(F @ v / s)


class _LagrangianWork(NamedTuple):
    """A velocity-side rate (qdot, vdot, Sdot) and L's value, first
    partials, friction and external force it was built from; qdot is
    also the state's velocity. ``Lv`` holds the Hessian's velocity rows
    (L_vq | L_vv | L_vS), from which the momentum rate is read; it is
    None in the degenerate regime, where the momentum is identically
    zero."""

    qdot: np.ndarray
    vdot: np.ndarray
    Sdot: float
    L: float
    dLdq: np.ndarray
    dLdv: np.ndarray
    s: float
    F: np.ndarray
    Fext: np.ndarray
    Lv: Optional[np.ndarray]


class _MomentumWork(NamedTuple):
    """A momentum-side rate (qdot, pdot, Sdot) and the Hamiltonian
    partials (L's value at the inverted velocity among them), friction
    and external force it was built from; qdot is the inverted
    velocity."""

    qdot: np.ndarray
    pdot: np.ndarray
    Sdot: float
    hp: HamiltonianPartials
    F: np.ndarray
    Fext: np.ndarray


def _lagrangian_work(model: SimpleThermoModel, q, v, S) -> _LagrangianWork:
    """The rate of :func:`vector_field_lagrangian` at (q, v, S) plus the
    intermediates it was built from; a degenerate model's dL/dv is zero."""
    n = model.n
    if model.degenerate:
        zero_v = np.zeros(n)
        # L ignores v: its partials at zero velocity are those at the solved
        # rate; one friction jet there gives F and the coefficient matrix
        L, dLdq, _, s = _lagrangian_first_order(model, q, zero_v, S)
        F0, dF = _covector_jet(model.friction, n, q, zero_v, S, "friction covector")
        Fext = external_value(model, q, zero_v, S)
        if np.max(np.abs(F0)) > 1e-12:
            raise DiracThermoError(
                "the degenerate regime needs velocity-linear friction "
                f"(got friction {F0} at zero velocity, model {model.name})"
            )
        try:
            qdot = _solve(dF[:, n : 2 * n], -(dLdq + Fext))
        except np.linalg.LinAlgError:
            raise DiracThermoError(
                f"singular friction coefficient matrix (model {model.name})"
            )
        F = friction_value(model, q, qdot, S)
        Sdot = _entropy_rate(model, F, qdot, s)
        return _LagrangianWork(qdot, zero_v, Sdot, L, dLdq, np.zeros(n), s, F, Fext, None)

    # one jet of L and one friction evaluation
    v = _as_array(v, n, "v")
    L, dLdq, dLdv, s, Lv = lagrangian_jet(model, q, v, S)
    F, Fext = friction_value(model, q, v, S), external_value(model, q, v, S)
    Sdot = _entropy_rate(model, F, v, s)
    # the momentum rate at vdot = 0 moves to the right-hand side
    rhs = dLdq + F + Fext - _momentum_rate_from(Lv, v, np.zeros(n), Sdot)
    try:
        vdot = _solve(Lv[:, n : 2 * n], rhs)
    except np.linalg.LinAlgError:
        raise DegenerateLagrangianError(
            f"singular velocity Hessian; model {model.name} needs the "
            "velocity-independent regime"
        )
    return _LagrangianWork(v.copy(), vdot, Sdot, L, dLdq, dLdv, s, F, Fext, Lv)


def _momentum_work(hmodel: HamiltonianModel, q, S, p, v0=None) -> _MomentumWork:
    """Momentum-side rate at (q, S, p) plus the intermediates it was
    built from; ``v0`` seeds the fiber inversion."""
    model = hmodel.source
    hp = hamiltonian_partials(model, q, p, S, v0=v0)
    F = friction_value(model, q, hp.velocity, S)
    Fext = external_value(model, q, hp.velocity, S)
    Sdot = _entropy_rate(model, F, hp.dp, -hp.dS)
    return _MomentumWork(hp.dp, -hp.dq + F + Fext, Sdot, hp, F, Fext)


def vector_field_N(hmodel: HamiltonianModel, point: ArenaPoint, v0=None):
    """Explicit momentum-side field (qdot, pdot, Sdot).

    The entropy rate balances dissipated power against temperature
    (:func:`_entropy_rate`). ``v0`` seeds the fiber inversion (a warm
    start from a nearby state).
    """
    work = _momentum_work(hmodel, point.q, point.S, point.p, v0=v0)
    return work.qdot, work.pdot, work.Sdot


def vector_field_lagrangian(model: SimpleThermoModel, q, v, S):
    """Explicit velocity-side field (qdot, vdot, Sdot).

    Regular regime: the velocity Hessian is inverted for vdot and the
    entropy rate comes from the rate constraint. Degenerate regime
    (velocity-independent Lagrangian, velocity-linear friction): the
    equation of motion is algebraic in the rate, so the friction
    coefficient matrix is solved directly; the passed v is ignored and
    the returned qdot is the solved rate, with vdot identically zero.
    """
    work = _lagrangian_work(model, q, v, S)
    return work.qdot, work.vdot, work.Sdot


# --- on-shell membership data -------------------------------------------


def _solution_data(model: SimpleThermoModel, q, v, S, work, arena: str) -> np.ndarray:
    """Rows (base, tangent, covector) of the arena's data at the state
    (q, v, S) with the rate (qdot, vdot, Sdot) and the partials at
    (q, v, S) that the :class:`_LagrangianWork` ``work`` holds, each
    group written at its place in the arena's row. On a solution v
    equals qdot. A degenerate model's momentum is identically zero, and
    so is its rate."""
    slots, at = _arena_layout(arena, model.n)
    rows = np.zeros((3, slots.size))
    base, tangent, covector = rows  # W and lam do not move; lam = 0
    q_, S_ = at["q"], at["S"]
    base[q_], tangent[q_], covector[q_] = q, work.qdot, -work.dLdq - work.Fext
    base[S_], tangent[S_], covector[S_] = S, work.Sdot, -work.s
    if "v" in at:  # the covector's velocity block: base p - dL/dv
        base[at["v"]], tangent[at["v"]] = v, work.vdot
        covector[at["v"]] = work.dLdv - work.dLdv
    if "W" in at:
        base[at["W"]] = work.Sdot
    if "p" in at:
        base[at["p"]], covector[at["p"]] = work.dLdv, v
        if not model.degenerate:
            tangent[at["p"]] = _momentum_rate_from(work.Lv, work.qdot, work.vdot, work.Sdot)
    if "lam" in at:
        covector[at["lam"]] = work.Sdot
    return rows


def _hamiltonian_covector(covector: np.ndarray, n: int, hp, Fext) -> None:
    """Write the Hamiltonian differential (dH/dq - external, dH/dS,
    dH/dp) into an N covector row."""
    covector[:n], covector[n], covector[n + 1 :] = hp.dq - Fext, hp.dS, hp.dp


def _solution_pair(model: SimpleThermoModel, q, S, work, arena: str) -> TangentCovectorPair:
    """The arena's data of the solution through (q, work.qdot, S)."""
    base, tangent, covector = _solution_data(model, q, work.qdot, S, work, arena)
    return TangentCovectorPair(ArenaPoint(arena, model.n, base), tangent, covector)


def _hamiltonian_N(model: SimpleThermoModel, q, S, work) -> TangentCovectorPair:
    """N data of the solution through (q, work.qdot, S) with the
    Hamiltonian differential as its covector, the fiber inverted from
    the solution's velocity."""
    pair = _solution_pair(model, q, S, work, "N")
    hp = hamiltonian_partials(model, q, work.dLdv, S, v0=work.qdot)
    _hamiltonian_covector(pair.covector, model.n, hp, work.Fext)
    return pair


def solution_pair_P(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """(state, tangent, covector) data of a solution through (q, v, S)
    on the full arena: fiber slots filled by the momentum relation, the
    covector is the generalized-energy differential (external force
    subtracted on the configuration slots). The rate of the entropy-rate
    slot is unconstrained and recorded as zero."""
    return _solution_pair(model, q, S, _lagrangian_work(model, q, v, S), "P")


def solution_pair_M(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """As :func:`solution_pair_P` on the velocity-momentum arena."""
    return _solution_pair(model, q, S, _lagrangian_work(model, q, v, S), "M")


def solution_pair_TstarQ(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the cotangent arena: base at
    (q, S, momentum, 0), covector slots (-dL/dq, -dL/dS, v, Sdot)."""
    return _solution_pair(model, q, S, _lagrangian_work(model, q, v, S), "TstarQ")


def solution_pair_N(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the momentum arena; the
    covector is (-dL/dq, -dL/dS, v), fiber matching supplying the base
    momentum."""
    return _solution_pair(model, q, S, _lagrangian_work(model, q, v, S), "N")


def solution_pair_N_hamiltonian(
    hmodel: HamiltonianModel, q, v, S
) -> TangentCovectorPair:
    """As :func:`solution_pair_N` but with the Hamiltonian differential
    (dH/dq - external, dH/dS, dH/dp) as the covector."""
    model = hmodel.source
    return _hamiltonian_N(model, q, S, _lagrangian_work(model, q, v, S))


# --- explicit integration ------------------------------------------------


@dataclass(frozen=True)
class ExplicitField:
    """A flat-chart right-hand side over a model with n configuration
    coordinates, plus what the integrator needs to store per step:
    ``to_point(y, r)`` is the arena's flat row at the chart state y with
    rate r, and ``diagnostics(y, r)`` a :class:`DiagnosticsRecord`."""

    arena: str
    n: int
    dim: int
    rate: Callable
    to_point: Callable
    diagnostics: Callable


class _LastWork:
    """The work record of the last state a field's rate evaluated, keyed
    by the state's bytes: storing and diagnosing that state read it
    instead of evaluating the state again."""

    def __init__(self, evaluate: Callable):
        self.evaluate, self.key, self.work = evaluate, None, None

    def fresh(self, y: np.ndarray):
        self.key, self.work = y.tobytes(), self.evaluate(y)
        return self.work

    def at(self, y: np.ndarray):
        return self.work if y.tobytes() == self.key else self.evaluate(y)


def _explicit_record(arena: str, p, v, L, S, Sdot, s, F, z) -> DiagnosticsRecord:
    """Diagnostics of an explicit field's data on M or N: z stacks the
    rate and the energy differential, p, v, S, Sdot are the state's
    momentum, velocity, entropy and entropy rate, and (L, s, F) the
    Lagrangian, entropy slope and friction there. The membership
    residual is infinite where the slope vanishes (T = 0 on N)."""
    energy = float(p @ v) - L
    if s == 0.0 or not math.isfinite(s):
        residual = math.inf
    else:
        coef = -s if arena == "N" else s  # the momentum side reads T = -s
        residual = _conditions(arena, F.size, float(coef), F) @ z
    return _record(energy, S, Sdot, float(s * Sdot - F @ v), residual)


def hamilton_field_N(hmodel: HamiltonianModel) -> ExplicitField:
    """Momentum-side field over the flat chart (q, S, p), which is also
    the arena row."""
    model = hmodel.source
    n = model.n

    def evaluate(y: np.ndarray) -> _MomentumWork:
        # the last rate's inverted velocity seeds the fiber inversion
        seed = None if last.work is None else last.work.qdot
        return _momentum_work(hmodel, y[:n], float(y[n]), y[n + 1 :], v0=seed)

    last = _LastWork(evaluate)

    def rate(y: np.ndarray) -> np.ndarray:
        w = last.fresh(y)
        return np.concatenate([w.qdot, [w.Sdot], w.pdot])

    def diagnostics(y: np.ndarray, r: np.ndarray) -> DiagnosticsRecord:
        w, d = last.at(y), y.size
        z = np.empty(2 * d)
        z[:d] = r
        _hamiltonian_covector(z[d:], n, w.hp, w.Fext)
        S, Sdot = float(y[n]), float(r[n])
        return _explicit_record("N", y[n + 1 :], w.qdot, w.hp.L, S, Sdot, -w.hp.dS, w.F, z)

    return ExplicitField(
        arena="N",
        n=n,
        dim=2 * n + 1,
        rate=rate,
        to_point=lambda y, r: y,
        diagnostics=diagnostics,
    )


def lagrangian_field(model: SimpleThermoModel) -> ExplicitField:
    """Velocity-side field; chart (q, S, v), or (q, S) for degenerate
    models whose rate is algebraic (there y[n + 1 :] is empty and the
    state's velocity is the solved rate)."""
    n = model.n
    dim = n + 1 if model.degenerate else 2 * n + 1
    last = _LastWork(lambda y: _lagrangian_work(model, y[:n], y[n + 1 :], float(y[n])))

    def rate(y: np.ndarray) -> np.ndarray:
        w = last.fresh(y)
        out = np.empty(dim)
        out[:n], out[n] = w.qdot, w.Sdot
        if not model.degenerate:
            out[n + 1 :] = w.vdot
        return out

    def to_point(y: np.ndarray, r: np.ndarray) -> np.ndarray:
        w = last.at(y)
        return np.concatenate([y[: n + 1], w.qdot, w.dLdv])  # M's (q, S, v, p)

    def diagnostics(y: np.ndarray, r: np.ndarray) -> DiagnosticsRecord:
        # measures the given rate r against the state y's work
        w = last.at(y)
        vdot = w.vdot if model.degenerate else r[n + 1 :]
        S, Sdot = float(y[n]), float(r[n])
        measured = _LagrangianWork(r[:n], vdot, Sdot, *w[3:])  # w's L and partials
        z = _solution_data(model, y[:n], w.qdot, S, measured, "M")[1:].ravel()
        return _explicit_record("M", w.dLdv, w.qdot, w.L, S, Sdot, w.s, w.F, z)

    return ExplicitField(
        arena="M",
        n=n,
        dim=dim,
        rate=rate,
        to_point=to_point,
        diagnostics=diagnostics,
    )


def integrate_explicit(field, initial, t_end: float, h: float) -> Trajectory:
    """Classical fixed-step fourth-order integration of an explicit field.

    ``field`` is an :class:`ExplicitField` or a plain callable on flat
    vectors (then the flat vectors are stored and diagnostics are
    skipped). The step count is t_end/h rounded to nearest; diagnostics
    are recorded at every stored state, including the initial one. A
    non-finite state aborts and returns the partial trajectory with
    ``completed=False``.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    y = np.asarray(initial, dtype=float).copy()
    if isinstance(field, ExplicitField):
        if y.shape != (field.dim,):
            raise DimensionMismatchError(
                f"initial state must have {field.dim} coordinates, got {y.shape}"
            )
        f, to_point, diagnose = field.rate, field.to_point, field.diagnostics
        arena, n, d = field.arena, field.n, arena_dim(field.arena, field.n)
    else:
        f = lambda z: np.asarray(field(z), dtype=float)
        to_point, diagnose = (lambda z, r: z), None
        arena, n, d = "", 0, y.size
    K = max(1, int(round(t_end / h))) + 1
    states, rates = np.empty((K, d)), np.empty((K, y.size))
    diagnostics = np.empty((K if diagnose else 0, len(_DIAGNOSTICS)))
    half = 0.5 * h
    sixth = h / 6.0
    r = f(y)
    k = 0
    while True:
        states[k], rates[k] = to_point(y, r), r
        if diagnose:
            diagnostics[k] = diagnose(y, r)
        k += 1
        if k == K:
            break
        k2 = f(y + half * r)
        k3 = f(y + half * k2)
        k4 = f(y + h * k3)
        y = y + sixth * (r + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(y)):
            break
        r = f(y)
    return _stored(h, k, arena, n, states, rates, diagnostics, completed=k == K)


# --- implicit integration on the full arena -------------------------------


def implicit_residual_P(model: SimpleThermoModel, point: ArenaPoint, rates, with_value=False):
    """Stacked residual of the full-arena conditions at (point, rates).

    Rates follow the arena order (qdot, Sdot, vdot, Wdot, pdot, lamdot).
    Blocks, in order: n force-balance rows scaled by the entropy slope,
    the entropy-rate row, the momentum-match rows, the covariable, the
    velocity match, and the rate-slot match. External force enters the
    force-balance rows additively. ``with_value`` returns ``(residual,
    L)``, L the Lagrangian at the point from the same jet.
    """
    n = model.n
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()  # the groups' places, in P's order
    x, r = point.row, _as_array(rates, 3 * n + 3, "rates")
    qdot, Sdot = r[q], r[S]
    at = x[q], x[v], x[S]
    L, dLdq, dLdv, s = _lagrangian_first_order(model, *at)
    F, Fext = friction_value(model, *at), external_value(model, *at)
    residual = np.concatenate(
        [
            (r[p] - dLdq - Fext) * s + (r[lam] - s) * F,
            [s * Sdot - F @ qdot],
            x[p] - dLdv,
            [x[lam]],
            x[v] - qdot,
            [x[W] - Sdot],
        ]
    )
    return (residual, L) if with_value else residual


def _implicit_diag(n: int, x, rates, residual, L) -> DiagnosticsRecord:
    """Diagnostics at the flat P row x, read through its groups, with L
    the Lagrangian at its (q, v, S)."""
    point = ArenaPoint("P", n, x)
    energy = float(point.p @ point.v) + point.lam * point.W - L
    return _record(energy, point.S, float(rates[n]), float(residual[n]), residual)


def _implicit_constants(n: int, h: float) -> np.ndarray:
    """The entries of the implicit step's Jacobian that no state moves:
    the momentum rows' identity on p, the covariable row's one, and the
    velocity and rate-slot rows' one and -1/h (their rates are the
    backward differences of q and S)."""
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()
    eye = np.eye(n)
    J = np.zeros((3 * n + 3, 3 * n + 3))
    J[n + 1 : 2 * n + 1, p] = eye
    J[2 * n + 1, lam] = 1.0
    J[2 * n + 2 : 3 * n + 2, v], J[2 * n + 2 : 3 * n + 2, q] = eye, -eye / h
    J[3 * n + 2, W], J[3 * n + 2, S] = 1.0, -1.0 / h
    return J


@lru_cache(maxsize=None)
def _jet_columns(n: int) -> np.ndarray:
    """P's columns of the jet arguments (q..., v..., S), read-only."""
    at = _arena_layout("P", n)[1]
    out = np.r_[at["q"], at["v"], at["S"]]
    out.flags.writeable = False
    return out


def _implicit_jacobian(model: SimpleThermoModel, x, rates, h: float, constants) -> np.ndarray:
    """The exact Jacobian of the implicit step's residual
    z -> implicit_residual_P(z, (z - x0) / h) at z = x, whose backward
    rates are ``rates``; ``constants`` holds the entries that no state
    moves (:func:`_implicit_constants`).

    The force-balance, entropy and momentum rows differentiate, through
    the jet columns (q, v, S), L's order-2 jet H (with s = dL/dS and
    its row ds), the one the velocity-side rate reads, and the order-1
    jets dF and dFext
    of friction and external force; the backward rates add s/h on p and
    F/h on lam to the force-balance rows, s/h on S and -F/h on q to the
    entropy row."""
    n = model.n
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()
    jet_columns = _jet_columns(n)
    _, g, H = _lagrangian_hessian(model, x[q], x[v], x[S])
    F, dF, Fext, dFext = _force_jets(model, x[q], x[v], x[S])
    s, ds = g[2 * n], H[2 * n]
    J = constants.copy()
    # (pdot - dL/dq - Fext) s + (lamdot - s) F
    J[:n, jet_columns] = (
        (rates[lam] - s) * dF - s * (H[:n] + dFext) + (rates[p] - g[:n] - Fext - F)[:, None] * ds
    )
    np.fill_diagonal(J[:n, p], s / h)
    J[:n, lam] = F / h
    # s Sdot - <F, qdot>
    J[n, jet_columns] = rates[S] * ds - rates[q] @ dF
    J[n, S] += s / h
    J[n, q] -= F / h
    # p - dL/dv
    J[n + 1 : 2 * n + 1, jet_columns] = -H[n : 2 * n]
    return J


def integrate_implicit_P(
    model: SimpleThermoModel, initial: ArenaPoint, t_end: float, h: float
) -> Trajectory:
    """Implicit Euler on the full-arena stacked residual.

    Each step solves the discretized residual (backward rates) for the
    next point with Newton iterations, then snaps the momentum and
    covariable slots onto their algebraic values. The Newton matrix is
    the residual's exact Jacobian (:func:`_implicit_jacobian`), built
    once per step at the predictor and held fixed within the step: a
    step costs one residual per iterate plus one jet each of L (order
    2), friction and external force (order 1). Partials that an
    evaluator strips with ``duals.value`` are absent from the Jacobian;
    Newton then converges more slowly but still stops on the true
    residual. A non-finite residual (an iterate off the domain) stops
    the run with the states stored so far. First order by construction;
    the point is exercising the implicit conditions, not accuracy.
    """
    if h <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and h must be positive")
    n = model.n
    d = 3 * n + 3
    p0 = momentum_map(model, initial.q, initial.v, initial.S)
    if np.max(np.abs(initial.p - p0)) > CONSISTENCY_TOL or abs(initial.lam) > CONSISTENCY_TOL:
        raise IntegrationError(
            "initial point is off the algebraic slice: momentum slots must "
            "carry dL/dv and the covariable must be zero"
        )

    K = max(1, int(round(t_end / h))) + 1
    states, rates = np.empty((K, d)), np.empty((K, d))
    diagnostics = np.empty((K, len(_DIAGNOSTICS)))
    constants = _implicit_constants(n, h)

    # instantaneous field data at the start, for the first record
    x = initial.as_vector()
    pair0 = solution_pair_P(model, initial.q, initial.v, initial.S)
    res0, L = implicit_residual_P(model, initial, pair0.tangent, with_value=True)
    states[0], rates[0] = x, pair0.tangent
    diagnostics[0] = _implicit_diag(n, x, pair0.tangent, res0, L)

    rate_guess = pair0.tangent
    for k in range(1, K):
        x0 = x
        x1 = x0 + h * rate_guess

        def g(z: np.ndarray):  # (residual, L) at z with the backward rates
            return implicit_residual_P(model, ArenaPoint("P", n, z), (z - x0) / h, with_value=True)

        r, L = g(x1)
        J = None
        converged = False
        for _ in range(IMPLICIT_MAX_ITER):
            err = np.abs(r).max()
            if err <= IMPLICIT_NEWTON_TOL:
                converged = True
                break
            if not math.isfinite(err):
                return _stored(h, k, "P", n, states, rates, diagnostics, completed=False)
            if J is None:
                J = _implicit_jacobian(model, x1, (x1 - x0) / h, h, constants)
            try:
                step = _solve(J, r)
            except np.linalg.LinAlgError:
                raise NewtonError("singular Jacobian in the implicit step")
            x1 = x1 - step
            if not np.all(np.isfinite(x1)):
                return _stored(h, k, "P", n, states, rates, diagnostics, completed=False)
            r, L = g(x1)
        if not converged:
            raise NewtonError(
                f"implicit step did not converge: residual {np.max(np.abs(r)):.3e} "
                f"after {IMPLICIT_MAX_ITER} iterations"
            )
        rate = (x1 - x0) / h
        # snap p and lam exactly, in place (Newton left them within tol); L is unmoved
        point = ArenaPoint("P", n, x1)
        point.p = momentum_map(model, point.q, point.v, point.S)
        point.lam = 0.0
        states[k], rates[k] = x1, rate
        diagnostics[k] = _implicit_diag(n, x1, rate, r, L)
        rate_guess = rate
        x = x1
    return _stored(h, K, "P", n, states, rates, diagnostics, completed=True)


# --- routes ----------------------------------------------------------------


def lagrangian_chart_initial(model: SimpleThermoModel, initial) -> np.ndarray:
    """Normalize an initial condition to the velocity-side flat chart.

    Accepts a mapping with keys q, S and (for regular models) v, which
    defaults to rest, a (q, v, S) tuple, or an already-flat vector in
    chart order (q..., S, v...); degenerate charts are (q..., S), and a
    degenerate model accepts v and ignores it. A mapping with any other
    key raises ValueError naming it, so a misspelt v never starts a run
    from rest; so does a non-finite coordinate (a null in a JSON config
    reads as NaN), so a run never starts from one."""
    n = model.n
    if isinstance(initial, dict):
        stray = sorted(map(str, set(initial) - {"q", "v", "S"}))
        if stray:
            raise ValueError(f"unknown initial-state keys {stray} (expected q, v and S)")
        initial = (initial["q"], initial.get("v", np.zeros(n)), initial["S"])
    if isinstance(initial, tuple) and len(initial) == 3:
        q, S = _as_array(initial[0], n, "q"), float(initial[2])
        v = [] if model.degenerate else _as_array(initial[1], n, "v")
        flat = np.concatenate([q, [S], v])
    else:
        dim = n + 1 if model.degenerate else 2 * n + 1
        flat = np.asarray(initial, dtype=float).reshape(-1)
        if flat.shape != (dim,):
            raise DimensionMismatchError(
                f"initial state must have {dim} coordinates for model "
                f"{model.name}, got {flat.shape}"
            )
    if not np.isfinite(flat).all():
        raise ValueError(f"initial state must be finite, got {flat.tolist()}")
    return flat


def integrate_route(
    model: SimpleThermoModel, route: str, initial, t_end: float, h: float
) -> Trajectory:
    """Integrate ``model`` along one of :data:`ROUTES` from an initial
    condition in any form :func:`lagrangian_chart_initial` accepts.

    ``lagrangian`` starts the velocity-side field at the chart state;
    ``hamilton-dirac-N`` passes the Hamiltonian gate (a degenerate model
    raises :class:`DegenerateLagrangianError`) and starts at p = dL/dv;
    ``implicit-P`` starts on P's algebraic slice: p = dL/dv, W the
    entropy rate there and a zero covariable (at rest if degenerate)."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r} (expected one of {ROUTES})")
    flat = lagrangian_chart_initial(model, initial)
    if route == "lagrangian":
        return integrate_explicit(lagrangian_field(model), flat, t_end, h)
    n = model.n
    q0, S0 = flat[:n], float(flat[n])
    v0 = flat[n + 1 :] if flat.size > n + 1 else np.zeros(n)
    if route == "hamilton-dirac-N":
        hmodel = build_hamiltonian_model(model)
        p0 = momentum_map(model, q0, v0, S0)
        return integrate_explicit(
            hamilton_field_N(hmodel), np.concatenate([q0, [S0], p0]), t_end, h
        )
    _, _, Sdot0 = vector_field_lagrangian(model, q0, v0, S0)
    p0 = momentum_map(model, q0, v0, S0)
    start = make_point("P", n, q=q0, S=S0, v=v0, W=Sdot0, p=p0, lam=0.0)
    return integrate_implicit_P(model, start, t_end, h)


# --- aggregation -----------------------------------------------------------


def monitor(trajectory: Trajectory, model: SimpleThermoModel) -> DiagnosticsReport:
    """Aggregate stored per-step diagnostics into the four headline
    numbers: relative energy drift, worst entropy step, and the largest
    constraint and membership residuals."""
    diags = trajectory.diagnostics
    if not len(diags):
        raise DiracThermoError("trajectory carries no diagnostics records")
    energy = diags.energy
    drift = np.max(np.abs(energy - energy[0])) / max(1.0, abs(energy[0]))
    steps = np.diff(trajectory.states.S)
    return DiagnosticsReport(
        energy_drift=float(drift),
        min_entropy_step=float(steps.min()) if steps.size else 0.0,
        max_constraint_residual=float(diags.constraint_residual.max()),
        max_dirac_residual=float(diags.dirac_residual.max()),
    )
