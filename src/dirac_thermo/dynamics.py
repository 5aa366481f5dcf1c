"""Evolution fields, integrators, and invariant monitoring.

Three ways to move a simple thermodynamic system forward in time:

* an explicit field on the momentum arena (Hamiltonian picture),
* an explicit field on the velocity side (works for degenerate models
  too, where the equation of motion is algebraic in the rate),
* an implicit Euler scheme solving the full stacked residual on the
  largest arena with Newton steps.

Each explicit side evaluates a state into one work record, the rate
plus the partials, friction and external force it was built from
(``_lagrangian_work`` in both velocity-side regimes, whose regular
regime reads one jet of L, ``_momentum_work`` one fiber solve);
the vector fields, the solution data and each field's rate, stored row
and per-step diagnostics (energy, entropy, entropy rate, the
rate-constraint residual and the membership residual of the state, rate
and energy differential) read it. The ``solution_pair_*`` helpers
assemble those (state, tangent, covector) triples on P from an on-shell
state, and every other arena takes them at its slots
(``model.arena_slots``) unchanged: the sign flip between the velocity
and momentum sides lives in the TstarQ and N condition rows
(``dirac.condition_matrix``), not in the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dirac import dirac_membership
from .errors import (
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    IntegrationError,
    NewtonError,
    TemperatureSignError,
)
from .legendre import HamiltonianModel, HamiltonianPartials, hamiltonian_partials, momentum_map
from .model import (
    ArenaPoint,
    SimpleThermoModel,
    TangentCovectorPair,
    _arena_dtype,
    _as_array,
    _momentum_rate_from,
    _records,
    arena_dim,
    arena_slots,
    external_value,
    friction_value,
    friction_velocity_jacobian,
    lagrangian_jet,
    lagrangian_partials,
    lagrangian_value,
)

__all__ = [
    "DiagnosticsRecord",
    "DiagnosticsReport",
    "ExplicitField",
    "Trajectory",
    "hamilton_field_N",
    "implicit_residual_P",
    "integrate_explicit",
    "integrate_implicit_P",
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


def _point_partials(model: SimpleThermoModel, q, v, S):
    """(dLdq, dLdv, s, F, Fext) at one state: the first-order pass that
    the velocity-side work and the implicit residual share."""
    dLdq, dLdv, s = lagrangian_partials(model, q, v, S)
    return dLdq, dLdv, s, friction_value(model, q, v, S), external_value(model, q, v, S)


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
    """A velocity-side rate (qdot, vdot, Sdot) and the first partials,
    friction and external force it was built from; qdot is also the
    state's velocity. ``Lv`` holds the Hessian's velocity rows
    (L_vq | L_vv | L_vS), from which the momentum rate is read; it is
    None in the degenerate regime, where the momentum is identically
    zero."""

    qdot: np.ndarray
    vdot: np.ndarray
    Sdot: float
    dLdq: np.ndarray
    dLdv: np.ndarray
    s: float
    F: np.ndarray
    Fext: np.ndarray
    Lv: Optional[np.ndarray]


class _MomentumWork(NamedTuple):
    """A momentum-side rate (qdot, pdot, Sdot) and the Hamiltonian
    partials, friction and external force it was built from; qdot is the
    inverted velocity."""

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
        # L ignores v: its partials at zero velocity are those at the solved rate
        dLdq, _, s, F0, Fext = _point_partials(model, q, zero_v, S)
        if np.max(np.abs(F0)) > 1e-12:
            raise DiracThermoError(
                "the degenerate regime needs velocity-linear friction "
                f"(got friction {F0} at zero velocity, model {model.name})"
            )
        J = friction_velocity_jacobian(model, q, zero_v, S)
        try:
            qdot = np.linalg.solve(J, -(dLdq + Fext))
        except np.linalg.LinAlgError:
            raise DiracThermoError(
                f"singular friction coefficient matrix (model {model.name})"
            )
        F = friction_value(model, q, qdot, S)
        Sdot = _entropy_rate(model, F, qdot, s)
        return _LagrangianWork(qdot, zero_v, Sdot, dLdq, np.zeros(n), s, F, Fext, None)

    # one jet of L and one friction evaluation
    v = _as_array(v, n, "v")
    dLdq, dLdv, s, Lv = lagrangian_jet(model, q, v, S)
    F, Fext = friction_value(model, q, v, S), external_value(model, q, v, S)
    Sdot = _entropy_rate(model, F, v, s)
    # the momentum rate at vdot = 0 moves to the right-hand side
    rhs = dLdq + F + Fext - _momentum_rate_from(Lv, v, np.zeros(n), Sdot)
    H = Lv[:, n : 2 * n]
    m = H[0, 0]  # a scalar mass beats an n=1 LAPACK round trip on the hot path
    try:
        if n > 1:
            vdot = np.linalg.solve(H, rhs)
        elif m != 0.0 and math.isfinite(m):
            vdot = rhs / m
        else:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DegenerateLagrangianError(
            f"singular velocity Hessian; model {model.name} needs the "
            "velocity-independent regime"
        )
    return _LagrangianWork(v.copy(), vdot, Sdot, dLdq, dLdv, s, F, Fext, Lv)


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


def _solution_data(model: SimpleThermoModel, q, v, S, work) -> TangentCovectorPair:
    """P-arena data at the state (q, v, S) with the rate (qdot, vdot,
    Sdot) and the partials at (q, v, S) that the :class:`_LagrangianWork`
    ``work`` holds. On a solution v equals qdot. A degenerate model's
    momentum is identically zero, and so is its rate."""
    n = model.n
    base, tangent, covector = (ArenaPoint("P", n, row) for row in np.zeros((3, 3 * n + 3)))
    base.q, base.S, base.v, base.W, base.p = q, S, v, work.Sdot, work.dLdv  # lam = 0
    tangent.q, tangent.S, tangent.v = work.qdot, work.Sdot, work.vdot  # W, lam do not move
    if not model.degenerate:
        tangent.p = _momentum_rate_from(work.Lv, work.qdot, work.vdot, work.Sdot)
    covector.q, covector.S = -work.dLdq - work.Fext, -work.s
    covector.v, covector.W = base.p - work.dLdv, base.lam
    covector.p, covector.lam = base.v, work.Sdot
    return TangentCovectorPair(base=base, tangent=tangent.row, covector=covector.row)


def _on_arena(pair: TangentCovectorPair, arena: str) -> TangentCovectorPair:
    """P-arena data taken at the arena's slots."""
    n = pair.base.n
    slots = arena_slots(arena, n)
    return TangentCovectorPair(
        base=ArenaPoint(arena, n, pair.base.row[slots]),
        tangent=pair.tangent[slots],
        covector=pair.covector[slots],
    )


def _hamiltonian_covector(hp, Fext) -> np.ndarray:
    """The Hamiltonian differential (dH/dq - external, dH/dS, dH/dp)."""
    return np.concatenate([hp.dq - Fext, [hp.dS], hp.dp])


def _hamiltonian_N(model: SimpleThermoModel, pair) -> TangentCovectorPair:
    """N data of P-arena solution data with the Hamiltonian differential
    as its covector, the fiber inverted from the solution's velocity."""
    Fext = external_value(model, pair.base.q, pair.base.v, pair.base.S)
    pair = _on_arena(pair, "N")
    base = pair.base
    hp = hamiltonian_partials(model, base.q, base.p, base.S, v0=pair.tangent[: base.n])
    return TangentCovectorPair(
        base=base, tangent=pair.tangent, covector=_hamiltonian_covector(hp, Fext)
    )


def solution_pair_P(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """(state, tangent, covector) data of a solution through (q, v, S)
    on the full arena: fiber slots filled by the momentum relation, the
    covector is the generalized-energy differential (external force
    subtracted on the configuration slots). The rate of the entropy-rate
    slot is unconstrained and recorded as zero."""
    work = _lagrangian_work(model, q, v, S)
    return _solution_data(model, q, work.qdot, S, work)


def solution_pair_M(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """As :func:`solution_pair_P` on the velocity-momentum arena."""
    return _on_arena(solution_pair_P(model, q, v, S), "M")


def solution_pair_TstarQ(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the cotangent arena: base at
    (q, S, momentum, 0), covector slots (-dL/dq, -dL/dS, v, Sdot)."""
    return _on_arena(solution_pair_P(model, q, v, S), "TstarQ")


def solution_pair_N(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the momentum arena; the
    covector is (-dL/dq, -dL/dS, v), fiber matching supplying the base
    momentum."""
    return _on_arena(solution_pair_P(model, q, v, S), "N")


def solution_pair_N_hamiltonian(
    hmodel: HamiltonianModel, q, v, S
) -> TangentCovectorPair:
    """As :func:`solution_pair_N` but with the Hamiltonian differential
    (dH/dq - external, dH/dS, dH/dp) as the covector."""
    return _hamiltonian_N(hmodel.source, solution_pair_P(hmodel.source, q, v, S))


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


def _explicit_diagnostics(model: SimpleThermoModel, pair: TangentCovectorPair, v, s, F):
    """Diagnostics of an explicit field's (state, rate, energy
    differential) data on M or N, with v the state's velocity and (s, F)
    the entropy slope and friction there: the energy <p, v> - L, the
    constraint s Sdot - <F, v> and the membership residual. Where the
    slope vanishes (T = 0 on N) the induced subspace is not defined and
    the membership residual is infinite."""
    base = pair.base
    S, Sdot = base.S, ArenaPoint(base.arena, base.n, pair.tangent).S
    energy = float(base.p @ v) - lagrangian_value(model, base.q, v, S)
    if s == 0.0 or not math.isfinite(s):
        residual = math.inf
    else:
        coef = -s if base.arena == "N" else s  # the momentum side reads T = -s
        residual = dirac_membership(base.arena, model, pair, coefficients=(coef, F))
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
        w = last.at(y)
        pair = TangentCovectorPair(
            base=ArenaPoint("N", n, y), tangent=r, covector=_hamiltonian_covector(w.hp, w.Fext)
        )
        return _explicit_diagnostics(model, pair, w.qdot, -w.hp.dS, w.F)

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
    last = _LastWork(lambda y: _lagrangian_work(model, y[:n], y[n + 1 :], y[n]))

    def rate(y: np.ndarray) -> np.ndarray:
        w = last.fresh(y)
        out = np.empty(dim)
        out[:n], out[n] = w.qdot, w.Sdot
        if not model.degenerate:
            out[n + 1 :] = w.vdot
        return out

    def to_point(y: np.ndarray, r: np.ndarray) -> np.ndarray:
        w = last.at(y)
        point = ArenaPoint("M", n, np.empty(3 * n + 1))
        point.q, point.S, point.v, point.p = y[:n], y[n], w.qdot, w.dLdv
        return point.row

    def diagnostics(y: np.ndarray, r: np.ndarray) -> DiagnosticsRecord:
        # measures the given rate r against the state y's work
        w = last.at(y)
        vdot = w.vdot if model.degenerate else r[n + 1 :]
        measured = _LagrangianWork(r[:n], vdot, float(r[n]), *w[3:])  # w's partials
        data = _solution_data(model, y[:n], w.qdot, y[n], measured)
        return _explicit_diagnostics(model, _on_arena(data, "M"), w.qdot, w.s, w.F)

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


def implicit_residual_P(model: SimpleThermoModel, point: ArenaPoint, rates) -> np.ndarray:
    """Stacked residual of the full-arena conditions at (point, rates).

    Rates follow the arena order (qdot, Sdot, vdot, Wdot, pdot, lamdot).
    Blocks, in order: n force-balance rows scaled by the entropy slope,
    the entropy-rate row, the momentum-match rows, the covariable, the
    velocity match, and the rate-slot match. External force enters the
    force-balance rows additively.
    """
    n = model.n
    rate = ArenaPoint("P", n, _as_array(rates, 3 * n + 3, "rates"))
    qdot, Sdot = rate.q, rate.S
    dLdq, dLdv, s, F, Fext = _point_partials(model, point.q, point.v, point.S)
    return np.concatenate(
        [
            (rate.p - dLdq - Fext) * s + (rate.lam - s) * F,
            [s * Sdot - F @ qdot],
            point.p - dLdv,
            [point.lam],
            point.v - qdot,
            [point.W - Sdot],
        ]
    )


def _implicit_diag(model, x, rates, residual) -> DiagnosticsRecord:
    """Diagnostics at the flat P row x, read through its groups."""
    n = model.n
    point = ArenaPoint("P", n, x)
    energy = float(point.p @ point.v) + point.lam * point.W - lagrangian_value(
        model, point.q, point.v, point.S
    )
    return _record(energy, point.S, float(rates[n]), float(residual[n]), residual)


def integrate_implicit_P(
    model: SimpleThermoModel, initial: ArenaPoint, t_end: float, h: float
) -> Trajectory:
    """Implicit Euler on the full-arena stacked residual.

    Each step solves the discretized residual (backward rates) for the
    next point with Newton iterations on a finite-difference Jacobian
    held fixed within the step, then snaps the momentum and covariable
    slots onto their algebraic values. First order by construction; the
    point is exercising the implicit conditions, not accuracy.
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

    # instantaneous field data at the start, for the first record
    x = initial.as_vector()
    pair0 = solution_pair_P(model, initial.q, initial.v, initial.S)
    res0 = implicit_residual_P(model, initial, pair0.tangent)
    states[0], rates[0] = x, pair0.tangent
    diagnostics[0] = _implicit_diag(model, x, pair0.tangent, res0)

    rate_guess = pair0.tangent
    for k in range(1, K):
        x0 = x
        x1 = x0 + h * rate_guess

        def g(z: np.ndarray) -> np.ndarray:
            return implicit_residual_P(model, ArenaPoint("P", n, z), (z - x0) / h)

        r = g(x1)
        J = None
        converged = False
        for _ in range(IMPLICIT_MAX_ITER):
            if np.max(np.abs(r)) <= IMPLICIT_NEWTON_TOL:
                converged = True
                break
            if J is None:
                J = np.empty((d, d))
                for j in range(d):
                    dz = 1e-7 * max(1.0, abs(x1[j]))
                    zp = x1.copy()
                    zp[j] += dz
                    J[:, j] = (g(zp) - r) / dz
            try:
                step = np.linalg.solve(J, r)
            except np.linalg.LinAlgError:
                raise NewtonError("singular Jacobian in the implicit step")
            x1 = x1 - step
            if not np.all(np.isfinite(x1)):
                return _stored(h, k, "P", n, states, rates, diagnostics, completed=False)
            r = g(x1)
        if not converged:
            raise NewtonError(
                f"implicit step did not converge: residual {np.max(np.abs(r)):.3e} "
                f"after {IMPLICIT_MAX_ITER} iterations"
            )
        rate = (x1 - x0) / h
        # snap the algebraic slots exactly, in place; Newton left them within tol
        point = ArenaPoint("P", n, x1)
        point.p = momentum_map(model, point.q, point.v, point.S)
        point.lam = 0.0
        states[k], rates[k] = x1, rate
        diagnostics[k] = _implicit_diag(model, x1, rate, r)
        rate_guess = rate
        x = x1
    return _stored(h, K, "P", n, states, rates, diagnostics, completed=True)


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
