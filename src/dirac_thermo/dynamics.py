"""Evolution fields, integrators, and invariant monitoring.

Three ways to move a simple thermodynamic system forward in time:

* an explicit field on the momentum arena (Hamiltonian picture),
* an explicit field on the velocity side (works for degenerate models
  too, where the equation of motion is algebraic in the rate),
* an implicit Euler scheme solving the full stacked residual on the
  largest arena with Newton steps.

All integrators record per-step diagnostics: energy, entropy, entropy
rate, the rate-constraint residual, and the membership residual of the
numerical (state, rate, energy differential) data in the induced
subspace. The ``solution_pair_*`` helpers assemble exactly those
(state, tangent, covector) triples from an on-shell state; they are the
bridge between computed trajectories and the membership tests. One
builder fills the P-arena data from a single derivative pass, and every
other arena takes that data at its slots (``model.arena_slots``)
unchanged: the sign flip between the velocity and momentum sides lives
in the TstarQ and N condition rows (``dirac.condition_matrix``), not in
the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dirac import dirac_membership, phenomenological_constraint_residual
from .errors import (
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    IntegrationError,
    NewtonError,
    TemperatureSignError,
)
from .legendre import HamiltonianModel, hamiltonian_partials, momentum_map
from .model import (
    PointM,
    PointN,
    PointP,
    point_from_vector,
    SimpleThermoModel,
    TangentCovectorPair,
    _as_array,
    arena_slots,
    external_value,
    friction_value,
    friction_velocity_jacobian,
    lagrangian_partials,
    lagrangian_value,
    mixed_velocity_term,
    momentum_rate,
    velocity_hessian,
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


@dataclass(frozen=True)
class DiagnosticsRecord:
    energy: float
    entropy: float
    entropy_rate: float
    constraint_residual: float
    dirac_residual: float


def _record(energy, S, Sdot, constraint, residual) -> DiagnosticsRecord:
    """Diagnostics record from the constraint value and membership residual."""
    return DiagnosticsRecord(
        energy=energy,
        entropy=S,
        entropy_rate=Sdot,
        constraint_residual=abs(constraint),
        dirac_residual=float(np.max(np.abs(residual))),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    energy_drift: float
    min_entropy_step: float
    max_constraint_residual: float
    max_dirac_residual: float


@dataclass
class Trajectory:
    """Fixed-step integration output.

    ``states`` holds arena points, one per stored time. ``rates`` holds
    the integrator's rate data at each stored state in the integrator's
    own chart (which can be smaller than the arena). ``completed`` is
    False when the run aborted on a non-finite state; whatever was
    accumulated up to that point is kept.
    """

    times: np.ndarray
    states: list
    rates: list
    diagnostics: list
    arena: str
    completed: bool = True


def trajectory_rows(trajectory: Trajectory) -> np.ndarray:
    """(q, S, v, W=Sdot, p) rows of a stored trajectory, one per state.

    On the momentum chart the stored rate's configuration block is the
    inverted fiber velocity, so no fiber solve is needed; the other
    charts store v in their states."""
    n = trajectory.states[0].q.size
    rows = np.empty((len(trajectory.states), 3 * n + 2))
    for row, point, rate in zip(rows, trajectory.states, trajectory.rates):
        v = point.v if hasattr(point, "v") else rate[:n]
        row[:n], row[n], row[n + 1 : 2 * n + 1] = point.q, point.S, v
        row[2 * n + 1], row[2 * n + 2 :] = rate[n], point.p
    return rows


# --- explicit right-hand sides -----------------------------------------


def _momentum_work(hmodel: HamiltonianModel, point: PointN, v0=None):
    """Momentum-side rate plus the intermediates it was built from.

    Returns (qdot, pdot, Sdot, hp, F, Fext) so the explicit field can
    hand diagnostics the same partials instead of re-inverting the
    fiber at stored states.
    """
    model = hmodel.source
    hp = hamiltonian_partials(model, point.q, point.p, point.S, v0=v0)
    v = hp.velocity
    F = friction_value(model, point.q, v, point.S)
    Fext = external_value(model, point.q, v, point.S)
    qdot = hp.dp
    pdot = -hp.dq + F + Fext
    if not F.any():
        Sdot = 0.0
    else:
        T = hp.dS
        if not T > 0.0:
            raise TemperatureSignError(
                f"dH/dS = {T:.6g} must be positive where friction acts (model {model.name})"
            )
        Sdot = float(-(F @ qdot) / T)
    return qdot, pdot, Sdot, hp, F, Fext


def vector_field_N(hmodel: HamiltonianModel, point: PointN, v0=None):
    """Explicit momentum-side field (qdot, pdot, Sdot).

    The entropy rate balances dissipated power against temperature.
    Friction-free points move entropy nowhere, which keeps pure
    mechanics (entropy-independent models) inside this field without a
    temperature read; with friction present, a non-positive temperature
    is a domain violation and is raised as such. ``v0`` seeds the fiber
    inversion (a warm start from a nearby state).
    """
    qdot, pdot, Sdot = _momentum_work(hmodel, point, v0=v0)[:3]
    return qdot, pdot, Sdot


def vector_field_lagrangian(model: SimpleThermoModel, q, v, S):
    """Explicit velocity-side field (qdot, vdot, Sdot).

    Regular regime: the velocity Hessian is inverted for vdot and the
    entropy rate comes from the rate constraint. Degenerate regime
    (velocity-independent Lagrangian, velocity-linear friction): the
    equation of motion is algebraic in the rate, so the friction
    coefficient matrix is solved directly; the passed v is ignored and
    the returned qdot is the solved rate, with vdot identically zero.
    """
    n = model.n
    q = _as_array(q, n, "q")
    S = float(S)

    if model.degenerate:
        zero_v = np.zeros(n)
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
        if np.all(F == 0.0):
            Sdot = 0.0
        else:
            if s == 0.0:
                raise TemperatureSignError(
                    f"dL/dS vanishes where friction acts (model {model.name})"
                )
            Sdot = float(F @ qdot / s)
        return qdot, np.zeros(n), Sdot

    v = _as_array(v, n, "v")
    qdot, vdot, Sdot = _regular_work(model, q, v, S)[:3]
    return qdot, vdot, Sdot


def _point_partials(model: SimpleThermoModel, q, v, S):
    """(dLdq, dLdv, s, F, Fext) at one state: the derivative pass that
    rates, solution data and diagnostics share."""
    dLdq, dLdv, s = lagrangian_partials(model, q, v, S)
    return dLdq, dLdv, s, friction_value(model, q, v, S), external_value(model, q, v, S)


def _regular_work(model: SimpleThermoModel, q, v, S):
    """Velocity-side rate plus the intermediates it was built from.

    Returns (qdot, vdot, Sdot, dLdq, dLdv, s, F, Fext); q, v must
    already be shaped arrays. Rolled into one place so the explicit
    field can hand diagnostics the same values instead of recomputing
    them at stored states.
    """
    dLdq, dLdv, s, F, Fext = _point_partials(model, q, v, S)
    if not F.any():
        Sdot = 0.0
    else:
        if s == 0.0:
            raise TemperatureSignError(
                f"dL/dS vanishes where friction acts (model {model.name})"
            )
        Sdot = float(F @ v / s)
    rhs = dLdq + F + Fext - mixed_velocity_term(model, q, v, S, qdot=v, Sdot=Sdot)
    H = velocity_hessian(model, q, v, S)
    if model.n == 1:
        # scalar mass beats an n=1 LAPACK round trip on the hot path
        m = H[0, 0]
        if m == 0.0 or not np.isfinite(m):
            raise DegenerateLagrangianError(
                f"singular velocity Hessian; model {model.name} needs the "
                "velocity-independent regime"
            )
        vdot = rhs / m
    else:
        try:
            vdot = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            raise DegenerateLagrangianError(
                f"singular velocity Hessian; model {model.name} needs the "
                "velocity-independent regime"
            )
    return v.copy(), vdot, Sdot, dLdq, dLdv, s, F, Fext


# --- on-shell membership data -------------------------------------------


def _lagrangian_work(model: SimpleThermoModel, q, v, S):
    """As :func:`_regular_work` at an on-shell state; degenerate models
    take their partials at the solved rate."""
    q = _as_array(q, model.n, "q")
    if not model.degenerate:
        return _regular_work(model, q, _as_array(v, model.n, "v"), float(S))
    qdot, vdot, Sdot = vector_field_lagrangian(model, q, v, S)
    return (qdot, vdot, Sdot, *_point_partials(model, q, qdot, S))


def _solution_data(model: SimpleThermoModel, q, v, S, work) -> TangentCovectorPair:
    """P-arena data at the state (q, v, S) with the rate and partials in
    ``work``, laid out as :func:`_regular_work` returns them: (qdot,
    vdot, Sdot) and then (dLdq, dLdv, s, F, Fext) taken at (q, v, S). On
    a solution v equals qdot. A degenerate model's momentum is
    identically zero, and so is its rate."""
    qdot, vdot, Sdot, dLdq, dLdv, s, _, Fext = work
    point = PointP(q=np.asarray(q, float), S=float(S), v=v, W=Sdot, p=dLdv, lam=0.0)
    if model.degenerate:
        pdot = np.zeros(model.n)
    else:
        pdot = momentum_rate(model, q, v, S, qdot=qdot, vdot=vdot, Sdot=Sdot)
    tangent = np.concatenate([qdot, [Sdot], vdot, [0.0], pdot, [0.0]])
    covector = np.concatenate(
        [-dLdq - Fext, [-s], point.p - dLdv, [point.lam], v, [Sdot]]
    )
    return TangentCovectorPair(base=point, tangent=tangent, covector=covector)


def _on_arena(pair: TangentCovectorPair, arena: str) -> TangentCovectorPair:
    """P-arena data taken at the arena's slots."""
    n = pair.base.q.size
    slots = arena_slots(arena, n)
    base = point_from_vector(arena, n, pair.base.as_vector()[slots])
    return TangentCovectorPair(
        base=base, tangent=pair.tangent[slots], covector=pair.covector[slots]
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
    hp = hamiltonian_partials(model, base.q, base.p, base.S, v0=pair.tangent[: base.q.size])
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
    return _solution_data(model, q, work[0], S, work)


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
    """A flat-chart right-hand side plus the adapters the integrator
    needs to store arena points and per-step diagnostics."""

    arena: str
    dim: int
    rate: Callable
    to_point: Callable
    diagnostics: Callable


def hamilton_field_N(hmodel: HamiltonianModel) -> ExplicitField:
    """Momentum-side field over the flat chart (q, S, p)."""
    model = hmodel.source
    n = model.n
    seed = [None]  # last inverted velocity, reused as the next Newton seed
    work = [None, None]  # (state bytes, intermediates) of the last rate call

    def rate(y: np.ndarray) -> np.ndarray:
        point = PointN(q=y[:n], S=float(y[n]), p=y[n + 1 :])
        qdot, pdot, Sdot, hp, F, Fext = _momentum_work(hmodel, point, v0=seed[0])
        seed[0] = qdot
        work[0] = y.tobytes()
        work[1] = (hp, F, Fext)
        return np.concatenate([qdot, [Sdot], pdot])

    def to_point(y: np.ndarray, r: np.ndarray) -> PointN:
        return PointN(q=y[:n].copy(), S=float(y[n]), p=y[n + 1 :].copy())

    def diagnostics(y: np.ndarray, r: np.ndarray) -> DiagnosticsRecord:
        point = to_point(y, r)
        v = r[:n]  # qdot equals the inverted velocity on this side
        energy = float(point.p @ v) - lagrangian_value(model, point.q, v, point.S)
        Sdot = float(r[n])
        constraint = phenomenological_constraint_residual(
            model, point.q, v, point.S, Sdot
        )
        if work[0] == y.tobytes():
            hp, F, Fext = work[1]
        else:
            hp = hamiltonian_partials(model, point.q, point.p, point.S, v0=v)
            F = friction_value(model, point.q, hp.velocity, point.S)
            Fext = external_value(model, point.q, hp.velocity, point.S)
        pair = TangentCovectorPair(
            base=point, tangent=r, covector=_hamiltonian_covector(hp, Fext)
        )
        res = dirac_membership("N", model, pair, coefficients=(hp.dS, F))
        return _record(energy, point.S, Sdot, constraint, res)

    return ExplicitField(
        arena="N", dim=2 * n + 1, rate=rate, to_point=to_point, diagnostics=diagnostics
    )


def lagrangian_field(model: SimpleThermoModel) -> ExplicitField:
    """Velocity-side field; chart (q, S, v), or (q, S) for degenerate
    models whose rate is algebraic."""
    n = model.n
    work = [None, None]  # (state bytes, _regular_work result) of the last rate call

    if model.degenerate:

        def rate(y: np.ndarray) -> np.ndarray:
            qdot, _, Sdot = vector_field_lagrangian(model, y[:n], np.zeros(n), y[n])
            return np.concatenate([qdot, [Sdot]])

        def to_point(y: np.ndarray, r: np.ndarray) -> PointM:
            # momentum is identically zero: no velocity dependence in L
            return PointM(q=y[:n].copy(), S=float(y[n]), v=r[:n].copy(), p=np.zeros(n))

    else:

        def rate(y: np.ndarray) -> np.ndarray:
            w = _regular_work(model, y[:n], y[n + 1 :], float(y[n]))
            work[0] = y.tobytes()
            work[1] = w
            qdot, vdot, Sdot = w[:3]
            return np.concatenate([qdot, [Sdot], vdot])

        def to_point(y: np.ndarray, r: np.ndarray) -> PointM:
            q, S, v = y[:n], float(y[n]), y[n + 1 :]
            if work[0] == y.tobytes():
                p = work[1][4].copy()
            else:
                p = momentum_map(model, q, v, S)
            return PointM(q=q.copy(), S=S, v=v.copy(), p=p)

    def diagnostics(y: np.ndarray, r: np.ndarray) -> DiagnosticsRecord:
        # measures the given rate r at the state y; only partials are cached
        q, S, Sdot = y[:n], float(y[n]), float(r[n])
        if model.degenerate:
            v, vdot = r[:n], np.zeros(n)  # the chart has no velocity slot
        else:
            v, vdot = y[n + 1 :], r[n + 1 :]
        if work[0] == y.tobytes():
            partials = work[1][3:]
        else:
            partials = _point_partials(model, q, v, S)
        _, dLdv, s, F, _ = partials
        energy = float(dLdv @ v) - lagrangian_value(model, q, v, S)
        constraint = float(s * Sdot - F @ v)
        data = _solution_data(model, q, v, S, (r[:n], vdot, Sdot, *partials))
        res = dirac_membership("M", model, _on_arena(data, "M"), coefficients=(s, F))
        return _record(energy, S, Sdot, constraint, res)

    return ExplicitField(
        arena="M",
        dim=n + 1 if model.degenerate else 2 * n + 1,
        rate=rate,
        to_point=to_point,
        diagnostics=diagnostics,
    )


def _wrap_plain_field(field: Callable, dim: int) -> ExplicitField:
    return ExplicitField(
        arena="",
        dim=dim,
        rate=lambda y: np.asarray(field(y), dtype=float),
        to_point=lambda y, r: y.copy(),
        diagnostics=None,
    )


def integrate_explicit(field, initial, t_end: float, h: float) -> Trajectory:
    """Classical fixed-step fourth-order integration of an explicit field.

    ``field`` is an :class:`ExplicitField` or a plain callable on flat
    vectors (then states are stored as flat vectors and diagnostics are
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
    if not isinstance(field, ExplicitField):
        field = _wrap_plain_field(field, y.size)
    if y.shape != (field.dim,):
        raise DimensionMismatchError(
            f"initial state must have {field.dim} coordinates, got {y.shape}"
        )
    steps = max(1, int(round(t_end / h)))
    f = field.rate
    states, rates, diags = [], [], []
    r = f(y)
    states.append(field.to_point(y, r))
    rates.append(r)
    if field.diagnostics is not None:
        diags.append(field.diagnostics(y, r))
    completed = True
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(steps):
        k1 = r
        k2 = f(y + half * k1)
        k3 = f(y + half * k2)
        k4 = f(y + h * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(y)):
            completed = False
            break
        r = f(y)
        states.append(field.to_point(y, r))
        rates.append(r)
        if field.diagnostics is not None:
            diags.append(field.diagnostics(y, r))
    times = np.arange(len(states)) * h
    return Trajectory(
        times=times,
        states=states,
        rates=rates,
        diagnostics=diags,
        arena=field.arena,
        completed=completed,
    )


# --- implicit integration on the full arena -------------------------------


def implicit_residual_P(model: SimpleThermoModel, point: PointP, rates) -> np.ndarray:
    """Stacked residual of the full-arena conditions at (point, rates).

    Rates follow the arena order (qdot, Sdot, vdot, Wdot, pdot, lamdot).
    Blocks, in order: n force-balance rows scaled by the entropy slope,
    the entropy-rate row, the momentum-match rows, the covariable, the
    velocity match, and the rate-slot match. External force enters the
    force-balance rows additively.
    """
    n = model.n
    rates = _as_array(rates, 3 * n + 3, "rates")
    qdot, Sdot = rates[:n], rates[n]
    pdot, lamdot = rates[2 * n + 2 : 3 * n + 2], rates[3 * n + 2]
    dLdq, dLdv, s, F, Fext = _point_partials(model, point.q, point.v, point.S)
    return np.concatenate(
        [
            (pdot - dLdq - Fext) * s + (lamdot - s) * F,
            [s * Sdot - F @ qdot],
            point.p - dLdv,
            [point.lam],
            point.v - qdot,
            [point.W - Sdot],
        ]
    )


def _implicit_diag(model, point, rates, residual) -> DiagnosticsRecord:
    energy = float(point.p @ point.v) + point.lam * point.W - lagrangian_value(
        model, point.q, point.v, point.S
    )
    n = model.n
    return _record(energy, point.S, float(rates[n]), float(residual[n]), residual)


def integrate_implicit_P(
    model: SimpleThermoModel,
    initial: PointP,
    t_end: float,
    h: float,
    newton_tol: float = IMPLICIT_NEWTON_TOL,
    max_iter: int = IMPLICIT_MAX_ITER,
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
    x = initial.as_vector()
    p0 = momentum_map(model, initial.q, initial.v, initial.S)
    if np.max(np.abs(initial.p - p0)) > CONSISTENCY_TOL or abs(initial.lam) > CONSISTENCY_TOL:
        raise IntegrationError(
            "initial point is off the algebraic slice: momentum slots must "
            "carry dL/dv and the covariable must be zero"
        )

    steps = max(1, int(round(t_end / h)))
    states, rates_list, diags = [initial], [], []

    # instantaneous field data at the start, for the first record
    pair0 = solution_pair_P(model, initial.q, initial.v, initial.S)
    res0 = implicit_residual_P(model, initial, pair0.tangent)
    rates_list.append(pair0.tangent)
    diags.append(_implicit_diag(model, initial, pair0.tangent, res0))

    rate_guess = pair0.tangent
    completed = True
    for _ in range(steps):
        x0 = x
        x1 = x0 + h * rate_guess

        def g(z: np.ndarray) -> np.ndarray:
            return implicit_residual_P(model, point_from_vector("P", n, z), (z - x0) / h)

        r = g(x1)
        J = None
        converged = False
        for _ in range(max_iter):
            if np.max(np.abs(r)) <= newton_tol:
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
                completed = False
                break
            r = g(x1)
        if not completed:
            break
        if not converged:
            raise NewtonError(
                f"implicit step did not converge: residual {np.max(np.abs(r)):.3e} "
                f"after {max_iter} iterations"
            )
        rate = (x1 - x0) / h
        point = point_from_vector("P", n, x1)
        # snap the algebraic slots exactly; Newton left them within tol
        point = replace(point, p=momentum_map(model, point.q, point.v, point.S), lam=0.0)
        x = point.as_vector()
        states.append(point)
        rates_list.append(rate)
        diags.append(_implicit_diag(model, point, rate, r))
        rate_guess = rate
    times = np.arange(len(states)) * h
    return Trajectory(
        times=times,
        states=states,
        rates=rates_list,
        diagnostics=diags,
        arena="P",
        completed=completed,
    )


# --- aggregation -----------------------------------------------------------


def monitor(trajectory: Trajectory, model: SimpleThermoModel) -> DiagnosticsReport:
    """Aggregate stored per-step diagnostics into the four headline
    numbers: relative energy drift, worst entropy step, and the largest
    constraint and membership residuals."""
    diags = trajectory.diagnostics
    if not diags:
        raise DiracThermoError("trajectory carries no diagnostics records")
    e0 = diags[0].energy
    drift = max(abs(rec.energy - e0) for rec in diags) / max(1.0, abs(e0))
    entropies = [p.S for p in trajectory.states]
    if len(entropies) > 1:
        min_step = min(b - a for a, b in zip(entropies, entropies[1:]))
    else:
        min_step = 0.0
    return DiagnosticsReport(
        energy_drift=float(drift),
        min_entropy_step=float(min_step),
        max_constraint_residual=float(max(rec.constraint_residual for rec in diags)),
        max_dirac_residual=float(max(rec.dirac_residual for rec in diags)),
    )
