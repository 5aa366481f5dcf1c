"""Cross-formulation oracles and discrete variational checks.

Everything here compares two independently computed objects: two
integration routes for the same motion, a discretized action against
its stationarity, a reduced field against the canonical mechanical one,
or membership residuals of solution data against perturbed data. None
of it feeds back into the solvers; it only measures them.

The sampled reports (isotropy, jet gradient, Legendre round trip) return
their worst values over seeded domain samples; the command line only
compares them with tolerances. Trajectories come from
:func:`dynamics.integrate_route`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .dirac import dirac_basis, dirac_membership
from .duals import ScalarField, fd_check
from .dynamics import (
    ROUTES,
    Trajectory,
    _hamiltonian_N,
    _lagrangian_work,
    _solution_pair,
    integrate_route,
    trajectory_rows,
    vector_field_N,
)
from .errors import (
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
)
from .legendre import (
    build_hamiltonian_model,
    embed_jL,
    generalized_energy,
    hamiltonian,
    hamiltonian_partials,
    hamiltonian_S_derivative,
    inverse_partial_legendre,
    momentum_map,
)
from .model import (
    PointN,
    SimpleThermoModel,
    arena_dim,
    arena_slots,
    entropy_slope,
    friction_value,
    lagrangian_partials,
    lagrangian_value,
    make_point,
    point_from_vector,
    temperature,
)

__all__ = [
    "BatteryReport",
    "CompareReport",
    "FormulationMembership",
    "MechanicsReductionReport",
    "VariationField",
    "action_variation_residual",
    "admissible_variation",
    "constraint_violating_variation",
    "cross_formulation_compare",
    "formulation_equivalence_battery",
    "gradient_report",
    "isotropy_report",
    "mechanics_reduction_check",
    "roundtrip_report",
]

# equivalence battery: rng seed and the magnitude band of the rate bumps
BATTERY_SEED = 0
BATTERY_PERTURBATION = (1e-2, 2e-2)
REDUCTION_SEED = 0  # rng seed of the mechanics reduction samples
CHECK_SAMPLES = 20  # domain samples per sampled report (isotropy, gradient, round trip)


# --- cross-formulation comparison ------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    """Pairwise trajectory deviations between integration routes.

    Deviations are measured on the common full-arena view
    (q, S, v, W=Sdot, p) built from each route's own states and rates,
    as the maximum absolute component difference."""

    available: tuple
    unavailable: Dict[str, str]
    deviations: Dict[Tuple[str, str], float]
    final_deviations: Dict[Tuple[str, str], float]
    times: np.ndarray


def cross_formulation_compare(
    model: SimpleThermoModel, initial, t_end: float, h: float
) -> CompareReport:
    """Integrate the velocity-side and momentum-side routes from the
    same state and report their pointwise deviation on the common view.

    The momentum route needs an invertible fiber map; when the model is
    flagged degenerate that route is reported unavailable with the
    gating error message instead of failing the comparison."""
    lag_route, ham_route, _ = ROUTES
    lag_traj = integrate_route(model, lag_route, initial, t_end, h)
    available = [lag_route]
    unavailable: Dict[str, str] = {}
    deviations: Dict[Tuple[str, str], float] = {}
    finals: Dict[Tuple[str, str], float] = {}
    try:
        ham_traj = integrate_route(model, ham_route, initial, t_end, h)
    except DegenerateLagrangianError as err:
        unavailable[ham_route] = str(err)
    else:
        available.append(ham_route)
        if not (lag_traj.completed and ham_traj.completed):
            raise DiracThermoError(
                "cross-formulation comparison needs completed runs "
                f"(lagrangian: {lag_traj.completed}, momentum: {ham_traj.completed})"
            )
        a, b = trajectory_rows(lag_traj), trajectory_rows(ham_traj)
        if a.shape != b.shape:
            raise DiracThermoError(f"route state counts differ: {a.shape} vs {b.shape}")
        diff = np.abs(a - b)
        key = (lag_route, ham_route)
        deviations[key] = float(diff.max())
        finals[key] = float(diff[-1].max())
    return CompareReport(
        available=tuple(available),
        unavailable=unavailable,
        deviations=deviations,
        final_deviations=finals,
        times=lag_traj.times,
    )


# --- sampled reports ---------------------------------------------------------


def isotropy_report(model: SimpleThermoModel, seed: int) -> list:
    """Per-arena (arena, expected dimension, dimension ok?, max isotropy
    defect) rows over domain samples; a degenerate model has no momentum
    chart, so only P and M."""
    rng = np.random.default_rng(seed)
    arenas = ["P", "M"] if model.degenerate else ["P", "TstarQ", "M", "N"]
    rows = []
    for arena in arenas:
        expected = arena_dim(arena, model.n)
        worst = 0.0
        dims_ok = True
        for _ in range(CHECK_SAMPLES):
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


def gradient_report(model: SimpleThermoModel, seed: int) -> float:
    """Max deviation of L's jet gradient from central differences over
    domain samples."""
    n = model.n
    flat = ScalarField(
        arity=2 * n + 1,
        evaluator=lambda *args: model.lagrangian(
            tuple(args[:n]), tuple(args[n + 1 :]), args[n]
        ),
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(CHECK_SAMPLES):
        q, v, S = model.domain_box.sample(rng)
        point = np.concatenate([q, [S], v])
        worst = max(worst, fd_check(flat, point))
    return worst


def roundtrip_report(model: SimpleThermoModel, seed: int) -> Tuple[float, float, float]:
    """Worst (fiber, energy, temperature) deviations of the Legendre round
    trip over domain samples: v back from p = dL/dv, the generalized
    energy on M against H, and the temperature against dH/dS."""
    rng = np.random.default_rng(seed)
    worst_v = worst_e = worst_t = 0.0
    for _ in range(CHECK_SAMPLES):
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
    return worst_v, worst_e, worst_t


# --- membership battery -----------------------------------------------------


@dataclass(frozen=True)
class FormulationMembership:
    formulation: str
    samples: int
    max_solution_residual: float
    min_perturbed_residual: float


@dataclass(frozen=True)
class BatteryReport:
    memberships: Dict[str, FormulationMembership]

    def worst_solution_residual(self) -> float:
        return max(m.max_solution_residual for m in self.memberships.values())

    def weakest_rejection(self) -> float:
        return min(m.min_perturbed_residual for m in self.memberships.values())


def formulation_equivalence_battery(
    model: SimpleThermoModel,
    initial,
    t_end: float = 1.0,
    h: float = 1e-3,
    sample_count: int = 25,
) -> BatteryReport:
    """Membership residuals of solution data in every formulation's
    induced subspace, against the same residuals after bumping the rate
    vector by a random amount in the given magnitude band.

    Solution data must sit in the subspace to numerical precision;
    perturbed rates must be rejected by a comfortably larger residual.
    Degenerate models run the velocity-side formulations only."""
    traj = integrate_route(model, ROUTES[0], initial, t_end, h)
    if not traj.completed:
        raise DiracThermoError("battery trajectory aborted on non-finite state")
    arenas = {"pontryagin-P": "P", "mixed-M": "M"}  # None: N, Hamiltonian differential
    if not model.degenerate:
        build_hamiltonian_model(model)  # the momentum-side labels need the gate
        arenas.update({"cotangent-TstarQ": "TstarQ", "momentum-N": "N", "hamilton-N": None})

    rng = np.random.default_rng(BATTERY_SEED)
    idx = np.linspace(0, len(traj.states) - 1, min(sample_count, len(traj.states)))
    idx = sorted(set(int(i) for i in idx))
    data = {}  # one velocity-side evaluation per sample
    for k in idx:
        point = traj.states[k]
        data[k] = point.q, point.S, _lagrangian_work(model, point.q, point.v, point.S)
    lo, hi = BATTERY_PERTURBATION
    reports = {}
    for label, arena in arenas.items():
        worst_on = 0.0
        best_off = np.inf
        for k in idx:
            pair = _solution_pair(model, *data[k], arena) if arena else _hamiltonian_N(model, *data[k])
            res = dirac_membership(pair.arena, model, pair)
            worst_on = max(worst_on, float(np.max(np.abs(res))))
            bump = rng.uniform(lo, hi, size=pair.tangent.size) * rng.choice(
                [-1.0, 1.0], size=pair.tangent.size
            )
            off_pair = type(pair)(
                base=pair.base, tangent=pair.tangent + bump, covector=pair.covector
            )
            off = dirac_membership(off_pair.arena, model, off_pair)
            best_off = min(best_off, float(np.max(np.abs(off))))
        reports[label] = FormulationMembership(
            formulation=label,
            samples=len(idx),
            max_solution_residual=worst_on,
            min_perturbed_residual=float(best_off),
        )
    return BatteryReport(memberships=reports)


# --- discrete action stationarity -------------------------------------------


@dataclass(frozen=True)
class VariationField:
    """Node-indexed variation (dq, dS) along a stored trajectory."""

    dq: np.ndarray
    dS: np.ndarray

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(self.dq))), float(np.max(np.abs(self.dS))))


def _velocity_states(trajectory: Trajectory) -> np.recarray:
    states = trajectory.states
    if "v" not in (states.dtype.names or ()):
        raise DiracThermoError(
            "action evaluation needs velocity-carrying states (q, S, v, p)"
        )
    return states


def _discrete_action(model, q, S, v, p, h: float) -> float:
    # trapezoid rule on <p, qdot - v> + L, written with midpoint momenta
    # against exact node increments so endpoint variations drop out
    energies = np.array(
        [
            float(p[k] @ v[k]) - lagrangian_value(model, q[k], v[k], S[k])
            for k in range(len(S))
        ]
    )
    pbar = 0.5 * (p[:-1] + p[1:])
    work = np.einsum("ki,ki->k", pbar, q[1:] - q[:-1])
    return float(np.sum(work) - 0.5 * h * np.sum(energies[:-1] + energies[1:]))


def _solved_entropy_variation(model, q, S, v, dq) -> np.ndarray:
    """dS = <F, dq> / s node by node: the entropy component that makes
    (dq, dS) satisfy the variational constraint."""
    dS = np.empty(len(S))
    for k in range(len(S)):
        s = entropy_slope(model, q[k], v[k], S[k])
        if s == 0.0:
            raise DiracThermoError(
                f"cannot solve the variational constraint at node {k}: entropy slope is zero"
            )
        dS[k] = float(friction_value(model, q[k], v[k], S[k]) @ dq[k]) / s
    return dS


def action_variation_residual(
    model: SimpleThermoModel,
    trajectory: Trajectory,
    variation_field: VariationField,
    epsilon: float = 1e-6,
    project: bool = False,
) -> float:
    """First variation of the discretized action under the given node
    variation, per unit amplitude.

    The variation must vanish at both endpoints in the configuration
    slots. With ``project=True`` the entropy component is recomputed
    node by node from the variational constraint before differencing
    (possible whenever the entropy slope is nonzero). Along a solution
    with an admissible field the result is bounded by a constant times
    (h + epsilon); a constraint-violating field leaves a finite
    first-order leftover."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    states = _velocity_states(trajectory)
    q, S, v, p = states.q, states.S, states.v, states.p
    K = len(S)
    dq = np.asarray(variation_field.dq, dtype=float)
    dS = np.asarray(variation_field.dS, dtype=float)
    if dq.shape != q.shape or dS.shape != S.shape:
        raise DimensionMismatchError(
            f"variation field shape {dq.shape}/{dS.shape} does not match "
            f"trajectory {q.shape}/{S.shape}"
        )
    if np.max(np.abs(dq[0])) > 0.0 or np.max(np.abs(dq[-1])) > 0.0:
        raise DiracThermoError("variation must vanish at both endpoints")
    if project:
        dS = _solved_entropy_variation(model, q, S, v, dq)
    h = float(trajectory.times[1] - trajectory.times[0]) if K > 1 else 1.0
    plus = _discrete_action(model, q + epsilon * dq, S + epsilon * dS, v, p, h)
    minus = _discrete_action(model, q - epsilon * dq, S - epsilon * dS, v, p, h)
    return abs(plus - minus) / (2.0 * epsilon)


def admissible_variation(
    model: SimpleThermoModel, trajectory: Trajectory, seed: int = 0
) -> VariationField:
    """Random smooth variation satisfying the variational constraint at
    every node: dq is a low-frequency sine mix vanishing at the ends,
    dS is solved pointwise from the constraint, and the whole field is
    scaled to unit sup norm."""
    states = _velocity_states(trajectory)
    q, S, v = states.q, states.S, states.v
    K, n = q.shape
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, 1.0, K)
    dq = np.zeros((K, n))
    for i in range(n):
        for j in (1, 2, 3):
            dq[:, i] += rng.uniform(-1.0, 1.0) * np.sin(j * np.pi * tau)
    dq[0] = 0.0  # sin(j*pi) leaves float dust; the endpoints must vanish exactly
    dq[-1] = 0.0
    dS = _solved_entropy_variation(model, q, S, v, dq)
    field = VariationField(dq=dq, dS=dS)
    m = field.sup_norm()
    if m == 0.0:
        return field
    return VariationField(dq=dq / m, dS=dS / m)


def constraint_violating_variation(
    trajectory: Trajectory, seed: int = 0
) -> VariationField:
    """Pure-entropy bump: dq = 0 everywhere, so any nonzero dS violates
    the variational constraint wherever the entropy slope is nonzero."""
    K, n = trajectory.states.q.shape
    tau = np.linspace(0.0, 1.0, K)
    dS = np.sin(np.pi * tau) ** 2
    return VariationField(dq=np.zeros((K, n)), dS=dS)


# --- reduction to pure mechanics --------------------------------------------


@dataclass(frozen=True)
class MechanicsReductionReport:
    samples: int
    max_canonical_deviation: float
    max_entropy_rate: float
    max_oracle_deviation: Optional[float]


def mechanics_reduction_check(
    model: SimpleThermoModel,
    samples: int = 100,
    canonical_field: Optional[Callable] = None,
) -> MechanicsReductionReport:
    """For a frictionless, entropy-independent model: the momentum-side
    field must coincide with the canonical Hamiltonian field
    (dH/dp, -dH/dq) and transport no entropy.

    ``canonical_field`` may supply a closed form (q, S, p) ->
    (qdot, pdot) to pin the comparison to an external oracle."""
    rng = np.random.default_rng(REDUCTION_SEED)
    # the premise itself is checked, not trusted
    for _ in range(min(samples, 10)):
        q, v, S = model.domain_box.sample(rng)
        _, _, s = lagrangian_partials(model, q, v, S)
        F = friction_value(model, q, v, S)
        if abs(s) > 1e-14 or np.max(np.abs(F)) > 1e-14:
            raise DiracThermoError(
                "mechanics reduction needs zero friction and an "
                f"entropy-independent Lagrangian (model {model.name})"
            )
    hmodel = build_hamiltonian_model(model)
    max_dev = 0.0
    max_sdot = 0.0
    max_oracle = 0.0 if canonical_field is not None else None
    for _ in range(samples):
        q, v, S = model.domain_box.sample(rng)
        p = momentum_map(model, q, v, S)
        qdot, pdot, Sdot = vector_field_N(hmodel, PointN(q=q, S=S, p=p))
        hp = hamiltonian_partials(model, q, p, S, v0=qdot)
        max_dev = max(
            max_dev,
            float(np.max(np.abs(qdot - hp.dp))),
            float(np.max(np.abs(pdot + hp.dq))),
        )
        max_sdot = max(max_sdot, abs(Sdot))
        if canonical_field is not None:
            oq, op = canonical_field(q, S, p)
            max_oracle = max(
                max_oracle,
                float(np.max(np.abs(qdot - np.asarray(oq, dtype=float)))),
                float(np.max(np.abs(pdot - np.asarray(op, dtype=float)))),
            )
    return MechanicsReductionReport(
        samples=samples,
        max_canonical_deviation=max_dev,
        max_entropy_rate=max_sdot,
        max_oracle_deviation=max_oracle,
    )
