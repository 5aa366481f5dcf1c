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

Each explicit side evaluates a state into one work record of floats,
the rate plus the partials, friction and external force it was built
from (``_lagrangian_work`` in both velocity-side regimes, whose regular
regime reads one jet of L; on the momentum side one fiber solve); the
vector fields, the solution data and each field's rate and stored row
read it. A fused kernel makes each record
(``_work_source``, ``_momentum_source``): one straight-line function
per model and n, compiled at the field's first rate, that replays L's
and the forces' compiled jets (the momentum side loops over the fiber
iterate) and does the entropy-rate rule, an n = 1 division and the
outputs in float code, calling numpy only where its bits need it. The
implicit residual and Jacobian and the fiber iterate have kernels of
their own. A kernel hands a state it cannot answer exactly to the
per-evaluator path (``_per_evaluator_work``, ``_momentum_work``), one
numpy step at a time from the evaluators' own jets, which gives the
same bits and raises the errors; the tests hold the kernels to it. A
field keeps the work of the last rate's state for that state's stored
row and diagnostics, and :func:`integrate_explicit` steps tuples of
floats with numpy's bits. One assembly
(``_solution_data``) writes the (state, tangent, covector) rows of any
arena from a work record: P's rows at the arena's slots, which the
``solution_pair_*`` helpers share. The sign flip between the velocity
and momentum sides lives in the TstarQ and N condition rows
(``dirac.condition_matrix``).

Each stored state has a diagnostics row: energy, entropy, entropy
rate, the rate-constraint residual and the membership residual of the
state, rate and energy differential. The integrators keep, per stored
state, the floats of its work that the row reads (``_kept``; on P the
Lagrangian and the converged residual's entropy row and maximum), and
every ``_BLOCK`` stored rows, and before they return, one stacked-numpy
pass (``_diagnostics_block``) turns them into the rows. Stacked
``np.matmul`` makes one BLAS call per row, the call a single state's
``A @ z`` makes, so each row has the bits of its own. A field's
``diagnostics(y, r)`` is that pass on one row.
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
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    HamiltonianModel,
    _build_fiber,
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
    _bind,
    _covector_jet,
    _dot_source,
    _force_jets,
    _fused,
    _kernel_jet,
    _kernel_source,
    _lagrangian_first_order,
    _lagrangian_hessian,
    _momentum_rate_from,
    _momentum_rate_source,
    _records,
    _solve,
    _solve_source,
    _tuple,
    arena_dim,
    arena_slots,
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
# stored rows per diagnostics pass: the pass's stacked condition
# matrices, (rows, d, 2d), stay small whatever the run's length
_BLOCK = 128


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


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x @ y of two (K, n) blocks, each row with ``model._dot``'s
    bits: 0.0 + x * y at n = 1, else one stacked matmul, which calls
    BLAS ddot once per row as a single x @ y does."""
    if x.shape[1] == 1:
        return 0.0 + x[:, 0] * y[:, 0]
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _diagnostics_block(arena: str, n: int, points, rates, kept) -> np.ndarray:
    """The (K, 5) diagnostics rows of K stored states on the arena from
    their arena rows ``points``, their rates and the floats ``kept`` of
    each state's work (:func:`_kept`; on P the Lagrangian, the
    converged residual's entropy row and its largest magnitude).

    On M and N the membership residual applies the state's condition
    matrix to its stacked tangent and energy differential, the M data
    of :func:`_solution_data` (v the work's velocity, p = dL/dv) and
    on N the rate, then (dH/dq - external, dH/dS, v); it is infinite
    where the entropy slope vanishes or is not finite (T = 0 on N).
    The energy is <p, v> - L (plus lam W on P), the constraint
    s Sdot - <F, v>."""
    K = len(points)
    S, Sdot, L = points[:, n], rates[:, n], kept[:, 0]
    with np.errstate(all="ignore"):  # a non-finite record is stored as it comes
        if arena == "P":
            at = _arena_layout("P", n)[1]
            p, v = points[:, at["p"]], points[:, at["v"]]
            energy = _dots(p, v) + points[:, at["lam"]] * points[:, at["W"]] - L
            constraint, residual = kept[:, 1], kept[:, 2]
        else:
            if arena == "M":
                s, dLdq, F, Fext = kept[:, 1], *np.split(kept[:, 2 : 2 + 3 * n], 3, axis=1)
                v, p = points[:, n + 1 : 2 * n + 1], points[:, 2 * n + 1 :]
                qdot = rates[:, :n]
                vdot = rates[:, n + 1 :] if rates.shape[1] > n + 1 else np.zeros((K, n))
                if kept.shape[1] > 2 + 3 * n:  # L's velocity rows; none when degenerate
                    Lv = kept[:, 2 + 3 * n :].reshape(K, n, 2 * n + 1)
                    pdot = (Lv @ np.column_stack([qdot, vdot, Sdot])[:, :, None])[:, :, 0]
                else:
                    pdot = np.zeros((K, n))
                z = np.column_stack([qdot, Sdot, vdot, pdot, -dLdq - Fext, -s, p - p, v])
                coef = s
            else:
                s = -kept[:, 1]
                v, dHdq, F, Fext = np.split(kept[:, 2 : 2 + 4 * n], 4, axis=1)
                p = points[:, n + 1 :]
                z = np.column_stack([rates, dHdq - Fext, kept[:, 1], v])
                coef = -s  # the momentum side reads T = -s
            energy = _dots(p, v) - L
            constraint = s * Sdot - _dots(F, v)
            residual = np.abs((_conditions(arena, n, coef, F) @ z[:, :, None])[:, :, 0]).max(axis=1)
            residual[(s == 0.0) | ~np.isfinite(s)] = math.inf
        return np.column_stack([energy, S, Sdot, np.abs(constraint), residual])


def _flush(arena: str, n: int, states, rates, diagnostics, kept: list, k: int) -> None:
    """Diagnostics of the stored rows k - len(kept) .. k - 1 from their
    kept floats, one block pass; empties ``kept``."""
    j = k - len(kept)
    diagnostics[j:k] = _diagnostics_block(arena, n, states[j:k], rates[j:k], np.array(kept))
    kept.clear()


def _stored(h, k, arena, n, states, rates, diagnostics, kept, completed) -> Trajectory:
    """The first k rows of an integrator's (states, rates, diagnostics)
    buffers as a trajectory, the diagnostics of the rows still ``kept``
    written first."""
    if kept:
        _flush(arena, n, states, rates, diagnostics, kept, k)
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
    """A velocity-side evaluation as floats: the chart rate (qdot...,
    Sdot, vdot...; no vdot in the degenerate regime) and L's value,
    first partials, friction and external force it was built from; qdot
    is also the state's velocity. ``Lv`` holds the Hessian's velocity
    rows (L_vq | L_vv | L_vS) flat, n rows of 2n + 1, from which the
    momentum rate is read; it is None in the degenerate regime, where
    the momentum is identically zero."""

    rate: tuple
    L: float
    s: float
    dLdq: tuple
    dLdv: tuple
    F: tuple
    Fext: tuple
    Lv: Optional[tuple]

    @property
    def qdot(self) -> tuple:
        return self.rate[: len(self.dLdq)]

    @property
    def Sdot(self) -> float:
        return self.rate[len(self.dLdq)]

    @property
    def vdot(self) -> tuple:
        return self.rate[len(self.dLdq) + 1 :] or (0.0,) * len(self.dLdq)


class _MomentumWork(NamedTuple):
    """A momentum-side evaluation as floats: the chart rate (qdot...,
    Sdot, pdot...), qdot the inverted velocity, and L's value there, the
    Hamiltonian partials dH/dq = -dL/dq and dH/dS = -dL/dS, friction and
    external force it was built from."""

    rate: tuple
    L: float
    dHdq: tuple
    dHdS: float
    F: tuple
    Fext: tuple

    @property
    def qdot(self) -> tuple:
        return self.rate[: len(self.F)]

    @property
    def Sdot(self) -> float:
        return self.rate[len(self.F)]

    @property
    def pdot(self) -> tuple:
        return self.rate[len(self.F) + 1 :]


def _floats(x) -> tuple:
    return tuple(np.asarray(x, dtype=float).ravel().tolist())


def _per_evaluator_work(model: SimpleThermoModel, q, v, S) -> _LagrangianWork:
    """:func:`_lagrangian_work` one numpy step at a time from the
    evaluators' own kernels: the fused kernel's fallback and reference."""
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
        rate = (*_floats(qdot), _entropy_rate(model, F, qdot, s))
        return _LagrangianWork(rate, float(L), float(s), _floats(dLdq), (0.0,) * n,
                               _floats(F), _floats(Fext), None)

    # one jet of L and one friction evaluation
    v = _as_array(v, n, "v")
    L, dLdq, dLdv, s, Lv = lagrangian_jet(model, q, v, S)
    F, Fext = friction_value(model, q, v, S), external_value(model, q, v, S)
    Sdot = _entropy_rate(model, F, v, s)
    rows = _floats(Lv)
    # the momentum rate at vdot = 0 moves to the right-hand side
    rhs = dLdq + F + Fext - _momentum_rate_from(rows, (*v.tolist(), *(0.0,) * n, Sdot))
    try:
        vdot = _solve(Lv[:, n : 2 * n], rhs)
    except np.linalg.LinAlgError:
        raise DegenerateLagrangianError(
            f"singular velocity Hessian; model {model.name} needs the "
            "velocity-independent regime"
        )
    return _LagrangianWork((*_floats(v), Sdot, *_floats(vdot)), float(L), float(s),
                           _floats(dLdq), _floats(dLdv), _floats(F), _floats(Fext), rows)


def _entropy_rate_source(F: list, v: list) -> list:
    """:func:`_entropy_rate` in kernel source, setting w from the
    friction names F, the velocities v and the slope s; a slope that is
    not negative where friction acts fails the guard."""
    return [
        f"if {' and '.join(f'{f} == 0.0' for f in F)}: w = 0.0",
        "elif s >= 0.0: return None",
        f"else: w = {_dot_source(F, v)} / s",
    ]


@lru_cache(maxsize=None)
def _work_source(n: int, degenerate: bool) -> str:
    """The fused :func:`_lagrangian_work` at n, from q, v and S (q and S
    when degenerate, where L's and the forces' jets are taken at v = 0).
    The momentum rate at vdot = 0 is zeros by rule Z where each of its
    terms has a zero factor (always for a kinetic term with a constant
    mass matrix), else the matmul; the solve at n > 1 is b_i / A_ii by
    rule D where the matrix is diagonal and b has no zero, else LAPACK's.
    See :func:`model._momentum_rate_source` and :func:`model._solve_source`."""
    k = 2 * n + 1
    q, S = [f"a{i}" for i in range(n)], f"a{2 * n}"
    f, e, b = ([f"{x}{i}" for i in range(n)] for x in "feb")
    if degenerate:
        v, args = [f"c{i}" for i in range(n)], ", ".join(q + ["0.0"] * n + [S])  # v: the solved rate
        body = [
            # the friction's order-1 jet at zero velocity: n values, then n rows of k partials
            f"o = L1({args})", f"d = F1({args})", f"{', '.join(e)}, = E0({args})",
            f"if len(d) != {n * (k + 1)} or not _finite(sum(o) + sum(d) + {' + '.join(e)}): return None",
            f"if {' or '.join(f'abs(d[{i}]) > 1e-12' for i in range(n))}: return None",
            *[f"b{i} = -(o[{1 + i}] + e{i})" for i in range(n)],
            *_solve_source([f"d[{n + i * k + n + j}]" for i in range(n) for j in range(n)], b, v),
            f"{', '.join(f)}, = F0({', '.join(q + v + [S])})",
            f"s = o[{k}]", *_entropy_rate_source(f, v),
            f"if not _finite({' + '.join(v + f)} + w): return None",
            f"return _Work(({', '.join(v)}, w), o[0], s, {_tuple(f'o[{1 + i}]' for i in range(n))}, "
            f"{_tuple(['0.0'] * n)}, {_tuple(f)}, {_tuple(e)}, None)",
        ]
        return _kernel_source(q + [S], body)
    v, u, m = [f"a{n + i}" for i in range(n)], [f"u{i}" for i in range(n)], [f"m{i}" for i in range(n)]  # u: vdot
    args, lv = ", ".join(q + v + [S]), f"o[{1 + k + n * k}:{1 + k + 2 * n * k}]"  # L's velocity rows
    body = [
        f"o = L2({args})", f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite(sum(o) + {' + '.join(f + e)}): return None",
        f"s = o[{k}]", *_entropy_rate_source(f, v),
        "if not _finite(w): return None",
        # the momentum rate m at vdot = 0 moves to the right-hand side
        *_momentum_rate_source("o", 1 + k + n * k, [*v, *["0.0"] * n, "w"], m),
        *[f"b{i} = o[{1 + i}] + f{i} + e{i} - m{i}" for i in range(n)],
        *_solve_source([f"o[{1 + k + (n + i) * k + n + j}]" for i in range(n) for j in range(n)], b, u),
        f"if not _finite({' + '.join(u)}): return None",
        f"return _Work(({', '.join(v)}, w, {', '.join(u)}), o[0], s, "
        f"{_tuple(f'o[{1 + i}]' for i in range(n))}, {_tuple(f'o[{1 + n + i}]' for i in range(n))}, "
        f"{_tuple(f)}, {_tuple(e)}, {lv})",
    ]
    return _kernel_source(q + v + [S], body)


def _build_work(model: SimpleThermoModel):
    if model.degenerate:
        replays = {"L1": ("lagrangian", 1), "F1": ("friction", 1)}
    else:
        replays = {"L2": ("lagrangian", 2)}
    replays.update(F0=("friction", 0), E0=("external", 0))
    source = _work_source(model.n, model.degenerate)
    return _bind(model, source, replays, _Work=_LagrangianWork)


def _lagrangian_work(model: SimpleThermoModel, q, v, S) -> _LagrangianWork:
    """The rate of :func:`vector_field_lagrangian` at (q, v, S) plus the
    intermediates it was built from; a degenerate model's dL/dv is zero.
    The model's fused kernel gives it once a field has compiled one and
    its guards hold; the per-evaluator path otherwise."""
    kernel = _fused(model, "work")
    if kernel is not None:
        n = model.n
        v = () if model.degenerate else _as_array(v, n, "v").tolist()
        work = kernel(*_as_array(q, n, "q").tolist(), *v, float(S))
        if work is not None:
            return work
    return _per_evaluator_work(model, q, v, S)


def _momentum_work(hmodel: HamiltonianModel, q, S, p, v0=None) -> _MomentumWork:
    """Momentum-side rate at (q, S, p) plus the intermediates it was
    built from, one numpy step at a time; ``v0`` seeds the fiber
    inversion. The fused momentum kernel's fallback and reference."""
    model = hmodel.source
    hp = hamiltonian_partials(model, q, p, S, v0=v0)
    F = friction_value(model, q, hp.velocity, S)
    Fext = external_value(model, q, hp.velocity, S)
    Sdot = _entropy_rate(model, F, hp.dp, -hp.dS)
    return _MomentumWork((*_floats(hp.dp), Sdot, *_floats(-hp.dq + F + Fext)), float(hp.L),
                         _floats(hp.dq), float(hp.dS), _floats(F), _floats(Fext))


@lru_cache(maxsize=None)
def _momentum_source(n: int) -> str:
    """The fused :func:`_momentum_work` at n, from q, S, p and the seed
    velocity c: the Newton loop of ``legendre._fused_solve`` over the
    fiber iterate from c, the forces' replays at the inverted velocity,
    the entropy-rate rule and pdot = (dL/dq + F) + Fext, numpy's order."""
    k = 2 * n + 1
    q, S, p = [f"a{i}" for i in range(n)], f"a{n}", [f"a{n + 1 + i}" for i in range(n)]
    c, f, e, m = ([f"{x}{i}" for i in range(n)] for x in "cfem")
    args = ", ".join(q + c + [S])
    body = [
        f"for _ in range({NEWTON_MAX_ITER}):",
        f"    out = _fiber({args}, {', '.join(p)}, {NEWTON_TOL!r})",
        "    if out is None: return None",
        "    t, o = out",
        "    if o is not None: break",
        f"    {', '.join(c)}, = t",
        "else: return None",
        f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite({' + '.join(f + e)}): return None",
        f"s = o[{k}]", *_entropy_rate_source(f, c),
        "if not _finite(w): return None",
        *[f"m{i} = o[{1 + i}] + f{i} + e{i}" for i in range(n)],
        f"if not _finite({' + '.join(m)}): return None",
        f"return _Work(({', '.join(c + ['w'] + m)}), o[0], {_tuple(f'-o[{1 + i}]' for i in range(n))}, "
        f"-s, {_tuple(f)}, {_tuple(e)})",
    ]
    return _kernel_source(q + [S] + p + c, body)


def _build_momentum(model: SimpleThermoModel):
    fiber = _fused(model, "fiber", _build_fiber)
    if fiber is None:
        return None
    replays = {"F0": ("friction", 0), "E0": ("external", 0)}
    return _bind(model, _momentum_source(model.n), replays, _Work=_MomentumWork, _fiber=fiber)


def vector_field_N(hmodel: HamiltonianModel, point: ArenaPoint, v0=None):
    """Explicit momentum-side field (qdot, pdot, Sdot).

    The entropy rate balances dissipated power against temperature
    (:func:`_entropy_rate`). ``v0`` seeds the fiber inversion (a warm
    start from a nearby state).
    """
    work = _momentum_work(hmodel, point.q, point.S, point.p, v0=v0)
    return np.array(work.qdot), np.array(work.pdot), work.Sdot


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
    return np.array(work.qdot), np.array(work.vdot), work.Sdot


# --- on-shell membership data -------------------------------------------


def _solution_data(work: _LagrangianWork, q, v, S, rate, arena: str) -> np.ndarray:
    """Rows (base, tangent, covector) of the arena's data at the state
    (q, v, S) with the chart rate ``rate`` (qdot..., Sdot, vdot...) and
    the partials at (q, v, S) that ``work`` holds: P's rows, whose W
    and lam do not move and whose lam is zero, at the arena's slots. On
    a solution v equals qdot and the rate is the work's own. A
    degenerate model's momentum is identically zero, and so is its rate."""
    n = len(work.dLdq)
    qdot, Sdot, vdot = rate[:n], rate[n], rate[n + 1 :] or (0.0,) * n
    pdot = (0.0,) * n if work.Lv is None else _momentum_rate_from(work.Lv, (*qdot, *vdot, Sdot)).tolist()
    rows = np.array([
        [*q, S, *v, Sdot, *work.dLdv, 0.0],
        [*qdot, Sdot, *vdot, 0.0, *pdot, 0.0],
        # the energy differential; its velocity block is p - dL/dv
        [*(-a - b for a, b in zip(work.dLdq, work.Fext)), -work.s,
         *(a - a for a in work.dLdv), 0.0, *v, Sdot],
    ])
    return rows if arena == "P" else rows[:, arena_slots(arena, n)]


def _solution_pair(model: SimpleThermoModel, q, S, work, arena: str) -> TangentCovectorPair:
    """The arena's data of the solution through (q, work.qdot, S)."""
    base, tangent, covector = _solution_data(work, _floats(q), work.qdot, float(S), work.rate, arena)
    return TangentCovectorPair(ArenaPoint(arena, model.n, base), tangent, covector)


def _hamiltonian_N(model: SimpleThermoModel, q, S, work) -> TangentCovectorPair:
    """N data of the solution through (q, work.qdot, S) with the
    Hamiltonian differential as its covector, the fiber inverted from
    the solution's velocity."""
    n, pair = model.n, _solution_pair(model, q, S, work, "N")
    hp = hamiltonian_partials(model, q, work.dLdv, S, v0=work.qdot)
    # (dH/dq - external, dH/dS, dH/dp)
    pair.covector[:n], pair.covector[n], pair.covector[n + 1 :] = hp.dq - work.Fext, hp.dS, hp.dp
    return pair


# The solution_pair_* helpers, the reference data of the membership
# checks, read the per-evaluator path.


def solution_pair_P(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """(state, tangent, covector) data of a solution through (q, v, S)
    on the full arena: fiber slots filled by the momentum relation, the
    covector is the generalized-energy differential (external force
    subtracted on the configuration slots). The rate of the entropy-rate
    slot is unconstrained and recorded as zero."""
    return _solution_pair(model, q, S, _per_evaluator_work(model, q, v, S), "P")


def solution_pair_M(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """As :func:`solution_pair_P` on the velocity-momentum arena."""
    return _solution_pair(model, q, S, _per_evaluator_work(model, q, v, S), "M")


def solution_pair_TstarQ(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the cotangent arena: base at
    (q, S, momentum, 0), covector slots (-dL/dq, -dL/dS, v, Sdot)."""
    return _solution_pair(model, q, S, _per_evaluator_work(model, q, v, S), "TstarQ")


def solution_pair_N(model: SimpleThermoModel, q, v, S) -> TangentCovectorPair:
    """Velocity-side data transported to the momentum arena; the
    covector is (-dL/dq, -dL/dS, v), fiber matching supplying the base
    momentum."""
    return _solution_pair(model, q, S, _per_evaluator_work(model, q, v, S), "N")


def solution_pair_N_hamiltonian(
    hmodel: HamiltonianModel, q, v, S
) -> TangentCovectorPair:
    """As :func:`solution_pair_N` but with the Hamiltonian differential
    (dH/dq - external, dH/dS, dH/dp) as the covector."""
    model = hmodel.source
    return _hamiltonian_N(model, q, S, _per_evaluator_work(model, q, v, S))


# --- explicit integration ------------------------------------------------


@dataclass(frozen=True)
class ExplicitField:
    """A flat-chart right-hand side over a model with n configuration
    coordinates, plus what the integrator needs to store per step:
    ``to_point(y, r)`` is the arena's flat row at the chart state y with
    rate r, ``work(y)`` the work record at y (the last rate's, when y is
    its state), and ``diagnostics(y, r)`` a :class:`DiagnosticsRecord`
    that measures r against y's own work: the integrators' block pass
    on one row. A tuple of floats y gets tuples back, an array y
    arrays."""

    arena: str
    n: int
    dim: int
    rate: Callable
    to_point: Callable
    work: Callable
    diagnostics: Callable


def _chart(y) -> tuple:
    """A chart state or rate as a tuple of floats."""
    return y if type(y) is tuple else tuple(np.asarray(y, dtype=float).ravel().tolist())


def _kept(w) -> tuple:
    """The floats of a work record that its state's diagnostics row reads
    besides the stored row and rate (:func:`_diagnostics_block`): L and
    the entropy slope, dL/dq, F, Fext and L's velocity rows (none when
    degenerate) on the velocity side; L, dH/dS, the inverted velocity,
    dH/dq, F and Fext on the momentum side."""
    if type(w) is _LagrangianWork:
        return (w.L, w.s, *w.dLdq, *w.F, *w.Fext, *(w.Lv or ()))
    return (w.L, w.dHdS, *w.qdot, *w.dHdq, *w.F, *w.Fext)


def _explicit_field(arena: str, n: int, dim: int, evaluate, point) -> ExplicitField:
    """An :class:`ExplicitField` from ``evaluate(t, last)``, the work
    record at the chart state t given the last rate's record (None
    before the first), and ``point(t, work)``, the arena row.

    The last rate's state and work are kept. The integrator hands the
    rate, the stored row and the kept work the same tuple, so the two
    read that work, matched by identity: a tuple cannot change, and
    equal floats are not equal bits (-0.0 == 0.0). Any other state, an
    array among them, is evaluated afresh from the last rate's record,
    which stays."""
    last = [None, None]  # the state the last rate evaluated, its work

    def work_at(y):
        if y is last[0]:
            return y, last[1]
        t = _chart(y)
        return t, evaluate(t, last[1])

    def rate(y):
        t = _chart(y)
        last[1] = w = evaluate(t, last[1])
        last[0] = t
        return w.rate if t is y else np.array(w.rate)

    def to_point(y, r):
        t, w = work_at(y)
        row = point(t, w)
        return row if t is y else np.array(row)

    def diagnostics(y, r):
        t, w = work_at(y)
        rows = [point(t, w)], [_chart(r)], [_kept(w)]
        return DiagnosticsRecord(*_diagnostics_block(arena, n, *map(np.array, rows))[0].tolist())

    return ExplicitField(arena=arena, n=n, dim=dim, rate=rate, to_point=to_point,
                         work=lambda y: work_at(y)[1], diagnostics=diagnostics)


def hamilton_field_N(hmodel: HamiltonianModel) -> ExplicitField:
    """Momentum-side field over the flat chart (q, S, p), which is also
    the arena row. Each fiber inversion starts from the inverted
    velocity of the rate evaluated before it (from rest at the first),
    and the seed moves the bits. The model's fused momentum kernel,
    compiled at the field's first rate, gives the work where its guards
    hold; :func:`_momentum_work` from the same seed otherwise."""
    model = hmodel.source
    n = model.n
    kernel = _fused(model, "momentum")  # compiled by an earlier field, else at the first rate
    rest = (0.0,) * n

    def evaluate(t: tuple, last) -> _MomentumWork:
        nonlocal kernel
        seed = None if last is None else last.qdot
        work = None if kernel is None else kernel(*t, *(seed or rest))
        if work is None:
            work = _momentum_work(hmodel, t[:n], t[n], t[n + 1 :], v0=seed)
            kernel = _fused(model, "momentum", _build_momentum)
        return work

    return _explicit_field("N", n, 2 * n + 1, evaluate, lambda t, w: t)


def lagrangian_field(model: SimpleThermoModel) -> ExplicitField:
    """Velocity-side field; chart (q, S, v), or (q, S) for degenerate
    models whose rate is algebraic (there y[n + 1 :] is empty and the
    state's velocity is the solved rate)."""
    n = model.n
    kernel = _fused(model, "work")  # compiled by an earlier field, else at the first rate

    def evaluate(t: tuple, last) -> _LagrangianWork:
        nonlocal kernel
        work = None if kernel is None else kernel(*t[:n], *t[n + 1 :], t[n])
        if work is None:
            work = _per_evaluator_work(model, t[:n], t[n + 1 :], t[n])
            kernel = _fused(model, "work", _build_work)
        return work

    def point(t: tuple, w: _LagrangianWork) -> tuple:
        return (*t[: n + 1], *w.qdot, *w.dLdv)  # M's (q, S, v, p)

    dim = n + 1 if model.degenerate else 2 * n + 1
    return _explicit_field("M", n, dim, evaluate, point)


def integrate_explicit(field, initial, t_end: float, h: float) -> Trajectory:
    """Classical fixed-step fourth-order integration of an explicit field.

    ``field`` is an :class:`ExplicitField` or a plain callable on flat
    vectors (then the flat vectors are stored and diagnostics are
    skipped). The step count is t_end/h rounded to nearest; diagnostics
    are recorded at every stored state, including the initial one. A
    non-finite state aborts and returns the partial trajectory with
    ``completed=False``, every stored row with its diagnostics.

    The states and stages are tuples of floats, and each stage takes
    one IEEE operation per coordinate in the order of numpy's
    elementwise ``y + sixth * (r + 2.0 * (k2 + k3) + k4)``, so the bits
    are numpy's. The field's rate is called once per rate and its
    ``work`` once per stored state, whose floats the diagnostics read
    (:func:`_kept`) are kept until a block pass turns ``_BLOCK`` of them,
    or the last ones, into diagnostics rows; a plain callable is called
    on arrays behind an adapter.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    y = np.asarray(initial, dtype=float)
    if isinstance(field, ExplicitField):
        if y.shape != (field.dim,):
            raise DimensionMismatchError(
                f"initial state must have {field.dim} coordinates, got {y.shape}"
            )
        f, to_point, work, kept = field.rate, field.to_point, field.work, []
        arena, n, d = field.arena, field.n, arena_dim(field.arena, field.n)
    else:
        f = lambda t: tuple(np.asarray(field(np.array(t)), dtype=float).tolist())
        to_point, kept = (lambda t, r: t), None
        arena, n, d = "", 0, y.size
    K = max(1, int(round(t_end / h))) + 1
    states, rates = np.empty((K, d)), np.empty((K, y.size))
    diagnostics = np.empty((0 if kept is None else K, len(_DIAGNOSTICS)))
    half = 0.5 * h
    sixth = h / 6.0
    y = tuple(y.tolist())
    r = f(y)
    k = 0
    while True:
        states[k], rates[k] = to_point(y, r), r
        k += 1
        if kept is not None:
            kept.append(_kept(work(y)))
            if len(kept) == _BLOCK:
                _flush(arena, n, states, rates, diagnostics, kept, k)
        if k == K:
            break
        k2 = f(tuple([a + half * b for a, b in zip(y, r)]))
        k3 = f(tuple([a + half * b for a, b in zip(y, k2)]))
        k4 = f(tuple([a + h * b for a, b in zip(y, k3)]))
        y = tuple([a + sixth * ((b + 2.0 * (c + e)) + g) for a, b, c, e, g in zip(y, r, k2, k3, k4)])
        if not all(map(math.isfinite, y)):
            break
        r = f(y)
    return _stored(h, k, arena, n, states, rates, diagnostics, kept, completed=k == K)


# --- implicit integration on the full arena -------------------------------


def implicit_residual_P(model: SimpleThermoModel, point: ArenaPoint, rates, with_value=False):
    """Stacked residual of the full-arena conditions at (point, rates).

    Rates follow the arena order (qdot, Sdot, vdot, Wdot, pdot, lamdot).
    Blocks, in order: n force-balance rows scaled by the entropy slope,
    the entropy-rate row, the momentum-match rows, the covariable, the
    velocity match, and the rate-slot match. External force enters the
    force-balance rows additively. ``with_value`` returns ``(residual,
    L)``, L the Lagrangian at the point from the same jet. The model's
    fused kernel, compiled at an implicit run's start, gives it where
    its guards hold; the per-evaluator path otherwise.
    """
    n = model.n
    x, r = point.row, _as_array(rates, 3 * n + 3, "rates")
    kernel = _fused(model, "residual")
    out = None if kernel is None else kernel(*x.tolist(), *r.tolist())
    residual, o = _per_evaluator_residual(model, x, r) if out is None else (np.array(out[0]), out[1])
    return (residual, o[0]) if with_value else residual


def _per_evaluator_residual(model: SimpleThermoModel, x, r):
    """(residual, o) of :func:`implicit_residual_P` at the P row x and
    rates r, one numpy step at a time: the fused kernel's fallback and
    reference. o is L's order-1 jet at x's (q, v, S) as the kernel's
    replay gives it, (L, dL/dq..., dL/dv..., dL/dS)."""
    n = model.n
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()  # the groups' places, in P's order
    qdot, Sdot = r[q], r[S]
    at = x[q], x[v], x[S]
    L, g = _kernel_jet(model.lagrangian, n, *at, 1)
    dLdq, dLdv, s = g[:n], g[n : 2 * n], g[2 * n]
    F, Fext = friction_value(model, *at), external_value(model, *at)
    with np.errstate(all="ignore"):  # an overflowed jet's residual is non-finite, which stops the step
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
    return residual, (L, *g.tolist())


def _implicit_args(n: int) -> str:
    """The jet arguments (q..., v..., S) among P's coordinates x0, x1, ..."""
    return ", ".join([f"x{i}" for i in range(n)] + [f"x{n + 1 + i}" for i in range(n)] + [f"x{n}"])


@lru_cache(maxsize=None)
def _residual_source(n: int) -> str:
    """The fused :func:`implicit_residual_P` at n: from P's row x and
    rates r, (residual, o), o the replay of L's order-1 jet."""
    k, d = 2 * n + 1, 3 * n + 3
    S, W, lam = n, 2 * n + 1, 3 * n + 2
    args, f, e = _implicit_args(n), [f"f{i}" for i in range(n)], [f"e{i}" for i in range(n)]
    residual = [
        *[f"(r{2 * n + 2 + i} - o[{1 + i}] - e{i}) * s + (r{lam} - s) * f{i}" for i in range(n)],
        f"s * r{S} - {_dot_source(f, [f'r{i}' for i in range(n)])}",
        *[f"x{2 * n + 2 + i} - o[{1 + n + i}]" for i in range(n)],
        f"x{lam}",
        *[f"x{n + 1 + i} - r{i}" for i in range(n)],
        f"x{W} - r{S}",
    ]
    body = [
        f"o = L1({args})", f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite(sum(o) + {' + '.join(f + e)}): return None",
        f"s = o[{k}]",
        f"out = {_tuple(residual)}",
        "if not _finite(sum(out)): return None",
        "return out, o",
    ]
    return _kernel_source([f"x{i}" for i in range(d)] + [f"r{i}" for i in range(d)], body)


def _build_residual(model: SimpleThermoModel):
    replays = {"L1": ("lagrangian", 1), "F0": ("friction", 0), "E0": ("external", 0)}
    return _bind(model, _residual_source(model.n), replays)


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
    jets dF and dFext of friction and external force; the backward rates
    add s/h on p and F/h on lam to the force-balance rows, s/h on S and
    -F/h on q to the entropy row. The model's fused kernel, compiled at
    the first call that finds its replays traced, gives it where its
    guards hold; the per-evaluator path otherwise."""
    kernel = _fused(model, "jacobian", _build_jacobian)
    J = None if kernel is None else kernel(*x.tolist(), *rates.tolist(), h, constants)
    return _per_evaluator_jacobian(model, x, rates, h, constants) if J is None else J


def _per_evaluator_jacobian(model: SimpleThermoModel, x, rates, h: float, constants) -> np.ndarray:
    """:func:`_implicit_jacobian` one numpy step at a time: the fused
    kernel's fallback and reference."""
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


@lru_cache(maxsize=None)
def _jacobian_source(n: int) -> str:
    """The fused :func:`_implicit_jacobian` at n: from P's row x, the
    backward rates r, h and the constant entries C, the Jacobian, its
    entries written as :func:`_per_evaluator_jacobian` computes them."""
    k, d = 2 * n + 1, 3 * n + 3
    S, lam = n, 3 * n + 2
    cols = list(range(n)) + [n + 1 + i for i in range(n)] + [S]  # the jet columns

    def H(i, j):
        return f"o[{1 + k + i * k + j}]"

    def dF(i, j):
        return f"d[{n + i * k + j}]"

    def dE(i, j):
        return f"e[{n + i * k + j}]"

    if n == 1:
        vm = [f"(0.0 + r0 * {dF(0, j)})" for j in range(k)]
    else:
        vm = [f"m[{j}]" for j in range(k)]
    entries = {}
    for i in range(n):  # (pdot - dL/dq - Fext) s + (lamdot - s) F
        for j, c in enumerate(cols):
            entries[i, c] = f"u * {dF(i, j)} - s * ({H(i, j)} + {dE(i, j)}) + t{i} * {H(2 * n, j)}"
        entries[i, 2 * n + 2 + i] = "s / h"
        entries[i, lam] = f"d[{i}] / h"
    for j, c in enumerate(cols):  # s Sdot - <F, qdot>
        entries[n, c] = f"r{S} * {H(2 * n, j)} - {vm[j]}"
    entries[n, S] = f"({entries[n, S]}) + s / h"
    for i in range(n):
        entries[n, i] = f"({entries[n, i]}) - d[{i}] / h"
    for i in range(n):  # p - dL/dv
        for j, c in enumerate(cols):
            entries[n + 1 + i, c] = f"-{H(n + i, j)}"
    args, size = _implicit_args(n), n * (k + 1)
    body = [
        f"o = L2({args})", f"d = F1({args})", f"e = E1({args})",
        f"if len(d) != {size} or len(e) != {size}: return None",
        "if not _finite(sum(o) + sum(d) + sum(e)): return None",
        f"s = o[{k}]",
        f"u = r{lam} - s",
        *[f"t{i} = r{2 * n + 2 + i} - o[{1 + i}] - e[{i}] - d[{i}]" for i in range(n)],
        *([] if n == 1 else [f"m = _vector_matrix({_tuple(f'r{i}' for i in range(n))}, d[{n}:])"]),
        f"out = {_tuple(entries.values())}",
        "if not _finite(sum(out)): return None",
        "J = C.copy()",
        "J.put(IDX, out)",
        "return J",
    ]
    index = _tuple(str(i * d + c) for i, c in entries)
    return f"IDX = np.array({index})\n" + _kernel_source(
        [f"x{i}" for i in range(d)] + [f"r{i}" for i in range(d)] + ["h", "C"], body
    )


def _build_jacobian(model: SimpleThermoModel):
    replays = {"L2": ("lagrangian", 2), "F1": ("friction", 1), "E1": ("external", 1)}
    return _bind(model, _jacobian_source(model.n), replays)


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

    The loop is float code over tuples, one IEEE operation per
    coordinate as numpy's elementwise ``x0 + h * rate``, ``(z - x0) / h``
    and ``z - step``; the solve is its one numpy call per iterate. The
    fused residual and Jacobian, looked up once per run, answer on the
    floats; a call whose guard fails takes the per-evaluator path for
    that call alone. The snap reads p = dL/dv off the converged
    residual's replay of L's order-1 jet (``momentum_map``'s bits) and
    sets lam = +0.0; the stored rate and L are the unsnapped iterate's.
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
    kept = []  # (L, residual[n], max |residual|) of each stored row since the last block pass
    constants = _implicit_constants(n, h)

    # instantaneous field data at the start, for the first record
    pair0 = solution_pair_P(model, initial.q, initial.v, initial.S)
    res0, L = implicit_residual_P(model, initial, pair0.tangent, with_value=True)
    residual = _fused(model, "residual", _build_residual)  # the start traced its replays
    jacobian = _fused(model, "jacobian", _build_jacobian)  # once its replays are traced
    states[0], rates[0] = initial.row, pair0.tangent
    kept.append((L, res0[n], np.abs(res0).max()))

    at = _arena_layout("P", n)[1]
    dLdv = slice(1 + n, 1 + 2 * n)  # in L's order-1 jet (L, dL/dq, dL/dv, dL/dS)
    x, rate = tuple(initial.row.tolist()), tuple(pair0.tangent.tolist())
    for k in range(1, K):
        x0 = x
        x1 = tuple([a + h * b for a, b in zip(x0, rate)])
        J = None
        for iterate in range(IMPLICIT_MAX_ITER + 1):
            rate = tuple([(a - b) / h for a, b in zip(x1, x0)])
            out = None if residual is None else residual(*x1, *rate)
            if out is None:
                r, o = _per_evaluator_residual(model, np.array(x1), np.array(rate))
                err = np.abs(r).max()  # NaN wherever r has one
                r = tuple(r.tolist())
            else:
                r, o = out
                err = max(map(abs, r))  # r is finite: the kernel's guard
            if iterate == IMPLICIT_MAX_ITER:
                raise NewtonError(
                    f"implicit step did not converge: residual {err:.3e} "
                    f"after {IMPLICIT_MAX_ITER} iterations"
                )
            if err <= IMPLICIT_NEWTON_TOL:
                break
            if not math.isfinite(err):
                return _stored(h, k, "P", n, states, rates, diagnostics, kept, completed=False)
            if J is None:  # built once per step, at the predictor
                J = None if jacobian is None else jacobian(*x1, *rate, h, constants)
                if J is None:
                    J = _per_evaluator_jacobian(model, np.array(x1), np.array(rate), h, constants)
                    jacobian = _fused(model, "jacobian", _build_jacobian)
            try:
                step = _solve(J, np.array(r)).tolist()
            except np.linalg.LinAlgError:
                raise NewtonError("singular Jacobian in the implicit step")
            x1 = tuple([a - b for a, b in zip(x1, step)])
            if not all(map(math.isfinite, x1)):
                return _stored(h, k, "P", n, states, rates, diagnostics, kept, completed=False)
        # snap p onto the converged residual's dL/dv and lam to zero (Newton
        # left them within tol); the rate and L are the unsnapped iterate's
        x = list(x1)
        x[at["p"]], x[at["lam"]] = o[dLdv], 0.0
        states[k], rates[k] = x, rate
        x = tuple(x)
        kept.append((o[0], r[n], err))  # err: the converged residual's max |r|
        if len(kept) == _BLOCK:
            _flush("P", n, states, rates, diagnostics, kept, k + 1)
    return _stored(h, K, "P", n, states, rates, diagnostics, kept, completed=True)


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
