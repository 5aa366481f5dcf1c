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
per model and n that calls L's and the forces' jets (the momentum side
loops over the fiber iterate) and does the entropy-rate rule, an n = 1
division and the outputs in float code, calling numpy only where its
bits need it. The implicit residual and the fiber iterate have kernels
of their own, and so does the implicit Euler step: one per model and n,
the whole Newton loop (``_implicit_step_source``), its Newton system
eliminated by blocks to (n + 1) rows and factored in float code. Each
source is the one statement of its math, bound twice
(``model._bind``): the fast binding, compiled at the
first call that finds the jets traced, replays the compiled jets and
answers None where a guard fails; the strict binding, which needs no
trace, answers before that and every state the fast one hands over,
with the same bits, and raises the errors.

:func:`integrate_explicit` steps tuples of floats with numpy's bits.
After a run's first rate, each RK4 step is one call of a generated
step (``_step_source``), one per explicit route, n and regime. It
inlines four bodies of the route's work kernel, from the same source
builders (``_work_parts``, ``_momentum_parts``), and is bound fast
only. Where it hands over (a guard failed, or the next state is not
finite), that one step reruns on the per-rate path: the field's rate
at each stage and at the next state. There the field keeps the last
rate's work, which the next state's stored row and diagnostics read
by identity, and seeds each fiber solve with the rate before it.

One assembly (``_solution_data``) writes the (state, tangent, covector)
rows of any arena from a work record: P's rows at the arena's slots,
which the ``solution_pair_*`` helpers share. The sign flip between the velocity
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

import ast
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dirac import _conditions
from .errors import DimensionMismatchError, DiracThermoError, IntegrationError, NewtonError
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
    _compiled,
    _dot_source,
    _fused,
    _kernel_source,
    _momentum_rate_from,
    _momentum_rate_source,
    _records,
    _solve_source,
    _tuple,
    arena_dim,
    arena_slots,
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


def _entropy_rate_source(F: list, v: list) -> list:
    """Lines setting the entropy rate w = <F, v>/s, the rate constraint
    s Sdot = <F, v> solved with s the entropy slope dL/dS (minus the
    temperature), from the friction names F, the velocities v and s.

    Friction-free points move entropy nowhere, which keeps pure
    mechanics (entropy-independent models) inside the fields without a
    slope read; where friction acts, a slope that is not negative (a
    temperature that is not positive) is a domain violation, the
    ``slope`` guard site. A NaN slope gives a NaN rate, so a run that
    blew up stops on its non-finite state."""
    return [
        f"if {' and '.join(f'{f} == 0.0' for f in F)}: w = 0.0",
        "elif s >= 0.0 and _fail('slope', s): return None",
        f"else: w = {_dot_source(F, v)} / s",
    ]


def _work_parts(n: int, degenerate: bool) -> tuple:
    """(params, chart, seed, body, work) of the fused :func:`_lagrangian_work`
    at n, from q, v and S (q and S when degenerate, where L's and the
    forces' jets are taken at v = 0): its parameters; those of them that
    are the chart state's coordinates, in chart order (q, S, v); the
    ones that seed it, none here; its body lines up to its result; and
    that result as a :class:`_LagrangianWork` of source expressions, a
    tuple field as a list of them. The momentum rate at vdot = 0 is zeros
    by rule Z where each of its terms has a zero factor (always for a
    kinetic term with a constant mass matrix), else the matmul; the solve
    at n > 1 is b_i / A_ii by rule D where the matrix is diagonal and b
    has no zero, else LAPACK's. See :func:`model._momentum_rate_source`
    and :func:`model._solve_source`."""
    k = 2 * n + 1
    q, S = [f"a{i}" for i in range(n)], f"a{2 * n}"
    f, e, b = ([f"{x}{i}" for i in range(n)] for x in "feb")
    dLdq = [f"o[{1 + i}]" for i in range(n)]
    if degenerate:
        v, args = [f"c{i}" for i in range(n)], ", ".join(q + ["0.0"] * n + [S])  # v: the solved rate
        rest = [f"d[{i}]" for i in range(n)]  # the friction at zero velocity
        body = [
            # the friction's order-1 jet at zero velocity: n values, then n rows of k partials
            f"o = L1({args})", f"d = F1({args})", f"{', '.join(e)}, = E0({args})",
            f"if (len(d) != {n * (k + 1)} or not _finite(sum(o) + sum(d) + {' + '.join(e)})) and _fail():"
            " return None",
            f"if ({' or '.join(f'abs({x}) > 1e-12' for x in rest)}) and _fail('rest', {', '.join(rest)}):"
            " return None",
            *[f"b{i} = -(o[{1 + i}] + e{i})" for i in range(n)],
            *_solve_source([f"d[{n + i * k + n + j}]" for i in range(n) for j in range(n)], b, v,
                           "_fail('coefficients')"),
            f"{', '.join(f)}, = F0({', '.join(q + v + [S])})",
            f"s = o[{k}]", *_entropy_rate_source(f, v),
            f"if not _finite({' + '.join(v + f)} + w) and _fail(): return None",
        ]
        work = _LagrangianWork([*v, "w"], "o[0]", "s", dLdq, ["0.0"] * n, f, e, None)
        return q + [S], q + [S], [], body, work
    v, u, m = [f"a{n + i}" for i in range(n)], [f"u{i}" for i in range(n)], [f"m{i}" for i in range(n)]  # u: vdot
    args = ", ".join(q + v + [S])
    body = [
        f"o = L2({args})", f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite(sum(o) + {' + '.join(f + e)}) and _fail(): return None",
        f"s = o[{k}]", *_entropy_rate_source(f, v),
        "if not _finite(w) and _fail(): return None",
        # the momentum rate m at vdot = 0 moves to the right-hand side
        *_momentum_rate_source("o", 1 + k + n * k, [*v, *["0.0"] * n, "w"], m),
        *[f"b{i} = o[{1 + i}] + f{i} + e{i} - m{i}" for i in range(n)],
        *_solve_source([f"o[{1 + k + (n + i) * k + n + j}]" for i in range(n) for j in range(n)], b, u,
                       "_fail('hessian')"),
        f"if not _finite({' + '.join(u)}) and _fail(): return None",
    ]
    lv = f"*o[{1 + k + n * k}:{1 + k + 2 * n * k}]"  # L's velocity rows
    work = _LagrangianWork([*v, "w", *u], "o[0]", "s", dLdq, [f"o[{1 + n + i}]" for i in range(n)], f, e, [lv])
    return q + v + [S], q + [S] + v, [], body, work


def _returned(work) -> str:
    """The line returning a work record of source expressions."""
    fields = ("None" if x is None else x if isinstance(x, str) else _tuple(x) for x in work)
    return f"return _Work({', '.join(fields)})"


@lru_cache(maxsize=None)
def _work_source(n: int, degenerate: bool) -> str:
    """The fused :func:`_lagrangian_work` at n (:func:`_work_parts`)."""
    params, _, _, body, work = _work_parts(n, degenerate)
    return _kernel_source(params, [*body, _returned(work)])


def _work_binding(model: SimpleThermoModel, source: str, strict: bool, **names):
    """``source`` bound over the replays of the model's velocity-side work."""
    if model.degenerate:
        replays = {"L1": ("lagrangian", 1), "F1": ("friction", 1)}
    else:
        replays = {"L2": ("lagrangian", 2)}
    replays.update(F0=("friction", 0), E0=("external", 0))
    return _bind(model, source, replays, strict, **names)


def _build_work(model: SimpleThermoModel, strict: bool = False):
    return _work_binding(model, _work_source(model.n, model.degenerate), strict, _Work=_LagrangianWork)


def _build_work_step(model: SimpleThermoModel, strict: bool = False):
    return _work_binding(model, _step_source("M", model.n, model.degenerate), strict)


def _lagrangian_work(model: SimpleThermoModel, q, v, S) -> _LagrangianWork:
    """The rate of :func:`vector_field_lagrangian` at (q, v, S) plus the
    intermediates it was built from; a degenerate model's dL/dv is zero.
    The model's fused work kernel gives it: the fast binding where its
    guards hold, the strict one otherwise (:func:`_evaluate`)."""
    n = model.n
    v = () if model.degenerate else _as_array(v, n, "v").tolist()
    return _evaluate(model, "work", _build_work, (*_as_array(q, n, "q").tolist(), *v, float(S)))


def _evaluate(model: SimpleThermoModel, kind: str, build: Callable, args: tuple):
    """The model's fused kernel of ``kind`` at ``args``: the fast
    binding's answer, compiled here once its replays are traced, else
    the strict binding's."""
    kernel = _fused(model, kind, build)
    out = None if kernel is None else kernel(*args)
    return _fused(model, kind, build, strict=True)(*args) if out is None else out


def _momentum_parts(n: int) -> tuple:
    """(params, chart, seed, body, work) of the fused momentum-side work
    at n, as :func:`_work_parts` gives them: a :class:`_MomentumWork`
    from q, S, p and the seed velocity c, the chart (q, S, p) and the
    seed c. The body is the Newton loop of ``legendre._newton`` over the
    fiber iterate from c, the forces' replays at the inverted velocity,
    the entropy-rate rule and pdot = (dL/dq + F) + Fext, numpy's order."""
    k = 2 * n + 1
    q, S, p = [f"a{i}" for i in range(n)], f"a{n}", [f"a{n + 1 + i}" for i in range(n)]
    c, f, e, m = ([f"{x}{i}" for i in range(n)] for x in "cfem")
    args = ", ".join(q + c + [S])
    body = [
        # the last evaluation carries the limit: the fiber converges there or fails
        f"for i in range({NEWTON_MAX_ITER + 1}):",
        f"    limit = {NEWTON_MAX_ITER} if i == {NEWTON_MAX_ITER} else 0",
        f"    out = _fiber({args}, {', '.join(p)}, {NEWTON_TOL!r}, limit)",
        "    if out is None: return None",
        "    t, o = out",
        "    if o is not None: break",
        f"    {', '.join(c)}, = t",
        f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite({' + '.join(f + e)}) and _fail(): return None",
        f"s = o[{k}]", *_entropy_rate_source(f, c),
        "if not _finite(w) and _fail(): return None",
        *[f"m{i} = o[{1 + i}] + f{i} + e{i}" for i in range(n)],
        f"if not _finite({' + '.join(m)}) and _fail(): return None",
    ]
    work = _MomentumWork([*c, "w", *m], "o[0]", [f"-o[{1 + i}]" for i in range(n)], "-s", f, e)
    return q + [S] + p + c, q + [S] + p, c, body, work


@lru_cache(maxsize=None)
def _momentum_source(n: int) -> str:
    """The fused momentum-side work at n (:func:`_momentum_parts`)."""
    params, _, _, body, work = _momentum_parts(n)
    return _kernel_source(params, [*body, _returned(work)])


def _momentum_binding(model: SimpleThermoModel, source: str, strict: bool, **names):
    """``source`` bound over the fiber iterate and the force replays of the
    model's momentum-side work; None while the fiber's is untraced."""
    fiber = _fused(model, "fiber", _build_fiber, strict)
    if fiber is None:
        return None
    replays = {"F0": ("friction", 0), "E0": ("external", 0)}
    return _bind(model, source, replays, strict, _fiber=fiber, **names)


def _build_momentum(model: SimpleThermoModel, strict: bool = False):
    return _momentum_binding(model, _momentum_source(model.n), strict, _Work=_MomentumWork)


def _build_momentum_step(model: SimpleThermoModel, strict: bool = False):
    return _momentum_binding(model, _step_source("N", model.n, False), strict)


def vector_field_N(hmodel: HamiltonianModel, point: ArenaPoint, v0=None):
    """Explicit momentum-side field (qdot, pdot, Sdot).

    The entropy rate balances dissipated power against temperature
    (:func:`_entropy_rate_source`). ``v0`` seeds the fiber inversion (a
    warm start from a nearby state). The model's fused momentum kernel
    gives it, as it gives :func:`hamilton_field_N`'s rates: the fast
    binding where its guards hold, the strict one otherwise
    (:func:`_evaluate`).
    """
    model = hmodel.source
    n = model.n
    q, p = _as_array(point.q, n, "q").tolist(), _as_array(point.p, n, "p").tolist()
    seed = [0.0] * n if v0 is None else _as_array(v0, n, "v0").tolist()
    work = _evaluate(model, "momentum", _build_momentum, (*q, float(point.S), *p, *seed))
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
    rate r, ``work(y)`` the work record at y (the last rate's, when y is
    its state), ``diagnostics(y, r)`` a :class:`DiagnosticsRecord` that
    measures r against y's own work: the integrators' block pass on one
    row, and ``step()`` the route's generated RK4 step for a run about to
    start, or None where the model has none compiled. A tuple of floats
    y gets tuples back, an array y arrays."""

    arena: str
    n: int
    dim: int
    rate: Callable
    to_point: Callable
    work: Callable
    diagnostics: Callable
    step: Callable


def _chart(y) -> tuple:
    """A chart state or rate as a tuple of floats."""
    return y if type(y) is tuple else tuple(np.asarray(y, dtype=float).ravel().tolist())


def _kept(w) -> tuple:
    """The floats of a work record that its state's diagnostics row reads
    besides the stored row and rate (:func:`_diagnostics_block`): L and
    the entropy slope, dL/dq, F, Fext and L's velocity rows (none when
    degenerate) on the velocity side; L, dH/dS, the inverted velocity,
    dH/dq, F and Fext on the momentum side. A record of source
    expressions gives them as source (:func:`_step_source`)."""
    if type(w) is _LagrangianWork:
        return (w.L, w.s, *w.dLdq, *w.F, *w.Fext, *(w.Lv or ()))
    return (w.L, w.dHdS, *w.qdot, *w.dHdq, *w.F, *w.Fext)


def _row(t, w):
    """The arena row of the chart state t from its work record w: M's
    (q, S, v, p) on the velocity side, v the rate's qdot and p = dL/dv,
    and t itself, N's, on the momentum side. Source expressions give
    source, as in :func:`_kept`."""
    if type(w) is _LagrangianWork:
        n = len(w.dLdq)
        return (*t[: n + 1], *w.qdot, *w.dLdv)
    return t


def _explicit_field(arena: str, n: int, dim: int, evaluate, fused_step) -> ExplicitField:
    """An :class:`ExplicitField` from ``evaluate(t, seed)``, the work
    record at the chart state t given the rate evaluated before it (None
    before the first), and ``fused_step()``, the route's generated RK4
    step for the field's model (:func:`_step_source`), or None.

    The last rate's state, work and rate are kept. Outside the generated
    step, the integrator hands the rate, the stored row and the kept
    work the same tuple, so the two read that work, matched by identity:
    a tuple cannot change, and equal floats are not equal bits
    (-0.0 == 0.0). Any other state, an array among them, is evaluated
    afresh, seeded by the last rate, which stays. The last rate is also
    that of the last generated step's next state, so a step that hands
    over reruns on the per-rate path from its own state's rate."""
    last = [None, None, None]  # the state the last rate evaluated, its work, the last rate

    def work_at(y):
        if y is last[0]:
            return y, last[1]
        t = _chart(y)
        return t, evaluate(t, last[2])

    def rate(y):
        t = _chart(y)
        last[1] = w = evaluate(t, last[2])
        last[0], last[2] = t, w.rate
        return w.rate if t is y else np.array(w.rate)

    def to_point(y, r):
        t, w = work_at(y)
        row = _row(t, w)
        return row if t is y else np.array(row)

    def diagnostics(y, r):
        t, w = work_at(y)
        rows = [_row(t, w)], [_chart(r)], [_kept(w)]
        return DiagnosticsRecord(*_diagnostics_block(arena, n, *map(np.array, rows))[0].tolist())

    def step():
        kernel = fused_step()
        if kernel is None:
            return None

        def advance(y, r, half, h, sixth):
            out = kernel(*y, *r, half, h, sixth)
            if out is not None:
                last[2] = out[1]
            return out

        return advance

    return ExplicitField(arena=arena, n=n, dim=dim, rate=rate, to_point=to_point,
                         work=lambda y: work_at(y)[1], diagnostics=diagnostics, step=step)


def hamilton_field_N(hmodel: HamiltonianModel) -> ExplicitField:
    """Momentum-side field over the flat chart (q, S, p), which is also
    the arena row. Each fiber inversion starts from the inverted
    velocity of the rate evaluated before it (from rest at the first),
    and the seed moves the bits. The model's fused momentum kernel,
    compiled at the field's first rate, gives the work where its guards
    hold; its strict binding from the same seed otherwise."""
    model = hmodel.source
    n = model.n
    kernel = _fused(model, "momentum")  # compiled by an earlier call, else at the first rate
    rest = (0.0,) * n

    def evaluate(t: tuple, seed) -> _MomentumWork:
        nonlocal kernel
        args = (*t, *(rest if seed is None else seed[:n]))
        work = None if kernel is None else kernel(*args)
        if work is None:
            work = _fused(model, "momentum", _build_momentum, strict=True)(*args)
            kernel = _fused(model, "momentum", _build_momentum)
        return work

    return _explicit_field("N", n, 2 * n + 1, evaluate,
                           lambda: _fused(model, "momentum-step", _build_momentum_step))


def lagrangian_field(model: SimpleThermoModel) -> ExplicitField:
    """Velocity-side field; chart (q, S, v), or (q, S) for degenerate
    models whose rate is algebraic (there y[n + 1 :] is empty and the
    state's velocity is the solved rate)."""
    n = model.n
    kernel = _fused(model, "work")  # compiled by an earlier call, else at the first rate

    def evaluate(t: tuple, seed) -> _LagrangianWork:
        nonlocal kernel
        args = (*t[:n], *t[n + 1 :], t[n])
        work = None if kernel is None else kernel(*args)
        if work is None:
            work = _fused(model, "work", _build_work, strict=True)(*args)
            kernel = _fused(model, "work", _build_work)
        return work

    dim = n + 1 if model.degenerate else 2 * n + 1
    return _explicit_field("M", n, dim, evaluate, lambda: _fused(model, "work-step", _build_work_step))


def _stage(y: list, k: list, c: str) -> list:
    """An RK4 stage state in source, y + c k per coordinate: numpy's
    elementwise operation order."""
    return [f"{a} + {c} * {b}" for a, b in zip(y, k)]


def _advanced(y: list, r: list, k2: list, k3: list, k4: list) -> list:
    """The next RK4 state in source, per coordinate as numpy's elementwise
    ``y + sixth * (r + 2.0 * (k2 + k3) + k4)``."""
    return [f"{a} + sixth * (({b} + 2.0 * ({c} + {e})) + {g})" for a, b, c, e, g in zip(y, r, k2, k3, k4)]


@lru_cache(maxsize=None)
def _rk4(d: int) -> Callable:
    """``rk4(f, y..., r..., half, h, sixth)``, the per-rate RK4 step of d
    coordinates: the next state from the state y and its rate r, calling
    f on each stage state, a tuple of floats, for its rate."""
    y, r = [f"y{i}" for i in range(d)], [f"r{i}" for i in range(d)]
    k2, k3, k4 = ([f"k{j}c{i}" for i in range(d)] for j in (2, 3, 4))
    body = [
        f"{', '.join(k2)}, = f({_tuple(_stage(y, r, 'half'))})",
        f"{', '.join(k3)}, = f({_tuple(_stage(y, k2, 'half'))})",
        f"{', '.join(k4)}, = f({_tuple(_stage(y, k3, 'h'))})",
        f"return {_tuple(_advanced(y, r, k2, k3, k4))}",
    ]
    namespace = {}
    exec(_compiled(f"def rk4(f, {', '.join(y + r)}, half, h, sixth):\n" + "".join(f"    {x}\n" for x in body)),
         namespace)
    return namespace["rk4"]


# a string literal, or an identifier that is not an attribute name
_NAME = re.compile(r"'[^']*'|\"[^\"]*\"|(?<![.\w])[A-Za-z_]\w*")


def _renamed(names: dict) -> Callable:
    """A function of a line of kernel source that renames each identifier
    of ``names`` to its value."""
    return lambda line: _NAME.sub(lambda m: names.get(m.group(), m.group()), line)


def _assigned(params: list, body: list) -> set:
    """The names that the body of a kernel of ``params`` assigns."""
    tree = ast.parse(_kernel_source(params, body))
    return {x.id for x in ast.walk(tree) if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Store)}


@lru_cache(maxsize=None)
def _step_source(arena: str, n: int, degenerate: bool) -> str:
    """One RK4 step of the explicit route on ``arena`` (M on the velocity
    side, N on the momentum side) at n, generated from the route's work
    kernel (:func:`_work_parts`, :func:`_momentum_parts`). From the stored
    chart state y, its rate r and the step's half, h and sixth it gives
    the next state, its rate, its kept floats (:func:`_kept`) and its
    arena row (:func:`_row`), or None where a guard fails or the next
    state is not finite. It inlines four bodies of the work kernel with
    per-stage locals: k2, k3, k4 and the next state's k1. Each stage
    state is written per coordinate as :func:`_rk4` writes it, and on N
    each fiber solve is seeded by the stage before it, k4 included."""
    params, chart, seed, body, work = _momentum_parts(n) if arena == "N" else _work_parts(n, degenerate)
    assigned, d = _assigned(params, body), len(chart)
    assert not assigned & set(chart), "a kernel body rebinds a chart coordinate"
    y, r = [f"y{i}" for i in range(d)], [f"r{i}" for i in range(d)]
    lines, rates = [], [r]

    def state(j: int, coordinates: list) -> list:
        z = [f"z{j}c{i}" for i in range(d)]
        lines.extend(f"{a} = {b}" for a, b in zip(z, coordinates))
        return z

    def inline(j: int, z: list):
        """The body at the stage state z, its locals suffixed _j, seeded
        by the last rate; the stage's work record as source."""
        names = {x: f"{x}_{j}" for x in assigned | set(params)}
        names.update(zip(chart, z))
        rename = _renamed(names)
        lines.extend(f"{names[x]} = {v}" for x, v in zip(seed, rates[-1]))
        lines.extend(map(rename, body))
        w = type(work)(*(x if x is None else rename(x) if isinstance(x, str) else list(map(rename, x))
                         for x in work))
        rates.append(w.rate)
        return w

    inline(2, state(2, _stage(y, r, "half")))
    inline(3, state(3, _stage(y, rates[1], "half")))
    inline(4, state(4, _stage(y, rates[2], "h")))
    z = state(1, _advanced(y, *rates))
    lines.append(f"if not _finite({' + '.join(z)}): return None")
    w = inline(1, z)
    lines.append(f"return {_tuple(z)}, {_tuple(w.rate)}, {_tuple(_kept(w))}, {_tuple(_row(z, w))}")
    return _kernel_source(y + r + ["half", "h", "sixth"], lines)


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
    are numpy's. The field's rate is called at the first state. Each
    step after it is one call of the route's generated step
    (:func:`_step_source`), which gives the next state with its rate,
    stored row and kept floats. Where it answers None (a guard failed,
    or the next state is not finite), that step reruns on the per-rate
    path (:func:`_rk4`) from the same state and seed: the field's rate at
    each stage, then its rate, stored row and ``work`` at the next state,
    read by identity. The per-rate path also serves a field with no
    generated step and, on arrays behind an adapter, a plain callable.
    The kept floats of the stored states (:func:`_kept`) wait until a
    block pass turns ``_BLOCK`` of them, or the last ones, into
    diagnostics rows.
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
        f, steps, kept = field.rate, field.step, []
        arena, n, d = field.arena, field.n, arena_dim(field.arena, field.n)

        def recorded(t, r):
            return field.to_point(t, r), _kept(field.work(t))
    else:
        f = lambda t: tuple(np.asarray(field(np.array(t)), dtype=float).tolist())
        steps, kept = (lambda: None), None
        arena, n, d = "", 0, y.size

        def recorded(t, r):
            return t, None
    K = max(1, int(round(t_end / h))) + 1
    states, rates = np.empty((K, d)), np.empty((K, y.size))
    diagnostics = np.empty((0 if kept is None else K, len(_DIAGNOSTICS)))
    half = 0.5 * h
    sixth = h / 6.0
    rk4 = _rk4(y.size)
    y = tuple(y.tolist())
    r = f(y)
    row, floats = recorded(y, r)
    step = steps()  # after the first rate, which traced the jets
    k = 0
    while True:
        states[k], rates[k] = row, r
        k += 1
        if kept is not None:
            kept.append(floats)
            if len(kept) == _BLOCK:
                _flush(arena, n, states, rates, diagnostics, kept, k)
        if k == K:
            break
        out = None if step is None else step(y, r, half, h, sixth)
        if out is not None:
            y, r, floats, row = out
            continue
        y = rk4(f, *y, *r, half, h, sixth)
        if not all(map(math.isfinite, y)):
            break
        r = f(y)
        row, floats = recorded(y, r)
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
    fused residual kernel gives it: the fast binding where its guards
    hold, the strict one otherwise (:func:`_evaluate`).
    """
    n = model.n
    args = (*point.row.tolist(), *_as_array(rates, 3 * n + 3, "rates").tolist())
    residual, o = _evaluate(model, "residual", _build_residual, args)
    return (np.array(residual), o[0]) if with_value else np.array(residual)


def _implicit_args(n: int) -> str:
    """The jet arguments (q..., v..., S) among P's coordinates x0, x1, ..."""
    return ", ".join([f"x{i}" for i in range(n)] + [f"x{n + 1 + i}" for i in range(n)] + [f"x{n}"])


def _residual_parts(n: int) -> tuple:
    """(body, residual) of the fused :func:`implicit_residual_P` at n, from
    P's row x0, x1, ... and rates r0, r1, ...: the lines reading L's
    order-1 jet o and the forces up to the entropy slope s, and the
    residual's rows as source expressions."""
    k = 2 * n + 1
    S, W, lam = n, 2 * n + 1, 3 * n + 2
    args, f, e = _implicit_args(n), [f"f{i}" for i in range(n)], [f"e{i}" for i in range(n)]
    body = [
        f"o = L1({args})", f"{', '.join(f)}, = F0({args})", f"{', '.join(e)}, = E0({args})",
        f"if not _finite(sum(o) + {' + '.join(f + e)}) and _fail(): return None",
        f"s = o[{k}]",
    ]
    residual = [
        *[f"(r{2 * n + 2 + i} - o[{1 + i}] - e{i}) * s + (r{lam} - s) * f{i}" for i in range(n)],
        f"s * r{S} - {_dot_source(f, [f'r{i}' for i in range(n)])}",
        *[f"x{2 * n + 2 + i} - o[{1 + n + i}]" for i in range(n)],
        f"x{lam}",
        *[f"x{n + 1 + i} - r{i}" for i in range(n)],
        f"x{W} - r{S}",
    ]
    return body, residual


@lru_cache(maxsize=None)
def _residual_source(n: int) -> str:
    """The fused :func:`implicit_residual_P` at n: from P's row x and
    rates r, (residual, o), o the replay of L's order-1 jet."""
    d = 3 * n + 3
    body, residual = _residual_parts(n)
    body += [f"out = {_tuple(residual)}", "if not _finite(sum(out)) and _fail(): return None", "return out, o"]
    return _kernel_source([f"x{i}" for i in range(d)] + [f"r{i}" for i in range(d)], body)


def _build_residual(model: SimpleThermoModel, strict: bool = False):
    replays = {"L1": ("lagrangian", 1), "F0": ("friction", 0), "E0": ("external", 0)}
    return _bind(model, _residual_source(model.n), replays, strict)


def _reduced_source(n: int) -> list:
    """Lines that form and factor the implicit step's Newton matrix at the
    iterate x with the backward rates r, as a reduced (n + 1)-square
    system on (dq..., dS).

    The step's residual has the exact Jacobian J of z -> residual(z,
    (z - x0)/h). Its rows differentiate, through the jet columns
    (q..., v..., S), L's order-2 jet g (its slope sg = dL/dS and the
    slope's row), the one the velocity-side rate reads, and the order-1 jets df
    and de of friction and external force: the force-balance rows
    (pdot - dL/dq - Fext) s + (lamdot - s) F, plus s/h on their p and
    F/h on lam; the entropy row s Sdot - <F, qdot>, plus s/h on S and
    -F/h on q; the momentum rows p - dL/dv, 1 on p. The covariable row
    is 1 on lam, the velocity and rate-slot rows 1 on v and W and -1/h
    on q and S. Those last four blocks pivot on 1, so Newton's
    J dz = residual substitutes them: dv = r_v + dq/h, dW = r_W + dS/h,
    dlam = r_lam and dp = r_p + H_v (dq, dv, dS), H_v L's velocity rows
    over the jet columns. The force-balance and entropy rows are left: a
    matrix a{i}_{j} on (dq..., dS), the coefficients P = s/h and
    Q{i} = F_i/h of p and lam, and those of dv, G{i}_{n + j}, which the
    right-hand side of each iterate reads (:func:`_increment_source`).

    The matrix is factored by Gaussian elimination with partial
    pivoting, the pivot the first row of largest magnitude, rows swapped
    whole (multipliers included, p{c} the row swapped with row c) and
    the multipliers stored in place; a zero pivot is the ``jacobian``
    guard site (a singular Jacobian). A matrix that is not finite stops
    the run. The entries of J have the operations of numpy's whole-array
    rows (``tests/conftest.py``'s reference Jacobian), and the reduction
    the operations of that file's ``reduced_solve`` on them."""
    k, m = 2 * n + 1, n + 1
    S, lam = n, 3 * n + 2

    def H(i, j):
        return f"g[{1 + k + i * k + j}]"

    def dF(i, j):
        return f"df[{n + i * k + j}]"

    vm = [f"(0.0 + r0 * {dF(0, j)})" for j in range(k)] if n == 1 else [f"vm[{j}]" for j in range(k)]
    args, size = _implicit_args(n), n * (k + 1)
    lines = [
        f"g = L2({args})", f"df = F1({args})", f"de = E1({args})",
        f"if (len(df) != {size} or len(de) != {size}) and _fail(): return None",
        "if not _finite(sum(g) + sum(df) + sum(de)) and _fail(): return None",
        f"sg = g[{k}]",
        f"ul = r{lam} - sg",
        *[f"t{i} = r{2 * n + 2 + i} - g[{1 + i}] - de[{i}] - df[{i}]" for i in range(n)],
        *([] if n == 1 else [f"vm = _vector_matrix({_tuple(f'r{i}' for i in range(n))}, df[{n}:])"]),
    ]
    lines.append("P = sg / h")
    for i in range(n):  # the force-balance rows; -H_v is the momentum row's entry
        lines.append(f"Q{i} = df[{i}] / h")
        lines += [f"G{i}_{j} = (ul * {dF(i, j)} - sg * ({H(i, j)} + de[{n + i * k + j}]) + t{i} * {H(2 * n, j)})"
                  f" - P * -{H(n + i, j)}" for j in range(k)]
    entropy = [f"r{S} * {H(2 * n, j)} - {vm[j]}" for j in range(k)]
    entropy[:n] = [f"({x}) - df[{j}] / h" for j, x in enumerate(entropy[:n])]
    entropy[2 * n] = f"({entropy[2 * n]}) + sg / h"
    lines += [f"G{n}_{j} = {x}" for j, x in enumerate(entropy)]
    # dv = r_v + dq/h moves G's v columns onto q
    for i in range(m):
        lines += [f"a{i}_{j} = G{i}_{j} + G{i}_{n + j} * hinv" for j in range(n)] + [f"a{i}_{n} = G{i}_{2 * n}"]
    lines.append(f"if not _finite({' + '.join(f'a{i}_{j}' for i in range(m) for j in range(m))}): return ()")
    for c in range(m):
        row = [f"a{c}_{j}" for j in range(m)]
        if c < n:
            lines.append(f"p{c}, big = {c}, abs(a{c}_{c})")
            lines += [f"if abs(a{i}_{c}) > big: p{c}, big = {i}, abs(a{i}_{c})" for i in range(c + 1, m)]
        for i in range(c + 1, m):
            other = [f"a{i}_{j}" for j in range(m)]
            lines.append(f"if p{c} == {i}: {', '.join(row + other)} = {', '.join(other + row)}")
        lines.append(f"if a{c}_{c} == 0.0 and _fail('jacobian'): return None")
        for i in range(c + 1, m):
            lines.append(f"a{i}_{c} = a{i}_{c} / a{c}_{c}")
            lines += [f"a{i}_{j} = a{i}_{j} - a{i}_{c} * a{c}_{j}" for j in range(c + 1, m)]
    return lines


def _increment_source(n: int) -> list:
    """Lines that take one Newton increment at the iterate x from its
    residual z with the factored reduced system of :func:`_reduced_source`:
    its right-hand side, permuted as the rows were, forward and back
    substitution (b{n} is dS), then dv, dW, dp and dlam substituted back,
    and x minus the increment, coordinate by coordinate."""
    k, m = 2 * n + 1, n + 1
    rv = [f"z{2 * n + 2 + j}" for j in range(n)]
    lines = [f"b{i} = z{i} - P * z{n + 1 + i} - Q{i} * z{2 * n + 1}"
             + "".join(f" - G{i}_{n + j} * {v}" for j, v in enumerate(rv)) for i in range(n)]
    lines.append(f"b{n} = z{n}" + "".join(f" - G{n}_{n + j} * {v}" for j, v in enumerate(rv)))
    lines += [f"if p{c} == {i}: b{c}, b{i} = b{i}, b{c}" for c in range(n) for i in range(c + 1, m)]
    lines += [f"b{i} = b{i}" + "".join(f" - a{i}_{j} * b{j}" for j in range(i)) for i in range(1, m)]
    lines += [f"b{i} = " + (f"(b{i}" + "".join(f" - a{i}_{j} * b{j}" for j in reversed(range(i + 1, m))) + ")"
                            if i < n else f"b{i}") + f" / a{i}_{i}" for i in reversed(range(m))]
    dv = [f"dv{j}" for j in range(n)]
    lines += [f"{x} = {v} + hinv * b{j}" for j, (x, v) in enumerate(zip(dv, rv))]
    lines.append(f"dW = z{3 * n + 2} + hinv * b{n}")
    jet = [f"b{j}" for j in range(n)] + dv + [f"b{n}"]
    lines += [f"dp{i} = z{n + 1 + i} + ({' + '.join(f'g[{1 + k + (n + i) * k + j}] * {x}' for j, x in enumerate(jet))})"
              for i in range(n)]
    step = [f"b{j}" for j in range(n)] + [f"b{n}"] + dv + ["dW"] + [f"dp{i}" for i in range(n)] + [f"z{2 * n + 1}"]
    lines += [f"x{i} = x{i} - {x}" for i, x in enumerate(step)]
    return lines


@lru_cache(maxsize=None)
def _implicit_step_source(n: int) -> str:
    """One implicit Euler step on P at n, the whole Newton loop: from the
    stored row y, the last rate w and h, the next row (p snapped onto the
    converged residual's dL/dv, lam onto +0.0), its backward rate and
    kept floats (L, the residual's entropy row, its largest magnitude),
    all of the unsnapped iterate. It answers ``(err,)`` where the residual
    is still err after :data:`IMPLICIT_MAX_ITER` increments, ``()`` where
    a residual, an iterate or the reduced matrix is not finite (the run
    stops), and None where a guard fails.

    The iterate starts at y + h w. Each iteration writes the rates
    (x - y)/h and the residual's body (:func:`_residual_parts`), and
    stops at a size within :data:`IMPLICIT_NEWTON_TOL`; the first forms
    and factors the reduced Newton matrix (:func:`_reduced_source`), held
    for the step, and each takes an increment (:func:`_increment_source`).
    The size is Python's maximum of the magnitudes, numpy's (which a NaN
    anywhere makes NaN) where the residual is not finite. Every
    coordinate takes numpy's elementwise operations."""
    d = 3 * n + 3
    y, w, x, r, z = ([f"{c}{i}" for i in range(d)] for c in "ywxrz")
    body, residual = _residual_parts(n)
    loop = [
        *[f"{c} = ({a} - {b}) / h" for c, a, b in zip(r, x, y)],
        *body,
        f"{', '.join(z)} = {', '.join(residual)}",
        f"err = max({', '.join(f'abs({a})' for a in z)})",
        f"if not _finite({' + '.join(z)}): err = float(np.max(np.abs({_tuple(z)})))",
        f"if err <= {IMPLICIT_NEWTON_TOL!r}: break",
        f"if i == {IMPLICIT_MAX_ITER}: return (err,)",
        "if not _finite(err): return ()",
        "if i == 0:",
        *[f"    {line}" for line in _reduced_source(n)],
        *_increment_source(n),
        f"if not _finite({' + '.join(x)}) and not all(map(_finite, {_tuple(x)})): return ()",
    ]
    p = [f"o[{1 + n + i}]" for i in range(n)]  # dL/dv in L's order-1 jet
    lines = [
        "hinv = 1.0 / h",
        *[f"{a} = {b} + h * {c}" for a, b, c in zip(x, y, w)],
        f"for i in range({IMPLICIT_MAX_ITER + 1}):",
        *[f"    {line}" for line in loop],
        f"return {_tuple(x[: 2 * n + 2] + p + ['0.0'])}, {_tuple(r)}, (o[0], z{n}, err)",
    ]
    return _kernel_source(y + w + ["h"], lines)


def _build_implicit_step(model: SimpleThermoModel, strict: bool = False):
    replays = {"L1": ("lagrangian", 1), "L2": ("lagrangian", 2), "F0": ("friction", 0),
               "F1": ("friction", 1), "E0": ("external", 0), "E1": ("external", 1)}
    return _bind(model, _implicit_step_source(model.n), replays, strict)


def integrate_implicit_P(
    model: SimpleThermoModel, initial: ArenaPoint, t_end: float, h: float
) -> Trajectory:
    """Implicit Euler on the full-arena stacked residual.

    Each step solves the discretized residual (backward rates) for the
    next point with Newton iterations, then snaps the momentum and
    covariable slots onto their algebraic values. The Newton matrix is
    the residual's exact Jacobian, built once per step at the predictor
    and held fixed within the step: a step costs one residual per
    iterate plus one jet each of L (order 2), friction and external
    force (order 1). Partials that an evaluator strips with
    ``duals.value`` are absent from the Jacobian; Newton then converges
    more slowly but still stops on the true residual. Of the Jacobian's
    3n + 3 rows, all but the n force-balance rows and the entropy row
    pivot on a constant, so the solve eliminates them by blocks and
    factors the (n + 1)-square rest on (dq, dS) once per step
    (:func:`_reduced_source`). A non-finite residual (an iterate off
    the domain) stops the run with the states stored so far; a singular
    Jacobian, or a residual still above :data:`IMPLICIT_NEWTON_TOL`
    after :data:`IMPLICIT_MAX_ITER` increments, raises NewtonError.
    First order by construction; the point is exercising the implicit
    conditions, not accuracy.

    Each step is one call of the model's generated step
    (:func:`_implicit_step_source`), the whole Newton loop in float code
    with numpy's elementwise ``x0 + h * rate``, ``(z - x0) / h`` and
    ``z - step``. Its fast binding, compiled once the step's jets are
    traced, answers where its guards hold; a step it hands over reruns
    from the same state on the strict binding, which raises the errors.
    The snap reads p = dL/dv off the converged residual's replay of L's
    order-1 jet (``momentum_map``'s bits) and sets lam = +0.0; the
    stored rate and L are the unsnapped iterate's.
    """
    if h <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and h must be positive")
    n = model.n
    d = 3 * n + 3
    p0 = momentum_map(model, initial.q, initial.v, initial.S)
    if not (np.max(np.abs(initial.p - p0)) <= CONSISTENCY_TOL and abs(initial.lam) <= CONSISTENCY_TOL):
        raise IntegrationError(
            "initial point is off the algebraic slice: momentum slots must "
            "carry dL/dv and the covariable must be zero"
        )

    K = max(1, int(round(t_end / h))) + 1
    states, rates = np.empty((K, d)), np.empty((K, d))
    diagnostics = np.empty((K, len(_DIAGNOSTICS)))

    # instantaneous field data at the start, for the first record
    pair0 = solution_pair_P(model, initial.q, initial.v, initial.S)
    res0, L = implicit_residual_P(model, initial, pair0.tangent, with_value=True)
    states[0], rates[0] = initial.row, pair0.tangent
    kept = [(L, res0[n], np.abs(res0).max())]  # (L, residual[n], max |residual|) since the last block pass

    step = _fused(model, "implicit-step", _build_implicit_step)  # once its jets are traced
    x, rate = tuple(initial.row.tolist()), tuple(pair0.tangent.tolist())
    for k in range(1, K):
        out = None if step is None else step(*x, *rate, h)
        if out is None:
            out = _fused(model, "implicit-step", _build_implicit_step, strict=True)(*x, *rate, h)
            step = _fused(model, "implicit-step", _build_implicit_step)
        if len(out) < 3:
            if out:
                raise NewtonError(
                    f"implicit step did not converge: residual {out[0]:.3e} "
                    f"after {IMPLICIT_MAX_ITER} iterations"
                )
            return _stored(h, k, "P", n, states, rates, diagnostics, kept, completed=False)
        x, rate, floats = out
        states[k], rates[k] = x, rate
        kept.append(floats)
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
