"""Model definition and state types for simple thermodynamic systems.

A simple system here is: mechanical coordinates q (n of them), one
entropy scalar S, a Lagrangian L(q, v, S), and a friction covector
F(q, v, S) that feeds dissipated power back into S. Evaluators are
written once, generically over the scalar type, and all derivatives
come out of the differentiation layer (``duals``): first partials from
dual numbers, second partials from one jet evaluation per state.

Four state arenas appear throughout the package, each with a fixed
flat-vector coordinate order:

    ``P``      (q, S, v, W, p, lam)   dimension 3n + 3
    ``TstarQ`` (q, S, p, lam)         dimension 2n + 2
    ``M``      (q, S, v, p)           dimension 3n + 1
    ``N``      (q, S, p)              dimension 2n + 1

W is an entropy-rate slot, lam the conjugate covariable of S (zero
along physical motions). Every serialization in the package uses these
orders and nothing else. The table of arena groups below is their only
statement: one walk over it gives each arena's slots inside P's order
and each group's place in the arena's row. A point of any arena is one
type, :class:`ArenaPoint`: the arena tag and the flat row, with each
coordinate group read through that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import duals
from .errors import ArenaError, DimensionMismatchError, TemperatureSignError

__all__ = [
    "ARENAS",
    "ArenaPoint",
    "DomainBox",
    "PointN",
    "SimpleThermoModel",
    "TangentCovectorPair",
    "arena_dim",
    "arena_of_point",
    "arena_slots",
    "entropy_slope",
    "external_value",
    "friction_value",
    "friction_velocity_jacobian",
    "lagrangian_jet",
    "lagrangian_partials",
    "lagrangian_value",
    "mixed_velocity_term",
    "momentum_rate",
    "point_from_vector",
    "temperature",
    "velocity_hessian",
]

ARENAS = ("P", "TstarQ", "M", "N")

# The one arena layout table: P's coordinate groups in flat order, and
# the groups each arena keeps, in the same order.
_P_GROUPS = ("q", "S", "v", "W", "p", "lam")
_ARENA_GROUPS = {
    "P": _P_GROUPS,
    "TstarQ": ("q", "S", "p", "lam"),
    "M": ("q", "S", "v", "p"),
    "N": ("q", "S", "p"),
}
_VECTOR_GROUPS = ("q", "v", "p")  # length n; the other groups are scalars


def _arena_groups(arena: str) -> tuple:
    try:
        return _ARENA_GROUPS[arena]
    except KeyError:
        raise ArenaError(f"unknown arena {arena!r}; expected one of {ARENAS}")


@lru_cache(maxsize=None)
def _arena_layout(arena: str, n: int):
    """(slots, places): the indices of the arena's flat coordinates
    inside P's flat order, read-only, and each kept group's place in the
    arena's row, a slice of length n for q, v and p and an index for the
    scalars. Built once per (arena, n) by one walk over P's groups."""
    groups = _arena_groups(arena)
    slots, places, start = [], {}, 0
    for group in _P_GROUPS:
        size = n if group in _VECTOR_GROUPS else 1
        if group in groups:
            k = len(slots)
            places[group] = slice(k, k + n) if group in _VECTOR_GROUPS else k
            slots.extend(range(start, start + size))
        start += size
    out = np.array(slots)
    out.flags.writeable = False
    return out, places


def arena_slots(arena: str, n: int) -> np.ndarray:
    """Indices of the arena's flat coordinates inside P's flat order
    (q, S, v, W, p, lam); read-only, built once per (arena, n)."""
    return _arena_layout(arena, n)[0]


def arena_dim(arena: str, n: int) -> int:
    return arena_slots(arena, n).size


@lru_cache(maxsize=None)
def _arena_dtype(arena: str, n: int) -> np.dtype:
    """One flat arena row as a record: a field per coordinate group,
    length n for q, v and p, a scalar otherwise."""
    return np.dtype(
        [(g, float, (n,)) if g in _VECTOR_GROUPS else (g, float) for g in _arena_groups(arena)]
    )


def _records(rows: np.ndarray, dtype: np.dtype) -> np.recarray:
    """A C-contiguous (K, d) float array viewed as K records (no copy)."""
    return rows.view(dtype)[:, 0].view(np.recarray)


def _as_array(x, n: int, label: str) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == float and x.shape == (n,):
        return x  # what the general path returns for it, at a third of the cost
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (n,):
        raise DimensionMismatchError(f"{label} must have length {n}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class DomainBox:
    """Per-coordinate sampling ranges used by property tests and checks."""

    q_lo: tuple
    q_hi: tuple
    v_lo: tuple
    v_hi: tuple
    s_lo: float
    s_hi: float

    def sample(self, rng: np.random.Generator):
        q = rng.uniform(self.q_lo, self.q_hi)
        v = rng.uniform(self.v_lo, self.v_hi)
        s = float(rng.uniform(self.s_lo, self.s_hi))
        return q, v, s


@dataclass(frozen=True)
class SimpleThermoModel:
    """Immutable bundle of evaluators defining one simple system.

    ``lagrangian(q, v, S)`` and ``friction(q, v, S)`` take q and v as
    sequences of scalars (plain or dual) plus a scalar S; lagrangian
    returns a scalar, friction a length-n covector sequence. The
    entropy slope dL/dS must stay strictly negative on the domain box.
    ``degenerate`` flags models whose Lagrangian has no velocity
    dependence; those support the Lagrangian-side formulations only.
    ``meta`` carries builder-provided closed forms for tests and is
    never read by the core algorithms.
    """

    n: int
    lagrangian: Callable
    friction: Callable
    domain_box: DomainBox
    external: Optional[Callable] = None
    name: str = "model"
    degenerate: bool = False
    meta: dict = field(default_factory=dict)


# --- scalar/derivative access ----------------------------------------


def lagrangian_value(model: SimpleThermoModel, q, v, S) -> float:
    q = _as_array(q, model.n, "q")
    v = _as_array(v, model.n, "v")
    return duals.value(model.lagrangian(tuple(q), tuple(v), float(S)))


def _flat_lagrangian(model: SimpleThermoModel):
    n = model.n

    def f(*args):
        return model.lagrangian(args[:n], args[n : 2 * n], args[2 * n])

    return f


def lagrangian_partials(model: SimpleThermoModel, q, v, S):
    """All first partials of L, split as (dLdq, dLdv, dLdS)."""
    q = _as_array(q, model.n, "q")
    v = _as_array(v, model.n, "v")
    n = model.n
    g = duals.gradient(_flat_lagrangian(model), [*q, *v, float(S)])
    return g[:n], g[n : 2 * n], g[2 * n]


def entropy_slope(model: SimpleThermoModel, q, v, S) -> float:
    """dL/dS alone; one lifted evaluation, no full gradient."""
    q = _as_array(q, model.n, "q")
    v = _as_array(v, model.n, "v")
    out = model.lagrangian(tuple(q), tuple(v), duals.Dual(float(S), 1.0))
    return duals.value(out.du) if isinstance(out, duals.Dual) else 0.0


def temperature(model: SimpleThermoModel, q, v, S) -> float:
    """-dL/dS; fails loudly unless strictly positive."""
    t = -entropy_slope(model, q, v, S)
    if not t > 0.0:
        raise TemperatureSignError(
            f"temperature -dL/dS = {t:.6g} must be strictly positive (model {model.name})"
        )
    return t


def friction_value(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    q = _as_array(q, model.n, "q")
    v = _as_array(v, model.n, "v")
    out = model.friction(tuple(q), tuple(v), float(S))
    return _as_array([duals.value(c) for c in out], model.n, "friction covector")


def external_value(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    if model.external is None:
        return np.zeros(model.n)
    q = _as_array(q, model.n, "q")
    v = _as_array(v, model.n, "v")
    out = model.external(tuple(q), tuple(v), float(S))
    return _as_array([duals.value(c) for c in out], model.n, "external covector")


def lagrangian_jet(model: SimpleThermoModel, q, v, S):
    """(dLdq, dLdv, dLdS, Lv) at one state from one jet evaluation of L
    over (q, v, S): the first partials and the Hessian's velocity rows
    Lv = (L_vq | L_vv | L_vS), an (n, 2n + 1) array in that column order.
    The first partials equal :func:`lagrangian_partials`'s."""
    n = model.n
    q = _as_array(q, n, "q")
    v = _as_array(v, n, "v")
    _, g, H = duals.jet(_flat_lagrangian(model), [*q, *v, float(S)], rows=range(n, 2 * n))
    return g[:n], g[n : 2 * n], g[2 * n], H[n : 2 * n]


def _momentum_rate_from(Lv: np.ndarray, qdot, vdot, Sdot) -> np.ndarray:
    """L_vq qdot + L_vv vdot + L_vS Sdot: the time derivative of the
    momentum dL/dv along the rates, from the Hessian's velocity rows."""
    return Lv @ np.concatenate([qdot, vdot, [Sdot]])


def _velocity_jet(model: SimpleThermoModel, q, v, S):
    """(dL/dv, d2L/dv2) from one jet of L over v alone, with q and S held
    as plain floats; dL/dv equals :func:`lagrangian_jet`'s."""
    q = tuple(_as_array(q, model.n, "q"))
    S = float(S)
    _, g, H = duals.jet(lambda *vs: model.lagrangian(q, vs, S), _as_array(v, model.n, "v"))
    return g, H


def velocity_hessian(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    """Mass matrix d2L/dv2."""
    return _velocity_jet(model, q, v, S)[1]


def mixed_velocity_term(model: SimpleThermoModel, q, v, S, qdot, Sdot) -> np.ndarray:
    """(d2L/dv dq) qdot + (d2L/dv dS) Sdot: the momentum rate at vdot = 0."""
    return momentum_rate(model, q, v, S, qdot, np.zeros(model.n), Sdot)


def momentum_rate(model: SimpleThermoModel, q, v, S, qdot, vdot, Sdot) -> np.ndarray:
    """Chain-rule time derivative of the momentum dL/dv along given rates.

    Deliberately not the force-balance identity: diagnostics need this
    value computed independently of the equations of motion.
    """
    n = model.n
    Lv = lagrangian_jet(model, q, v, S)[3]
    return _momentum_rate_from(
        Lv, _as_array(qdot, n, "qdot"), _as_array(vdot, n, "vdot"), float(Sdot)
    )


def friction_velocity_jacobian(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    """dF_a/dv_b of the friction covector; drives the rate solve for
    velocity-independent Lagrangians."""
    n = model.n
    q = tuple(_as_array(q, n, "q"))
    v = _as_array(v, n, "v")
    S = float(S)
    J = np.empty((n, n))
    for b in range(n):
        lifted = [duals.Dual(v[k], 1.0) if k == b else v[k] for k in range(n)]
        out = model.friction(q, tuple(lifted), S)
        for a in range(n):
            J[a, b] = duals.value(out[a].du) if isinstance(out[a], duals.Dual) else 0.0
    return J


# --- arena points ------------------------------------------------------


class ArenaPoint:
    """A point of one arena: the arena tag, the configuration dimension n
    and the point's flat row in the arena's order. Each coordinate group
    reads (and writes) through the slot table: q, v and p as length-n
    views of the row, S, W and lam as floats. A group the arena lacks
    raises AttributeError. The row is neither copied nor checked here;
    :func:`make_point` and :func:`point_from_vector` validate their input."""

    __slots__ = ("arena", "n", "row", "_places")

    def __init__(self, arena: str, n: int, row: np.ndarray):
        self.arena, self.n, self.row = arena, n, row
        self._places = _arena_layout(arena, n)[1]

    def as_vector(self) -> np.ndarray:
        return self.row.copy()

    def __repr__(self) -> str:
        return f"ArenaPoint({self.arena!r}, {self.n}, {self.row!r})"


def _group_property(group: str) -> property:
    def missing(point):
        return AttributeError(f"arena {point.arena} has no coordinate {group!r}")

    # one Python frame per access; the place lookup is inlined in each
    def read(point):
        try:
            at = point._places[group]
        except KeyError:
            raise missing(point) from None
        return point.row[at] if type(at) is slice else float(point.row[at])

    def write(point, value):
        try:
            point.row[point._places[group]] = value
        except KeyError:
            raise missing(point) from None

    return property(read, write)


for _group in _P_GROUPS:
    setattr(ArenaPoint, _group, _group_property(_group))


def PointN(*, q, S, p) -> ArenaPoint:
    """N-arena point (q, S, p); n is the length of q."""
    return make_point("N", np.size(q), q=q, S=S, p=p)


def arena_of_point(point) -> str:
    if not isinstance(point, ArenaPoint):
        raise ArenaError(f"not an arena point: {type(point).__name__}")
    return point.arena


def make_point(arena: str, n: int, **fields) -> ArenaPoint:
    """Build an arena point with validated component shapes."""
    places = _arena_layout(arena, n)[1]
    stray = set(fields) - set(places)
    if stray:
        raise DimensionMismatchError(f"unexpected fields for arena {arena}: {sorted(stray)}")
    row = np.empty(arena_dim(arena, n))
    for g, at in places.items():
        row[at] = _as_array(fields[g], n, g) if type(at) is slice else float(fields[g])
    return ArenaPoint(arena, n, row)


def point_from_vector(arena: str, n: int, vec: Sequence[float]) -> ArenaPoint:
    """Inverse of ``as_vector`` for the given arena's coordinate order;
    the point holds a copy of ``vec``."""
    x = np.array(vec, dtype=float)
    d = arena_dim(arena, n)
    if x.shape != (d,):
        raise DimensionMismatchError(f"arena {arena} expects {d} coordinates, got {x.shape}")
    return ArenaPoint(arena, n, x)


@dataclass(frozen=True)
class TangentCovectorPair:
    """One element of the doubled fiber at a base point: a tangent
    vector and a covector, both in the arena's flat coordinate order."""

    base: ArenaPoint
    tangent: np.ndarray
    covector: np.ndarray

    @property
    def arena(self) -> str:
        return arena_of_point(self.base)

    def validated(self, n: int) -> "TangentCovectorPair":
        d = arena_dim(self.arena, n)
        t = np.asarray(self.tangent, dtype=float)
        c = np.asarray(self.covector, dtype=float)
        if t.shape != (d,) or c.shape != (d,):
            raise DimensionMismatchError(
                f"arena {self.arena} needs tangent and covector of length {d}, "
                f"got {t.shape} and {c.shape}"
            )
        return TangentCovectorPair(base=self.base, tangent=t, covector=c)
