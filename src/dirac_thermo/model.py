"""Model definition and state types for simple thermodynamic systems.

A simple system here is: mechanical coordinates q (n of them), one
entropy scalar S, a Lagrangian L(q, v, S), and a friction covector
F(q, v, S) that feeds dissipated power back into S. Evaluators are
written once, generically over the scalar type, and all derivatives
come out of the differentiation layer (``duals``) as compiled jets of
three orders: L's order-1 jet for the first partials and its order-2
jet where second partials are needed, and the friction and external
force's order-0 values and order-1 jets.

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

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1

from . import duals
from .errors import (
    ArenaError,
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    NewtonError,
    TemperatureSignError,
)

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


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a small n x n system, a division at n = 1, else
    the LAPACK gufunc behind ``np.linalg.solve``, without its wrapper,
    bit for bit. The gufunc flags a singular A as an invalid operation,
    raised here as LinAlgError, never a RuntimeWarning; a NaN or inf A
    gives NaN, as numpy's does."""
    if A.shape[0] == 1 and A[0, 0] != 0.0:
        return b / A[0, 0]
    try:
        with np.errstate(invalid="raise"):
            return solve1(A, b)
    except FloatingPointError:
        raise np.linalg.LinAlgError("singular matrix") from None


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
    sequences of scalars (plain or jet) plus a scalar S; lagrangian
    returns a scalar, friction a length-n covector sequence. The
    entropy slope dL/dS must stay strictly negative on the domain box.
    ``degenerate`` flags models whose Lagrangian has no velocity
    dependence; those support the Lagrangian-side formulations only.
    ``meta`` carries builder-provided closed forms for tests and is
    never read by the core algorithms.

    L's order-1 and order-2 jets over (q, v, S), and the friction and
    external force's values (order 0) and order-1 jets, are traced once
    per evaluator, n and order into compiled kernels
    (:class:`duals.JetKernel`) and replayed at every later state. Every
    per-state evaluation is a fused kernel, one straight-line function
    per kind, model and n (the velocity-side work, the fiber iterate,
    the momentum-side work, the implicit residual, and the explicit
    routes' RK4 and the implicit route's Euler steps built from them),
    that keeps the glue between the jets in float code with the bits of
    the numpy operations it is written as. The first call that finds a
    kernel's jets traced compiles its fast binding over the replays;
    the strict binding over the jets themselves answers before that and
    at any state the fast one cannot answer exactly. That holds all
    three evaluators to a contract: each is a pure function of its
    arguments, and closure constants are read once, at trace time, so
    changing them later has no effect. An
    evaluator that lets a value escape (``float()``, ``bool()`` or numpy
    on a jet's value) keeps the dict jet. ``duals.value`` keeps the trace; the partials it strips
    are absent from the jets, the implicit step's Jacobian among them.
    The evaluators do their math through the ``duals`` helpers, which
    take jets where ``math`` and numpy reject them. The piston's callable
    friction coefficient, for one, runs on the jets of x and S, so its
    partials reach the implicit step's Jacobian (see
    ``systems.PistonParams``).
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


def _flat(evaluator: Callable, n: int):
    """An evaluator of (q, v, S) over the flat argument list (q..., v..., S)."""

    def f(*args):
        return evaluator(args[:n], args[n : 2 * n], args[2 * n])

    return f


# (kernel, flat evaluator) per evaluator (L, friction or external force),
# n and jet order, dropped with the evaluator: the flat evaluator reaches
# it through a weak proxy.
_JET_KERNELS = weakref.WeakKeyDictionary()


def _kernel_jet(evaluator: Callable, n: int, q, v, S, order: int):
    """duals.jet of an evaluator over (q, v, S) at ``order``, from its
    kernel for that order and n; an evaluator with no weak reference
    keeps the dict jet. Where Python floats raise but numpy floats
    answer inf or NaN (x / 0, a negative base's power), the jet reruns
    on numpy floats."""
    q, v = _as_array(q, n, "q"), _as_array(v, n, "v")
    args = q.tolist() + v.tolist()
    args.append(float(S))
    try:
        try:
            kernel, flat = _JET_KERNELS[evaluator][n, order]
        except KeyError:
            kernel = duals.JetKernel(2 * n + 1, order)
            flat = _flat(weakref.proxy(evaluator), n)
            _JET_KERNELS.setdefault(evaluator, {})[n, order] = kernel, flat
        except TypeError:  # no weak reference to the evaluator
            return duals._jet_of(_flat(evaluator, n), args, order)
        return kernel.floats(flat, args)
    except (TypeError, ArithmeticError):
        numpy_args = [*q, *v, np.float64(S)]
        with np.errstate(all="ignore"):  # the inf/NaN are the answer, not a warning
            return duals._jet_of(_flat(evaluator, n), numpy_args, order)


# --- fused per-state kernels ---------------------------------------------
#
# A fused kernel is one straight-line function per (field, residual or
# integration step, model, n), generated as source, the one statement of
# its math: it calls the jets of the evaluators and does the glue between
# them (the entropy-rate rule, an n = 1 division, the outputs) in float
# code with the operations of numpy's elementwise code, so its bits are
# numpy's. Where a numpy call has bits float code cannot give in general
# (a BLAS matmul, an FMA chain; a solve at n > 1), the kernel makes that
# call, behind two exact rules for its trivial cases: rule Z, a momentum
# rate each of whose terms has a zero factor, is +0.0
# (:func:`_momentum_rate_source`), and rule D, a diagonal solve with a
# nonzero right-hand side, is b_i / A_ii (:func:`_solve_source`). The
# implicit Euler step's Newton system has no numpy bits to keep: it is
# eliminated by blocks and factored in float code, in one fixed order
# (``dynamics._reduced_source``).
#
# Each source is compiled once and bound twice per model, into two
# namespaces over one code object (``_FUSED_GLOBALS``, and
# ``_STRICT_GLOBALS`` over it). A guard site of the source is a call
# ``_fail(site, values...)``. The fast binding calls the compiled
# replays of the jet kernels and answers None where a guard fails: a
# replay that answered None, a value that is not a finite float, a zero
# pivot, a slope of the wrong sign, a singular solve, the fiber's
# iteration limit, any exception. The strict binding calls
# :func:`_kernel_jet` where the fast one replays (:func:`_strict_replay`),
# so it needs no trace; it makes the numpy call where a rule would
# answer, lets NaN and inf through the finiteness guards as numpy does,
# and raises the error of any other failed site (:func:`_strict_fail`,
# the one place that says what a failed guard means). A caller takes
# the fast binding's answer, and the strict binding's where there is
# none: before the fast one is compiled and wherever it hands over.

# per L evaluator: (kind, n, degenerate) -> (friction, external, [fast,
# strict]), dropped with the evaluator
_FUSED = weakref.WeakKeyDictionary()


def _fused(model: SimpleThermoModel, kind: str, build: Optional[Callable] = None,
           strict: bool = False) -> Optional[Callable]:
    """The model's fused kernel of ``kind`` in the fast binding, or in
    the strict one with ``strict``, or None. ``build(model, strict)``
    makes a missing one; the fast binding is None while a replay it
    composes is untraced, the strict one never is. Without ``build``
    nothing is compiled. An L with no weak reference has no cache entry:
    no fast binding, and a strict one bound at each call."""
    key = kind, model.n, model.degenerate
    try:
        entry = _FUSED.get(model.lagrangian, {}).get(key)
    except TypeError:
        return build(model, True) if strict and build is not None else None
    if entry is None or entry[0] is not model.friction or entry[1] is not model.external:
        entry = model.friction, model.external, [None, None]
    kernel = entry[2][strict]
    if kernel is None and build is not None:
        kernel = entry[2][strict] = build(model, strict)
        if kernel is not None:
            _FUSED.setdefault(model.lagrangian, {})[key] = entry
    return kernel


def _bind(model: SimpleThermoModel, source: str, replays: dict, strict: bool = False,
          **names) -> Optional[Callable]:
    """The function ``kernel`` that ``source`` defines, each name of
    ``replays`` bound to the model's (evaluator, order) kernel: its
    replay in the fast binding, or None while one of them is untraced;
    :func:`_strict_replay` with ``strict``. Without an external force
    both bind the zeros that stand for it."""
    namespace = dict(_FUSED_GLOBALS, **names)
    if strict:
        namespace.update(_STRICT_GLOBALS, _fail=_strict_fail(model.name))
    for name, (evaluator, order) in replays.items():
        if evaluator == "external" and model.external is None:
            zeros = (0.0,) * (model.n * (2 * model.n + 2) if order else model.n)
            namespace[name] = lambda *args, _zeros=zeros: _zeros
        elif strict:
            namespace[name] = _strict_replay(model, evaluator, order)
        else:
            kernel = _traced_kernel(model, evaluator, order)
            if kernel is None:
                return None
            namespace[name] = kernel.replay
    exec(_compiled(source), namespace)
    return namespace["kernel"]


def _traced_kernel(model: SimpleThermoModel, evaluator: str, order: int):
    """The model's jet kernel of an evaluator ("lagrangian", "friction"
    or "external") at ``order``, or None until it is traced."""
    try:
        kernel = _JET_KERNELS[getattr(model, evaluator)][model.n, order][0]
    except (KeyError, TypeError):
        return None
    return None if kernel.replay is None else kernel


def _strict_replay(model: SimpleThermoModel, evaluator: str, order: int) -> Callable:
    """What the strict binding calls where the fast one replays the
    model's (evaluator, order) kernel: :func:`_kernel_jet` at the flat
    arguments (q..., v..., S), with its errors, flattened to the
    replay's tuple of Python floats (the values, the gradients, then the
    Hessian row by row). The evaluator is held weakly, as the cache
    holds L, unless it has no weak reference."""
    n, f = model.n, getattr(model, evaluator)
    try:
        held = weakref.ref(f)
    except TypeError:
        held = lambda: f  # noqa: E731 -- nothing caches a kernel over this evaluator
    label = f"{evaluator} covector"

    def replay(*args):
        q, v, S = args[:n], args[n : 2 * n], args[2 * n]
        if evaluator == "lagrangian":
            parts = _kernel_jet(held(), n, q, v, S, order)
        elif order:
            parts = _covector_jet(held(), n, q, v, S, label)
        else:
            parts = (_covector(held(), n, q, v, S, label),)
        return tuple(np.concatenate([np.ravel(part) for part in parts]).tolist())

    return replay


def _strict_fail(name: str) -> Callable:
    """The strict binding's ``_fail`` for the model named ``name``: at a
    failed guard site, raise the error of the numpy code that the site
    stands for, or answer False where that code carries on, so that the
    kernel does too. The sites: ``slope`` (dL/dS, not negative where
    friction acts), ``hessian`` and ``coefficients`` (the velocity-side
    rate's singular solve, regular and degenerate), ``rest`` (the
    degenerate regime's friction at zero velocity, read by ``np.max``,
    which a NaN keeps quiet), ``fiber`` (the fiber's singular solve at
    (q..., S)), ``residual`` (a momentum residual that is not finite,
    unless only its sum overflowed) and ``limit`` (the residual past the
    fiber's last step) at (limit, r...), the limit 0 before the last
    step, and ``jacobian`` (a zero pivot of the implicit step's Newton
    matrix). Arrays keep numpy's repr in the messages."""

    def fail(site=None, *x):
        if site == "slope":
            raise TemperatureSignError(
                f"dL/dS = {x[0]:.6g} must be negative where friction acts (model {name})"
            )
        if site == "hessian":
            raise DegenerateLagrangianError(
                f"singular velocity Hessian; model {name} needs the velocity-independent regime"
            )
        if site == "coefficients":
            raise DiracThermoError(f"singular friction coefficient matrix (model {name})")
        if site == "rest" and np.max(np.abs(x)) > 1e-12:
            raise DiracThermoError(
                "the degenerate regime needs velocity-linear friction "
                f"(got friction {np.array(x)} at zero velocity, model {name})"
            )
        if site == "fiber":
            raise DegenerateLagrangianError(
                f"singular velocity Hessian at q={np.array(x[:-1])}, S={x[-1]} (model {name})"
            )
        if site in ("residual", "limit") and (site == "limit" or not np.isfinite(x[1:]).all()):
            if not x[0]:
                raise NewtonError(f"momentum residual became non-finite (model {name})")
            raise NewtonError(
                f"momentum inversion did not converge in {x[0]} iterations "
                f"(residual {np.max(np.abs(x[1:])):.3e}, model {name})"
            )
        if site == "jacobian":
            raise NewtonError("singular Jacobian in the implicit step")
        return False

    return fail


@lru_cache(maxsize=None)
def _compiled(source: str):
    return compile(source, "<fused kernel>", "exec")


def _kernel_source(params: list, body: list) -> str:
    """``def kernel(params)`` running the body lines; an exception of the
    binding's ``_Caught`` (any in the fast binding, none in the strict
    one) answers None."""
    lines = "".join(f"        {line}\n" for line in body)
    return f"def kernel({', '.join(params)}):\n    try:\n{lines}    except _Caught:\n        return None\n"


def _tuple(items) -> str:
    return f"({', '.join(items)},)"


def _dot_source(x: list, y: list) -> str:
    """x @ y in kernel source: float code at length 1 (see :func:`_dot`)."""
    return f"(0.0 + {x[0]} * {y[0]})" if len(x) == 1 else f"_dot({_tuple(x)}, {_tuple(y)})"


def _solve_source(A: list, b: list, out: list, fail: str) -> list:
    """Lines setting ``out`` to :func:`_solve` of the row-major matrix
    ``A`` and ``b``; ``fail`` is the guard site (a ``_fail`` call) of a
    singular A: a zero pivot at n = 1, a singular LAPACK solve at n > 1.

    At n > 1, rule D: where every off-diagonal entry is == 0.0, every
    diagonal entry and every b_i != 0.0, out_i = b_i / A_ii, LAPACK's
    bits. Partial pivoting makes no swap, the multipliers and U's
    off-diagonal entries are signed zeros, forward substitution leaves a
    nonzero b_i as it is and back substitution divides. A zero b_i would
    take the zeros' signs, so it, like any other matrix, goes to the
    LAPACK call. A quotient that is not finite fails the kernels'
    ``_finite`` guard on either branch. ``TestSmallSolveRules`` holds the
    rule to :func:`_solve` bit for bit."""
    n = len(b)
    if n == 1:
        return [f"if {A[0]} == 0.0 and {fail}: return None", f"{out[0]} = {b[0]} / {A[0]}"]
    diagonal = [A[i * n + i] for i in range(n)]
    rule = " and ".join(
        [f"{A[i * n + j]} == 0.0" for i in range(n) for j in range(n) if i != j]
        + [f"{x} != 0.0" for x in diagonal + b]
    )
    return [
        f"if _rules and {rule}: solved = {_tuple(f'{x} / {a}' for x, a in zip(b, diagonal))}",
        f"else: solved = _solve_rows({_tuple(A)}, {_tuple(b)})",
        f"if solved is None and {fail}: return None",
        f"{', '.join(out)}, = solved",
    ]


def _momentum_rate_source(o: str, start: int, rates: list, out: list) -> list:
    """Lines setting ``out`` to :func:`_momentum_rate_from` of L's velocity
    rows, ``o[start:]`` row after row, and ``rates``, where a rate given
    as the literal ``0.0`` (the vdot slots at vdot = 0) is a zero factor.

    Rule Z: where every term L_v[i][j] rate[j] has a factor == 0.0 and
    every factor is finite, out is +0.0 throughout, numpy's bits: BLAS
    accumulates from +0.0, and +0.0 + (+-0.0) is +0.0 in round to
    nearest. Any other rows take the whole matmul; no row is split out
    of it. ``TestSmallSolveRules`` holds the rule to the matmul bit for bit."""
    c, named = len(rates), [j for j, x in enumerate(rates) if x != "0.0"]
    rule = " and ".join(
        f"({o}[{start + i * c + j}] == 0.0 or {rates[j]} == 0.0)" for i in range(len(out)) for j in named
    )
    finite = " + ".join(rates[j] for j in named)
    return [
        f"if _rules and {rule} and _finite({finite}): {', '.join(out)}, = {_tuple(['0.0'] * len(out))}",
        f"else: {', '.join(out)}, = _mv({o}[{start}:{start + len(out) * c}], {_tuple(rates)}).tolist()",
    ]


def _solve_rows(A, b) -> Optional[list]:
    """:func:`_solve` of the row-major A and b as a list; None where A is singular."""
    try:
        return _solve(np.array(A, dtype=float).reshape(len(b), -1), np.array(b, dtype=float)).tolist()
    except np.linalg.LinAlgError:
        return None


def _vector_matrix(x, A) -> list:
    """x @ A for a length-n x and a row-major n x m A, as numpy gives it."""
    return (np.array(x, dtype=float) @ np.array(A, dtype=float).reshape(len(x), -1)).tolist()


def _lagrangian_first_order(model: SimpleThermoModel, q, v, S):
    """(L, dLdq, dLdv, dLdS) at one state from L's order-1 kernel."""
    n = model.n
    L, g = _kernel_jet(model.lagrangian, n, q, v, S, 1)
    return L, g[:n], g[n : 2 * n], g[2 * n]


def _lagrangian_hessian(model: SimpleThermoModel, q, v, S):
    """(L, gradient, Hessian) of L over (q, v, S) from L's order-2 kernel."""
    return _kernel_jet(model.lagrangian, model.n, q, v, S, 2)


def lagrangian_partials(model: SimpleThermoModel, q, v, S):
    """All first partials of L, split as (dLdq, dLdv, dLdS), from one
    order-1 jet."""
    return _lagrangian_first_order(model, q, v, S)[1:]


def entropy_slope(model: SimpleThermoModel, q, v, S) -> float:
    """dL/dS, read off L's order-1 jet."""
    return float(_lagrangian_first_order(model, q, v, S)[3])


def temperature(model: SimpleThermoModel, q, v, S) -> float:
    """-dL/dS; fails loudly unless strictly positive."""
    t = -entropy_slope(model, q, v, S)
    if not t > 0.0:
        raise TemperatureSignError(
            f"temperature -dL/dS = {t:.6g} must be strictly positive (model {model.name})"
        )
    return t


def _covector(evaluator: Callable, n: int, q, v, S, label: str) -> np.ndarray:
    """A covector evaluator's value at (q, v, S), from its order-0 kernel."""
    return _as_array(_kernel_jet(evaluator, n, q, v, S, 0), n, label)


def _covector_jet(evaluator: Callable, n: int, q, v, S, label: str):
    """(value, partials): a covector evaluator's value at (q, v, S) and
    its first partials over (q, v, S), an (n, 2n + 1) array, from its
    order-1 kernel."""
    F, dF = _kernel_jet(evaluator, n, q, v, S, 1)
    return _as_array(F, n, label), dF


def friction_value(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    return _covector(model.friction, model.n, q, v, S, "friction covector")


def external_value(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    if model.external is None:
        return np.zeros(model.n)
    return _covector(model.external, model.n, q, v, S, "external covector")


def lagrangian_jet(model: SimpleThermoModel, q, v, S):
    """(L, dLdq, dLdv, dLdS, Lv) at one state from L's order-2 jet over
    (q, v, S): the value, the first partials and the Hessian's velocity
    rows Lv = (L_vq | L_vv | L_vS), an (n, 2n + 1) array in that column
    order. The jet is the model's compiled kernel (:class:`duals.JetKernel`),
    the one the implicit step's Jacobian reads too, so L itself runs
    only at the first state and wherever the kernel falls back. The
    first partials equal :func:`lagrangian_partials`'s."""
    return _jet_parts(model.n, *_lagrangian_hessian(model, q, v, S))


def _jet_parts(n: int, L, g, H):
    """:func:`lagrangian_jet`'s split of L's order-2 jet (L, g, H)."""
    return L, g[:n], g[n : 2 * n], g[2 * n], H[n : 2 * n]


def _momentum_rate_from(Lv, rates) -> np.ndarray:
    """L_vq qdot + L_vv vdot + L_vS Sdot: the time derivative of the
    momentum dL/dv along the rates (qdot, vdot, Sdot), 2n + 1 floats,
    from the Hessian's velocity rows Lv, flat. One numpy matmul, whose
    bits (an FMA chain at n = 1) float code cannot give in general; the
    fused work kernel answers rows whose every term has a zero factor in
    float code (rule Z, :func:`_momentum_rate_source`) and makes this
    call otherwise. A non-finite entry gives NaN where it meets a zero
    (0 x inf), and a product or sum too large for a float gives inf,
    both without a warning: below 1e300, the bound (sum |Lv|)(sum |rate|)
    holds every term and partial sum far from overflow."""
    A, x = np.array(Lv, dtype=float).reshape(-1, len(rates)), np.array(rates, dtype=float)
    if sum(map(abs, Lv)) * sum(map(abs, rates)) < 1e300:  # False for NaN
        return A @ x
    with np.errstate(invalid="ignore", over="ignore"):
        return A @ x


def _dot(x, y) -> float:
    """x @ y of two float sequences with numpy's bits: BLAS adds a
    length-1 product to 0.0, which turns -0.0 into +0.0. Longer ones go
    to ``np.dot``, which reaches the BLAS ddot that ``@`` calls on two
    float vectors without its array conversions."""
    if len(x) == 1:
        return 0.0 + x[0] * y[0]
    return float(np.dot(x, y))


# what every fused kernel's source may name, as the fast binding means
# it: a failed guard site answers None (``_fail``), rules Z and D answer
# (``_rules``), and so does any exception (``_Caught``)
_FUSED_GLOBALS = {
    "np": np,
    "_finite": math.isfinite,
    "_mv": _momentum_rate_from,
    "_dot": _dot,
    "_solve_rows": _solve_rows,
    "_vector_matrix": _vector_matrix,
    "_fail": lambda *values: True,
    "_rules": True,
    "_Caught": Exception,
}


def _quiet(numpy_call: Callable) -> Callable:
    """``numpy_call`` with numpy's floating-point warnings off."""

    def call(*args):
        with np.errstate(all="ignore"):
            return numpy_call(*args)

    return call


# the strict binding's: the numpy call in place of either rule, every
# exception through (its ``_fail`` is :func:`_strict_fail`), and numpy
# calls that, as its float code, warn of no NaN or inf they make
_STRICT_GLOBALS = {
    "_rules": False,
    "_Caught": (),
    **{name: _quiet(_FUSED_GLOBALS[name]) for name in ("_dot", "_solve_rows", "_vector_matrix")},
}


def _velocity_jet(model: SimpleThermoModel, q, v, S):
    """(dL/dv, d2L/dv2): the velocity block of :func:`lagrangian_jet`."""
    n = model.n
    _, _, dLdv, _, Lv = lagrangian_jet(model, q, v, S)
    return dLdv, Lv[:, n : 2 * n]


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
    Lv = lagrangian_jet(model, q, v, S)[4]
    rates = [*_as_array(qdot, n, "qdot").tolist(), *_as_array(vdot, n, "vdot").tolist(), float(Sdot)]
    return _momentum_rate_from(Lv.ravel().tolist(), rates)


def friction_velocity_jacobian(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    """dF_a/dv_b of the friction covector: the velocity block of its
    order-1 kernel (bit for bit what one-coordinate dual lifts give),
    the coefficient matrix of the rate solve for velocity-independent
    Lagrangians."""
    n = model.n
    return _covector_jet(model.friction, n, q, v, S, "friction covector")[1][:, n : 2 * n]


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
