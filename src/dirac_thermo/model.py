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
    that keeps the glue between the jets in float code, its small linear
    algebra in one fixed order. The first call that finds a
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
# them in float code. The glue's elementwise steps take numpy's
# elementwise operations, and its small linear algebra has one fixed
# order, written out by the source builders below: a dot product adds
# its products left to right to 0.0 (:func:`_dot_source`), a momentum
# rate does so row by row over the slots that are not literal zeros
# (:func:`_momentum_rate_source`), and a solve is Gaussian elimination
# with partial pivoting, the pivot the first row of largest magnitude
# (:func:`_factor_source`, :func:`_substitute_source`), with an exact
# shortcut for a diagonal matrix (:func:`_solve_source`). The kernels
# call no BLAS or LAPACK, so their answers are IEEE arithmetic in one
# order, the same on any CPU. The implicit Euler step's reduced Newton
# system is factored by the same pair (``dynamics._reduced_source``).
# :func:`_solver` and :func:`_momentum_rater` compile the solve and the
# momentum rate as plain functions for the code outside the kernels.
#
# Each source is compiled once and bound twice per model, into two
# namespaces over one code object (``_FUSED_GLOBALS``, and the strict
# binding's ``_fail`` and ``_Caught`` over it). A guard site of the
# source is a call ``_fail(site, values...)``. The fast binding calls
# the compiled replays of the jet kernels and answers None where a guard
# fails: a replay that answered None, a value that is not a finite
# float, a zero pivot, a slope of the wrong sign, the fiber's iteration
# limit, any exception. The strict binding calls :func:`_kernel_jet`
# where the fast one replays (:func:`_strict_replay`), so it needs no
# trace; it lets NaN and inf through the finiteness guards, and raises
# the error of any other failed site (:func:`_strict_fail`, the one
# place that says what a failed guard means). A caller takes the fast
# binding's answer, and the strict binding's where there is none: before
# the fast one is compiled and wherever it hands over.

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
        namespace.update(_Caught=(), _fail=_strict_fail(model.name))
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
    Hessian row by row). Where the evaluator's traced replay answers
    that tuple, floats of the kernel's length, it is handed through as
    it is; anywhere else :func:`_kernel_jet` answers, or raises. The
    evaluator is held weakly, as the cache holds L, unless it has no
    weak reference."""
    n, f = model.n, getattr(model, evaluator)
    try:
        held = weakref.ref(f)
    except TypeError:
        held = lambda: f  # noqa: E731 -- nothing caches a kernel over this evaluator
    label = f"{evaluator} covector"
    k = 2 * n + 1
    size = (1 + k + (k * k if order == 2 else 0)) if evaluator == "lagrangian" else n * (1 + k * order)

    def replay(*args):
        try:
            out = _JET_KERNELS[held()][n, order][0].replay(*args)
        except Exception:  # no kernel, an untraced one (no replay) or a replay that raised
            out = None
        # a complex entry (a negative base's power) makes the sum complex
        if out is not None and len(out) == size and type(sum(out, 0.0)) is float:
            return out
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
    """<x, y> in kernel source: the products added left to right to 0.0,
    which turns a lone -0.0 product into +0.0."""
    return "(0.0" + "".join(f" + {a} * {b}" for a, b in zip(x, y)) + ")"


def _momentum_rate_source(o: str, start: int, rates: list, out: list) -> list:
    """Lines setting ``out`` to the momentum rate L_vq qdot + L_vv vdot +
    L_vS Sdot of L's velocity rows, ``o[start:]`` row after row, and
    ``rates`` (qdot..., vdot..., Sdot): each row's products added left to
    right to +0.0, a rate given as the literal ``0.0`` (the vdot slots
    at vdot = 0) left out."""
    c = len(rates)
    return [f"{x} = 0.0" + "".join(f" + {o}[{start + i * c + j}] * {r}" for j, r in enumerate(rates) if r != "0.0")
            for i, x in enumerate(out)]


def _factor_source(a: list, pivots: list, fail: str) -> list:
    """Lines that factor the square matrix held in the local names
    ``a[i][j]`` in place by Gaussian elimination with partial pivoting:
    the pivot is the first row of largest magnitude, rows are swapped
    whole (multipliers included, ``pivots[c]`` the row swapped with row
    c) and the multipliers are stored below the diagonal. ``fail`` is the
    guard site (a ``_fail`` call) of a zero pivot, a singular matrix."""
    m, lines = len(a), []
    for c in range(m):
        if c < m - 1:
            lines.append(f"{pivots[c]}, big = {c}, abs({a[c][c]})")
            lines += [f"if abs({a[i][c]}) > big: {pivots[c]}, big = {i}, abs({a[i][c]})" for i in range(c + 1, m)]
        for i in range(c + 1, m):
            lines.append(f"if {pivots[c]} == {i}: {', '.join(a[c] + a[i])} = {', '.join(a[i] + a[c])}")
        lines.append(f"if {a[c][c]} == 0.0 and {fail}: return None")
        for i in range(c + 1, m):
            lines.append(f"{a[i][c]} = {a[i][c]} / {a[c][c]}")
            lines += [f"{a[i][j]} = {a[i][j]} - {a[i][c]} * {a[c][j]}" for j in range(c + 1, m)]
    return lines


def _substitute_source(a: list, pivots: list, b: list) -> list:
    """Lines that overwrite the names ``b`` with the solution of the
    system that :func:`_factor_source` factored into ``a`` and
    ``pivots``: b permuted as the rows were, forward substitution adding
    the multipliers' terms in column order, back substitution in reverse
    column order and then the division by the pivot."""
    m = len(a)
    lines = [f"if {pivots[c]} == {i}: {b[c]}, {b[i]} = {b[i]}, {b[c]}"
             for c in range(m - 1) for i in range(c + 1, m)]
    lines += [f"{b[i]} = {b[i]}" + "".join(f" - {a[i][j]} * {b[j]}" for j in range(i)) for i in range(1, m)]
    for i in reversed(range(m)):
        rest = "".join(f" - {a[i][j]} * {b[j]}" for j in reversed(range(i + 1, m)))
        lines.append(f"{b[i]} = {f'({b[i]}{rest})' if rest else b[i]} / {a[i][i]}")
    return lines


def _solve_source(A: list, b: list, out: list, fail: str) -> list:
    """Lines setting ``out`` to x with A x = b, for the row-major matrix
    ``A`` and ``b`` of source expressions, by :func:`_factor_source` and
    :func:`_substitute_source` on the local names ``{out[i]}_{j}``;
    ``fail`` is the guard site of a zero pivot (a singular A).

    A diagonal A at n > 1 (every off-diagonal entry == 0.0), whose
    diagonal entries and b_i are nonzero and finite, takes a shortcut:
    out_i = b_i / A_ii, the elimination's bits. There the pivots stay on
    the diagonal, the multipliers and U's off-diagonal entries are
    signed zeros, and their products leave each nonzero b_i and A_ii as
    they are. A quotient that overflows, which back substitution would
    meet with a zero (a NaN), sends the solve through the elimination
    too. ``TestFixedOrderAlgebra`` holds the shortcut to the elimination
    bit for bit."""
    n = len(b)
    if n == 1:
        return [f"if {A[0]} == 0.0 and {fail}: return None", f"{out[0]} = {b[0]} / {A[0]}"]
    a = [[f"{x}_{j}" for j in range(n)] for x in out]
    pivots, diagonal, shortcut = [f"{x}_p" for x in out[:-1]], [A[i * n + i] for i in range(n)], f"{out[0]}_d"
    rule = " and ".join(
        [f"{A[i * n + j]} == 0.0" for i in range(n) for j in range(n) if i != j]
        + [f"{x} != 0.0" for x in diagonal + b] + [f"_finite({' + '.join(diagonal + b)})"]
    )
    elimination = [
        f"{', '.join(x for row in a for x in row)} = {', '.join(A)}",
        f"{', '.join(out)} = {', '.join(b)}",
        *_factor_source(a, pivots, fail),
        *_substitute_source(a, pivots, out),
    ]
    return [
        f"{shortcut} = {rule}",
        f"if {shortcut}: {', '.join(out)} = {', '.join(f'{x} / {d}' for x, d in zip(b, diagonal))}",
        f"if not ({shortcut} and _finite({' + '.join(out)})):",
        *[f"    {line}" for line in elimination],
    ]


def _float_function(params: list, lines: list, out: list) -> Callable:
    """Kernel source ``lines`` as a plain function of ``params`` that
    returns the names ``out``: None where a guard site fails, every
    exception through."""
    namespace = dict(_FUSED_GLOBALS, _Caught=())
    exec(_compiled(_kernel_source(params, [*lines, f"return {_tuple(out)}"])), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=None)
def _solver(n: int) -> Callable:
    """``solve(A..., b...)``: the kernels' solve (:func:`_solve_source`)
    of the row-major n x n A and b as a tuple, or None where A is
    singular (a zero pivot)."""
    A, b, x = [f"A{i}" for i in range(n * n)], [f"b{i}" for i in range(n)], [f"x{i}" for i in range(n)]
    return _float_function(A + b, _solve_source(A, b, x, "_fail()"), x)


@lru_cache(maxsize=None)
def _momentum_rater(n: int) -> Callable:
    """``rate(Lv, qdot..., vdot..., Sdot)``: the kernels' momentum rate
    (:func:`_momentum_rate_source`) of L's velocity rows ``Lv``, flat, as
    a tuple."""
    r, m = [f"r{j}" for j in range(2 * n + 1)], [f"m{i}" for i in range(n)]
    return _float_function(["o", *r], _momentum_rate_source("o", 0, r, m), m)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> over the last axis of two broadcasting blocks, the kernels'
    order (:func:`_dot_source`) elementwise: the products added column
    by column to 0.0 (``acc = acc + x[..., j] * y[..., j]``), exact IEEE
    arithmetic per element on any CPU. The products are laid out column
    by column, so each column the sum reads is contiguous."""
    products, acc = np.multiply(x, y, order="F"), 0.0
    for j in range(products.shape[-1]):
        acc = acc + products[..., j]
    return acc


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


# what every fused kernel's source may name, as the fast binding means
# it: a failed guard site answers None (``_fail``), and so does any
# exception (``_Caught``); the strict binding raises them
_FUSED_GLOBALS = {
    "np": np,
    "_finite": math.isfinite,
    "_fail": lambda *values: True,
    "_Caught": Exception,
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
    value computed independently of the equations of motion. The sums
    are the kernels' float code (:func:`_momentum_rater`).
    """
    n = model.n
    Lv = lagrangian_jet(model, q, v, S)[4]
    rates = [*_as_array(qdot, n, "qdot").tolist(), *_as_array(vdot, n, "vdot").tolist(), float(Sdot)]
    return np.array(_momentum_rater(n)(Lv.ravel().tolist(), *rates))


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
