"""Forward-mode automatic differentiation with dual numbers.

A :class:`Dual` carries a value together with one derivative payload.
Nesting duals inside duals yields exact second derivatives, which is
all the depth this package ever needs. Evaluators written generically
over the scalar type (plain ``float`` in, ``float`` out, but tolerant
of :class:`Dual` inputs) get derivatives for free and cannot drift out
of sync with their own values.

Math helpers (:func:`exp`, :func:`log`, ...) dispatch on the argument
type so model code can call them without caring whether it is being
differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Dual",
    "ScalarField",
    "cos",
    "exp",
    "fd_check",
    "grad",
    "gradient",
    "hessian",
    "hessian_matrix",
    "log",
    "second_directional",
    "sin",
    "sqrt",
    "value",
]


class Dual:
    """Truncated first-order scalar ``re + du * eps`` with ``eps**2 == 0``.

    ``re`` and ``du`` may themselves be duals, giving nested (second
    order) differentiation. Plain numbers mix in freely as constants.
    """

    __slots__ = ("re", "du")

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    # --- arithmetic -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.re / other.re
            return Dual(q, (self.du - q * other.du) / other.re)
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        q = other / self.re
        return Dual(q, -q * self.du / self.re)

    def __pow__(self, k):
        if isinstance(k, Dual):
            return exp(k * log(self))
        if k == 0:
            return Dual(self.re**0, 0.0 * self.du)
        return Dual(self.re**k, self.du * (k * self.re ** (k - 1)))

    def __rpow__(self, base):
        return exp(self * log(base))

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pos__(self):
        return self

    def __abs__(self):
        return Dual(abs(self.re), self.du if value(self) >= 0.0 else -self.du)

    # --- comparisons act on the primal value -------------------------

    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"


def value(x) -> float:
    """Strip any dual layers and return the primal value."""
    while isinstance(x, Dual):
        x = x.re
    return float(x)


def _first(x):
    return x.du if isinstance(x, Dual) else 0.0


def _second(x):
    return value(_first(_first(x))) if isinstance(x, Dual) else 0.0


# --- generic math, dispatching on dual vs plain ----------------------


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, x.du * e)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.re), x.du / x.re)
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, x.du * 0.5 / s)
    return math.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), x.du * cos(x.re))
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -x.du * sin(x.re))
    return math.cos(x)


# --- derivative drivers ----------------------------------------------


def gradient(f: Callable, args: Sequence[float]) -> np.ndarray:
    """All first partials of ``f(*args)``.

    Low arities lift one coordinate at a time (plain-float dual parts,
    lowest constant cost); higher arities lift every coordinate at once
    against its own unit direction, letting the dual parts propagate as
    length-k vectors in a single evaluation. The arithmetic in
    :class:`Dual` is agnostic to scalar vs array dual payloads, which
    is what makes the vector mode valid."""
    args = list(args)
    k = len(args)
    if k < 5:
        out = np.empty(k)
        for i in range(k):
            lifted = list(args)
            lifted[i] = Dual(args[i], 1.0)
            r = f(*lifted)
            out[i] = value(r.du) if isinstance(r, Dual) else 0.0
        return out
    eye = np.eye(k)
    out = f(*(Dual(a, eye[i]) for i, a in enumerate(args)))
    if not isinstance(out, Dual):
        return np.zeros(k)  # evaluator ignored every argument
    du = np.asarray(out.du, dtype=float)
    if du.shape != (k,):
        du = np.full(k, float(du))
    return du


def hessian_matrix(f: Callable, args: Sequence[float], symmetric: bool = False) -> np.ndarray:
    """Second-partial matrix of ``f`` via nested duals.

    With ``symmetric=True`` only the upper triangle is evaluated and
    mirrored (valid for twice continuously differentiable evaluators,
    and cheaper); otherwise every entry is computed independently.
    """
    args = list(args)
    k = len(args)
    H = np.empty((k, k))
    for i in range(k):
        j0 = i if symmetric else 0
        for j in range(j0, k):
            lifted = [
                Dual(Dual(a, 1.0 if m == j else 0.0), Dual(1.0 if m == i else 0.0, 0.0))
                for m, a in enumerate(args)
            ]
            H[i, j] = _second(f(*lifted))
            if symmetric and j != i:
                H[j, i] = H[i, j]
    return H


def second_directional(f: Callable, args: Sequence[float], direction: Sequence[float], outer_index: int) -> float:
    """d/d(args[outer_index]) of the derivative of ``f`` along ``direction``."""
    lifted = list(args)
    for m, d in enumerate(direction):
        if m == outer_index:
            lifted[m] = Dual(Dual(lifted[m], d), 1.0)
        elif d != 0.0:
            lifted[m] = Dual(Dual(lifted[m], d), 0.0)
    return _second(f(*lifted))


# --- field-level wrappers ----------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A deterministic scalar evaluator of fixed arity.

    The evaluator must be polymorphic over plain and dual scalars; it is
    the single source of truth for both values and derivatives.
    """

    arity: int
    evaluator: Callable

    def __call__(self, *args):
        return self.evaluator(*args)


def _check_arity(field: ScalarField, point: Sequence[float]) -> list:
    pt = [float(x) for x in point]
    if len(pt) != field.arity:
        raise DimensionMismatchError(
            f"field expects {field.arity} scalars, got {len(pt)}"
        )
    return pt


def grad(field: ScalarField, point: Sequence[float]) -> np.ndarray:
    """Forward-mode gradient, exact to roundoff."""
    pt = _check_arity(field, point)
    g = np.array(gradient(field.evaluator, pt))
    if not np.all(np.isfinite(g)) or not math.isfinite(value(field.evaluator(*pt))):
        raise ValueError("non-finite field output; point outside the domain")
    return g


def hessian(field: ScalarField, point: Sequence[float]) -> np.ndarray:
    """Nested-dual second-partial matrix, every entry evaluated independently."""
    pt = _check_arity(field, point)
    H = hessian_matrix(field.evaluator, pt)
    if not np.all(np.isfinite(H)):
        raise ValueError("non-finite field output; point outside the domain")
    return H


def fd_check(field: ScalarField, point: Sequence[float], h: float = 1e-5) -> float:
    """Max relative deviation between dual and central-difference partials.

    A diagnostic, not a production derivative path. ``h`` is absolute.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    pt = _check_arity(field, point)
    g = grad(field, pt)
    worst = 0.0
    f = field.evaluator
    for i in range(len(pt)):
        hi = list(pt)
        lo = list(pt)
        hi[i] += h
        lo[i] -= h
        fd = (value(f(*hi)) - value(f(*lo))) / (2.0 * h)
        dev = abs(g[i] - fd) / max(1.0, abs(g[i]))
        worst = max(worst, dev)
    return worst
