"""Forward-mode automatic differentiation: first-order duals and
second-order jets.

A :class:`Dual` carries a value together with one first-order
derivative payload; :func:`gradient` drives it. A :class:`Jet` carries a
value, a gradient and the upper triangle of a Hessian, each keyed by
seeded coordinate, so one evaluation gives every second partial that
:func:`jet` asks for. Second order comes from jets alone: ``Dual`` stays
first-order, and duals nested inside duals appear only in tests.
Evaluators written generically over the scalar type (plain ``float`` in,
``float`` out, but tolerant of :class:`Dual` and :class:`Jet` inputs) get
derivatives for free and cannot drift out of sync with their own values.

Math helpers (:func:`exp`, :func:`log`, ...) dispatch on the argument
type so model code can call them without caring whether it is being
differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Dual",
    "Jet",
    "ScalarField",
    "cos",
    "exp",
    "fd_check",
    "grad",
    "gradient",
    "hessian",
    "hessian_matrix",
    "jet",
    "log",
    "second_directional",
    "sin",
    "sqrt",
    "value",
]


class Dual:
    """Truncated first-order scalar ``re + du * eps`` with ``eps**2 == 0``.

    Plain numbers mix in freely as constants. ``re`` and ``du`` may
    themselves be duals (nested differentiation), which only tests use.
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


# --- second-order jets ---------------------------------------------------
#
# A jet's gradient ``g`` maps a coordinate key to a float and its Hessian
# ``h`` maps a key pair (i, j), i <= j, to a float. A coordinate whose
# Hessian rows are wanted is keyed by its argument index (>= 0), any
# other by the index's complement (< 0), and a pair of two negative keys
# is never formed; a jet whose keys are all negative has ``h`` None. An
# absent entry is zero. Dicts are never changed once a jet holds them,
# so operations share them freely.


def _scaled(d, c: float):
    """A new dict c * d, or None for None."""
    return None if d is None else {k: x * c for k, x in d.items()}


def _combo(x, cx: float, y, cy: float):
    """A new dict cx * x + cy * y (None counts as empty), or None when
    both are None."""
    if x is None:
        return None if y is None else {k: d * cy for k, d in y.items()}
    out = {k: d * cx for k, d in x.items()}
    if y is not None:
        for k, d in y.items():
            e = out.get(k)
            out[k] = d * cy if e is None else e + d * cy
    return out


def _sum(x, y, negate: bool):
    """x + y, or x - y with ``negate`` (None counts as empty); shares an
    operand when the other is empty."""
    if not y:
        return x if x is not None else y
    if not x:
        return _scaled(y, -1.0) if negate else y
    out = dict(x)
    for k, d in y.items():
        e = out.get(k)
        if negate:
            out[k] = -d if e is None else e - d
        else:
            out[k] = d if e is None else e + d
    return out


def _add_pairs(h: dict, ga: dict, gb: dict, c: float) -> None:
    """h[i, j] += c (ga_i gb_j + ga_j gb_i) on every kept pair; h is new."""
    for i, di in ga.items():
        for j, dj in gb.items():
            if i <= j:
                if j < 0:
                    continue
                key = (i, j)
            elif i < 0:
                continue
            else:
                key = (j, i)
            t = di * dj * c
            if i == j:
                t = t + t
            e = h.get(key)
            h[key] = t if e is None else e + t


class Jet:
    """Truncated second-order scalar: a value ``re``, a gradient ``g`` and
    the upper triangle ``h`` of a Hessian, keyed by seeded coordinate.

    Entries are plain floats and only coordinates that interact have
    one. Every first partial is computed with the operation order that
    :class:`Dual` uses, so a jet's gradient equals :func:`gradient`'s
    (up to the sign of a zero). Plain numbers, numpy scalars included,
    mix in as constants. A jet exponent or a constant base goes through
    ``exp(k log x)``, as with duals; where :func:`gradient`'s
    one-coordinate lift leaves both sides of a ``**`` plain it computes
    ``x ** k`` in floats instead, so there the two can part in the last
    bit.
    """

    __slots__ = ("re", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, re: float, g: dict, h):
        self.re, self.g, self.h = re, g, h

    # --- arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Jet:
            return Jet(self.re + (other if type(other) is float else float(other)), self.g, self.h)
        g = dict(self.g)
        for k, d in other.g.items():
            e = g.get(k)
            g[k] = d if e is None else e + d
        return Jet(self.re + other.re, g, _sum(self.h, other.h, False))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Jet:
            return Jet(self.re - (other if type(other) is float else float(other)), self.g, self.h)
        g = dict(self.g)
        for k, d in other.g.items():
            e = g.get(k)
            g[k] = -d if e is None else e - d
        return Jet(self.re - other.re, g, _sum(self.h, other.h, True))

    def __rsub__(self, other):
        c = other if type(other) is float else float(other)
        return Jet(c - self.re, {k: -d for k, d in self.g.items()}, _scaled(self.h, -1.0))

    def __mul__(self, other):
        if type(other) is not Jet:
            c = other if type(other) is float else float(other)
            h = self.h
            return Jet(self.re * c, {k: d * c for k, d in self.g.items()},
                       None if h is None else {k: d * c for k, d in h.items()})
        a, b = self.re, other.re
        ga, gb = self.g, other.g
        g = {k: d * b for k, d in ga.items()}  # a key of self alone: du * other.re
        for k, e in gb.items():
            d = ga.get(k)
            g[k] = e * a if d is None else a * e + d * b
        if self.h is None and other.h is None:
            return Jet(a * b, g, None)
        h = _combo(self.h, b, other.h, a)
        _add_pairs(h, ga, gb, 1.0)
        return Jet(a * b, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Jet:
            c = other if type(other) is float else float(other)
            h = self.h
            return Jet(self.re / c, {k: d / c for k, d in self.g.items()},
                       None if h is None else {k: d / c for k, d in h.items()})
        b = other.re
        q = self.re / b
        ga, gb = self.g, other.g
        g = {}
        for k, d in ga.items():
            e = gb.get(k)
            g[k] = d / b if e is None else (d - q * e) / b
        for k, e in gb.items():
            if k not in ga:
                g[k] = -q * e / b
        # (a/b)_ij = (a_ij - q b_ij - f_i b_j - f_j b_i) / b with f = a/b
        h = _combo(self.h, 1.0, other.h, -q)
        if h is not None:
            _add_pairs(h, g, gb, -1.0)
            h = {k: d / b for k, d in h.items()}
        return Jet(q, g, h)

    def __rtruediv__(self, other):
        b = self.re
        q = (other if type(other) is float else float(other)) / b
        gb = self.g
        g = {k: -q * e / b for k, e in gb.items()}
        h = _scaled(self.h, -q)
        if h is not None:
            _add_pairs(h, g, gb, -1.0)
            h = {k: d / b for k, d in h.items()}
        return Jet(q, g, h)

    def __pow__(self, k):
        if type(k) is Jet:
            return exp(k * log(self))
        k, re = (k if type(k) is float else float(k)), self.re
        if k == 0:
            return Jet(re**0, {i: d * 0.0 for i, d in self.g.items()}, _scaled(self.h, 0.0))
        c1 = k * re ** (k - 1)
        g = {i: d * c1 for i, d in self.g.items()}
        if self.h is None:
            return Jet(re**k, g, None)
        try:
            c2 = k * (k - 1) * re ** (k - 2)
        except ZeroDivisionError:  # 0 ** negative: an unbounded second derivative
            c2 = math.inf
        return self._chain(re**k, g, c1, c2)

    def __rpow__(self, base):
        return exp(self * log(base))

    def __neg__(self):
        return Jet(-self.re, {k: -d for k, d in self.g.items()}, _scaled(self.h, -1.0))

    def __pos__(self):
        return self

    def __abs__(self):
        if self.re >= 0.0:
            return Jet(abs(self.re), self.g, self.h)
        return Jet(abs(self.re), {k: -d for k, d in self.g.items()}, _scaled(self.h, -1.0))

    def _chain(self, f0: float, g: dict, f1: float, f2: float) -> "Jet":
        """f(self) from f's value f0 and first two derivatives (f1, f2),
        with the first partials ``g`` already formed in the caller's
        operation order: (f o x)_ij = f1 x_ij + f2 x_i x_j."""
        h = _scaled(self.h, f1)
        if h is not None:
            _add_pairs(h, self.g, self.g, 0.5 * f2)  # each unordered pair twice
        return Jet(f0, g, h)

    # --- comparisons act on the primal value -------------------------

    def __lt__(self, other):
        return self.re < value(other)

    def __le__(self, other):
        return self.re <= value(other)

    def __gt__(self, other):
        return self.re > value(other)

    def __ge__(self, other):
        return self.re >= value(other)

    def __repr__(self):
        return f"Jet({self.re!r}, {self.g!r}, {self.h!r})"


def value(x) -> float:
    """Strip any dual or jet layers and return the primal value."""
    while isinstance(x, (Dual, Jet)):
        x = x.re
    return float(x)


# --- generic math, dispatching on dual, jet and plain ------------------


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, x.du * e)
    if type(x) is Jet:
        e = math.exp(x.re)
        return x._chain(e, {k: d * e for k, d in x.g.items()}, e, e)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.re), x.du / x.re)
    if type(x) is Jet:
        r = x.re
        return x._chain(math.log(r), {k: d / r for k, d in x.g.items()}, 1.0 / r, -1.0 / (r * r))
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, x.du * 0.5 / s)
    if type(x) is Jet:
        s = math.sqrt(x.re)
        return x._chain(s, {k: d * 0.5 / s for k, d in x.g.items()}, 0.5 / s, -0.25 / (x.re * s))
    return math.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), x.du * cos(x.re))
    if type(x) is Jet:
        s, c = math.sin(x.re), math.cos(x.re)
        return x._chain(s, {k: d * c for k, d in x.g.items()}, c, -s)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -x.du * sin(x.re))
    if type(x) is Jet:
        s, c = math.sin(x.re), math.cos(x.re)
        return x._chain(c, {k: -d * s for k, d in x.g.items()}, -s, -c)
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


_NO_PAIRS: dict = {}  # a second-order seed's Hessian, shared and never written


def jet(f: Callable, args: Sequence[float], rows: Optional[Sequence[int]] = None):
    """(value, gradient, Hessian) of ``f(*args)`` from one jet evaluation.

    The Hessian is the k x k matrix of second partials, exactly
    symmetric; only the rows (and, by symmetry, columns) of the argument
    indices in ``rows`` are computed, every other entry is zero. The
    default is every row. The gradient has every first partial.
    """
    k = len(args)
    wanted = range(k) if rows is None else set(rows)
    out = f(*(
        Jet(float(a), {i: 1.0}, _NO_PAIRS) if i in wanted else Jet(float(a), {~i: 1.0}, None)
        for i, a in enumerate(args)
    ))
    g, H = np.zeros(k), np.zeros((k, k))
    if type(out) is not Jet:
        return value(out), g, H  # evaluator ignored every argument
    for i, d in out.g.items():
        g[i if i >= 0 else ~i] = d
    if out.h:
        for (i, j), d in out.h.items():
            i = i if i >= 0 else ~i
            H[i, j] = H[j, i] = d
    return out.re, g, H


def hessian_matrix(f: Callable, args: Sequence[float], symmetric: bool = False) -> np.ndarray:
    """Second-partial matrix of ``f`` from one jet evaluation.

    The jet computes the upper triangle once and mirrors it, so the
    result is exactly symmetric whatever ``symmetric`` says; the flag is
    kept for callers written against the entry-by-entry version.
    """
    return jet(f, args)[2]


def second_directional(f: Callable, args: Sequence[float], direction: Sequence[float], outer_index: int) -> float:
    """d/d(args[outer_index]) of the derivative of ``f`` along ``direction``:
    one Hessian row, from one jet evaluation, applied to the direction."""
    row = jet(f, args, rows=(outer_index,))[2][outer_index]
    return float(row @ np.asarray(direction, dtype=float))


# --- field-level wrappers ----------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A deterministic scalar evaluator of fixed arity.

    The evaluator must be polymorphic over plain, dual and jet scalars; it is
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
    """Second-partial matrix from one jet evaluation."""
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
