"""Forward-mode automatic differentiation: jets of order 0, 1 and 2.

A :class:`Jet` carries a value, a gradient and the upper triangle of a
Hessian, each keyed by seeded coordinate. Every jet has an order, the
one argument of :func:`jet` and :class:`JetKernel`: order 0 is the
value alone (unseeded jets, whose arithmetic is the plain-float
evaluation's, bit for bit), order 1 adds every first partial and order
2 every second partial, each from one evaluation. The jet is the one
derivative type of the library. Its first partials keep the operation
order of a first-order dual number lifted one coordinate at a time,
which the tests keep as their reference.
Evaluators written generically over the scalar type (plain ``float`` in,
``float`` out, but tolerant of :class:`Jet` inputs, with math through
the helpers below) get derivatives for free and cannot drift out of
sync with their own values.

A :class:`JetKernel` runs the jet arithmetic once on traced floats and
compiles what it did into straight-line float code, which later calls
replay without calling the evaluator; the result is :func:`jet`'s, bit
for bit, for a scalar evaluator and for one that returns a tuple (a
covector) alike. The contract a kernel relies on: an evaluator is a
pure function of its arguments; constants it reads from its closure are
read once, at trace time; and an evaluator that lets a value escape
(calls ``float()``, ``bool()`` or numpy on a jet's value) keeps the dict
jet. :func:`value` is no escape: it strips the derivative parts and
keeps the trace, so the partials that flow through it are dropped in
the kernel as in the dict jet. A comparison on a jet becomes a guard of
the kernel, and where a guard fails or the kernel raises, the dict jet
runs instead.

Math helpers (:func:`exp`, :func:`log`, ...) dispatch on the argument
type so model code can call them without caring whether it is being
differentiated. The functions of :mod:`math` reject a jet with
``TypeError``, so an evaluator must call these helpers instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Jet",
    "JetKernel",
    "ScalarField",
    "cos",
    "exp",
    "fd_check",
    "gradient",
    "hessian_matrix",
    "jet",
    "log",
    "second_directional",
    "sin",
    "sqrt",
    "value",
]


# --- jets ----------------------------------------------------------------
#
# A jet's gradient ``g`` maps a coordinate's argument index to a float
# and its Hessian ``h`` maps an index pair (i, j), i <= j, to a float; a
# jet below order 2 has ``h`` None. An absent entry is zero. Dicts are
# never changed once a jet holds them, so operations share them freely.


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
    """h[i, j] += c (ga_i gb_j + ga_j gb_i) on every pair; h is new."""
    for i, di in ga.items():
        for j, dj in gb.items():
            t = di * dj * c
            if i == j:
                t = t + t
            key = (i, j) if i <= j else (j, i)
            e = h.get(key)
            h[key] = t if e is None else e + t


class Jet:
    """Truncated second-order scalar: a value ``re``, a gradient ``g`` and
    the upper triangle ``h`` of a Hessian, keyed by seeded coordinate.

    Entries are plain floats and only coordinates that interact have
    one. Every first partial is computed with the operation order of
    the tests' reference, a first-order dual number, so a jet's gradient
    has the bits of its one-coordinate lifts. A jet exponent or a
    constant base goes through ``exp(k log x)``, as with the reference's
    duals; where a lift leaves both sides of a
    ``**`` plain it computes ``x ** k`` in floats instead, so there the
    two can part in the last bit. Unseeded jets (no gradient entry, as
    an order-0 evaluation makes them) compute ``x ** k`` too, so their
    values are the plain-float evaluation's, bit for bit. Plain
    numbers, numpy scalars included, mix in as constants.
    """

    __slots__ = ("re", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, re: float, g: dict, h):
        self.re, self.g, self.h = re, g, h

    # --- arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Jet:
            return Jet(self.re + (other if type(other) in _PLAIN else float(other)), self.g, self.h)
        g = dict(self.g)
        for k, d in other.g.items():
            e = g.get(k)
            g[k] = d if e is None else e + d
        return Jet(self.re + other.re, g, _sum(self.h, other.h, False))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Jet:
            return Jet(self.re - (other if type(other) in _PLAIN else float(other)), self.g, self.h)
        g = dict(self.g)
        for k, d in other.g.items():
            e = g.get(k)
            g[k] = -d if e is None else e - d
        return Jet(self.re - other.re, g, _sum(self.h, other.h, True))

    def __rsub__(self, other):
        c = other if type(other) in _PLAIN else float(other)
        return Jet(c - self.re, {k: -d for k, d in self.g.items()}, _scaled(self.h, -1.0))

    def __mul__(self, other):
        if type(other) is not Jet:
            c = other if type(other) in _PLAIN else float(other)
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
            c = other if type(other) in _PLAIN else float(other)
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
        q = (other if type(other) in _PLAIN else float(other)) / b
        gb = self.g
        g = {k: -q * e / b for k, e in gb.items()}
        h = _scaled(self.h, -q)
        if h is not None:
            _add_pairs(h, g, gb, -1.0)
            h = {k: d / b for k, d in h.items()}
        return Jet(q, g, h)

    def __pow__(self, k):
        if type(k) is Jet:
            if k.g or self.g:
                return exp(k * log(self))
            return Jet(self.re**k.re, {}, None)  # unseeded: the values' own power
        k, re = (k if type(k) in _PLAIN else float(k)), self.re
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
        if self.g:
            return exp(self * log(base))
        return Jet((base if type(base) in _PLAIN else float(base)) ** self.re, {}, None)

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
    """A jet's primal value, or a plain number as a float. Under a trace
    the primal is a traced float, and it stays traced: the derivative
    parts go, the recorded arithmetic does not, so a comparison of two
    jets under trace becomes a guard."""
    if type(x) is Jet:
        x = x.re
    return x if type(x) is _Traced else float(x)


# --- generic math, dispatching on jet and plain -------------------------


def _exp(x):
    """``math.exp`` of a value, recorded when traced; where it overflows,
    the IEEE answer inf (numpy's), not ``OverflowError``. A replay that
    overflows raises, and the dict jet, which comes here, answers inf."""
    if type(x) is _Traced:
        return _apply(math.exp, x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp(x):
    if type(x) is Jet:
        e = _exp(x.re)
        return x._chain(e, {k: d * e for k, d in x.g.items()}, e, e)
    return _exp(x)


def log(x):
    if type(x) is Jet:
        r = x.re
        return x._chain(_apply(math.log, r), {k: d / r for k, d in x.g.items()}, 1.0 / r, -1.0 / (r * r))
    return _apply(math.log, x)


def sqrt(x):
    if type(x) is Jet:
        s = _apply(math.sqrt, x.re)
        return x._chain(s, {k: d * 0.5 / s for k, d in x.g.items()}, 0.5 / s, -0.25 / (x.re * s))
    return _apply(math.sqrt, x)


def sin(x):
    if type(x) is Jet:
        s, c = _apply(math.sin, x.re), _apply(math.cos, x.re)
        return x._chain(s, {k: d * c for k, d in x.g.items()}, c, -s)
    return _apply(math.sin, x)


def cos(x):
    if type(x) is Jet:
        s, c = _apply(math.sin, x.re), _apply(math.cos, x.re)
        return x._chain(c, {k: -d * s for k, d in x.g.items()}, -s, -c)
    return _apply(math.cos, x)


# --- derivative drivers ----------------------------------------------


def gradient(f: Callable, args: Sequence[float]) -> np.ndarray:
    """All first partials of ``f(*args)``: the gradient of its order-1 jet."""
    return jet(f, args, order=1)[1]


_NO_PAIRS: dict = {}  # an order-2 seed's Hessian, shared and never written


def _seeds(values: list, order: int) -> list:
    """One jet per argument value: unseeded at order 0, whose arithmetic
    is the value's alone; keyed by its index otherwise, with Hessian
    pairs at order 2."""
    if order not in (0, 1, 2):
        raise ValueError(f"a jet has order 0, 1 or 2, not {order!r}")
    if order == 0:
        return [Jet(x, {}, None) for x in values]
    pairs = _NO_PAIRS if order == 2 else None
    return [Jet(x, {i: 1.0}, pairs) for i, x in enumerate(values)]


def jet(f: Callable, args: Sequence[float], order: int = 2):
    """The jet of ``f(*args)`` from one evaluation: at order 0 the value
    alone, the plain-float evaluation bit for bit; at order 1 (value,
    gradient); at order 2 (value, gradient, Hessian), the Hessian the
    k x k matrix of second partials, exactly symmetric. An evaluator
    that returns a tuple of m outputs gets them stacked: values (m,),
    gradients (m, k) and Hessians (m, k, k).
    """
    return _jet_of(f, [float(a) for a in args], order)


# the output types that hold one output per entry
_SEQUENCES = (tuple, list, np.ndarray)


def _jet_of(f: Callable, values: list, order: int):
    """:func:`jet` at argument values taken as they are (numpy floats
    stay)."""
    k = len(values)
    out = f(*_seeds(values, order))
    if type(out) not in _SEQUENCES:
        return _output_arrays(out, k, order)
    parts = [_output_arrays(o, k, order) for o in out]
    if order == 0:
        return np.array(parts, dtype=float)
    return tuple(np.array(blocks, dtype=float) for blocks in zip(*parts))


def _output_arrays(out, k: int, order: int):
    """One output jet as its value, or as (value, gradient) or (value,
    gradient, Hessian) arrays by ``order``; an output that is not a jet
    ignored every argument."""
    if order == 0:
        return value(out)
    if type(out) is not Jet:
        out = Jet(value(out), {}, None)
    g = np.zeros(k)
    for i, d in out.g.items():
        g[i] = d
    if order == 1:
        return out.re, g
    H = np.zeros((k, k))
    for (i, j), d in (out.h or {}).items():
        H[i, j] = H[j, i] = d
    return out.re, g, H


def hessian_matrix(f: Callable, args: Sequence[float]) -> np.ndarray:
    """Second-partial matrix of ``f``: the Hessian of its order-2 jet."""
    return jet(f, args)[2]


def second_directional(f: Callable, args: Sequence[float], direction: Sequence[float], outer_index: int) -> float:
    """d/d(args[outer_index]) of the derivative of ``f`` along ``direction``:
    one row of its order-2 jet's Hessian, applied to the direction."""
    return float(jet(f, args)[2][outer_index] @ np.asarray(direction, dtype=float))


# --- traced jets -------------------------------------------------------
#
# A trace runs the jet arithmetic above once on _Traced floats. Each
# carries its concrete value and a name, and every float operation on
# one, including the math functions the helpers apply to a jet's value,
# appends one line ``name = expression`` to a tape. Nothing is folded
# or dropped, so the compiled tape repeats the same IEEE operations in
# the same order and gives the same bits. Operations between constants
# never reach the tape: they are the same at every call.


class _Tape:
    """The straight-line program one trace records: its lines, the
    kernel globals its lines name (math functions and constants with no
    exact literal), whether an operation raised and whether a value
    escaped."""

    __slots__ = ("lines", "names", "raised", "escaped")

    def __init__(self):
        self.lines, self.names = [], {}
        self.raised = self.escaped = False

    def operand(self, x):
        """(concrete value, source text) of an operand."""
        if type(x) is _Traced:
            return x.x, x.name
        if type(x) is int or (type(x) is float and math.isfinite(x)):
            return x, f"({x!r})"
        name = f"c{len(self.names)}"
        self.names[name] = x
        return x, name

    def text(self, x) -> str:
        return self.operand(x)[1]

    def record(self, compute: Callable, template: str, *operands) -> "_Traced":
        """Apply ``compute`` to the operands' values and record it as one
        line, ``template`` filled with their source texts."""
        values, texts = zip(*map(self.operand, operands))
        try:
            x = compute(*values)
        except Exception:
            self.raised = True
            raise
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {template.format(*texts)}")
        return _Traced(x, name, self)

    def guard(self, compare: Callable, symbol: str, a, b) -> bool:
        """A comparison's outcome, recorded as a line that returns None
        wherever the comparison would come out the other way."""
        (x, at), (y, bt) = self.operand(a), self.operand(b)
        try:
            held = bool(compare(x, y))
        except Exception:
            self.raised = True
            raise
        self.lines.append(f"if {'not ' if held else ''}({at} {symbol} {bt}): return None")
        return held

    def escape(self, x):
        """A concrete value leaving the trace: the evaluator is untraceable."""
        self.escaped = True
        return x


# The other operand of a traced operation; any other type (a jet, a
# numpy scalar) gets NotImplemented, so its own reflected method runs.
_OPERAND_TYPES = (float, int)


def _binary(compute: Callable, symbol: str):
    template = "{} %s {}" % symbol

    def op(self, other):
        if type(other) is not _Traced and type(other) not in _OPERAND_TYPES:
            return NotImplemented
        return self.tape.record(compute, template, self, other)

    def rop(self, other):
        if type(other) not in _OPERAND_TYPES:
            return NotImplemented
        return self.tape.record(compute, template, other, self)

    return op, rop


def _comparison(compare: Callable, symbol: str):
    def op(self, other):
        if type(other) is not _Traced and type(other) not in _OPERAND_TYPES:
            return NotImplemented
        return self.tape.guard(compare, symbol, self, other)

    return op


def _escaping(convert: Callable):
    def op(self):
        return self.tape.escape(convert(self.x))

    return op


class _Traced:
    """A float under trace: its concrete value ``x`` and its ``name`` on
    the ``tape``. Arithmetic is recorded, a comparison becomes a guard,
    and a conversion to a plain value marks the tape escaped."""

    __slots__ = ("x", "name", "tape")

    def __init__(self, x, name: str, tape: _Tape):
        self.x, self.name, self.tape = x, name, tape

    __add__, __radd__ = _binary(operator.add, "+")
    __sub__, __rsub__ = _binary(operator.sub, "-")
    __mul__, __rmul__ = _binary(operator.mul, "*")
    __truediv__, __rtruediv__ = _binary(operator.truediv, "/")
    __pow__, __rpow__ = _binary(operator.pow, "**")

    def __neg__(self):
        return self.tape.record(operator.neg, "-{}", self)

    def __abs__(self):
        return self.tape.record(abs, "abs({})", self)

    __lt__ = _comparison(operator.lt, "<")
    __le__ = _comparison(operator.le, "<=")
    __gt__ = _comparison(operator.gt, ">")
    __ge__ = _comparison(operator.ge, ">=")
    __eq__ = _comparison(operator.eq, "==")
    __ne__ = _comparison(operator.ne, "!=")

    # math functions and complex() reach the value through __float__
    __float__ = _escaping(float)
    __int__ = _escaping(int)
    __bool__ = _escaping(bool)
    __hash__ = _escaping(hash)

    def __array__(self, dtype=None, copy=None):
        return self.tape.escape(np.array(self.x, dtype=dtype))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.tape.escape(None)
        return NotImplemented

    def __repr__(self):
        return f"_Traced({self.x!r}, {self.name!r})"


# the constant operands a jet keeps as they are: a float, and a traced
# float (a value that ``value`` stripped of its derivative layers)
_PLAIN = (float, _Traced)


def _apply(fn: Callable, x):
    """``fn(x)`` of a jet's value, recorded when the value is traced."""
    if type(x) is _Traced:
        x.tape.names[fn.__name__] = fn
        return x.tape.record(fn, fn.__name__ + "({})", x)
    return fn(x)


class JetKernel:
    """:func:`jet` of one evaluator at arity ``k`` and ``order``, traced
    once into straight-line float code and replayed at every call.

    ``kernel(f, args)`` returns ``jet(f, args, order)`` bit for bit. An
    evaluator that returns a tuple of outputs (a covector) gets them
    stacked, as :func:`jet` stacks them. The first call traces ``f`` at
    ``args``; later calls replay the compiled code and do not call
    ``f``. The dict jet runs instead, for that call
    only, where the trace raised, where a guard of the code fails and
    where the code raises, so errors are the dict jet's own. After a
    value escape the kernel keeps the dict jet for good. The kernel
    holds no reference to ``f``: every call passes the evaluator, which
    must be the one traced and a pure function of its arguments.
    """

    __slots__ = ("k", "order", "replay", "unpack", "traceable")

    def __init__(self, k: int, order: int = 2):
        self.k, self.order = k, order
        self.replay: Optional[Callable] = None
        self.unpack: Optional[Callable] = None
        self.traceable = True

    def __call__(self, f: Callable, args: Sequence[float]):
        return self.floats(f, [float(a) for a in args])

    def floats(self, f: Callable, args: list):
        """As calling the kernel, with ``args`` a list of Python floats."""
        replay = self.replay
        if replay is None:
            if not self.traceable:
                return _jet_of(f, args, self.order)
            replay = self._trace(f, args)
            if replay is None:
                return _jet_of(f, args, self.order)
        try:
            out = replay(*args)
            if out is not None:
                return self.unpack(out)
        except Exception:
            pass  # the dict jet raises its own error, or answers where the kernel cannot
        return _jet_of(f, args, self.order)  # a guard failed or the kernel raised

    def _trace(self, f: Callable, args: list) -> Optional[Callable]:
        """The compiled trace of ``f`` at ``args``, kept with its
        unpacker, or None where this call takes the dict jet."""
        k, order, tape = self.k, self.order, _Tape()
        try:
            primals = [_Traced(x, f"a{i}", tape) for i, x in enumerate(args)]
            out = f(*_seeds(primals, order))
            many = type(out) in _SEQUENCES
            outs = out if many else (out,)
            # an output that is not a jet ignored every argument
            outs = [o if type(o) is Jet else Jet(value(o), {}, None) for o in outs]
        except Exception:
            tape.raised = True
        if tape.escaped:
            self.traceable = False
        if tape.raised or tape.escaped:
            return None
        text, m = tape.text, len(outs)
        # the values, then the gradients, then the Hessians, row by row
        flat = [text(o.re) for o in outs]
        if order:
            grads, hessians = ["0.0"] * (m * k), ["0.0"] * (m * k * k if order == 2 else 0)
            for a, o in enumerate(outs):
                for i, d in o.g.items():
                    grads[a * k + i] = text(d)
                for (i, j), d in (o.h or {}).items():
                    at = a * k * k
                    hessians[at + i * k + j] = hessians[at + j * k + i] = text(d)
            flat += grads + hessians
        body = "".join(f"    {line}\n" for line in tape.lines)
        source = (
            f"def replay({', '.join(f'a{i}' for i in range(k))}):\n{body}"
            f"    return ({', '.join(flat)},)\n"
        )
        namespace = dict(tape.names)
        exec(compile(source, "<jet kernel>", "exec"), namespace)
        self.unpack = _unpacker(k, m if many else None, order)
        self.replay = namespace["replay"]
        return self.replay


def _unpacker(k: int, m: Optional[int], order: int) -> Callable:
    """What turns a replay's flat tuple into the kernel's result: the
    :func:`jet` of ``order`` of a scalar output (m None), or of m outputs
    stacked."""
    if order == 0:
        # float() refuses a complex value (a negative base's power), as the dict jet does
        return (lambda out: float(out[0])) if m is None else (lambda out: np.array(out, dtype=float))
    if m is None:

        def unpack(out):
            a = np.array(out, dtype=float)
            if order == 1:
                return out[0], a[1:]
            return out[0], a[1 : k + 1], a[k + 1 :].reshape(k, k)

    else:

        def unpack(out):
            a = np.array(out, dtype=float)
            if order == 1:
                return a[:m], a[m:].reshape(m, k)
            return a[:m], a[m : m + m * k].reshape(m, k), a[m + m * k :].reshape(m, k, k)

    return unpack


# --- field-level wrappers ----------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A deterministic scalar evaluator of fixed arity.

    The evaluator must be polymorphic over plain and jet scalars; it is
    the single source of truth for both values and derivatives.
    """

    arity: int
    evaluator: Callable

    def __call__(self, *args):
        return self.evaluator(*args)


def fd_check(field: ScalarField, point: Sequence[float], h: float = 1e-5) -> float:
    """Max relative deviation between jet and central-difference partials.

    A diagnostic, not a production derivative path. ``h`` is absolute.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    pt = [float(x) for x in point]
    if len(pt) != field.arity:
        raise DimensionMismatchError(f"field expects {field.arity} scalars, got {len(pt)}")
    f = field.evaluator
    g = gradient(f, pt)
    if not np.all(np.isfinite(g)) or not math.isfinite(value(f(*pt))):
        raise ValueError("non-finite field output; point outside the domain")
    worst = 0.0
    for i in range(len(pt)):
        hi = list(pt)
        lo = list(pt)
        hi[i] += h
        lo[i] -= h
        fd = (value(f(*hi)) - value(f(*lo))) / (2.0 * h)
        dev = abs(g[i] - fd) / max(1.0, abs(g[i]))
        worst = max(worst, dev)
    return worst
