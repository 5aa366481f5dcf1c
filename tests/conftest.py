"""Shared fixtures: shipped models, in-range state sampling, a
hand-built frictionless oscillator for the reduction checks, and the
first-order dual numbers that are the reference for the jets' first
partials."""

from contextlib import contextmanager

import numpy as np
import pytest

import dirac_thermo as dt
from dirac_thermo import duals


@pytest.fixture(scope="session")
def piston():
    return dt.build_piston()


@pytest.fixture(scope="session")
def membrane():
    return dt.build_membrane()


@pytest.fixture(scope="session")
def reactions():
    return dt.build_reactions()


def sample_states(model, count, seed=0):
    """Uniform (q, v, S) samples inside the model's declared box."""
    rng = np.random.default_rng(seed)
    box = model.domain_box
    q_lo, q_hi = np.asarray(box.q_lo), np.asarray(box.q_hi)
    v_lo, v_hi = np.asarray(box.v_lo), np.asarray(box.v_hi)
    out = []
    for _ in range(count):
        q = rng.uniform(q_lo, q_hi)
        v = rng.uniform(v_lo, v_hi)
        S = rng.uniform(box.s_lo, box.s_hi)
        out.append((q, v, S))
    return out


def make_oscillator(mass=1.0, stiffness=1.0):
    """Unit harmonic oscillator with no entropy coupling and no friction.

    The entropy slot is inert: L ignores S and the friction covector is
    identically zero, so the thermodynamic machinery must collapse to
    plain canonical mechanics on this model.
    """

    def lagrangian(q, v, S):
        return 0.5 * mass * v[0] * v[0] - 0.5 * stiffness * q[0] * q[0]

    def friction(q, v, S):
        return (0.0,)

    box = dt.DomainBox(
        q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
    )
    return dt.SimpleThermoModel(
        n=1,
        lagrangian=lagrangian,
        friction=friction,
        domain_box=box,
        name="oscillator",
    )


def callable_lam_piston(a=0.25):
    """The piston with the callable friction coefficient
    lam(x, S) = 0.5 + a x^2 + 0.1 e^S, written over the duals helpers."""
    return dt.build_piston(
        dt.PistonParams(lam=lambda x, S: 0.5 + a * x * x + 0.1 * duals.exp(S))
    )


# --- the reference for the jets' first partials ---------------------------
#
# A Dual carries a value and one first-order derivative. The library's
# jets compute every first partial in the operation order of this class,
# so one-coordinate Dual lifts give a jet's gradient bit for bit. The
# library knows nothing of it: the math helpers below take a Dual where
# dirac_thermo.duals' helpers take a jet, and ``dual_math`` lends them to
# the evaluators that call ``duals.exp`` and the like by module attribute.

_JET_MATH = {name: getattr(duals, name) for name in ("exp", "log", "sqrt", "sin", "cos")}


def value(x):
    """The primal value of a (nested) Dual, a jet or a plain number."""
    while isinstance(x, Dual):
        x = x.re
    return duals.value(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, x.du * e)
    return _JET_MATH["exp"](x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.re), x.du / x.re)
    return _JET_MATH["log"](x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, x.du * 0.5 / s)
    return _JET_MATH["sqrt"](x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), x.du * cos(x.re))
    return _JET_MATH["sin"](x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -x.du * sin(x.re))
    return _JET_MATH["cos"](x)


@contextmanager
def dual_math():
    """Within the block, ``dirac_thermo.duals``' math helpers are the
    Dual-aware ones above, which hand every other argument to the
    originals; the originals come back on exit."""
    for name in _JET_MATH:
        setattr(duals, name, globals()[name])
    try:
        yield
    finally:
        for name, fn in _JET_MATH.items():
            setattr(duals, name, fn)


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


def dual_lifts(f, args):
    """Reference first partials: one :class:`Dual` lift per coordinate,
    the other arguments passed as they are."""
    out = np.empty(len(args))
    with dual_math():
        for i in range(len(args)):
            lifted = list(args)
            lifted[i] = Dual(args[i], 1.0)
            r = f(*lifted)
            out[i] = value(r.du) if isinstance(r, Dual) else 0.0
    return out


def vector_lift(f, args):
    """Reference first partials from one evaluation: every coordinate a
    :class:`Dual` against its own unit direction, the dual parts numpy
    vectors."""
    eye = np.eye(len(args))
    with dual_math():
        return np.asarray(f(*(Dual(a, eye[i]) for i, a in enumerate(args))).du, dtype=float)


def dual_friction_jacobian(model, q, v, S):
    """Reference dF_a/dv_b: one friction call per velocity coordinate,
    that coordinate lifted as a :class:`Dual`."""
    n = model.n
    q, v = tuple(np.asarray(q, dtype=float)), np.asarray(v, dtype=float)
    J = np.empty((n, n))
    with dual_math():
        for b in range(n):
            lifted = [Dual(v[k], 1.0) if k == b else v[k] for k in range(n)]
            out = model.friction(q, tuple(lifted), float(S))
            for a in range(n):
                J[a, b] = value(out[a].du) if isinstance(out[a], Dual) else 0.0
    return J
