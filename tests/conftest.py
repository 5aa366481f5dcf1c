"""Shared fixtures: shipped models, in-range state sampling, a
hand-built frictionless oscillator for the reduction checks, coupled
models whose fused kernels make the small-algebra numpy calls, the
first-order dual numbers that are the reference for the jets' first
partials, the per-state diagnostics record that is the reference for
the integrators' block pass, and the numpy Newton loop that is the
reference for the implicit route's float-code loop."""

import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import dirac_thermo as dt
from dirac_thermo import duals
from dirac_thermo.dirac import _conditions
from dirac_thermo.dynamics import (
    CONSISTENCY_TOL,
    IMPLICIT_MAX_ITER,
    IMPLICIT_NEWTON_TOL,
    DiagnosticsRecord,
    _build_residual,
    _implicit_constants,
    _implicit_jacobian,
    _solution_data,
)
from dirac_thermo.model import _FUSED_GLOBALS, ArenaPoint, _dot, _fused, _solve


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


def make_stiffening():
    """n = 1 with a kinetic term quartic in v, L = v^2/2 + v^4/12 - q^2/2 - S,
    F = -0.3 v: the fiber Newton loop takes several iterates, and the
    bits it converges to depend on its seed."""
    box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)

    def lagrangian(q, v, S):
        v2 = v[0] * v[0]
        return 0.5 * v2 + v2 * v2 / 12.0 - 0.5 * q[0] * q[0] - S

    return dt.SimpleThermoModel(n=1, lagrangian=lagrangian, friction=lambda q, v, S: (-0.3 * v[0],),
                                domain_box=box, name="stiffening")


def make_escaping():
    """n = 1 with L = v^2/2 + q^4/4 and no friction, which escapes in
    finite time (t ~ 1.85 from q = 1 at rest); written with products,
    because a float ** overflow raises instead of giving inf."""
    box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
    return dt.SimpleThermoModel(
        n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] + 0.25 * q[0] * q[0] * q[0] * q[0],
        friction=lambda q, v, S: (0.0,), domain_box=box, name="quartic",
    )


def make_coupled_model():
    """L = (1+q^2) v^2 / 2 + q v S - S: every second partial in v is
    nonzero (L_vq = 2 q v + S, L_vS = q), so the momentum rate at vdot = 0
    is not a zero row; dL/dS = q v - 1 stays negative on the box."""

    def lagrangian(q, v, S):
        return 0.5 * (1.0 + q[0] * q[0]) * v[0] * v[0] + q[0] * v[0] * S - S

    def friction(q, v, S):
        return (-0.1 * v[0],)

    box = dt.DomainBox(
        q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
    )
    return dt.SimpleThermoModel(
        n=1, lagrangian=lagrangian, friction=friction, domain_box=box, name="coupled"
    )


def make_coupled_pair():
    """n = 2 with an off-diagonal mass matrix and an S q.v term:
    L = v^T M(q) v / 2 + (q.v) S - |q|^2 / 2 - 2 S with
    M(q) = [[2 + q0^2, q1 / 2], [q1 / 2, 2 + q1^2]], F = -0.2 v. The
    velocity Hessian is diagonal only where q1 is a zero, and L_vq,
    L_vS are nonzero rows; dL/dS = q.v - 2 stays negative on the box."""

    def lagrangian(q, v, S):
        m00, m01, m11 = 2.0 + q[0] * q[0], 0.5 * q[1], 2.0 + q[1] * q[1]
        kinetic = 0.5 * (m00 * v[0] * v[0] + 2.0 * m01 * v[0] * v[1] + m11 * v[1] * v[1])
        return kinetic + (q[0] * v[0] + q[1] * v[1]) * S - 0.5 * (q[0] * q[0] + q[1] * q[1]) - 2.0 * S

    box = dt.DomainBox(
        q_lo=(-1.0, -1.0), q_hi=(1.0, 1.0), v_lo=(-1.0, -1.0), v_hi=(1.0, 1.0), s_lo=-1.0, s_hi=1.0
    )
    return dt.SimpleThermoModel(
        n=2, lagrangian=lagrangian, friction=lambda q, v, S: (-0.2 * v[0], -0.2 * v[1]),
        domain_box=box, name="coupled-pair",
    )


def counted_numpy_calls(monkeypatch) -> Counter:
    """A Counter, by name, of the calls that fused kernels built from now
    on make to the numpy helpers behind the small-algebra rules: ``_mv``
    (the momentum-rate matmul) and ``_solve_rows`` (the LAPACK solve)."""
    calls = Counter()
    for name in ("_mv", "_solve_rows"):
        numpy_call = _FUSED_GLOBALS[name]
        monkeypatch.setitem(_FUSED_GLOBALS, name,
                            lambda *args, _f=numpy_call, _name=name: calls.update([_name]) or _f(*args))
    return calls


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


# --- the reference for the diagnostics rows -------------------------------
#
# The diagnostics record of one stored state, as the integrators built it
# state by state before the block pass: the explicit fields' record of
# the chart state t, its rate r (a tuple) and its work w, and the
# implicit route's record of a stored P row. The library's rows must
# have these bits.


def _record(energy, S, Sdot, constraint, residual) -> DiagnosticsRecord:
    """Diagnostics record from the constraint value and membership residual."""
    return DiagnosticsRecord(
        energy=energy,
        entropy=S,
        entropy_rate=Sdot,
        constraint_residual=abs(constraint),
        dirac_residual=float(np.abs(residual).max()),
    )


def _explicit_record(arena: str, p, v, L, S, Sdot, s, F, z) -> DiagnosticsRecord:
    """Diagnostics of an explicit field's data on M or N: z stacks the
    rate and the energy differential, p, v, S, Sdot are the state's
    momentum, velocity, entropy and entropy rate, and (L, s, F) the
    Lagrangian, entropy slope and friction there. The membership
    residual is infinite where the slope vanishes (T = 0 on N)."""
    energy = _dot(p, v) - L
    if s == 0.0 or not math.isfinite(s):
        residual = math.inf
    else:
        coef = -s if arena == "N" else s  # the momentum side reads T = -s
        residual = _conditions(arena, len(F), float(coef), np.asarray(F)) @ z
    return _record(energy, S, Sdot, float(s * Sdot - _dot(F, v)), residual)


def lagrangian_record(n: int, t: tuple, r: tuple, w) -> DiagnosticsRecord:
    """The velocity-side field's record on M."""
    z = _solution_data(w, t[:n], w.qdot, t[n], r, "M")[1:].ravel()
    return _explicit_record("M", w.dLdv, w.qdot, w.L, t[n], r[n], w.s, w.F, z)


def hamilton_record(n: int, t: tuple, r: tuple, w) -> DiagnosticsRecord:
    """The momentum-side field's record on N."""
    # the rate, then the Hamiltonian differential (dH/dq - external, dH/dS, dH/dp)
    z = np.array([*r, *(a - b for a, b in zip(w.dHdq, w.Fext)), w.dHdS, *w.qdot])
    return _explicit_record("N", t[n + 1 :], w.qdot, w.L, t[n], r[n], -w.dHdS, w.F, z)


def implicit_record(n: int, x, rates, residual, L) -> DiagnosticsRecord:
    """Diagnostics at the flat P row x, read through its groups, with L
    the Lagrangian at its (q, v, S)."""
    point = ArenaPoint("P", n, x)
    energy = float(point.p @ point.v) + point.lam * point.W - L
    return _record(energy, point.S, float(rates[n]), float(residual[n]), residual)


# --- the reference for the implicit route's Newton loop -------------------
#
# integrate_implicit_P as it was written over numpy arrays: each iterate's
# residual through the public implicit_residual_P at the backward rates,
# np.abs(r).max() as its size, the step's Jacobian through
# _implicit_jacobian, the snap p = momentum_map at the converged (q, v, S)
# and the per-state record of each stored row. The library's float-code
# loop must give its bits, errors and partial runs.


def implicit_reference(model, initial: ArenaPoint, t_end: float, h: float) -> dt.Trajectory:
    """The implicit route from ``initial`` as the numpy loop, a trajectory
    with plain (K, d) states and (K, 5) diagnostics rows."""
    if h <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and h must be positive")
    n = model.n
    p0 = dt.momentum_map(model, initial.q, initial.v, initial.S)
    if np.max(np.abs(initial.p - p0)) > CONSISTENCY_TOL or abs(initial.lam) > CONSISTENCY_TOL:
        raise dt.IntegrationError(
            "initial point is off the algebraic slice: momentum slots must "
            "carry dL/dv and the covariable must be zero"
        )

    K = max(1, int(round(t_end / h))) + 1
    constants = _implicit_constants(n, h)
    x = initial.as_vector()
    pair0 = dt.solution_pair_P(model, initial.q, initial.v, initial.S)
    res0, L = dt.implicit_residual_P(model, initial, pair0.tangent, with_value=True)
    _fused(model, "residual", _build_residual)  # the start traced its replays
    states, rates, records = [x], [pair0.tangent], [implicit_record(n, x, pair0.tangent, res0, L)]

    def stored(completed: bool) -> dt.Trajectory:
        return dt.Trajectory(times=np.arange(len(states)) * h, states=np.array(states),
                             rates=np.array(rates), diagnostics=np.array(records), arena="P",
                             completed=completed)

    rate_guess = pair0.tangent
    for _ in range(1, K):
        x0 = x
        x1 = x0 + h * rate_guess

        def g(z: np.ndarray):  # (residual, L) at z with the backward rates
            return dt.implicit_residual_P(model, ArenaPoint("P", n, z), (z - x0) / h, with_value=True)

        r, L = g(x1)
        J = None
        converged = False
        for _ in range(IMPLICIT_MAX_ITER):
            err = np.abs(r).max()
            if err <= IMPLICIT_NEWTON_TOL:
                converged = True
                break
            if not math.isfinite(err):
                return stored(False)
            if J is None:
                J = _implicit_jacobian(model, x1, (x1 - x0) / h, h, constants)
            try:
                step = _solve(J, r)
            except np.linalg.LinAlgError:
                raise dt.NewtonError("singular Jacobian in the implicit step")
            x1 = x1 - step
            if not np.all(np.isfinite(x1)):
                return stored(False)
            r, L = g(x1)
        if not converged:
            raise dt.NewtonError(
                f"implicit step did not converge: residual {np.max(np.abs(r)):.3e} "
                f"after {IMPLICIT_MAX_ITER} iterations"
            )
        rate = (x1 - x0) / h
        # snap p and lam exactly, in place (Newton left them within tol); L is unmoved
        point = ArenaPoint("P", n, x1)
        point.p = dt.momentum_map(model, point.q, point.v, point.S)
        point.lam = 0.0
        states.append(x1)
        rates.append(rate)
        records.append(implicit_record(n, x1, rate, r, L))
        rate_guess = rate
        x = x1
    return stored(True)
