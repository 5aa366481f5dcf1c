"""Shared fixtures: shipped models, in-range state sampling, a
hand-built frictionless oscillator for the reduction checks, coupled
models whose fused kernels make the small-algebra numpy calls, the
first-order dual numbers that are the reference for the jets' first
partials, the per-evaluator paths that are the reference for the fused
kernels, the per-state diagnostics record that is the reference for
the integrators' block pass, and the numpy Newton loop that is the
reference for the implicit route's float-code loop."""

import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import dirac_thermo as dt
from dirac_thermo import duals, dynamics, legendre
from dirac_thermo.dirac import _conditions
from dirac_thermo.dynamics import (
    CONSISTENCY_TOL,
    IMPLICIT_MAX_ITER,
    IMPLICIT_NEWTON_TOL,
    DiagnosticsRecord,
    _build_residual,
    _floats,
    _implicit_constants,
    _implicit_jacobian,
    _jet_columns,
    _LagrangianWork,
    _MomentumWork,
    _solution_data,
)
from dirac_thermo.errors import DegenerateLagrangianError, DiracThermoError, NewtonError, TemperatureSignError
from dirac_thermo.legendre import NEWTON_MAX_ITER, NEWTON_TOL, HamiltonianModel, hamiltonian_partials
from dirac_thermo.model import (
    _FUSED_GLOBALS,
    ArenaPoint,
    SimpleThermoModel,
    _arena_layout,
    _as_array,
    _covector_jet,
    _dot,
    _fused,
    _kernel_jet,
    _lagrangian_first_order,
    _lagrangian_hessian,
    _momentum_rate_from,
    _solve,
    external_value,
    friction_value,
    lagrangian_jet,
)


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


# --- the reference for the fused kernels ----------------------------------
#
# Each per-state evaluation as the library wrote it one numpy step at a
# time from the evaluators' own jets, before the fused kernels' sources
# became its one statement: the velocity-side work, the momentum-side
# work, the implicit residual and Jacobian and the fiber's Newton loop,
# with the entropy-rate rule and the force jets they read. Under
# ``per_evaluator()`` every library entry point reads them, so the fast
# and the strict bindings of each kernel are held to them bit for bit,
# errors included.

def _force_jets(model: SimpleThermoModel, q, v, S):
    """(F, dF, Fext, dFext): the friction and external force at (q, v, S)
    and their first partials over (q, v, S), (n, 2n + 1) arrays, from
    order-1 kernels. A partial that an evaluator strips with
    ``duals.value`` is not in them; the piston's callable friction
    coefficient is not stripped, so its x and S partials are."""
    n = model.n
    F, dF = _covector_jet(model.friction, n, q, v, S, "friction covector")
    if model.external is None:
        return F, dF, np.zeros(n), np.zeros_like(dF)
    return (F, dF, *_covector_jet(model.external, n, q, v, S, "external covector"))


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


def _per_evaluator_work(model: SimpleThermoModel, q, v, S) -> _LagrangianWork:
    """``dynamics._lagrangian_work`` one numpy step at a time from the
    evaluators' own kernels: the fused work kernel's reference."""
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


def _momentum_work(hmodel: HamiltonianModel, q, S, p, v0=None) -> _MomentumWork:
    """Momentum-side rate at (q, S, p) plus the intermediates it was
    built from, one numpy step at a time; ``v0`` seeds the fiber
    inversion. The fused momentum kernel's reference."""
    model = hmodel.source
    hp = hamiltonian_partials(model, q, p, S, v0=v0)
    F = friction_value(model, q, hp.velocity, S)
    Fext = external_value(model, q, hp.velocity, S)
    Sdot = _entropy_rate(model, F, hp.dp, -hp.dS)
    return _MomentumWork((*_floats(hp.dp), Sdot, *_floats(-hp.dq + F + Fext)), float(hp.L),
                         _floats(hp.dq), float(hp.dS), _floats(F), _floats(Fext))


def _per_evaluator_residual(model: SimpleThermoModel, x, r):
    """(residual, o) of ``dynamics.implicit_residual_P`` at the P row x
    and rates r, one numpy step at a time: the fused residual kernel's
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


def _per_evaluator_jacobian(model: SimpleThermoModel, x, rates, h: float, constants) -> np.ndarray:
    """``dynamics._implicit_jacobian`` one numpy step at a time: the
    fused Jacobian kernel's reference."""
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


def _per_evaluator_solve(model: SimpleThermoModel, q, p, S: float, v):
    """(v, jet): the Newton loop on ``model.lagrangian_jet``, the loop
    over the fused fiber iterate's reference."""
    n = model.n
    for _ in range(NEWTON_MAX_ITER):
        jet = lagrangian_jet(model, q, v, S)
        r = jet[2] - p
        err = np.abs(r).max()  # NaN or inf for a non-finite residual
        if not math.isfinite(err):
            raise NewtonError(f"momentum residual became non-finite (model {model.name})")
        if err <= NEWTON_TOL:
            break
        try:
            step = _solve(jet[4][:, n : 2 * n], r)
        except np.linalg.LinAlgError:
            raise DegenerateLagrangianError(
                f"singular velocity Hessian at q={q}, S={S} (model {model.name})"
            )
        v = v - step
    else:
        jet = lagrangian_jet(model, q, v, S)
        r = jet[2] - p
        if not np.max(np.abs(r)) <= NEWTON_TOL:
            raise NewtonError(
                f"momentum inversion did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {np.max(np.abs(r)):.3e}, model {model.name})"
            )
    return v, jet


@contextmanager
def per_evaluator():
    """Within the block no fast binding is found or compiled, and each
    strict binding is the reference above: every entry point takes the
    per-evaluator path. The fiber's whole Newton loop stands in for its
    iterate. The reference functions are looked up at each call, so that
    a test may patch them on this module, and they run with numpy's
    floating-point warnings off: the kernels' float code, whose values
    they must have, makes none."""

    def quiet(compute):
        with np.errstate(all="ignore"):
            return compute()

    def reference(model, kind, build=None, strict=False):
        if not strict:
            return None
        n, d = model.n, 3 * model.n + 3
        return {
            "work": lambda *a: quiet(lambda: _per_evaluator_work(model, a[:n], a[n:-1], a[-1])),
            "momentum": lambda *a: quiet(lambda: _momentum_work(
                HamiltonianModel(model), a[:n], a[n], a[n + 1 : 2 * n + 1], v0=a[2 * n + 1 :])),
            "residual": lambda *a: quiet(lambda: _per_evaluator_residual(
                model, np.array(a[:d]), np.array(a[d:]))),
            "jacobian": lambda *a: quiet(lambda: _per_evaluator_jacobian(
                model, np.array(a[:d]), np.array(a[d : 2 * d]), *a[2 * d :])),
            "fiber": lambda *a: quiet(lambda: _per_evaluator_solve(model, *a)),
        }[kind]

    def newton(model, loop, q, p, S, v):
        return None if loop is None else loop(q, p, S, v)

    saved = dynamics._fused, legendre._fused, legendre._newton
    dynamics._fused = legendre._fused = reference
    legendre._newton = newton
    try:
        yield
    finally:
        dynamics._fused, legendre._fused, legendre._newton = saved


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
