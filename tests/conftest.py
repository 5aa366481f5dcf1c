"""Shared fixtures: shipped models, in-range state sampling, a
hand-built frictionless oscillator for the reduction checks, coupled
models whose fused kernels make the small-algebra numpy calls, the
first-order dual numbers that are the reference for the jets' first
partials, the per-evaluator paths that are the reference for the fused
kernels, the per-state diagnostics record that is the reference for
the integrators' block pass, and the numpy Newton loop over the full
Jacobian that is the reference for the implicit route's generated
step."""

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
    _floats,
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
# work, the implicit residual, the implicit step's full Jacobian and the
# fiber's Newton loop, with the entropy-rate rule and the force jets they
# read. Under
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


def implicit_constants(n: int, h: float) -> np.ndarray:
    """The entries of the implicit step's Jacobian that no state moves:
    the momentum rows' identity on p, the covariable row's one, and the
    velocity and rate-slot rows' one and -1/h (their rates are the
    backward differences of q and S)."""
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()
    eye = np.eye(n)
    J = np.zeros((3 * n + 3, 3 * n + 3))
    J[n + 1 : 2 * n + 1, p] = eye
    J[2 * n + 1, lam] = 1.0
    J[2 * n + 2 : 3 * n + 2, v], J[2 * n + 2 : 3 * n + 2, q] = eye, -eye / h
    J[3 * n + 2, W], J[3 * n + 2, S] = 1.0, -1.0 / h
    return J


def jet_columns(n: int) -> list:
    """P's columns of the jet arguments (q..., v..., S)."""
    return [*range(n), *range(n + 1, 2 * n + 1), n]


def _per_evaluator_jacobian(model: SimpleThermoModel, x, rates, h: float, constants) -> np.ndarray:
    """The exact Jacobian of the implicit step's residual
    z -> implicit_residual_P(z, (z - x0) / h) at z = x, whose backward
    rates are ``rates``, one numpy step at a time; ``constants`` holds
    the entries that no state moves (:func:`implicit_constants`). The
    generated step computes the entries of its rows with these
    operations (``dynamics._reduced_source``).

    The force-balance, entropy and momentum rows differentiate, through
    the jet columns (q, v, S), L's order-2 jet H (with s = dL/dS and
    its row ds) and the order-1 jets dF and dFext of friction and
    external force; the backward rates add s/h on p and F/h on lam to
    the force-balance rows, s/h on S and -F/h on q to the entropy row."""
    n = model.n
    q, S, v, W, p, lam = _arena_layout("P", n)[1].values()
    columns = jet_columns(n)
    _, g, H = _lagrangian_hessian(model, x[q], x[v], x[S])
    F, dF, Fext, dFext = _force_jets(model, x[q], x[v], x[S])
    s, ds = g[2 * n], H[2 * n]
    J = constants.copy()
    # (pdot - dL/dq - Fext) s + (lamdot - s) F
    J[:n, columns] = (
        (rates[lam] - s) * dF - s * (H[:n] + dFext) + (rates[p] - g[:n] - Fext - F)[:, None] * ds
    )
    np.fill_diagonal(J[:n, p], s / h)
    J[:n, lam] = F / h
    # s Sdot - <F, qdot>
    J[n, columns] = rates[S] * ds - rates[q] @ dF
    J[n, S] += s / h
    J[n, q] -= F / h
    # p - dL/dv
    J[n + 1 : 2 * n + 1, columns] = -H[n : 2 * n]
    return J


def _fold(terms):
    """The left-to-right float sum of terms, from the first."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def reduced_solve(J, r):
    """The implicit step's Newton increment J^-1 r as the generated step
    takes it (``dynamics._reduced_source`` and ``_increment_source``),
    from the full Jacobian J, a list of P's coordinates; None where the
    reduced matrix is not finite, and NewtonError on a zero pivot.

    The covariable, velocity, rate-slot and momentum rows each pivot on
    1 (on lam, v, W and p). Substituting dlam = r_lam, dv = r_v - J_vq dq,
    dW = r_W - J_WS dS and dp = r_p - J_p (dq, dv, dS) into the
    force-balance rows (J_ip p_i = s/h) and the entropy row leaves an
    (n + 1)-square system A on (dq, dS). It is solved by Gaussian
    elimination with partial pivoting, the pivot the first row of
    largest magnitude, rows swapped whole and multipliers stored in
    place; forward substitution adds the multipliers' terms in column
    order, back substitution in reverse column order. Every operation
    is one of the generated step's, in its order."""
    d = len(r)
    n = (d - 3) // 3
    m, jet = n + 1, jet_columns(n)
    J, r = np.asarray(J, dtype=float).tolist(), np.asarray(r, dtype=float).tolist()
    rp, rlam, rv, rW = [n + 1 + i for i in range(n)], 2 * n + 1, [2 * n + 2 + j for j in range(n)], 3 * n + 2
    cp, clam = [2 * n + 2 + i for i in range(n)], 3 * n + 2
    G = [[J[a][c] - J[a][cp[a]] * J[rp[a]][c] for c in jet] for a in range(n)] + [[J[n][c] for c in jet]]
    cv = [-J[rv[j]][j] for j in range(n)]  # 1/h
    A = [[G[a][j] + G[a][n + j] * cv[j] for j in range(n)] + [G[a][2 * n]] for a in range(m)]
    b = [r[a] - J[a][cp[a]] * r[rp[a]] - J[a][clam] * r[rlam] for a in range(n)] + [r[n]]
    for a in range(m):
        for j in range(n):
            b[a] = b[a] - G[a][n + j] * r[rv[j]]
    if not math.isfinite(sum(x for row in A for x in row)):
        return None
    for c in range(m):
        if c < n:
            p, big = c, abs(A[c][c])
            for i in range(c + 1, m):
                if abs(A[i][c]) > big:
                    p, big = i, abs(A[i][c])
            A[c], A[p], b[c], b[p] = A[p], A[c], b[p], b[c]
        if A[c][c] == 0.0:
            raise NewtonError("singular Jacobian in the implicit step")
        for i in range(c + 1, m):
            A[i][c] = A[i][c] / A[c][c]
            for j in range(c + 1, m):
                A[i][j] = A[i][j] - A[i][c] * A[c][j]
    for i in range(1, m):
        for j in range(i):
            b[i] = b[i] - A[i][j] * b[j]
    for i in reversed(range(m)):
        for j in reversed(range(i + 1, m)):
            b[i] = b[i] - A[i][j] * b[j]
        b[i] = b[i] / A[i][i]
    dv = [r[rv[j]] + cv[j] * b[j] for j in range(n)]
    dW = r[rW] + -J[rW][n] * b[n]
    dp = [r[rp[i]] + _fold([-J[rp[i]][c] * x for c, x in zip(jet, b[:n] + dv + b[n:])]) for i in range(n)]
    return [*b, *dv, dW, *dp, r[rlam]]


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
    iterate, and the numpy loop's step (:func:`implicit_reference_step`)
    for the implicit route's generated step. The reference functions are looked up at each call, so that
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
            "implicit-step": lambda *a: quiet(lambda: implicit_reference_step(model, a[:d], a[d : 2 * d], a[-1])),
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


def implicit_record(n: int, x, rates, L, rn, err) -> DiagnosticsRecord:
    """Diagnostics at the flat P row x, read through its groups, with L
    the Lagrangian at its (q, v, S), rn the residual's entropy row and
    err its largest magnitude."""
    point = ArenaPoint("P", n, x)
    energy = float(point.p @ point.v) + point.lam * point.W - L
    return _record(energy, point.S, float(rates[n]), float(rn), err)


# --- the reference for the implicit route's Newton loop -------------------
#
# integrate_implicit_P over numpy arrays: each iterate's residual through
# the public implicit_residual_P at the backward rates, np.abs(r).max() as
# its size, the step's full Jacobian (_per_evaluator_jacobian) at the
# predictor, the increment through reduced_solve, the snap
# p = momentum_map at the converged (q, v, S) and the per-state record of
# each stored row. The library's generated step must give its bits,
# errors and partial runs.


def implicit_reference_step(model, x0, rate, h: float):
    """One implicit step from the P row x0 with the last rate, with the
    generated step's answers (``dynamics._implicit_step_source``): (row,
    rate, (L, r[n], max |r|)), ``(err,)`` where the residual is still err
    after IMPLICIT_MAX_ITER increments, ``()`` where the run stops; a
    singular Jacobian raises NewtonError."""
    n = model.n
    x0 = np.asarray(x0, dtype=float)
    x1 = x0 + h * np.asarray(rate, dtype=float)
    J = None
    for iterate in range(IMPLICIT_MAX_ITER + 1):
        rate = (x1 - x0) / h
        r, L = dt.implicit_residual_P(model, ArenaPoint("P", n, x1), rate, with_value=True)
        err = np.abs(r).max()
        if err <= IMPLICIT_NEWTON_TOL:
            break
        if iterate == IMPLICIT_MAX_ITER:
            return (err,)
        if not math.isfinite(err):
            return ()
        if J is None:  # held for the step
            J = _per_evaluator_jacobian(model, x1, rate, h, implicit_constants(n, h))
        step = reduced_solve(J, r)
        if step is None:
            return ()
        x1 = x1 - step
        if not np.all(np.isfinite(x1)):
            return ()
    # snap p and lam exactly (Newton left them within tol); the rate and L are unmoved
    point = ArenaPoint("P", n, x1)
    point.p = dt.momentum_map(model, point.q, point.v, point.S)
    point.lam = 0.0
    return x1, rate, (L, r[n], err)


def implicit_reference(model, initial: ArenaPoint, t_end: float, h: float) -> dt.Trajectory:
    """The implicit route from ``initial`` as the numpy loop, a trajectory
    with plain (K, d) states and (K, 5) diagnostics rows."""
    if h <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and h must be positive")
    n = model.n
    p0 = dt.momentum_map(model, initial.q, initial.v, initial.S)
    if not (np.max(np.abs(initial.p - p0)) <= CONSISTENCY_TOL and abs(initial.lam) <= CONSISTENCY_TOL):
        raise dt.IntegrationError(
            "initial point is off the algebraic slice: momentum slots must "
            "carry dL/dv and the covariable must be zero"
        )

    K = max(1, int(round(t_end / h))) + 1
    x, rate = initial.as_vector(), dt.solution_pair_P(model, initial.q, initial.v, initial.S).tangent
    res0, L = dt.implicit_residual_P(model, initial, rate, with_value=True)
    states, rates, records = [x], [rate], [implicit_record(n, x, rate, L, res0[n], np.abs(res0).max())]

    def stored(completed: bool) -> dt.Trajectory:
        return dt.Trajectory(times=np.arange(len(states)) * h, states=np.array(states),
                             rates=np.array(rates), diagnostics=np.array(records), arena="P",
                             completed=completed)

    for _ in range(1, K):
        out = implicit_reference_step(model, x, rate, h)
        if len(out) < 3:
            if out:
                raise dt.NewtonError(
                    f"implicit step did not converge: residual {out[0]:.3e} "
                    f"after {IMPLICIT_MAX_ITER} iterations"
                )
            return stored(False)
        x, rate, kept = out
        states.append(x)
        rates.append(rate)
        records.append(implicit_record(n, x, rate, *kept))
    return stored(True)
