"""Partial momentum transform in the mechanical variables and its uses.

The transform maps velocity to momentum at fixed (q, S): p = dL/dv.
When the velocity Hessian is well conditioned the map inverts (Newton),
giving the Hamiltonian picture; velocity-independent Lagrangians are
rejected with a distinct error and stay Lagrangian-side only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .duals import _unpacker
from .errors import ArenaError, DegenerateLagrangianError
from .model import (
    ArenaPoint,
    SimpleThermoModel,
    _as_array,
    _bind,
    _fused,
    _jet_parts,
    _kernel_source,
    _lagrangian_first_order,
    _solve,
    _solve_source,
    _tuple,
    _velocity_jet,
    arena_of_point,
    friction_value,
    lagrangian_value,
    make_point,
    temperature,
)

__all__ = [
    "HamiltonianModel",
    "HamiltonianPartials",
    "build_hamiltonian_model",
    "embed_jL",
    "generalized_energy",
    "hamiltonian",
    "hamiltonian_S_derivative",
    "inverse_partial_legendre",
    "momentum_map",
    "temperature_and_friction_N",
]

# Newton settings; the residual is on the momentum mismatch, absolute.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# Hamiltonian gate: domain samples, their seed, and the limits they must meet.
GATE_SAMPLES = 25
GATE_SEED = 0
GATE_COND_LIMIT = 1e8
GATE_ROUNDTRIP_TOL = 1e-10


def momentum_map(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    """p = dL/dv, read off L's order-1 jet."""
    return _lagrangian_first_order(model, q, v, S)[2]


def inverse_partial_legendre(model: SimpleThermoModel, q, p, S, v0=None, with_jet=False):
    """Solve dL/dv(q, v, S) = p for v by Newton iteration.

    Seeds at v = 0 unless a warm start is supplied. Each iterate is the
    model's fused fiber iterate (:func:`_fiber_source`), whose one
    order-2 jet of L gives the momentum residual and the velocity
    Hessian together. With ``with_jet`` the converged iterate's jet is
    returned too, as ``(v, jet)``, split as :func:`lagrangian_jet`
    splits it. Raises DegenerateLagrangianError when the velocity
    Hessian is unusable (the velocity-independent case) and NewtonError
    on non-convergence.

    The loop runs on the iterate's fast binding, compiled here once L's
    order-2 jet is traced; where one of its guards fails, or before, the
    whole solve runs on the strict binding, which gives the same bits
    and raises the errors.
    """
    _invertible(model)
    n = model.n
    q = _as_array(q, n, "q")
    p = _as_array(p, n, "p")
    S = float(S)
    v = np.zeros(n) if v0 is None else _as_array(v0, n, "v0").copy()
    solved = _newton(model, _fused(model, "fiber", _build_fiber), q, p, S, v)
    if solved is None:
        solved = _newton(model, _fused(model, "fiber", _build_fiber, strict=True), q, p, S, v)
    return solved if with_jet else solved[0]


def _invertible(model: SimpleThermoModel) -> None:
    if model.degenerate:
        raise DegenerateLagrangianError(
            f"model {model.name} has a velocity-independent Lagrangian; "
            "the momentum relation cannot be inverted"
        )


def _newton(model: SimpleThermoModel, iterate, q, p, S: float, v):
    """(v, jet): the Newton loop over the fiber iterate from v, the jet
    read off the converged iterate's flat order-2 jet of L; None without
    an iterate or where a guard of the fast binding failed. The
    evaluation past the last step carries the iteration limit."""
    if iterate is None:
        return None
    n = model.n
    args, p = [*q.tolist(), *v.tolist(), S], p.tolist()
    for i in range(NEWTON_MAX_ITER + 1):
        out = iterate(*args, *p, NEWTON_TOL, NEWTON_MAX_ITER if i == NEWTON_MAX_ITER else 0)
        if out is None:
            return None
        step, o = out
        if o is not None:
            return np.array(args[n : 2 * n]), _jet_parts(n, *_unpacker(2 * n + 1, None, 2)(o))
        args[n : 2 * n] = step
    return None


@lru_cache(maxsize=None)
def _fiber_source(n: int) -> str:
    """One fused Newton iterate at n. Its arguments are q, v, S, p, the
    tolerance and the iteration limit, which is 0 but at the evaluation
    past the last step; it gives (None, o) where the momentum residual
    is within the tolerance, o the flat output of L's order-2 replay at
    (q, v, S), and (the next v, None) otherwise. A residual that is not
    finite, one above the tolerance with the limit, and a singular
    velocity Hessian are guard sites. The Newton step at n > 1 is
    r_i / L_vv[i][i] by rule D where the velocity Hessian is diagonal
    and no r_i is zero, else LAPACK's solve (see
    :func:`model._solve_source`). The inversion and the momentum-side
    work kernel both loop over it."""
    k = 2 * n + 1
    r, t = [f"r{i}" for i in range(n)], [f"t{i}" for i in range(n)]
    err = f"max({', '.join(f'abs({x})' for x in r)})" if n > 1 else f"abs({r[0]})"
    at = ", ".join([f"a{i}" for i in range(n)] + [f"a{2 * n}"])  # (q..., S), for the singular site's message
    body = [
        f"o = L2({', '.join(f'a{i}' for i in range(k))})",
        "if not _finite(sum(o)) and _fail(): return None",
        *[f"r{i} = o[{1 + n + i}] - p{i}" for i in range(n)],
        f"if not _finite({' + '.join(r)}) and _fail('residual', limit, {', '.join(r)}): return None",
        f"if {err} <= tol: return None, o",
        f"if limit and _fail('limit', limit, {', '.join(r)}): return None",
        *_solve_source([f"o[{1 + k + (n + i) * k + n + j}]" for i in range(n) for j in range(n)], r, t,
                       f"_fail('fiber', {at})"),
        *[f"t{i} = a{n + i} - t{i}" for i in range(n)],
        f"if not _finite({' + '.join(t)}) and _fail(): return None",
        f"return {_tuple(t)}, None",
    ]
    params = [f"a{i}" for i in range(k)] + [f"p{i}" for i in range(n)] + ["tol", "limit=0"]
    return _kernel_source(params, body)


def _build_fiber(model: SimpleThermoModel, strict: bool = False):
    _invertible(model)
    return _bind(model, _fiber_source(model.n), {"L2": ("lagrangian", 2)}, strict)


def hamiltonian(model: SimpleThermoModel, q, p, S, v0=None) -> float:
    """H(q, p, S) = <p, v> - L(q, v, S) at the inverted velocity."""
    q = _as_array(q, model.n, "q")
    p = _as_array(p, model.n, "p")
    v = inverse_partial_legendre(model, q, p, S, v0=v0)
    return float(p @ v - lagrangian_value(model, q, v, S))


class HamiltonianPartials(NamedTuple):
    dq: np.ndarray
    dp: np.ndarray
    dS: float
    velocity: np.ndarray
    L: float  # the Lagrangian at the inverted velocity: H = <p, v> - L


def hamiltonian_partials(model: SimpleThermoModel, q, p, S, v0=None) -> HamiltonianPartials:
    """First partials of H at (q, p, S).

    Stationarity of <p, v> - L in v at the inverted velocity removes
    every velocity-sensitivity term, so dH/dq = -dL/dq, dH/dp = v,
    dH/dS = -dL/dS, all read off the converged fiber iterate's jet, as
    is L itself.
    """
    v, (L, dLdq, _, dLdS, _) = inverse_partial_legendre(model, q, p, S, v0=v0, with_jet=True)
    return HamiltonianPartials(dq=-dLdq, dp=v.copy(), dS=-dLdS, velocity=v, L=L)


def hamiltonian_S_derivative(model: SimpleThermoModel, q, p, S, v0=None) -> float:
    """dH/dS assembled from the implicit velocity sensitivity.

    Full chain rule: the entropy derivative of the inverted velocity is
    solved from the velocity Hessian and the mixed second partial
    d2L/dv dS, and every term is kept. Exists so tests can compare an
    independent route against the shortcut in
    :func:`hamiltonian_partials`. Everything is read off the converged
    fiber iterate's jet.
    """
    n = model.n
    p = _as_array(p, n, "p")
    v, (_, _, dLdv, dLdS, Lv) = inverse_partial_legendre(model, q, p, S, v0=v0, with_jet=True)
    dvdS = _solve(Lv[:, n : 2 * n], -Lv[:, 2 * n])
    return float(p @ dvdS - dLdv @ dvdS - dLdS)


def temperature_and_friction_N(model: SimpleThermoModel, q, p, S, v0=None):
    """Temperature and friction covector re-expressed over (q, p, S)."""
    q = _as_array(q, model.n, "q")
    p = _as_array(p, model.n, "p")
    v = inverse_partial_legendre(model, q, p, S, v0=v0)
    return temperature(model, q, v, S), friction_value(model, q, v, S)


def embed_jL(model: SimpleThermoModel, point: ArenaPoint, v0=None) -> ArenaPoint:
    """Fiber-preserving embedding (q, S, p) -> (q, S, v(q, p, S), p)."""
    if arena_of_point(point) != "N":
        raise ArenaError(f"embed_jL expects an N-arena point, got one on {point.arena}")
    v = inverse_partial_legendre(model, point.q, point.p, point.S, v0=v0)
    return make_point("M", point.n, q=point.q, S=point.S, v=v, p=point.p)


def generalized_energy(arena: str, model: SimpleThermoModel, point) -> float:
    """<p, v> - L plus, on the full arena, the lam * W pairing term."""
    if arena not in ("P", "M"):
        raise ArenaError(f"generalized energy is defined on arenas P and M, not {arena!r}")
    if arena_of_point(point) != arena:
        raise ArenaError(f"point on arena {point.arena!r} does not live on arena {arena!r}")
    base = float(point.p @ point.v) - lagrangian_value(model, point.q, point.v, point.S)
    if arena == "P":
        base += point.lam * point.W
    return base


@dataclass(frozen=True)
class HamiltonianModel:
    """A model checked usable on the momentum side."""

    source: SimpleThermoModel


def build_hamiltonian_model(model: SimpleThermoModel) -> HamiltonianModel:
    """Gate a model into the Hamiltonian picture.

    Invertibility of the momentum relation is checked empirically:
    velocity-Hessian condition numbers and momentum round trips on
    domain samples. Failure means the model only supports the
    Lagrangian-side formulations, reported as a distinct error.
    """
    if model.degenerate:
        raise DegenerateLagrangianError(
            f"model {model.name} is flagged velocity-independent; "
            "no Hamiltonian picture exists"
        )
    rng = np.random.default_rng(GATE_SEED)
    for _ in range(GATE_SAMPLES):
        q, v, S = model.domain_box.sample(rng)
        p, H = _velocity_jet(model, q, v, S)
        cond = np.linalg.cond(H)
        if not np.isfinite(cond) or cond >= GATE_COND_LIMIT:
            raise DegenerateLagrangianError(
                f"velocity Hessian condition number {cond:.3e} at a domain sample "
                f"exceeds {GATE_COND_LIMIT:.1e} (model {model.name})"
            )
        v_back = inverse_partial_legendre(model, q, p, S)
        if np.max(np.abs(v_back - v)) > GATE_ROUNDTRIP_TOL:
            raise DegenerateLagrangianError(
                f"momentum round trip missed by {np.max(np.abs(v_back - v)):.3e} "
                f"(model {model.name})"
            )
    return HamiltonianModel(source=model)
