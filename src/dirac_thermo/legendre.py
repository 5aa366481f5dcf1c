"""Partial momentum transform in the mechanical variables and its uses.

The transform maps velocity to momentum at fixed (q, S): p = dL/dv.
When the velocity Hessian is well conditioned the map inverts (Newton),
giving the Hamiltonian picture; velocity-independent Lagrangians are
rejected with a distinct error and stay Lagrangian-side only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import duals
from .errors import ArenaError, DegenerateLagrangianError, NewtonError
from .model import (
    ArenaPoint,
    SimpleThermoModel,
    _as_array,
    _velocity_jet,
    arena_of_point,
    friction_value,
    lagrangian_jet,
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
    "lift_M_to_P",
    "momentum_map",
    "partial_legendre",
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
    """p = dL/dv at fixed (q, S); gradient over the velocity block only."""
    q = tuple(_as_array(q, model.n, "q"))
    S = float(S)

    def g(*vs):
        return model.lagrangian(q, vs, S)

    return np.array(duals.gradient(g, list(_as_array(v, model.n, "v"))))


def partial_legendre(model: SimpleThermoModel, q, v, S):
    """(q, v, S) -> (q, p, S) with p = dL/dv."""
    q = _as_array(q, model.n, "q")
    return q, momentum_map(model, q, v, S), float(S)


def inverse_partial_legendre(model: SimpleThermoModel, q, p, S, v0=None, with_jet=False):
    """Solve dL/dv(q, v, S) = p for v by Newton iteration.

    Seeds at v = 0 unless a warm start is supplied. Each iterate makes
    one jet of L, which gives the momentum residual and the velocity
    Hessian together. With ``with_jet`` the converged iterate's
    :func:`lagrangian_jet` is returned too, as ``(v, jet)``; the first
    iterate, which a warm start seldom converges on, seeds v alone, and
    only if it converges is a full jet made there. Raises
    DegenerateLagrangianError when the velocity Hessian is unusable
    (the velocity-independent case) and NewtonError on non-convergence.
    """
    if model.degenerate:
        raise DegenerateLagrangianError(
            f"model {model.name} has a velocity-independent Lagrangian; "
            "the momentum relation cannot be inverted"
        )
    n = model.n
    q = _as_array(q, n, "q")
    p = _as_array(p, n, "p")
    S = float(S)
    v = np.zeros(n) if v0 is None else _as_array(v0, n, "v0").copy()

    def evaluate(v, full):
        """(full jet or None, dL/dv, d2L/dv2) at the iterate v."""
        if full:
            jet = lagrangian_jet(model, q, v, S)
            return jet, jet[1], jet[3][:, n : 2 * n]
        return (None, *_velocity_jet(model, q, v, S))

    for k in range(NEWTON_MAX_ITER):
        jet, dLdv, H = evaluate(v, with_jet and k > 0)
        r = dLdv - p
        err = np.max(np.abs(r))  # NaN or inf for a non-finite residual
        if not math.isfinite(err):
            raise NewtonError(f"momentum residual became non-finite (model {model.name})")
        if err <= NEWTON_TOL:
            break
        if n == 1 and H[0, 0] != 0.0:
            step = r / H[0, 0]  # the 1 x 1 solve's bits, without the LAPACK round trip
        else:
            try:
                step = np.linalg.solve(H, r)
            except np.linalg.LinAlgError:
                raise DegenerateLagrangianError(
                    f"singular velocity Hessian at q={q}, S={S} (model {model.name})"
                )
        v = v - step
    else:
        jet, dLdv, _ = evaluate(v, with_jet)
        r = dLdv - p
        if not np.max(np.abs(r)) <= NEWTON_TOL:
            raise NewtonError(
                f"momentum inversion did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {np.max(np.abs(r)):.3e}, model {model.name})"
            )
    if not with_jet:
        return v
    return v, (lagrangian_jet(model, q, v, S) if jet is None else jet)


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


def hamiltonian_partials(model: SimpleThermoModel, q, p, S, v0=None) -> HamiltonianPartials:
    """First partials of H at (q, p, S).

    Stationarity of <p, v> - L in v at the inverted velocity removes
    every velocity-sensitivity term, so dH/dq = -dL/dq, dH/dp = v,
    dH/dS = -dL/dS, all read off the converged fiber iterate's jet.
    """
    v, (dLdq, _, dLdS, _) = inverse_partial_legendre(model, q, p, S, v0=v0, with_jet=True)
    return HamiltonianPartials(dq=-dLdq, dp=v.copy(), dS=-dLdS, velocity=v)


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
    v, (_, dLdv, dLdS, Lv) = inverse_partial_legendre(model, q, p, S, v0=v0, with_jet=True)
    dvdS = np.linalg.solve(Lv[:, n : 2 * n], -Lv[:, 2 * n])
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


def lift_M_to_P(point: ArenaPoint, Sdot: float) -> ArenaPoint:
    """Attach the entropy-rate slot (W = Sdot) and a zero covariable."""
    if arena_of_point(point) != "M":
        raise ArenaError(f"lift_M_to_P expects an M-arena point, got one on {point.arena}")
    return make_point("P", point.n, q=point.q, S=point.S, v=point.v, W=Sdot, p=point.p, lam=0.0)


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
