"""Shipped example systems: gas piston, two-reservoir membrane, reactions.

Each builder validates its parameter record, wires evaluators that are
generic over plain, dual and jet scalars, and attaches closed-form reference
quantities under ``model.meta`` for tests and checks. The core
algorithms never read ``meta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import duals
from .errors import ModelBuildError
from .model import DomainBox, SimpleThermoModel

__all__ = [
    "GAS_CONSTANT",
    "MembraneParams",
    "PistonParams",
    "ReactionParams",
    "build_membrane",
    "build_piston",
    "build_reactions",
]

GAS_CONSTANT = 8.314  # J/(mol K)


# --- piston ---------------------------------------------------------------


@dataclass(frozen=True)
class PistonParams:
    """One-dimensional gas piston: kinetic energy minus internal energy
    of a perfect gas at fixed mole number, friction linear in velocity.

    Units are SI throughout: m kg, A m^2, N0 mol, U0 J, S0 J/K, V0 m^3.
    c is the dimensionless heat-capacity factor (3/2 for a monoatomic
    gas). lam is the friction coefficient, a constant or an evaluator
    (x, S) -> coefficient >= 0.
    """

    m: float = 1.0
    A: float = 1.0
    N0: float = 1.0
    c: float = 1.5
    R: float = GAS_CONSTANT
    U0: float = 100.0
    S0: float = 0.0
    V0: float = 1.0
    lam: Union[float, Callable] = 1.0
    x_range: tuple = (0.5, 2.0)
    v_range: tuple = (-2.0, 2.0)
    s_range: tuple = (-2.0, 2.0)


def build_piston(params: Optional[PistonParams] = None) -> SimpleThermoModel:
    """Perfect-gas piston with internal energy

        U(x, S) = U0 * exp((S - S0)/(c N0 R)) * (V0 / (A x))**(1/c),

    so that pressure * volume = N0 R T holds identically. Friction
    -lam(x, S) * xdot feeds dissipated power into the entropy."""
    P = params or PistonParams()
    for name in ("m", "A", "N0", "R", "U0", "V0"):
        if not getattr(P, name) > 0.0:
            raise ModelBuildError(f"piston parameter {name} must be positive")
    if not P.c > 0.0:
        raise ModelBuildError("piston parameter c must be positive")
    for name in ("x_range", "v_range", "s_range"):
        lo, hi = getattr(P, name)
        if not lo < hi:
            raise ModelBuildError(f"piston {name} must satisfy lo < hi, got {lo} >= {hi}")

    lam = P.lam if callable(P.lam) else (lambda x, S, _l=float(P.lam): _l)
    if not callable(P.lam) and P.lam < 0.0:
        raise ModelBuildError("piston friction coefficient lam must be >= 0")

    cNR = P.c * P.N0 * P.R
    # constant subexpressions, hoisted out of the hot evaluators (same values)
    U0, S0, V0, A, half_m, inv_c = P.U0, P.S0, P.V0, P.A, 0.5 * P.m, 1.0 / P.c

    def internal_energy(x, S):
        return U0 * duals.exp((S - S0) / cNR) * (V0 / (A * x)) ** inv_c

    def lagrangian(q, v, S):
        return half_m * v[0] * v[0] - internal_energy(q[0], S)

    def friction(q, v, S):
        return (-lam(duals.value(q[0]), duals.value(S)) * v[0],)

    def pressure(x, S):
        # -dU/dV with V = A x
        return internal_energy(x, S) / (P.c * P.A * x)

    def temperature_closed(x, S):
        # dU/dS of the formula above
        return internal_energy(x, S) / cNR

    box = DomainBox(
        q_lo=(P.x_range[0],),
        q_hi=(P.x_range[1],),
        v_lo=(P.v_range[0],),
        v_hi=(P.v_range[1],),
        s_lo=P.s_range[0],
        s_hi=P.s_range[1],
    )
    # friction coefficient must be nonnegative across the box
    for x in np.linspace(*P.x_range, 7):
        for S in np.linspace(*P.s_range, 7):
            if lam(float(x), float(S)) < 0.0:
                raise ModelBuildError(
                    f"piston friction coefficient is negative at x={x}, S={S}"
                )
    return SimpleThermoModel(
        n=1,
        lagrangian=lagrangian,
        friction=friction,
        domain_box=box,
        name="piston",
        meta={
            "params": P,
            "internal_energy": internal_energy,
            "pressure": pressure,
            "temperature": temperature_closed,
        },
    )


# --- membrane -------------------------------------------------------------


@dataclass(frozen=True)
class MembraneParams:
    """Two gas reservoirs exchanging matter through a porous membrane.

    Configuration order is (w1, w2, wm): transferred amounts for the two
    reservoirs and the membrane itself; their rates are the chemical
    potentials. The thermodynamic driving potential is the strictly
    convex toy

        Phi(S, mu) = T0 S + 1/2 sum_k a_k mu_k^2 - sum_k Nbar_k mu_k,

    and the transport law is linear in potential differences with
    coefficients L1, L2 >= 0.
    """

    T0: float = 300.0
    a: tuple = (1.0, 1.0, 1.0)
    Nbar: tuple = (10.0, 10.0, 10.0)
    L1: float = 0.2
    L2: float = 0.2
    w_range: tuple = (-1.0, 1.0)
    mu_range: tuple = (-1.0, 1.0)
    s_range: tuple = (0.0, 5.0)


def build_membrane(params: Optional[MembraneParams] = None) -> SimpleThermoModel:
    """Membrane transport model; Lagrangian is minus the potential with
    velocities in the chemical-potential slots, so momenta are mole
    numbers N_k = Nbar_k - a_k * mu_k."""
    P = params or MembraneParams()
    if len(P.a) != 3 or len(P.Nbar) != 3:
        raise ModelBuildError("membrane needs three a and three Nbar entries")
    if any(a <= 0.0 for a in P.a):
        raise ModelBuildError("membrane convexity coefficients a must be positive")
    if P.L1 < 0.0 or P.L2 < 0.0:
        raise ModelBuildError("membrane transport coefficients must be >= 0")
    if not P.T0 > 0.0:
        raise ModelBuildError("membrane reference temperature T0 must be positive")

    a = tuple(float(x) for x in P.a)
    Nbar = tuple(float(x) for x in P.Nbar)

    def lagrangian(q, v, S):
        # q = (w1, w2, wm) unused by the potential; v = (mu1, mu2, mum)
        out = -P.T0 * S
        for k in range(3):
            out = out - 0.5 * a[k] * v[k] * v[k] + Nbar[k] * v[k]
        return out

    def fluxes(v):
        mu1, mu2, mum = v
        J1 = P.L1 * (mum - mu1)
        J2 = P.L2 * (mu2 - mum)
        return J1, J2

    def friction(q, v, S):
        J1, J2 = fluxes(v)
        return (J1, -J2, J2 - J1)

    def moles(v):
        return np.array([Nbar[k] - a[k] * duals.value(v[k]) for k in range(3)])

    def internal_energy_N(S, N):
        return P.T0 * float(S) - sum(
            (Nbar[k] - float(N[k])) ** 2 / (2.0 * a[k]) for k in range(3)
        )

    box = DomainBox(
        q_lo=(P.w_range[0],) * 3,
        q_hi=(P.w_range[1],) * 3,
        v_lo=(P.mu_range[0],) * 3,
        v_hi=(P.mu_range[1],) * 3,
        s_lo=P.s_range[0],
        s_hi=P.s_range[1],
    )
    return SimpleThermoModel(
        n=3,
        lagrangian=lagrangian,
        friction=friction,
        domain_box=box,
        name="membrane",
        meta={
            "params": P,
            "fluxes": fluxes,
            "moles": moles,
            "total_moles": lambda v: float(np.sum(moles(v))),
            "internal_energy_N": internal_energy_N,
        },
    )


# --- chemical reactions -----------------------------------------------------


@dataclass(frozen=True)
class ReactionParams:
    """Reacting mixture in a closed vessel at fixed volume.

    nu is the (reactions x species) net stoichiometry matrix, masses the
    molecular weights. Mole numbers follow the progress variables:
    N_I = N_init_I + sum_a nu[a, I] psi_a. The default internal energy
    is the quadratic toy T0 S + 1/2 sum_I (N_I - N_star_I)^2, which has
    a closed-form relaxation for a single reaction. lam_matrix couples
    rates to driving forces; its symmetric part must be positive
    definite.
    """

    nu: tuple = ((-1.0, 1.0),)
    masses: tuple = (1.0, 1.0)
    N_star: tuple = (1.0, 1.0)
    N_init: tuple = (2.0, 0.5)
    lam_matrix: tuple = ((2.0,),)
    T0: float = 300.0
    internal_energy: Optional[Callable] = None
    psi_range: tuple = (-0.2, 1.2)
    rate_range: tuple = (-1.0, 1.0)
    s_range: tuple = (0.0, 5.0)


def build_reactions(params: Optional[ReactionParams] = None) -> SimpleThermoModel:
    """Reaction-network model; the Lagrangian is minus the internal
    energy and carries no rate dependence, so the model is flagged
    degenerate and only supports the velocity-side formulations."""
    P = params or ReactionParams()
    nu = np.asarray(P.nu, dtype=float)
    masses = np.asarray(P.masses, dtype=float)
    if nu.ndim != 2:
        raise ModelBuildError("stoichiometry nu must be a (reactions x species) matrix")
    r, n_species = nu.shape
    if masses.shape != (n_species,):
        raise ModelBuildError("masses must have one entry per species")
    if not P.T0 > 0.0:
        raise ModelBuildError("reference temperature T0 must be positive")
    mass_balance = nu @ masses
    if np.max(np.abs(mass_balance)) > 1e-12:
        raise ModelBuildError(
            f"stoichiometry violates mass conservation: nu @ masses = {mass_balance}"
        )
    lam = np.asarray(P.lam_matrix, dtype=float)
    if lam.shape != (r, r):
        raise ModelBuildError(f"lam_matrix must be {r}x{r}")
    sym_eigs = np.linalg.eigvalsh(0.5 * (lam + lam.T))
    if np.min(sym_eigs) <= 0.0:
        raise ModelBuildError(
            f"symmetric part of lam_matrix must be positive definite "
            f"(eigenvalues {sym_eigs})"
        )
    N_init = np.asarray(P.N_init, dtype=float)
    N_star = np.asarray(P.N_star, dtype=float)
    if N_init.shape != (n_species,) or N_star.shape != (n_species,):
        raise ModelBuildError("N_init and N_star must have one entry per species")

    if P.internal_energy is not None:
        internal_energy = P.internal_energy
    else:

        def internal_energy(S, N):
            out = P.T0 * S
            for I in range(n_species):
                dN = N[I] - N_star[I]
                out = out + 0.5 * dN * dN
            return out

    def moles(psi):
        return tuple(
            N_init[I] + sum(nu[a, I] * psi[a] for a in range(r))
            for I in range(n_species)
        )

    def lagrangian(q, v, S):
        return -internal_energy(S, moles(q))

    def friction(q, v, S):
        return tuple(-sum(lam[a, b] * v[b] for b in range(r)) for a in range(r))

    box = DomainBox(
        q_lo=(P.psi_range[0],) * r,
        q_hi=(P.psi_range[1],) * r,
        v_lo=(P.rate_range[0],) * r,
        v_hi=(P.rate_range[1],) * r,
        s_lo=P.s_range[0],
        s_hi=P.s_range[1],
    )
    meta = {"params": P, "moles": moles, "internal_energy": internal_energy}
    if r == 1 and P.internal_energy is None:
        # single quadratic reaction relaxes exponentially toward the
        # point where the affinity vanishes; keep the closed form handy
        nn = float(nu[0] @ nu[0])
        drive = float(nu[0] @ (N_init - N_star))
        meta["psi_eq"] = -drive / nn if nn else 0.0
        meta["relaxation_rate"] = nn / float(lam[0, 0])
        meta["closed_form_psi"] = (
            lambda t, _eq=meta["psi_eq"], _k=meta["relaxation_rate"]: _eq
            * (1.0 - np.exp(-_k * np.asarray(t)))
        )
    return SimpleThermoModel(
        n=r,
        lagrangian=lagrangian,
        friction=friction,
        domain_box=box,
        name="reactions",
        degenerate=True,
        meta=meta,
    )
