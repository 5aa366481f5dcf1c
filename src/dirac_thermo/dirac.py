"""Constraint evaluation and induced Dirac subspaces on the four arenas.

Everything here is linear algebra at a frozen base point: the admissible
variations, their annihilator, the symmetric double pairing on tangent
plus covector data, and the stacked linear conditions that cut out the
induced subspace per arena. One assembly routine produces the condition
matrix; membership residuals and the numerical basis both come from it,
so the two can never disagree about which subspace is meant.

Condition stacks, in residual row order (s = dL/dS at the point's own
velocity; T and the re-expressed friction are taken at the inverted
velocity on the momentum-side arenas):

    P:      [(pdot + a) s + (lamdot + tS) F | s Sdot - <F, qdot>
             | b | Y | u - qdot | Psi - Sdot]
    M:      [(pdot + a) s + tS F | s Sdot - <F, qdot> | b | u - qdot]
    TstarQ: [(pdot + a) T - (lamdot + tS) F | T Sdot + <F, qdot>
             | u - qdot | Psi - Sdot]
    N:      [(pdot + a) T - tS F | T Sdot + <F, qdot> | u - qdot]

where a covector is split per arena order into (a, tS, ...) blocks: a on
the configuration slots, tS on the entropy slot, then one block per
remaining coordinate group (b for velocity, Y for the rate slot, u for
momentum, Psi for the covariable slot).

Only the P stack is written out; its row i is the condition on P slot
i. Every other stack is the P stack cut to the arena's slots
(``model.arena_slots``), rows and columns alike, so dropping the lamdot
column turns P's force rows into M's. On the momentum side the stack is
built with s = -T and its n + 1 force and entropy rows are negated. The
cut is made once per (arena, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ArenaError,
    BaseMismatchError,
    DimensionMismatchError,
    DiracThermoError,
    TemperatureSignError,
)
from .legendre import temperature_and_friction_N
from .model import (
    ArenaPoint,
    SimpleThermoModel,
    TangentCovectorPair,
    _arena_layout,
    _as_array,
    arena_of_point,
    arena_slots,
    entropy_slope,
    friction_value,
)

__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "DiracBasis",
    "annihilator_residual",
    "annihilator_row",
    "canonical_one_form",
    "condition_matrix",
    "dirac_basis",
    "dirac_membership",
    "double_pairing",
    "phenomenological_constraint_residual",
    "presymplectic_pairing",
    "variational_constraint_residual",
]

DEFAULT_MEMBERSHIP_TOL = 1e-9


# --- constraint layer --------------------------------------------------


def variational_constraint_residual(model: SimpleThermoModel, q, v, S, dq, dS) -> float:
    """dL/dS * dS - <F(q,v,S), dq>; zero exactly on admissible variations."""
    dq = _as_array(dq, model.n, "dq")
    s = entropy_slope(model, q, v, S)
    F = friction_value(model, q, v, S)
    return float(s * float(dS) - F @ dq)


def phenomenological_constraint_residual(model: SimpleThermoModel, q, v, S, Sdot) -> float:
    """The same relation imposed on actual rates: variations -> (v, Sdot).

    Delegates to the variational form so the two stay bitwise equal.
    """
    return variational_constraint_residual(model, q, v, S, dq=v, dS=Sdot)


def annihilator_row(model: SimpleThermoModel, q, v, S) -> np.ndarray:
    """The single row [-F | dL/dS] whose kernel is the admissible set.

    Covectors annihilating every admissible variation are exactly the
    scalar multiples of this row read as (a, tS) = (-F, dL/dS).
    """
    s = entropy_slope(model, q, v, S)
    F = friction_value(model, q, v, S)
    return np.concatenate([-F, [s]])


def annihilator_residual(model: SimpleThermoModel, q, v, S, alpha, tS) -> np.ndarray:
    """n-vector a * dL/dS + tS * F; zero iff (a, tS) annihilates the
    admissible variations."""
    alpha = _as_array(alpha, model.n, "alpha")
    s = entropy_slope(model, q, v, S)
    F = friction_value(model, q, v, S)
    return alpha * s + float(tS) * F


# --- pairings ------------------------------------------------------------


def _require_same_base(pair1: TangentCovectorPair, pair2: TangentCovectorPair):
    a1, a2 = pair1.arena, pair2.arena
    if a1 != a2:
        raise BaseMismatchError(f"pairs live on different arenas: {a1} vs {a2}")
    if not np.array_equal(pair1.base.row, pair2.base.row):
        raise BaseMismatchError("pairs are anchored at different base points")


def double_pairing(pair1: TangentCovectorPair, pair2: TangentCovectorPair) -> float:
    """Symmetric pairing <cov2, tan1> + <cov1, tan2> on the doubled fiber."""
    _require_same_base(pair1, pair2)
    t1 = np.asarray(pair1.tangent, dtype=float)
    t2 = np.asarray(pair2.tangent, dtype=float)
    c1 = np.asarray(pair1.covector, dtype=float)
    c2 = np.asarray(pair2.covector, dtype=float)
    if t1.shape != t2.shape or c1.shape != c2.shape or t1.shape != c1.shape:
        raise DimensionMismatchError("pairing requires equal-length tangents and covectors")
    return float(c2 @ t1 + c1 @ t2)


def canonical_one_form(arena: str, point) -> np.ndarray:
    """Coefficients of the tautological one-form in the arena's flat order.

    Configuration slots carry the momentum, the entropy slot carries the
    covariable on the arenas that have one, and every remaining slot is
    zero. The two-form used below is minus its exterior derivative.
    """
    if arena_of_point(point) != arena:
        raise ArenaError(f"point on arena {point.arena!r} is not on arena {arena!r}")
    n = point.n
    theta = ArenaPoint("P", n, np.zeros(3 * n + 3))  # p dq + lam dS in P's order
    theta.q, theta.S = point.p, getattr(point, "lam", 0.0)
    return theta.row[arena_slots(arena, n)]


def presymplectic_pairing(arena: str, point, tangent1, tangent2) -> float:
    """Evaluate the arena's closed two-form on two tangent vectors.

    On the two larger arenas the form pairs configuration with momentum
    and entropy with its covariable; on the reduced arenas only the
    configuration-momentum block survives, so the form is degenerate.
    """
    if arena_of_point(point) != arena:
        raise ArenaError(f"point on arena {point.arena!r} is not on arena {arena!r}")
    n = point.n
    slots = arena_slots(arena, n)
    # P's form on the tangents placed at the arena's slots, zero elsewhere
    t1, t2 = (ArenaPoint("P", n, row) for row in np.zeros((2, 3 * n + 3)))
    t1.row[slots] = _as_array(tangent1, slots.size, "tangent1")
    t2.row[slots] = _as_array(tangent2, slots.size, "tangent2")
    out = float(t1.q @ t2.p - t1.p @ t2.q)
    return float(out + (t1.S * t2.lam - t1.lam * t2.S))


# --- induced subspace ----------------------------------------------------


def _point_coefficients(arena: str, model: SimpleThermoModel, point):
    """(coefficient on the entropy slope or temperature, friction covector)
    entering the arena's conditions, evaluated per the arena's convention."""
    if arena in ("TstarQ", "N"):
        return temperature_and_friction_N(model, point.q, point.p, point.S)
    s = entropy_slope(model, point.q, point.v, point.S)  # P and M
    if s == 0.0 or not np.isfinite(s):
        raise TemperatureSignError(
            f"entropy slope dL/dS = {s!r} at the base point; the induced "
            "subspace is not defined there"
        )
    return s, friction_value(model, point.q, point.v, point.S)


def _pontryagin_conditions(n: int, coef: float, F: np.ndarray) -> np.ndarray:
    """The P stack; row i is the condition attached to P slot i."""
    slots, at = _arena_layout("P", n)  # P's slots 0..d-1, each group's place among them
    d = slots.size
    q, S, v, W, p, lam = (slots[at[g]] for g in ("q", "S", "v", "W", "p", "lam"))
    A = np.zeros((d, 2 * d))
    A[q, p] = A[q, d + q] = coef  # rate rows: (pd + a) coef + (ld + tS) F
    A[q, lam] = A[q, d + S] = F
    A[S, S] = coef  # entropy row: coef Sd - <F, qd>
    A[S, q] = -F
    A[v, d + v] = 1.0  # b = 0
    A[W, d + W] = 1.0  # Y = 0
    A[p, d + p] = 1.0  # u = qd
    A[p, q] = -1.0
    A[lam, d + lam] = 1.0  # Psi = Sd
    A[lam, S] = -1.0
    return A


@lru_cache(maxsize=None)
def _arena_conditions(arena: str, n: int):
    """(A0, Ac, AF) with the arena's condition matrix equal to
    A0 + coef Ac + F @ AF, cut from the P stack once per (arena, n).

    The stack is affine in (coef, F) and no entry holds more than one
    term, so the sum reproduces each entry exactly.
    """
    slots, at = _arena_layout(arena, n)
    block = np.ix_(slots, np.concatenate([slots, 3 * n + 3 + slots]))
    # momentum side: s = -T, then negate the force (q) and entropy (S) rows
    sign = -1.0 if arena in ("TstarQ", "N") else 1.0
    flip = np.ones((slots.size, 1))
    flip[at["q"]] = flip[at["S"]] = sign

    def cut(coef, F):
        # + 0.0 clears the flip's -0.0 entries; dirac_basis's SVD sees zero signs
        return flip * _pontryagin_conditions(n, coef, F)[block] + 0.0

    A0 = cut(0.0, np.zeros(n))
    Ac = cut(sign, np.zeros(n)) - A0
    AF = np.array([(cut(0.0, e) - A0).ravel() for e in np.eye(n)])
    return A0, Ac, AF


def _conditions(arena: str, n: int, coef: float, F: np.ndarray) -> np.ndarray:
    """The arena's condition matrix at the coefficient (entropy slope or
    temperature) ``coef`` and the friction covector ``F``."""
    A0, Ac, AF = _arena_conditions(arena, n)
    return A0 + coef * Ac + (F @ AF).reshape(A0.shape)


def condition_matrix(arena: str, model: SimpleThermoModel, point) -> np.ndarray:
    """The d x 2d matrix whose kernel is the induced subspace at ``point``,
    acting on stacked (tangent, covector) coordinates. A non-finite
    coefficient or friction covector at the point raises
    :class:`DiracThermoError` before the matrix is built."""
    if arena_of_point(point) != arena:
        raise ArenaError(f"point on arena {point.arena!r} is not on arena {arena!r}")
    n = model.n
    if point.n != n:
        raise DimensionMismatchError(
            f"point has {point.n} configuration coordinates, model has {n}"
        )
    coef, F = _point_coefficients(arena, model, point)
    if not (np.isfinite(coef) and np.isfinite(F).all()):
        raise DiracThermoError(
            f"conditions on {arena} are not finite at this point "
            f"(coefficient {coef!r}, friction {F})"
        )
    return _conditions(arena, n, coef, F)


def dirac_membership(
    arena: str, model: SimpleThermoModel, pair: TangentCovectorPair
) -> np.ndarray:
    """Stacked residual of the arena's conditions on the pair's (tangent,
    covector). Zero residual, up to tolerance, means the element belongs
    to the induced subspace at the pair's base point."""
    if pair.arena != arena:
        raise ArenaError(f"pair lives on arena {pair.arena!r}, membership asked for {arena!r}")
    pair = pair.validated(model.n)
    A = condition_matrix(arena, model, pair.base)
    return A @ np.concatenate([pair.tangent, pair.covector])


@dataclass(frozen=True)
class DiracBasis:
    """Numerical basis of the induced subspace at one base point."""

    arena: str
    base: object
    basis: list
    dimension: int
    isotropy_defect: float


def dirac_basis(arena: str, model: SimpleThermoModel, point) -> DiracBasis:
    """Orthonormal kernel basis of the stacked conditions at ``point``.

    The kernel is read off a full SVD of the condition matrix: the right
    singular vectors past the numerical rank, which counts the singular
    values above ``max(s) * eps * max(A.shape)``. The kernel dimension
    must equal the arena dimension (the conditions are independent
    whenever the entropy slope is nonzero, friction or not); anything
    else is reported as an internal inconsistency. The isotropy defect
    is the largest double pairing over all basis pairs and certifies
    maximal isotropy of the subspace.
    """
    A = condition_matrix(arena, model, point)
    d = A.shape[0]
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(A.shape)))
    kernel = vh[rank:].T
    if kernel.shape[1] != d:
        raise DiracThermoError(
            f"induced subspace on {arena} has dimension {kernel.shape[1]}, "
            f"expected {d}; conditions are rank deficient at this point"
        )
    pairs = [
        TangentCovectorPair(base=point, tangent=kernel[:d, j], covector=kernel[d:, j])
        for j in range(d)
    ]
    # pairing of columns j,k: cov_k . tan_j + cov_j . tan_k, all pairs at once
    T = kernel[:d, :]
    C = kernel[d:, :]
    G = C.T @ T
    defect = float(np.max(np.abs(G + G.T)))
    return DiracBasis(
        arena=arena, base=point, basis=pairs, dimension=d, isotropy_defect=defect
    )
