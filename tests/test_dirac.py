"""Constraint layer and induced-subspace tests.

The condition stacks are restated here, slot by slot, as plain
arithmetic on the flat charts. A sign slip anywhere in the shipped
stacks breaks these before it can corrupt a simulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirac_thermo as dt

from conftest import sample_states

component = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestConstraintResiduals:
    def test_variational_zero_on_solved_entropy_direction(self, piston):
        for q, v, S in sample_states(piston, 20, seed=1):
            s = dt.entropy_slope(piston, q, v, S)
            F = dt.friction_value(piston, q, v, S)
            dq = np.array([0.37])
            dS = float(F @ dq) / s
            r = dt.variational_constraint_residual(piston, q, v, S, dq=dq, dS=dS)
            assert abs(r) < 1e-12

    def test_phenomenological_equals_variational_on_rates(self, piston):
        q, v, S = [1.2], [0.4], 0.3
        a = dt.phenomenological_constraint_residual(piston, q, v, S, Sdot=0.05)
        b = dt.variational_constraint_residual(piston, q, v, S, dq=v, dS=0.05)
        assert a == b  # same code path, bitwise

    def test_annihilator_row_and_residual(self, piston):
        q, v, S = [0.8], [0.6], -0.5
        row = dt.annihilator_row(piston, q, v, S)
        s = dt.entropy_slope(piston, q, v, S)
        F = dt.friction_value(piston, q, v, S)
        assert np.allclose(row, np.concatenate([-F, [s]]))
        # multiples of the row annihilate every admissible variation
        for c in (1.0, -2.5, 0.0):
            r = dt.annihilator_residual(piston, q, v, S, alpha=c * row[:1], tS=c * row[1])
            assert np.max(np.abs(r)) < 1e-12
        # anything off the line does not
        r = dt.annihilator_residual(piston, q, v, S, alpha=[1.0], tS=0.0)
        assert np.max(np.abs(r)) > 1e-3


class TestPairings:
    def test_canonical_one_form_layout(self, piston):
        pt = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.1, p=[0.5], lam=0.25)
        th = dt.canonical_one_form("P", pt)
        assert np.allclose(th, [0.5, 0.25, 0.0, 0.0, 0.0, 0.0])
        ptN = dt.make_point("N", 1, q=[1.0], S=0.0, p=[0.7])
        assert np.allclose(dt.canonical_one_form("N", ptN), [0.7, 0.0, 0.0])

    def test_presymplectic_pairing_hand_value(self):
        pt = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.1, p=[0.5], lam=0.0)
        t1 = np.arange(1.0, 7.0)
        t2 = np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5])
        want = t1[0] * t2[4] - t1[4] * t2[0] + t1[1] * t2[5] - t1[5] * t2[1]
        assert abs(dt.presymplectic_pairing("P", pt, t1, t2) - want) < 1e-14

    def test_pairing_and_one_form_hand_values_at_n2(self):
        # (q0, q1) pair with (p0, p1); S with lam where the arena has it
        points = {
            "TstarQ": dt.make_point("TstarQ", 2, q=[1.0, 2.0], S=0.5, p=[0.3, -0.4], lam=0.25),
            "M": dt.make_point("M", 2, q=[1.0, 2.0], S=0.5, v=[0.1, 0.2], p=[0.3, -0.4]),
            "N": dt.make_point("N", 2, q=[1.0, 2.0], S=0.5, p=[0.3, -0.4]),
        }
        # flat indices of q0, q1, p0, p1 and of S, lam (None: no covariable)
        layout = {
            "TstarQ": ((0, 1, 3, 4), (2, 5)),
            "M": ((0, 1, 5, 6), None),
            "N": ((0, 1, 3, 4), None),
        }
        theta = {
            "TstarQ": [0.3, -0.4, 0.25, 0.0, 0.0, 0.0],
            "M": [0.3, -0.4, 0.0, 0.0, 0.0, 0.0, 0.0],
            "N": [0.3, -0.4, 0.0, 0.0, 0.0],
        }
        for arena, pt in points.items():
            d = dt.arena_dim(arena, 2)
            t1 = np.arange(1.0, d + 1.0)
            t2 = np.linspace(-1.0, 2.0, d) ** 2
            (q0, q1, p0, p1), entropy = layout[arena]
            want = t1[q0] * t2[p0] + t1[q1] * t2[p1] - t1[p0] * t2[q0] - t1[p1] * t2[q1]
            if entropy is not None:
                S, lam = entropy
                want += t1[S] * t2[lam] - t1[lam] * t2[S]
            assert abs(dt.presymplectic_pairing(arena, pt, t1, t2) - want) < 1e-14, arena
            assert np.array_equal(dt.canonical_one_form(arena, pt), theta[arena]), arena

    @given(data=st.lists(component, min_size=12, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_presymplectic_antisymmetry(self, data):
        pt = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.1, p=[0.5], lam=0.0)
        t1, t2 = np.array(data[:6]), np.array(data[6:])
        a = dt.presymplectic_pairing("P", pt, t1, t2)
        b = dt.presymplectic_pairing("P", pt, t2, t1)
        assert abs(a + b) < 1e-12

    def test_double_pairing_symmetric_bilinear(self):
        pt = dt.make_point("N", 1, q=[1.0], S=0.0, p=[0.7])
        p1 = dt.TangentCovectorPair(pt, np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.25]))
        p2 = dt.TangentCovectorPair(pt, np.array([-0.5, 1.5, 0.8]), np.array([2.0, 0.3, -0.7]))
        want = p2.covector @ p1.tangent + p1.covector @ p2.tangent
        assert abs(dt.double_pairing(p1, p2) - want) < 1e-14
        assert dt.double_pairing(p1, p2) == dt.double_pairing(p2, p1)


def restated_residuals_P(model, pair):
    """The full-arena condition stack, written out longhand."""
    q, S, v = pair.base.q, pair.base.S, pair.base.v
    n = q.size
    tan, cov = pair.tangent, pair.covector
    qdot, Sdot = tan[:n], tan[n]
    pdot, lamdot = tan[2 * n + 2 : 3 * n + 2], tan[3 * n + 2]
    alpha, tS = cov[:n], cov[n]
    beta, ups = cov[n + 1 : 2 * n + 1], cov[2 * n + 1]
    u, psi = cov[2 * n + 2 : 3 * n + 2], cov[3 * n + 2]
    s = dt.entropy_slope(model, q, v, S)
    F = dt.friction_value(model, q, v, S)
    return np.concatenate(
        [
            (pdot + alpha) * s + (lamdot + tS) * F,
            [s * Sdot - F @ qdot],
            beta,
            [ups],
            u - qdot,
            [psi - Sdot],
        ]
    )


def restated_residuals_M(model, pair):
    """Velocity-momentum stack: the P stack without the rate slot and
    the covariable, so no lamdot term in the force rows."""
    q, S, v = pair.base.q, pair.base.S, pair.base.v
    n = q.size
    tan, cov = pair.tangent, pair.covector
    qdot, Sdot, pdot = tan[:n], tan[n], tan[2 * n + 1 :]
    alpha, tS = cov[:n], cov[n]
    beta, u = cov[n + 1 : 2 * n + 1], cov[2 * n + 1 :]
    s = dt.entropy_slope(model, q, v, S)
    F = dt.friction_value(model, q, v, S)
    return np.concatenate(
        [(pdot + alpha) * s + tS * F, [s * Sdot - F @ qdot], beta, u - qdot]
    )


def restated_residuals_TstarQ(model, pair):
    """Cotangent stack: temperature-scaled force rows with the
    covariable rate, the entropy-power balance, and both fiber matches;
    temperature and friction are read at the inverted velocity."""
    q, S, p = pair.base.q, pair.base.S, pair.base.p
    n = q.size
    tan, cov = pair.tangent, pair.covector
    qdot, Sdot = tan[:n], tan[n]
    pdot, lamdot = tan[n + 1 : 2 * n + 1], tan[2 * n + 1]
    alpha, tS = cov[:n], cov[n]
    u, psi = cov[n + 1 : 2 * n + 1], cov[2 * n + 1]
    T, F = dt.temperature_and_friction_N(model, q, p, S)
    return np.concatenate(
        [
            (pdot + alpha) * T - (lamdot + tS) * F,
            [T * Sdot + F @ qdot],
            u - qdot,
            [psi - Sdot],
        ]
    )


def restated_residuals_N(model, pair):
    """Momentum-chart stack: temperature-scaled force row plus the
    entropy-power balance, with the fiber velocity read off dH/dp."""
    q, S, p = pair.base.q, pair.base.S, pair.base.p
    n = q.size
    tan, cov = pair.tangent, pair.covector
    qdot, Sdot, pdot = tan[:n], tan[n], tan[n + 1 :]
    alpha, tS, u = cov[:n], cov[n], cov[n + 1 :]
    T, F = dt.temperature_and_friction_N(model, q, p, S)
    return np.concatenate(
        [(pdot + alpha) * T - tS * F, [T * Sdot + F @ qdot], u - qdot]
    )


def assert_stack_matches(arena, restated, model, bound):
    """Shipped residuals equal the restated ones on random pairs."""
    rng = np.random.default_rng(7)
    d = dt.arena_dim(arena, model.n)
    for q, v, S in sample_states(model, 10, seed=11):
        base = _base_for(model, arena, q, v, S)
        pair = dt.TangentCovectorPair(base, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
        got = dt.dirac_membership(arena, model, pair)
        want = restated(model, pair)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < bound, f"{model.name}/{arena}"


class TestMembershipStacks:
    def test_P_stack_matches_restated_formulas(self, piston):
        rng = np.random.default_rng(7)
        for q, v, S in sample_states(piston, 10, seed=11):
            base = dt.make_point("P", 1, q=q, S=S, v=v, W=rng.uniform(-1, 1), p=[rng.uniform(-1, 1)], lam=rng.uniform(-1, 1))
            pair = dt.TangentCovectorPair(base, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
            got = dt.dirac_membership("P", piston, pair)
            assert np.max(np.abs(got - restated_residuals_P(piston, pair))) < 1e-12

    def test_N_stack_matches_restated_formulas(self, piston):
        rng = np.random.default_rng(9)
        for q, v, S in sample_states(piston, 10, seed=13):
            p = dt.momentum_map(piston, q, v, S)
            base = dt.make_point("N", 1, q=q, S=S, p=p)
            pair = dt.TangentCovectorPair(base, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            got = dt.dirac_membership("N", piston, pair)
            assert np.max(np.abs(got - restated_residuals_N(piston, pair))) < 1e-10

    def test_M_stack_matches_restated_formulas(self, piston):
        assert_stack_matches("M", restated_residuals_M, piston, 1e-12)

    def test_TstarQ_stack_matches_restated_formulas(self, piston):
        assert_stack_matches("TstarQ", restated_residuals_TstarQ, piston, 1e-10)

    def test_stacks_match_restated_formulas_on_membrane(self, membrane):
        # n = 3 exposes slot-index slips that n = 1 hides
        for arena, restated, bound in (
            ("P", restated_residuals_P, 1e-12),
            ("M", restated_residuals_M, 1e-12),
            ("TstarQ", restated_residuals_TstarQ, 1e-10),
            ("N", restated_residuals_N, 1e-10),
        ):
            assert_stack_matches(arena, restated, membrane, bound)

    def test_solution_pairs_are_members_everywhere(self, piston, membrane):
        for model in (piston, membrane):
            for q, v, S in sample_states(model, 10, seed=5):
                for arena, maker in (
                    ("P", dt.solution_pair_P),
                    ("TstarQ", dt.solution_pair_TstarQ),
                    ("M", dt.solution_pair_M),
                    ("N", dt.solution_pair_N),
                ):
                    pair = maker(model, q, v, S)
                    res = dt.dirac_membership(arena, model, pair)
                    assert np.max(np.abs(res)) < 1e-9, f"{model.name}/{arena}"

    def test_degenerate_model_covers_P_and_M(self, reactions):
        for q, v, S in sample_states(reactions, 10, seed=5):
            for arena, maker in (("P", dt.solution_pair_P), ("M", dt.solution_pair_M)):
                pair = maker(reactions, q, v, S)
                res = dt.dirac_membership(arena, reactions, pair)
                assert np.max(np.abs(res)) < 1e-9, arena


class TestInducedBasis:
    def test_dimensions_and_isotropy(self, piston, membrane, reactions):
        cases = [
            (piston, ("P", "TstarQ", "M", "N")),
            (membrane, ("P", "TstarQ", "M", "N")),
            (reactions, ("P", "M")),
        ]
        for model, arenas in cases:
            n = model.n
            expected = {
                "P": 3 * n + 3,
                "TstarQ": 2 * n + 2,
                "M": 3 * n + 1,
                "N": 2 * n + 1,
            }
            q, v, S = sample_states(model, 1, seed=21)[0]
            for arena in arenas:
                basis = dt.dirac_basis(arena, model, _base_for(model, arena, q, v, S))
                assert basis.dimension == expected[arena], f"{model.name}/{arena}"
                assert basis.isotropy_defect < 1e-10
                assert len(basis.basis) == basis.dimension

    def test_basis_elements_are_members(self, piston):
        q, v, S = [1.1], [0.3], 0.2
        for arena in ("P", "TstarQ", "M", "N"):
            basis = dt.dirac_basis(arena, piston, _base_for(piston, arena, q, v, S))
            for elem in basis.basis:
                res = dt.dirac_membership(arena, piston, elem)
                assert np.max(np.abs(res)) < 1e-9

    def test_self_pairing_of_random_span_combinations(self, piston):
        # isotropy means the double pairing vanishes on the whole span,
        # not just on the returned basis vectors
        rng = np.random.default_rng(3)
        basis = dt.dirac_basis("M", piston, _base_for(piston, "M", [0.9], [-0.4], 0.6))
        for _ in range(10):
            c1 = rng.uniform(-1, 1, basis.dimension)
            c2 = rng.uniform(-1, 1, basis.dimension)
            t1 = sum(c * b.tangent for c, b in zip(c1, basis.basis))
            a1 = sum(c * b.covector for c, b in zip(c1, basis.basis))
            t2 = sum(c * b.tangent for c, b in zip(c2, basis.basis))
            a2 = sum(c * b.covector for c, b in zip(c2, basis.basis))
            pair1 = dt.TangentCovectorPair(basis.base, t1, a1)
            pair2 = dt.TangentCovectorPair(basis.base, t2, a2)
            assert abs(dt.double_pairing(pair1, pair2)) < 1e-10

    def test_default_membership_tolerance_value(self):
        assert dt.DEFAULT_MEMBERSHIP_TOL == 1e-9


def _base_for(model, arena, q, v, S):
    """Arena point over (q, v, S) with fiber slots filled naturally."""
    n = model.n
    p = dt.momentum_map(model, q, v, S)
    if arena == "P":
        return dt.make_point("P", n, q=q, S=S, v=v, W=0.1, p=p, lam=0.0)
    if arena == "TstarQ":
        return dt.make_point("TstarQ", n, q=q, S=S, p=p, lam=0.0)
    if arena == "M":
        return dt.make_point("M", n, q=q, S=S, v=v, p=p)
    return dt.make_point("N", n, q=q, S=S, p=p)
