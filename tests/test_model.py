"""Model record, arena points, and derivative helper tests.

The piston oracles are hand calculus on U(x,S) = U0 e^{(S-S0)/(c N0 R)}
(V0/(A x))^{1/c}; the coupled toy model exists because both shipped
regular models have momenta depending on velocity alone, which would
leave the mixed second-derivative helpers untested.
"""

import numpy as np
import pytest

import dirac_thermo as dt

from conftest import sample_states


class TestArenas:
    def test_arena_dims_match_chart_sizes(self):
        # flat charts: P=(q,S,v,W,p,Lam), T*Q=(q,S,p,Lam), M=(q,S,v,p), N=(q,S,p)
        for n in (1, 3):
            assert dt.arena_dim("P", n) == 3 * n + 3
            assert dt.arena_dim("TstarQ", n) == 2 * n + 2
            assert dt.arena_dim("M", n) == 3 * n + 1
            assert dt.arena_dim("N", n) == 2 * n + 1

    def test_unknown_arena_rejected(self):
        with pytest.raises(dt.ArenaError):
            dt.arena_dim("Q", 1)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("arena", dt.ARENAS)
    def test_point_vector_roundtrip(self, arena, n):
        # P's groups at their P slots, and the groups each arena keeps,
        # restated by hand from the model docstring
        at_P = {"q": slice(0, n), "S": n, "v": slice(n + 1, 2 * n + 1), "W": 2 * n + 1,
                "p": slice(2 * n + 2, 3 * n + 2), "lam": 3 * n + 2}
        kept = {"P": ("q", "S", "v", "W", "p", "lam"), "TstarQ": ("q", "S", "p", "lam"),
                "M": ("q", "S", "v", "p"), "N": ("q", "S", "p")}[arena]
        vec = np.arange(1.0, dt.arena_dim(arena, n) + 1.0)
        full = np.full(3 * n + 3, np.nan)
        full[dt.arena_slots(arena, n)] = vec
        pt = dt.point_from_vector(arena, n, vec)
        assert dt.arena_of_point(pt) == arena
        out = pt.as_vector()
        assert np.array_equal(out, vec)
        out[:] = -2.0  # as_vector hands out a fresh copy
        assert np.array_equal(pt.as_vector(), vec)
        groups = {}
        for g, at in at_P.items():
            if g not in kept:
                assert not hasattr(pt, g)
                continue
            groups[g] = getattr(pt, g)
            if isinstance(at, slice):
                assert groups[g].shape == (n,) and np.array_equal(groups[g], full[at])
            else:
                assert type(groups[g]) is float and groups[g] == full[at]
        rebuilt = dt.make_point(arena, n, **groups)
        assert np.array_equal(rebuilt.as_vector(), vec)
        with pytest.raises(dt.ArenaError):
            dt.arena_of_point(object())

    def test_point_from_vector_copies_its_input(self):
        vec = np.arange(7.0)
        pt = dt.point_from_vector("M", 2, vec)
        vec[:] = -1.0
        assert np.array_equal(pt.as_vector(), np.arange(7.0))

    def test_make_point_checks_shapes(self):
        ok = dt.make_point("N", 2, q=[1.0, 2.0], S=0.5, p=[0.1, 0.2])
        assert ok.p.shape == (2,)
        with pytest.raises(dt.DimensionMismatchError):
            dt.make_point("N", 2, q=[1.0], S=0.5, p=[0.1, 0.2])

    def test_point_from_vector_length_check(self):
        with pytest.raises(dt.DimensionMismatchError):
            dt.point_from_vector("M", 1, np.zeros(5))


class TestPistonPartials:
    """Hand values at x=1, v=0.5, S=0 for the default parameters."""

    def test_lagrangian_value(self, piston):
        # L = m v^2 / 2 - U; U(1, 0) = U0 = 100
        assert abs(dt.lagrangian_value(piston, [1.0], [0.5], 0.0) - (0.125 - 100.0)) < 1e-12

    def test_partials(self, piston):
        dLdq, dLdv, s = dt.lagrangian_partials(piston, [1.0], [0.5], 0.0)
        assert abs(dLdq[0] - 100.0 / 1.5) < 1e-10  # -dU/dx = U/(c x)
        assert abs(dLdv[0] - 0.5) < 1e-14  # m v
        assert abs(s + 100.0 / (1.5 * 1.0 * dt.GAS_CONSTANT)) < 1e-12  # -U/(c N0 R)

    def test_temperature_is_minus_entropy_slope(self, piston):
        for q, v, S in sample_states(piston, 10, seed=3):
            T = dt.temperature(piston, q, v, S)
            assert T > 0.0
            assert T == -dt.entropy_slope(piston, q, v, S)

    def test_velocity_hessian_is_mass(self, piston):
        H = dt.velocity_hessian(piston, [1.3], [0.2], 0.4)
        assert abs(H[0, 0] - 1.0) < 1e-12

    def test_friction_and_jacobian(self, piston):
        F = dt.friction_value(piston, [1.0], [0.5], 0.0)
        assert abs(F[0] + 0.5) < 1e-15  # -lam v with lam=1
        J = dt.friction_velocity_jacobian(piston, [1.0], [0.5], 0.0)
        assert abs(J[0, 0] + 1.0) < 1e-12

    def test_external_defaults_to_zero(self, piston):
        assert np.all(dt.external_value(piston, [1.0], [0.5], 0.0) == 0.0)


def make_coupled_model():
    """L = (1+q^2) v^2 / 2 + q v S: every second partial is nonzero."""

    def lagrangian(q, v, S):
        return 0.5 * (1.0 + q[0] * q[0]) * v[0] * v[0] + q[0] * v[0] * S

    def friction(q, v, S):
        return (-0.1 * v[0],)

    box = dt.DomainBox(
        q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
    )
    return dt.SimpleThermoModel(
        n=1, lagrangian=lagrangian, friction=friction, domain_box=box, name="coupled"
    )


class TestSecondDerivativeHelpers:
    q0, v0, S0 = 0.6, -0.4, 0.9
    qdot, vdot, Sdot = 0.3, -0.7, 0.2

    def test_mixed_velocity_term_hand_value(self):
        m = make_coupled_model()
        # d(dL/dv) = (2 q v + S) dq + (q) dS
        got = dt.mixed_velocity_term(
            m, [self.q0], [self.v0], self.S0, qdot=[self.qdot], Sdot=self.Sdot
        )
        expect = (2 * self.q0 * self.v0 + self.S0) * self.qdot + self.q0 * self.Sdot
        assert abs(got[0] - expect) < 1e-12

    def test_momentum_rate_hand_value(self):
        m = make_coupled_model()
        got = dt.momentum_rate(
            m,
            [self.q0],
            [self.v0],
            self.S0,
            qdot=[self.qdot],
            vdot=[self.vdot],
            Sdot=self.Sdot,
        )
        expect = (
            (2 * self.q0 * self.v0 + self.S0) * self.qdot
            + (1.0 + self.q0 ** 2) * self.vdot
            + self.q0 * self.Sdot
        )
        assert abs(got[0] - expect) < 1e-12

    def test_momentum_rate_matches_difference_quotient(self, membrane):
        # independent check: p(t) along a straight-line state path
        qdot = np.array([0.11, -0.07, 0.05])
        vdot = np.array([-0.2, 0.15, 0.1])
        Sdot = 0.3
        q0 = np.array([0.1, 0.2, -0.1])
        v0 = np.array([0.5, -0.3, 0.1])
        S0 = 1.0
        eps = 1e-6

        def p_at(t):
            return dt.momentum_map(membrane, q0 + t * qdot, v0 + t * vdot, S0 + t * Sdot)

        fd = (p_at(eps) - p_at(-eps)) / (2 * eps)
        got = dt.momentum_rate(membrane, q0, v0, S0, qdot=qdot, vdot=vdot, Sdot=Sdot)
        assert np.max(np.abs(got - fd)) < 1e-8
