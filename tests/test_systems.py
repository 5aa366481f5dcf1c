"""Shipped model builders: closed-form values, invariants, validation.

Hand numbers use the default parameter sets; every formula here was
recomputed on paper before being frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirac_thermo as dt

in_x = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)
in_s = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
in_v = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestPiston:
    def test_gas_constant(self):
        assert dt.GAS_CONSTANT == 8.314

    def test_default_lagrangian_value(self, piston):
        assert abs(dt.lagrangian_value(piston, [1.0], [0.0], 0.0) + 100.0) < 1e-12

    def test_meta_temperature_and_pressure(self, piston):
        T = piston.meta["temperature"](1.0, 0.0)
        p = piston.meta["pressure"](1.0, 0.0)
        assert abs(T - 100.0 / (1.5 * dt.GAS_CONSTANT)) < 1e-12
        assert abs(p - 100.0 / 1.5) < 1e-12  # U/(c A x) at x=A=1
        assert piston.meta["internal_energy"](1.0, 0.0) == 100.0

    @given(x=in_x, S=in_s)
    @settings(max_examples=100, deadline=None)
    def test_ideal_gas_relation(self, x, S):
        """p V = N0 R T must hold as an identity of the closed forms."""
        piston = dt.build_piston()
        params = piston.meta["params"]
        p = piston.meta["pressure"](x, S)
        T = piston.meta["temperature"](x, S)
        V = params.A * x
        assert abs(p * V - params.N0 * params.R * T) <= 1e-9 * abs(p * V)

    def test_friction_is_minus_lam_v(self, piston):
        F = dt.friction_value(piston, [1.3], [-0.7], 0.2)
        assert abs(F[0] - 0.7) < 1e-15

    def test_callable_lam_enters_friction(self):
        m = dt.build_piston(dt.PistonParams(lam=lambda x, S: 2.0 + 0.0 * x))
        F = dt.friction_value(m, [1.0], [0.5], 0.0)
        assert abs(F[0] + 1.0) < 1e-12

    def test_a_lam_over_math_is_rejected_at_build(self):
        # the coefficient runs on jets in the friction's kernels, where
        # math.exp raises; the build says so instead of the first rate
        with pytest.raises(dt.ModelBuildError, match="duals"):
            dt.build_piston(dt.PistonParams(lam=lambda x, S: 0.5 + 0.1 * math.exp(S)))

    def test_a_lam_over_duals_builds(self):
        m = dt.build_piston(dt.PistonParams(lam=lambda x, S: 0.5 + 0.1 * dt.duals.exp(S)))
        F = dt.friction_value(m, [1.0], [0.5], 0.3)
        assert F[0] == -(0.5 + 0.1 * math.exp(0.3)) * 0.5

    def test_negative_lam_rejected(self):
        with pytest.raises(dt.ModelBuildError):
            dt.build_piston(dt.PistonParams(lam=-0.5))
        with pytest.raises(dt.ModelBuildError):
            dt.build_piston(dt.PistonParams(lam=lambda x, S: -0.1))

    def test_a_non_finite_lam_is_rejected(self):
        for lam in (math.inf, lambda x, S: 0.0 * x + math.nan, lambda x, S: 0.5 + math.inf * S):
            with pytest.raises(dt.ModelBuildError, match="finite"):
                dt.build_piston(dt.PistonParams(lam=lam))

    def test_zero_lam_is_frictionless(self):
        m = dt.build_piston(dt.PistonParams(lam=0.0))
        assert np.all(dt.friction_value(m, [1.0], [0.9], 0.3) == 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0.0},
            {"A": -1.0},
            {"N0": 0.0},
            {"c": -1.5},
            {"R": 0.0},
            {"U0": -5.0},
            {"V0": 0.0},
            {"x_range": (2.0, 0.5)},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(dt.ModelBuildError):
            dt.build_piston(dt.PistonParams(**kwargs))


class TestMembrane:
    def test_default_lagrangian_value(self, membrane):
        v = [0.5, -0.3, 0.1]
        # -T0 S - sum(a v^2)/2 + sum(Nbar v) = -300 - 0.175 + 3.0
        assert abs(dt.lagrangian_value(membrane, [0.0, 0.0, 0.0], v, 1.0) + 297.175) < 1e-10

    def test_friction_structure_hand_value(self, membrane):
        # order (w1, w2, wm); J1 = L1 (vm - v1), J2 = L2 (v2 - vm)
        F = dt.friction_value(membrane, [0.0, 0.0, 0.0], [0.5, -0.3, 0.1], 1.0)
        assert np.allclose(F, [-0.08, 0.08, 0.0], atol=1e-15)

    def test_flux_meta_matches_friction(self, membrane):
        v = np.array([0.2, -0.6, 0.4])
        J1, J2 = membrane.meta["fluxes"](v)
        F = dt.friction_value(membrane, np.zeros(3), v, 0.5)
        assert np.allclose(F, [J1, -J2, J2 - J1], atol=1e-15)

    @given(v1=in_v, v2=in_v, vm=in_v)
    @settings(max_examples=100, deadline=None)
    def test_matter_exchange_conserves_total_and_dissipates(self, v1, v2, vm):
        membrane = dt.build_membrane()
        v = np.array([v1, v2, vm])
        F = dt.friction_value(membrane, np.zeros(3), v, 1.0)
        assert abs(np.sum(F)) < 1e-15  # transfers only move matter around
        assert F @ v <= 1e-15  # dissipated power is nonnegative

    def test_moles_meta(self, membrane):
        v = np.array([0.5, -0.3, 0.1])
        N = membrane.meta["moles"](v)
        assert np.allclose(N, [9.5, 10.3, 9.9])
        assert abs(membrane.meta["total_moles"](v) - 29.7) < 1e-12

    def test_entropy_rate_positive_along_run(self, membrane):
        y0 = np.array([0.0, 0.0, 0.0, 1.0, 0.5, -0.3, 0.1])
        tr = dt.integrate_explicit(dt.lagrangian_field(membrane), y0, 0.2, 1e-3)
        rates = [d.entropy_rate for d in tr.diagnostics]
        assert min(rates) >= 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T0": -1.0},
            {"a": (1.0, -1.0, 1.0)},
            {"a": (1.0, 1.0)},
            {"Nbar": (10.0, 10.0)},
            {"L1": -0.2},
            {"L2": -0.2},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(dt.ModelBuildError):
            dt.build_membrane(dt.MembraneParams(**kwargs))


class TestReactions:
    def test_default_equilibrium_meta(self, reactions):
        assert abs(reactions.meta["psi_eq"] - 0.75) < 1e-12
        assert abs(reactions.meta["relaxation_rate"] - 1.0) < 1e-12

    def test_closed_form_relaxation(self, reactions):
        psi = reactions.meta["closed_form_psi"]
        assert psi(0.0) == 0.0
        expect = 0.75 * (1.0 - np.exp(-2.0))
        assert abs(psi(2.0) - expect) < 1e-14

    def test_moles_from_advancement(self, reactions):
        N = reactions.meta["moles"]([0.75])
        assert np.allclose(N, [1.25, 1.25])  # N_init + nu^T psi

    def test_model_is_flagged_degenerate(self, reactions):
        assert reactions.degenerate
        # velocity never enters L
        a = dt.lagrangian_value(reactions, [0.3], [0.0], 0.2)
        b = dt.lagrangian_value(reactions, [0.3], [5.0], 0.2)
        assert a == b

    def test_friction_is_minus_lam_rate(self, reactions):
        F = dt.friction_value(reactions, [0.1], [0.4], 0.2)
        assert abs(F[0] + 2.0 * 0.4) < 1e-14

    def test_lavoisier_violation_rejected(self):
        with pytest.raises(dt.ModelBuildError, match="[Ll]avoisier|mass"):
            dt.build_reactions(dt.ReactionParams(nu=((-1.0, 2.0),)))

    def test_nonpositive_rate_matrix_rejected(self):
        with pytest.raises(dt.ModelBuildError):
            dt.build_reactions(dt.ReactionParams(lam_matrix=((-1.0,),)))

    def test_stoichiometry_shape_checked(self):
        with pytest.raises(dt.ModelBuildError):
            dt.build_reactions(dt.ReactionParams(nu=((-1.0, 1.0, 0.0),)))

    def test_two_reaction_chain_builds_and_runs(self):
        params = dt.ReactionParams(
            nu=((-1.0, 1.0, 0.0), (0.0, -1.0, 1.0)),
            masses=(1.0, 1.0, 1.0),
            N_star=(1.0, 1.0, 1.0),
            N_init=(2.0, 1.0, 0.5),
            lam_matrix=((2.0, 0.0), (0.0, 3.0)),
        )
        m = dt.build_reactions(params)
        assert m.n == 2
        tr = dt.integrate_explicit(
            dt.lagrangian_field(m), np.array([0.0, 0.0, 0.0]), 0.5, 1e-3
        )
        assert tr.completed
        entropy = np.array([d.entropy for d in tr.diagnostics])
        assert np.min(np.diff(entropy)) >= 0.0

    def test_an_internal_energy_over_math_is_rejected_at_build(self):
        # the energy runs on jets in the Lagrangian's kernels, where
        # math.exp raises; the build says so instead of the first rate
        energy = lambda S, N: 300.0 * S + sum(math.exp(0.1 * n) for n in N)
        with pytest.raises(dt.ModelBuildError, match="duals"):
            dt.build_reactions(dt.ReactionParams(internal_energy=energy))

    def test_an_internal_energy_over_duals_builds_and_runs(self):
        energy = lambda S, N: 300.0 * S + sum(dt.duals.exp(0.1 * n) for n in N)
        m = dt.build_reactions(dt.ReactionParams(internal_energy=energy))
        tr = dt.integrate_route(m, "lagrangian", ([0.1], [0.0], 0.5), 0.01, 1e-3)
        assert tr.completed

    def test_custom_internal_energy_used(self):
        calls = []

        def quartic(S, N):
            calls.append(1)
            return 300.0 * S + 0.25 * sum((c - 1.0) ** 4 for c in N)

        m = dt.build_reactions(dt.ReactionParams(internal_energy=quartic))
        calls.clear()  # the build's own jet check
        dt.lagrangian_value(m, [0.2], [0.0], 0.1)
        assert calls, "custom energy callable never invoked"
        assert "closed_form_psi" not in m.meta


@pytest.mark.parametrize(
    "build, params",
    [
        (dt.build_piston, dt.PistonParams(U0=math.inf)),
        (dt.build_piston, dt.PistonParams(S0=math.nan)),
        (dt.build_piston, dt.PistonParams(s_range=(-math.inf, 2.0))),
        (dt.build_membrane, dt.MembraneParams(L1=math.nan)),
        (dt.build_membrane, dt.MembraneParams(Nbar=(10.0, math.inf, 10.0))),
        (dt.build_membrane, dt.MembraneParams(mu_range=(-1.0, math.inf))),
        (dt.build_reactions, dt.ReactionParams(N_init=(2.0, math.nan))),
        (dt.build_reactions, dt.ReactionParams(lam_matrix=((math.inf,),))),
        (dt.build_reactions, dt.ReactionParams(psi_range=(-0.2, math.inf))),
    ],
)
def test_non_finite_parameters_are_build_errors(build, params):
    with pytest.raises(dt.ModelBuildError, match="must be finite"):
        build(params)
