"""Fiber transform and Hamiltonian-side tests.

Both shipped hyperregular models have momenta linear in velocity, so
the inversion has a closed form to test against; the envelope
identities are checked as identities, not just at special points.
"""

import numpy as np
import pytest

import dirac_thermo as dt

from conftest import sample_states


class TestMomentumMap:
    def test_piston_momentum_is_mass_times_velocity(self, piston):
        for q, v, S in sample_states(piston, 10, seed=2):
            p = dt.momentum_map(piston, q, v, S)
            assert abs(p[0] - v[0]) < 1e-14  # m = 1

    def test_membrane_momentum_closed_form(self, membrane):
        a = np.asarray(membrane.meta["params"].a)
        nbar = np.asarray(membrane.meta["params"].Nbar)
        for q, v, S in sample_states(membrane, 10, seed=2):
            p = dt.momentum_map(membrane, q, v, S)
            assert np.max(np.abs(p - (nbar - a * v))) < 1e-12


class TestFiberInversion:
    def test_roundtrip_on_samples(self, piston, membrane):
        for model in (piston, membrane):
            for q, v, S in sample_states(model, 25, seed=4):
                p = dt.momentum_map(model, q, v, S)
                v_back = dt.inverse_partial_legendre(model, q, p, S)
                assert np.max(np.abs(v_back - v)) < 1e-10, model.name

    def test_warm_start_converges_to_same_fiber_point(self, membrane):
        q, v, S = sample_states(membrane, 1, seed=8)[0]
        p = dt.momentum_map(membrane, q, v, S)
        cold = dt.inverse_partial_legendre(membrane, q, p, S)
        warm = dt.inverse_partial_legendre(membrane, q, p, S, v0=v)
        assert np.max(np.abs(cold - warm)) < 1e-10


class TestEnergies:
    def test_piston_hamiltonian_hand_value(self, piston):
        # H = p^2/2m + U; U(1,0) = 100
        assert abs(dt.hamiltonian(piston, [1.0], [0.5], 0.0) - 100.125) < 1e-10

    def test_generalized_energy_on_M_matches_hamiltonian(self, piston):
        for q, v, S in sample_states(piston, 10, seed=6):
            p = dt.momentum_map(piston, q, v, S)
            ptM = dt.make_point("M", 1, q=q, S=S, v=v, p=p)
            E = dt.generalized_energy("M", piston, ptM)
            H = dt.hamiltonian(piston, q, p, S)
            assert abs(E - H) < 1e-10

    def test_generalized_energy_on_P_includes_rate_pairing(self, piston):
        # E = <p, v> + Lam * W - L on the full arena
        pt = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.3, p=[0.8], lam=2.0)
        L = dt.lagrangian_value(piston, [1.0], [0.5], 0.0)
        want = 0.8 * 0.5 + 2.0 * 0.3 - L
        assert abs(dt.generalized_energy("P", piston, pt) - want) < 1e-12

    def test_temperature_from_hamiltonian_side(self, piston):
        for q, v, S in sample_states(piston, 10, seed=7):
            p = dt.momentum_map(piston, q, v, S)
            T_ham = dt.hamiltonian_S_derivative(piston, q, p, S)
            assert abs(T_ham - dt.temperature(piston, q, v, S)) < 1e-9


class TestEnvelopeIdentities:
    def test_partials_against_lagrangian_side(self, piston, membrane):
        """dH/dp is the inverted velocity and dH/dq = -dL/dq there."""
        for model in (piston, membrane):
            for q, v, S in sample_states(model, 10, seed=9):
                p = dt.momentum_map(model, q, v, S)
                hp = dt.hamiltonian_partials(model, q, p, S)
                dLdq, _, s = dt.lagrangian_partials(model, q, hp.velocity, S)
                assert np.max(np.abs(hp.velocity - v)) < 1e-9
                assert np.max(np.abs(hp.dp - v)) < 1e-9
                assert np.max(np.abs(hp.dq + dLdq)) < 1e-9
                assert abs(hp.dS + s) < 1e-9

    def test_temperature_and_friction_N(self, piston):
        q, v, S = [1.4], [0.8], -0.3
        p = dt.momentum_map(piston, q, v, S)
        T, F = dt.temperature_and_friction_N(piston, q, p, S)
        assert abs(T - dt.temperature(piston, q, v, S)) < 1e-10
        assert np.max(np.abs(F - dt.friction_value(piston, q, v, S))) < 1e-10


class TestEmbeddings:
    def test_embed_jL_fills_velocity_slot(self, piston):
        q, v, S = [0.9], [0.35], 0.1
        p = dt.momentum_map(piston, q, v, S)
        ptN = dt.make_point("N", 1, q=q, S=S, p=p)
        ptM = dt.embed_jL(piston, ptN)
        assert np.max(np.abs(ptM.v - v)) < 1e-10
        assert np.array_equal(ptM.q, ptN.q) and ptM.S == ptN.S
        assert np.array_equal(ptM.p, ptN.p)


class TestHamiltonianModelGate:
    def test_hyperregular_models_build(self, piston, membrane):
        for model in (piston, membrane):
            hm = dt.build_hamiltonian_model(model)
            assert hm.source is model

    def test_flagged_degenerate_is_rejected(self, reactions):
        with pytest.raises(dt.DegenerateLagrangianError, match="velocity-independent"):
            dt.build_hamiltonian_model(reactions)

    def test_silently_singular_lagrangian_is_caught(self):
        # linear in v: the fiber map collapses even without the flag
        box = dt.DomainBox(
            q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
        )
        bad = dt.SimpleThermoModel(
            n=1,
            lagrangian=lambda q, v, S: q[0] * v[0] - S,
            friction=lambda q, v, S: (0.0,),
            domain_box=box,
            name="linear-in-v",
        )
        with pytest.raises(dt.DegenerateLagrangianError):
            dt.build_hamiltonian_model(bad)
