"""Vector fields, integrators, and diagnostics.

The explicit stepper is validated on a linear ODE with a known flow
before it is trusted on the shipped models; the implicit full-arena
route is held against the explicit one at first order.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import dirac_thermo as dt
from dirac_thermo.dynamics import _lagrangian_work

from conftest import make_oscillator, sample_states


class TestLagrangianField:
    def test_piston_at_rest_accelerates_by_pressure(self, piston):
        # at v=0 friction vanishes: m vdot = dL/dq = U/(c x)
        qdot, vdot, Sdot = dt.vector_field_lagrangian(piston, [1.0], [0.0], 0.0)
        assert qdot[0] == 0.0
        assert abs(vdot[0] - 100.0 / 1.5) < 1e-10
        assert Sdot == 0.0  # no dissipation at rest

    def test_piston_moving_dissipates(self, piston):
        # Sdot = lam v^2 / T
        v = 0.5
        _, vdot, Sdot = dt.vector_field_lagrangian(piston, [1.0], [v], 0.0)
        T = dt.temperature(piston, [1.0], [v], 0.0)
        assert abs(Sdot - v * v / T) < 1e-14
        # friction opposes the motion inside the force balance
        assert abs(vdot[0] - (100.0 / 1.5 - v)) < 1e-10

    def test_degenerate_reactions_rate_matches_relaxation(self, reactions):
        # the algebraic regime solves lam psidot = dL/dpsi directly
        qdot, vdot, Sdot = dt.vector_field_lagrangian(reactions, [0.0], [0.0], 0.0)
        k = reactions.meta["relaxation_rate"]
        psi_eq = reactions.meta["psi_eq"]
        assert abs(qdot[0] - k * psi_eq) < 1e-12
        assert np.all(vdot == 0.0)
        assert Sdot > 0.0

    def test_degenerate_regime_needs_linear_friction(self):
        box = dt.DomainBox(
            q_lo=(0.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=0.0, s_hi=1.0
        )
        offset = dt.SimpleThermoModel(
            n=1,
            lagrangian=lambda q, v, S: -q[0] * q[0] - S,
            friction=lambda q, v, S: (-0.5,),  # nonzero at v=0
            domain_box=box,
            degenerate=True,
            name="offset-friction",
        )
        with pytest.raises(dt.DiracThermoError):
            dt.vector_field_lagrangian(offset, [0.3], [0.0], 0.1)

    def test_vanishing_entropy_slope_with_friction_raises(self):
        box = dt.DomainBox(
            q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
        )
        no_slope = dt.SimpleThermoModel(
            n=1,
            lagrangian=lambda q, v, S: 0.5 * v[0] * v[0],  # L ignores S
            friction=lambda q, v, S: (-v[0],),
            domain_box=box,
            name="no-slope",
        )
        with pytest.raises(dt.TemperatureSignError):
            dt.vector_field_lagrangian(no_slope, [0.0], [0.5], 0.0)


class TestMomentumField:
    def test_matches_lagrangian_side_through_fiber(self, piston):
        for q, v, S in sample_states(piston, 10, seed=14):
            p = dt.momentum_map(piston, q, v, S)
            hm = dt.build_hamiltonian_model(piston)
            ptN = dt.make_point("N", 1, q=q, S=S, p=p)
            qdotN, pdotN, SdotN = dt.vector_field_N(hm, ptN)
            qdotL, vdotL, SdotL = dt.vector_field_lagrangian(piston, q, v, S)
            pdotL = dt.momentum_rate(piston, q, v, S, qdot=qdotL, vdot=vdotL, Sdot=SdotL)
            assert np.max(np.abs(qdotN - qdotL)) < 1e-9
            assert np.max(np.abs(pdotN - pdotL)) < 1e-9
            assert abs(SdotN - SdotL) < 1e-11

    def test_negative_temperature_with_friction_raises(self):
        # dL/dS = +1 makes dH/dS = -1 on the momentum side
        box = dt.DomainBox(
            q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
        )
        inverted = dt.SimpleThermoModel(
            n=1,
            lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] + S,
            friction=lambda q, v, S: (-v[0],),
            domain_box=box,
            name="inverted-slope",
        )
        hm = dt.build_hamiltonian_model(inverted)
        ptN = dt.make_point("N", 1, q=[0.2], S=0.0, p=[0.6])
        with pytest.raises(dt.TemperatureSignError):
            dt.vector_field_N(hm, ptN)

    def test_friction_free_points_freeze_entropy(self):
        osc = make_oscillator()
        hm = dt.build_hamiltonian_model(osc)
        ptN = dt.make_point("N", 1, q=[0.4], S=0.25, p=[-0.3])
        qdot, pdot, Sdot = dt.vector_field_N(hm, ptN)
        assert Sdot == 0.0
        assert abs(qdot[0] + 0.3) < 1e-12 and abs(pdot[0] - (-0.4)) < 1e-12


def counting(model):
    """The model with its Lagrangian and friction evaluations counted."""
    calls = Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    counted_model = dataclasses.replace(
        model,
        lagrangian=counted(model.lagrangian, "lagrangian"),
        friction=counted(model.friction, "friction"),
    )
    return counted_model, calls


class TestEvaluationCounts:
    @pytest.mark.parametrize("kind", ["piston", "membrane"])
    def test_regular_lagrangian_work_evaluates_L_and_F_once(self, kind, request):
        model, calls = counting(request.getfixturevalue(kind))
        for q, v, S in sample_states(model, 3, seed=21):
            calls.clear()
            _lagrangian_work(model, q, v, S)
            assert calls == {"lagrangian": 1, "friction": 1}

    @pytest.mark.parametrize("kind", ["piston", "membrane"])
    def test_warm_fiber_solve_evaluates_L_at_most_twice(self, kind, request):
        model, calls = counting(request.getfixturevalue(kind))
        for q, v, S in sample_states(model, 3, seed=22):
            seed_v = dt.inverse_partial_legendre(model, q, dt.momentum_map(model, q, v, S), S)
            p = dt.momentum_map(model, q, v + 1e-3, S)  # a neighbouring fiber point
            calls.clear()
            got = dt.inverse_partial_legendre(model, q, p, S, v0=seed_v)
            assert calls["lagrangian"] <= 2
            assert np.max(np.abs(got - (v + 1e-3))) < 1e-9

    @pytest.mark.parametrize("kind", ["piston", "membrane"])
    def test_hamiltonian_partials_read_the_fiber_jet(self, kind, request):
        # no separate first-partials pass after a warm fiber solve, whether
        # its first iterate converges (exact seed) or not (neighbouring seed)
        model, calls = counting(request.getfixturevalue(kind))
        q, v, S = sample_states(model, 1, seed=23)[0]
        p = dt.momentum_map(model, q, v, S)
        for seed in (v, v - 1e-3):
            calls.clear()
            hp = dt.hamiltonian_partials(model, q, p, S, v0=seed)
            assert calls["lagrangian"] <= 2
            dLdq, _, s = dt.lagrangian_partials(model, q, hp.velocity, S)
            assert np.array_equal(hp.dq, -dLdq) and hp.dS == -s


class TestExplicitIntegrator:
    def test_fourth_order_on_linear_flow(self):
        # y' = -y from y0=1: exact flow is e^{-t}
        field = lambda y: -y
        errs = []
        for h in (0.1, 0.05):
            tr = dt.integrate_explicit(field, np.array([1.0]), 1.0, h)
            errs.append(abs(tr.states[-1][0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert errs[1] < 1e-7
        assert 12.0 < ratio < 20.0, f"order-4 halving ratio {ratio:.2f}"

    def test_bookkeeping(self, piston):
        field = dt.lagrangian_field(piston)
        tr = dt.integrate_explicit(field, np.array([1.0, 0.0, 0.0]), 0.02, 1e-3)
        assert len(tr.states) == 21
        assert len(tr.rates) == 21
        assert len(tr.diagnostics) == 21
        assert tr.completed and tr.arena == "M"
        assert np.allclose(np.diff(tr.times), 1e-3)

    def test_stored_rates_match_field_at_states(self, piston):
        field = dt.lagrangian_field(piston)
        tr = dt.integrate_explicit(field, np.array([1.0, 0.0, 0.0]), 0.01, 1e-3)
        for pt, r in zip(tr.states, tr.rates):
            y = np.concatenate([pt.q, [pt.S], pt.v])
            assert np.array_equal(field.rate(y), r)

    def test_diagnostics_measure_the_given_rate(self, piston, membrane, reactions):
        # a rate that does not match the state must show in the residual,
        # whether or not the field still holds that state's partials
        for model, y in (
            (piston, np.array([1.0, 0.1, 0.3])),
            (membrane, np.array([0.0, 0.0, 0.0, 1.0, 0.5, -0.3, 0.1])),
            (reactions, np.array([0.3, 0.2])),
        ):
            field = dt.lagrangian_field(model)
            r = field.rate(y)
            assert field.diagnostics(y, r).dirac_residual < 1e-9
            off = field.diagnostics(y, r + 0.01)
            assert off == dt.lagrangian_field(model).diagnostics(y, r + 0.01)
            assert off.dirac_residual > 5e-3, model.name

    @pytest.mark.parametrize("kind", ["piston", "membrane"])
    def test_hamilton_constraint_is_the_phenomenological_residual(self, kind, request):
        # the stored constraint is s Sdot - <F, v> at the inverted velocity,
        # bit for bit what the constraint layer computes from the stored rate
        model = request.getfixturevalue(kind)
        n = model.n
        q, v, S = sample_states(model, 1, seed=5)[0]
        y0 = np.concatenate([q, [S], dt.momentum_map(model, q, v, S)])
        field = dt.hamilton_field_N(dt.build_hamiltonian_model(model))
        tr = dt.integrate_explicit(field, y0, 0.02, 1e-3)
        for pt, r, d in zip(tr.states, tr.rates, tr.diagnostics):
            expected = dt.phenomenological_constraint_residual(model, pt.q, r[:n], pt.S, r[n])
            assert d.constraint_residual == abs(expected)

    def test_vanishing_entropy_slope_flags_membership(self):
        # L ignores S on the oscillator: with s = 0 (T = 0 on N) the
        # induced subspace is undefined, so no rate may read as a member
        osc = make_oscillator()
        y = np.array([0.4, 0.0, 0.2])
        for field in (
            dt.lagrangian_field(osc),
            dt.hamilton_field_N(dt.build_hamiltonian_model(osc)),
        ):
            r = field.rate(y)
            for rate in (r, r + np.array([0.0, 1.0, 5.0])):
                assert not np.isfinite(field.diagnostics(y, rate).dirac_residual), field.arena

    def test_blowup_aborts_with_partial_trajectory(self):
        field = lambda y: y * y  # finite-time escape
        with np.errstate(over="ignore", invalid="ignore"):
            tr = dt.integrate_explicit(field, np.array([1.0]), 2.0, 0.01)
        assert not tr.completed
        assert len(tr.states) < 201
        # a real field: L = v^2/2 + q^4/4 escapes in finite time (t ~ 1.85
        # from q = 1 at rest); written with products, because a float **
        # overflow raises instead of giving inf
        box = dt.DomainBox(
            q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0
        )
        quartic = dt.SimpleThermoModel(
            n=1,
            lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] + 0.25 * q[0] * q[0] * q[0] * q[0],
            friction=lambda q, v, S: (0.0,),
            domain_box=box,
            name="quartic",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            tr = dt.integrate_explicit(
                dt.lagrangian_field(quartic), np.array([1.0, 0.0, 0.0]), 4.0, 0.01
            )
        assert not tr.completed
        K = len(tr.times)
        assert 100 < K < 401
        assert len(tr.states) == len(tr.rates) == len(tr.diagnostics) == K
        assert np.all(np.isfinite(tr.states.q)) and np.all(tr.states.S == 0.0)
        report = dt.monitor(tr, quartic)
        assert report.min_entropy_step == 0.0
        rows = dt.trajectory_rows(tr)
        assert rows.shape == (K, 5)
        assert np.array_equal(rows[:, 0], tr.states.q[:, 0])
        assert np.array_equal(rows[:, 2], tr.states.v[:, 0])

    def test_rejects_bad_steps_and_shapes(self, piston):
        field = dt.lagrangian_field(piston)
        with pytest.raises(ValueError):
            dt.integrate_explicit(field, np.zeros(3), 1.0, 0.0)
        with pytest.raises(ValueError):
            dt.integrate_explicit(field, np.zeros(3), -1.0, 1e-3)
        with pytest.raises(dt.DimensionMismatchError):
            dt.integrate_explicit(field, np.zeros(5), 1.0, 1e-3)

    def test_entropy_never_decreases_stepwise(self, piston, membrane):
        for model, y0 in (
            (piston, np.array([1.0, 0.0, 0.0])),
            (membrane, np.array([0.0, 0.0, 0.0, 1.0, 0.5, -0.3, 0.1])),
        ):
            tr = dt.integrate_explicit(dt.lagrangian_field(model), y0, 0.2, 1e-3)
            entropy = np.array([d.entropy for d in tr.diagnostics])
            assert np.min(np.diff(entropy)) >= 0.0, model.name

    def test_monitor_summarizes_diagnostics(self, piston):
        tr = dt.integrate_explicit(
            dt.lagrangian_field(piston), np.array([1.0, 0.0, 0.0]), 0.05, 1e-3
        )
        rep = dt.monitor(tr, piston)
        E = np.array([d.energy for d in tr.diagnostics])
        assert rep.energy_drift == np.max(np.abs(E - E[0])) / max(1.0, abs(E[0]))
        assert rep.min_entropy_step >= 0.0
        assert rep.max_dirac_residual < 1e-9


class TestRouteAgreement:
    def test_momentum_route_shadows_velocity_route(self, piston):
        y0 = np.array([1.0, 0.0, 0.0])
        trL = dt.integrate_explicit(dt.lagrangian_field(piston), y0, 0.2, 1e-3)
        hm = dt.build_hamiltonian_model(piston)
        p0 = dt.momentum_map(piston, [1.0], [0.0], 0.0)
        trN = dt.integrate_explicit(
            dt.hamilton_field_N(hm), np.concatenate([[1.0, 0.0], p0]), 0.2, 1e-3
        )
        for a, b in zip(trL.states, trN.states):
            assert np.max(np.abs(a.q - b.q)) < 1e-10
            assert abs(a.S - b.S) < 1e-10
            assert np.max(np.abs(a.p - b.p)) < 1e-10


class TestImplicitFullArena:
    def _consistent_start(self, piston, q, v, S):
        qdot, vdot, Sdot = dt.vector_field_lagrangian(piston, q, v, S)
        p = dt.momentum_map(piston, q, v, S)
        return dt.make_point("P", 1, q=q, S=S, v=v, W=Sdot, p=p, lam=0.0)

    def test_residual_vanishes_at_exact_field_rates(self, piston):
        q, v, S = [1.0], [0.5], 0.0
        start = self._consistent_start(piston, q, v, S)
        qdot, vdot, Sdot = dt.vector_field_lagrangian(piston, q, v, S)
        pdot = dt.momentum_rate(piston, q, v, S, qdot=qdot, vdot=vdot, Sdot=Sdot)
        rates = np.concatenate([qdot, [Sdot], vdot, [0.0], pdot, [0.0]])
        assert np.max(np.abs(dt.implicit_residual_P(piston, start, rates))) < 1e-12

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_residual_is_the_P_condition_stack(self, kind, request):
        # implicit_residual_P writes the P rows of dirac's condition stack
        # by hand; off shell too, it must equal the stack applied to
        # (rates, covector) with the generalized-energy covector
        model = request.getfixturevalue(kind)
        n = model.n
        rng = np.random.default_rng(7)
        for q, v, S in sample_states(model, 40, seed=4):
            point = dt.make_point("P", n, q=q, S=S, v=v, W=rng.uniform(-1, 1),
                                  p=rng.uniform(-1, 1, n), lam=rng.uniform(-1, 1))
            rates = rng.uniform(-1, 1, 3 * n + 3)
            dLdq, dLdv, s = dt.lagrangian_partials(model, q, v, S)
            covector = np.concatenate([
                -dLdq - dt.external_value(model, q, v, S), [-s], point.p - dLdv,
                [point.lam], v, [point.W],
            ])
            r = dt.implicit_residual_P(model, point, rates)
            A = dt.condition_matrix("P", model, point)
            expected = A @ np.concatenate([rates, covector])
            assert np.max(np.abs(r - expected)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_off_slice_start_is_rejected(self, piston):
        bad = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.0, p=[3.0], lam=0.0)
        with pytest.raises(dt.IntegrationError):
            dt.integrate_implicit_P(piston, bad, 0.01, 1e-3)

    def test_first_order_against_explicit_reference(self, piston):
        start = self._consistent_start(piston, [1.0], [0.0], 0.0)
        ref = dt.integrate_explicit(
            dt.lagrangian_field(piston), np.array([1.0, 0.0, 0.0]), 0.05, 1e-5
        )
        ref_q = ref.states[-1].q[0]
        errs = []
        for h in (1e-3, 5e-4):
            tr = dt.integrate_implicit_P(piston, start, 0.05, h)
            assert tr.completed and tr.arena == "P"
            errs.append(abs(tr.states[-1].q[0] - ref_q))
        # backward Euler: halving the step roughly halves the error
        assert errs[1] < 0.7 * errs[0]
        assert errs[0] < 5e-3

    def test_entropy_still_monotone_implicitly(self, piston):
        start = self._consistent_start(piston, [1.0], [0.0], 0.0)
        tr = dt.integrate_implicit_P(piston, start, 0.05, 5e-4)
        entropy = np.array([p.S for p in tr.states])
        assert np.min(np.diff(entropy)) >= 0.0
