"""Vector fields, integrators, and diagnostics.

The explicit stepper is validated on a linear ODE with a known flow
before it is trusted on the shipped models; the implicit full-arena
route is held against the explicit one at first order.
"""

import contextlib
import dataclasses
import gc
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirac_thermo as dt
from dirac_thermo import duals, dynamics, legendre
from dirac_thermo.dynamics import _BLOCK, _lagrangian_work
from dirac_thermo.model import _FUSED, _JET_KERNELS, _fused

import conftest
from conftest import (
    callable_lam_piston,
    explicit_reference,
    implicit_constants,
    implicit_reference,
    make_coupled_model,
    make_coupled_pair,
    make_escaping,
    make_oscillator,
    make_stiffening,
    per_evaluator,
    sample_states,
)

UNIT_BOX = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)


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
        # L and friction run once, at the first state, to trace their
        # kernels; every later state replays them
        model, calls = counting(request.getfixturevalue(kind))
        for k, (q, v, S) in enumerate(sample_states(model, 3, seed=21)):
            calls.clear()
            _lagrangian_work(model, q, v, S)
            assert calls["lagrangian"] == (1 if k == 0 else 0)
            assert calls["friction"] == (1 if k == 0 else 0)

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_implicit_residual_evaluates_L_only_to_trace(self, kind, request):
        # the first residual traces L's order-1 kernel and friction's
        # order-0 kernel; every later residual replays them
        model, calls = counting(request.getfixturevalue(kind))
        n = model.n
        rates = np.linspace(-0.5, 0.5, 3 * n + 3)
        for k, (q, v, S) in enumerate(sample_states(model, 3, seed=24)):
            point = dt.make_point("P", n, q=q, S=S, v=v, W=0.1, p=v, lam=0.0)
            calls.clear()
            dt.implicit_residual_P(model, point, rates)
            assert calls["lagrangian"] == (1 if k == 0 else 0)
            assert calls["friction"] == (1 if k == 0 else 0)

    def test_degenerate_work_evaluates_L_only_to_trace(self, reactions):
        # friction traces twice: its order-1 kernel at zero velocity
        # (the coefficient matrix) and its order-0 kernel at the solved rate
        model, calls = counting(reactions)
        for k, (q, v, S) in enumerate(sample_states(model, 3, seed=25)):
            calls.clear()
            _lagrangian_work(model, q, v, S)
            assert calls["lagrangian"] == (1 if k == 0 else 0)
            assert calls["friction"] == (2 if k == 0 else 0)

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_explicit_diagnostics_read_L_from_the_work(self, kind, request):
        # storing and diagnosing the state the rate just evaluated
        # evaluates L no more
        model, calls = counting(request.getfixturevalue(kind))
        fields = [dt.lagrangian_field(model)]
        if not model.degenerate:
            fields.append(dt.hamilton_field_N(dt.build_hamiltonian_model(model)))
        for field in fields:
            y = np.full(field.dim, 0.4)
            for _ in range(2):
                r = field.rate(y)
                calls.clear()
                field.work(y)
                field.diagnostics(y, r)
                assert calls["lagrangian"] == 0
                y = y + 1e-3 * r

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


    def test_implicit_steps_evaluate_L_only_to_trace(self, piston):
        # each step's energy reads L off its last residual's kernel replay,
        # and the Jacobian replays the order-2 kernel the rate traced
        model, calls = counting(piston)
        q, v, S = [1.0], [0.5], 0.0
        Sdot = dt.vector_field_lagrangian(model, q, v, S)[2]
        p = dt.momentum_map(model, q, v, S)
        start = dt.make_point("P", 1, q=q, S=S, v=v, W=Sdot, p=p, lam=0.0)
        assert calls["lagrangian"] > 0  # the traces
        calls.clear()
        traj = dt.integrate_implicit_P(model, start, t_end=0.05, h=1e-3)
        assert traj.completed and len(traj.states) == 51
        assert calls["lagrangian"] == 0

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_every_route_traces_at_most_two_L_kernels(self, kind, request):
        # L's order-1 and order-2 jets serve every route: its rate, fiber
        # solve, residual, Jacobian and diagnostics
        model, calls = counting(request.getfixturevalue(kind))
        q, v, S = sample_states(model, 1, seed=27)[0]
        for route in dt.ROUTES:
            try:
                dt.integrate_route(model, route, (q, v, S), 0.01, 1e-3)
            except (dt.DegenerateLagrangianError, dt.NewtonError):
                pass  # reactions has no momentum side; membrane implicit-P stalls
        assert set(_JET_KERNELS[model.lagrangian]) <= {(model.n, 1), (model.n, 2)}
        assert calls["lagrangian"] <= 2

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_a_whole_implicit_run_evaluates_L_and_friction_only_to_trace(self, kind, request):
        # a first run traces every kernel it reads; a second one, from the
        # same start, replays them all (membrane stops early on its known
        # Newton stall, after the same number of evaluations in both runs)
        model, calls = counting(request.getfixturevalue(kind))
        q, v, S = sample_states(model, 1, seed=26)[0]
        runs, counts = [], []
        for _ in range(2):
            calls.clear()
            try:
                run = dt.integrate_route(model, "implicit-P", (q, v, S), 0.02, 1e-3)
                runs.append(run.completed)
            except dt.NewtonError:
                runs.append(None)
            counts.append((calls["lagrangian"], calls["friction"]))
        assert runs[0] == runs[1]
        assert min(counts[0]) > 0 and counts[1] == (0, 0)


class TestRecordsMatchThePublicCheck:
    # the fields' records assemble their rows and condition matrix
    # directly; the public membership check stays the reference

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_lagrangian_record(self, kind, request):
        model = request.getfixturevalue(kind)
        n = model.n
        for q, v, S in sample_states(model, 12, seed=31):
            field = dt.lagrangian_field(model)
            y = np.concatenate([q, [S]] if model.degenerate else [q, [S], v])
            record = field.diagnostics(y, field.rate(y))
            pair = dt.solution_pair_M(model, q, v, S)
            residual = np.abs(dt.dirac_membership("M", model, pair)).max()
            Sdot = pair.tangent[n]
            constraint = dt.phenomenological_constraint_residual(model, q, pair.base.v, S, Sdot)
            assert record.dirac_residual == residual
            assert record.constraint_residual == abs(constraint)

    @pytest.mark.parametrize("kind", ["piston", "membrane"])
    def test_hamilton_record(self, kind, request):
        model = request.getfixturevalue(kind)
        hmodel = dt.build_hamiltonian_model(model)
        n = model.n
        for q, v, S in sample_states(model, 12, seed=32):
            pair = dt.solution_pair_N_hamiltonian(hmodel, q, v, S)
            y = pair.base.row.copy()
            field = dt.hamilton_field_N(hmodel)
            record = field.diagnostics(y, pair.tangent)
            # the record's own covector: the Hamiltonian differential at the
            # velocity inverted from rest, which can differ from v in its last bits
            w = field.work(y)
            covector = np.array([*(a - b for a, b in zip(w.dHdq, w.Fext)), w.dHdS, *w.qdot])
            own = dt.TangentCovectorPair(pair.base, pair.tangent, covector)
            residual = np.abs(dt.dirac_membership("N", model, own)).max()
            v_fiber = dt.inverse_partial_legendre(model, q, pair.base.p, S)
            Sdot = pair.tangent[n]
            constraint = dt.phenomenological_constraint_residual(model, q, v_fiber, S, Sdot)
            assert record.dirac_residual == residual
            assert record.constraint_residual == abs(constraint)


class TestExplicitIntegrator:
    def test_fourth_order_on_linear_flow(self):
        # the unit oscillator from q = 1 at rest: exact flow is q = cos t
        field = dt.lagrangian_field(make_oscillator())
        errs = []
        for h in (0.1, 0.05):
            tr = dt.integrate_explicit(field, np.array([1.0, 0.0, 0.0]), 1.0, h)
            errs.append(abs(tr.states.q[-1, 0] - np.cos(1.0)))
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
        # L = v^2/2 + q^4/4 escapes in finite time (t ~ 1.85 from q = 1 at rest)
        quartic = make_escaping()
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

    def test_a_state_whose_sum_overflows_keeps_the_run_going(self, monkeypatch):
        # a free particle at rest at q = S = 1e308: q + S overflows, but no
        # coordinate of the next state does, and the fast step answers
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0], friction=lambda q, v, S: (0.0,),
            domain_box=UNIT_BOX, name="free",
        )
        steps = counted_strict_steps(monkeypatch)
        tr = dt.integrate_route(model, "lagrangian", ([1e308], [0.0], 1e308), 0.05, 1e-2)
        assert tr.completed and len(tr.times) == 6 and steps["strict"] == 0
        assert np.all(tr.states.q == 1e308) and np.all(tr.states.S == 1e308) and np.all(tr.states.v == 0.0)

    def test_a_nan_in_one_coordinate_stops_the_run(self):
        # q moves at rate 1 and the temperature is NaN past q = 0.0525, so
        # only the entropy rate is NaN there: the stages from the state at
        # t = 0.05 cross it, and the run stops at the first state that
        # holds the NaN, its S
        def lagrangian(q, v, S):
            return q[0] - S * (1.0 if q[0] < 0.0525 else math.nan)

        model = dt.SimpleThermoModel(n=1, lagrangian=lagrangian, friction=lambda q, v, S: (-v[0],),
                                     domain_box=UNIT_BOX, name="nan-past", degenerate=True)
        tr = dt.integrate_route(model, "lagrangian", ([0.0], [0.0], 0.0), 1.0, 1e-2)
        assert not tr.completed and len(tr.times) == 6
        assert np.all(np.isfinite(dt.trajectory_rows(tr))) and np.all(np.isfinite(tr.rates))
        assert same_runs(tr, explicit_reference(model, "lagrangian", [0.0, 0.0], 1.0, 1e-2))

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


class TestIntegrateRoute:
    initial = {"q": [1.0], "v": [0.4], "S": 0.2}

    def direct(self, piston, route):
        """The route's start state built by hand and its integrator called
        directly."""
        q, v, S = np.array([1.0]), np.array([0.4]), 0.2
        if route == "lagrangian":
            return dt.integrate_explicit(dt.lagrangian_field(piston), [1.0, 0.2, 0.4], 0.05, 1e-3)
        p = dt.momentum_map(piston, q, v, S)
        if route == "hamilton-dirac-N":
            field = dt.hamilton_field_N(dt.build_hamiltonian_model(piston))
            return dt.integrate_explicit(field, np.concatenate([q, [S], p]), 0.05, 1e-3)
        Sdot = dt.vector_field_lagrangian(piston, q, v, S)[2]
        start = dt.make_point("P", 1, q=q, S=S, v=v, W=Sdot, p=p, lam=0.0)
        return dt.integrate_implicit_P(piston, start, 0.05, 1e-3)

    @pytest.mark.parametrize("route", dt.ROUTES)
    def test_bits_match_the_direct_integrator_call(self, piston, route):
        got = dt.integrate_route(piston, route, self.initial, 0.05, 1e-3)
        want = self.direct(piston, route)
        assert got.completed and want.completed and got.arena == want.arena
        for name in ("times", "states", "rates", "diagnostics"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_every_route_reaches_an_integrator_through_the_module(self, piston, monkeypatch):
        # the benchmark times each run by rebinding these module attributes
        calls = Counter()

        def counted(name):
            original = getattr(dynamics, name)

            def integrate(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return integrate

        for name in ("integrate_explicit", "integrate_implicit_P"):
            monkeypatch.setattr(dynamics, name, counted(name))
        for route in dt.ROUTES:
            before = sum(calls.values())
            dt.integrate_route(piston, route, self.initial, 0.01, 1e-3)
            assert sum(calls.values()) == before + 1, route
        assert calls == {"integrate_explicit": 2, "integrate_implicit_P": 1}

    def test_degenerate_model_has_no_momentum_route(self, reactions):
        with pytest.raises(dt.DegenerateLagrangianError):
            dt.integrate_route(reactions, "hamilton-dirac-N", {"q": [0.0], "S": 0.0}, 0.01, 1e-3)

    def test_unknown_route_raises(self, piston):
        with pytest.raises(ValueError, match="unknown route"):
            dt.integrate_route(piston, "hamilton-dirac-M", self.initial, 0.01, 1e-3)


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

    @pytest.mark.parametrize("x,v", [(0.1, -2.0), (0.2, -5.0)])
    def test_an_iterate_off_the_domain_stops_the_run(self, piston, x, v):
        # the first guess x + h v lands at x = 0 (a division by zero) or
        # at x < 0 (a complex power); the partials there are inf or NaN,
        # so the run stops on its non-finite iterate, keeping the start
        start = dt.make_point("P", 1, q=[x], S=0.0, v=[v], W=0.0, p=[v], lam=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tr = dt.integrate_implicit_P(piston, start, 0.5, 0.05)
        assert not tr.completed and len(tr.times) == 1
        assert np.array_equal(tr.states[0].q, [x])

    def test_off_slice_start_is_rejected(self, piston):
        bad = dt.make_point("P", 1, q=[1.0], S=0.0, v=[0.5], W=0.0, p=[3.0], lam=0.0)
        with pytest.raises(dt.IntegrationError):
            dt.integrate_implicit_P(piston, bad, 0.01, 1e-3)

    @pytest.mark.parametrize("slot", ["p", "lam"])
    def test_a_nan_slot_start_is_rejected(self, piston, slot):
        # a NaN momentum or covariable is off the slice too, not a start
        # whose first step stops the run
        start = implicit_start(piston, [1.0], [0.5], 0.3)
        setattr(start, slot, np.nan)
        for integrate in (dt.integrate_implicit_P, implicit_reference):
            with pytest.raises(dt.IntegrationError, match="off the algebraic slice"):
                integrate(piston, start, 0.01, 1e-3)

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


class TestImplicitJacobian:
    @pytest.mark.parametrize(
        "kind", ["piston", "piston-callable-lam", "membrane", "reactions", "oscillator"]
    )
    def test_exact_jacobian_matches_central_differences(self, kind, request):
        # off shell (random W, p, lam and backward rates), each row of the
        # reference's exact Jacobian of z -> implicit_residual_P(z, (z - x0)/h),
        # whose entries the generated step computes with the same operations,
        # agrees with central differences to 1e-7 of the row's largest entry;
        # the measured worst is about 1e-9 (membrane, whose rows carry
        # s/h ~ 3e5). The callable friction coefficient's x and S partials
        # are in it.
        if kind == "oscillator":
            model = make_oscillator()
        elif kind == "piston-callable-lam":
            model = callable_lam_piston()
        else:
            model = request.getfixturevalue(kind)
        n, h, d = model.n, 1e-3, 3 * model.n + 3
        rng = np.random.default_rng(31)
        constants = implicit_constants(n, h)
        for q, v, S in sample_states(model, 10, seed=30):
            x = dt.make_point("P", n, q=q, S=S, v=v, W=rng.uniform(-1, 1),
                              p=rng.uniform(-1, 1, n), lam=rng.uniform(-1, 1)).row
            x0 = x - h * rng.uniform(-1, 1, d)

            def residual(z):
                return dt.implicit_residual_P(model, dt.ArenaPoint("P", n, z), (z - x0) / h)

            J = conftest._per_evaluator_jacobian(model, x, (x - x0) / h, h, constants)
            fd = np.empty((d, d))
            for j in range(d):
                e = 1e-6 * max(1.0, abs(x[j]))
                up, down = x.copy(), x.copy()
                up[j] += e
                down[j] -= e
                fd[:, j] = (residual(up) - residual(down)) / (2 * e)
            scale = np.maximum(1.0, np.abs(J).max(axis=1, keepdims=True))
            assert np.max(np.abs(J - fd) / scale) < 1e-7

    def test_newton_makes_one_residual_per_iterate(self, monkeypatch):
        # the Jacobian costs no residual: a step evaluates L's order-1 jet
        # at the predictor and at each Newton iterate, nothing else, and
        # its order-2 jet once, for the Newton matrix at the predictor
        traj, steps, calls = counted_implicit_run(fused_model("piston"), 0.05, monkeypatch)
        assert traj.completed
        newton = calls["L1"] - steps  # one increment per residual after the predictor's
        assert calls["L2"] == steps
        assert steps <= newton <= 3 * steps

    @pytest.mark.parametrize("kind", ["piston", "piston-callable-lam"])
    def test_newton_takes_few_solves_per_step(self, kind, monkeypatch):
        # with the friction's every partial in the Jacobian, Newton
        # converges fast; measured over these 400 steps: 2.35 solves per
        # step with the constant lam, 2.95 with lam = 0.5 + 2 x^2 + 0.1 e^S
        # (4.76 when that coefficient's x and S partials were stripped)
        model = fused_model("piston") if kind == "piston" else compile_kernels(callable_lam_piston(2.0))
        traj, steps, calls = counted_implicit_run(model, 0.4, monkeypatch)
        assert traj.completed and steps == 400
        assert calls["L1"] - steps <= 3.5 * steps


def implicit_step(model, strict=False):
    """The model's generated implicit step, fast or strict."""
    return _fused(model, "implicit-step", dynamics._build_implicit_step, strict)


def counted_replays(monkeypatch, step, names) -> Counter:
    """Counts, by name, of the step's calls of its replays ``names`` from now on."""
    calls = Counter()
    for name in names:
        replay = step.__globals__[name]
        monkeypatch.setitem(step.__globals__, name,
                            lambda *args, _f=replay, _name=name: calls.update([_name]) or _f(*args))
    return calls


def counted_implicit_run(model, t_end, monkeypatch):
    """(trajectory, steps, calls): an implicit-P run of ``model``, whose
    step is compiled, from (q, v, S) = (1.0, 0.5, 0.3) at h = 1e-3, with
    the generated step's replays of L's order-1 and order-2 jets counted;
    no step is handed to the strict binding."""
    start = implicit_start(model, [1.0], [0.5], 0.3)
    calls = counted_replays(monkeypatch, implicit_step(model), ("L1", "L2"))
    fallbacks = counted_fallback(monkeypatch)
    traj = dt.integrate_implicit_P(model, start, t_end, 1e-3)
    assert fallbacks["fallback"] == 0
    return traj, len(traj.times) - 1, calls


def counted_fallback(monkeypatch):
    """Counts of the strict implicit-step binding's calls from now on."""
    calls = Counter()
    fused = dynamics._fused

    def counted_fused(model, kind, build=None, strict=False):
        kernel = fused(model, kind, build, strict)
        if kind != "implicit-step" or not strict:
            return kernel

        def counted(*args):
            calls["fallback"] += 1
            return kernel(*args)

        return counted

    monkeypatch.setattr(dynamics, "_fused", counted_fused)
    return calls


class TestImplicitStepHalving:
    @pytest.mark.parametrize("kind,start", [
        ("piston", ([1.0], [0.5], 0.3)),
        # reactions' Newton stalls (ROADMAP item 1) from S = 4 at h = 1e-3,
        # and from S = 1 at h = 2.5e-4: these starts stay below both
        ("reactions", ([0.3], [0.0], 0.5)),
        ("2-reactions", ([0.2, -0.1], [0.0, 0.0], 0.5)),
    ])
    def test_error_halves_with_the_step(self, kind, start):
        # backward Euler is first order: against a fine RK4 reference, the
        # error at t = 0.1 falls by a factor in [1.9, 2.1] each time h
        # halves (measured: piston 1.997, 1.999, 1.999; reactions 1.9987,
        # 1.9994, 1.9997; 2-reactions 1.9992, 1.9996, 1.9998). A degenerate
        # model's v is its solved rate on both routes.
        model = {"piston": dt.build_piston, "reactions": dt.build_reactions, "2-reactions": two_reactions}[kind]()
        ref = dt.integrate_route(model, "lagrangian", start, 0.1, 1e-5).states[-1]
        errs = []
        for h in (2e-3, 1e-3, 5e-4, 2.5e-4):
            end = dt.integrate_route(model, "implicit-P", start, 0.1, h).states[-1]
            errs.append(max(np.abs(end.q - ref.q).max(), np.abs(end.v - ref.v).max(), abs(end.S - ref.S)))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), ratios
        assert errs[0] < 0.1


# --- fused per-state kernels ---------------------------------------------


def same_bits(a, b) -> bool:
    """Equal outcomes bit for bit, zero signs included: (nested) float
    outputs, or the same error type and message."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_outcomes(a, b) -> bool:
    """:func:`same_bits`, but any NaN equals any other: where two NaNs
    meet, CPython's float code keeps one or the other once its
    interpreter has specialised the operation, so no code keeps a NaN's
    sign bit."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return same_bits(a, b)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_outcomes, a, b))
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return same_bits(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


def outcome(compute):
    """compute()'s value, or the error it raised (RuntimeWarnings raise
    under the suite's filter)."""
    try:
        return compute()
    except Exception as err:  # noqa: BLE001 -- the error is the outcome
        return err


@contextlib.contextmanager
def strict_only():
    """Within the block no fast binding is found or compiled, so every
    entry point takes its kernel's strict binding."""
    saved = dynamics._fused, legendre._fused

    def strict_binding(model, kind, build=None, strict=False):
        return saved[0](model, kind, build, strict) if strict else None

    dynamics._fused = legendre._fused = strict_binding
    try:
        yield
    finally:
        dynamics._fused, legendre._fused = saved


def compile_kernels(model):
    """Trace the model's kernels at an inner state and compile every fused
    kernel its routes use; the fused kernels' cache holds them after."""
    n = model.n
    q, v, S = [0.8] * n, [0.3] * n, 0.5
    conftest._per_evaluator_work(model, q, v, S)
    x = np.array(q + [S] + v + [0.1] + [0.2] * n + [0.0])
    conftest._per_evaluator_residual(model, x, x)
    conftest._per_evaluator_jacobian(model, x, x, 1e-3, implicit_constants(n, 1e-3))
    kinds = {"work": dynamics._build_work, "residual": dynamics._build_residual,
             "implicit-step": dynamics._build_implicit_step, "work-step": dynamics._build_work_step}
    if not model.degenerate:
        conftest._per_evaluator_solve(model, np.array(q), np.array(v), S, np.array(v))
        kinds["fiber"] = legendre._build_fiber
        kinds["momentum"] = dynamics._build_momentum
        kinds["momentum-step"] = dynamics._build_momentum_step
    for kind, build in kinds.items():
        assert _fused(model, kind, build) is not None, kind
    return model


def pushed(model):
    """The model with an external force that reads every coordinate."""

    def push(q, v, S):
        return tuple(0.3 * q[i] - 0.2 * v[i] * S + 0.1 for i in range(len(q)))

    return dataclasses.replace(model, external=push, name=f"pushed-{model.name}")


def make_dragged():
    """n = 1 with friction that does not vanish at v = 0, where <F, v>
    is a signed zero: L = v^2/2 - q^2/2 - S, F = -(v + q)/2."""
    box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
    return dt.SimpleThermoModel(
        n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] - 0.5 * q[0] * q[0] - S,
        friction=lambda q, v, S: (-0.5 * (v[0] + q[0]),), domain_box=box, name="dragged",
    )


def two_reactions(lam_matrix=((2.0, 0.5), (-0.3, 3.0))):
    """Two coupled reactions, n = 2: the degenerate regime's n = 2 solve."""
    return dt.build_reactions(dt.ReactionParams(
        nu=((-1.0, 1.0, 0.0), (0.0, -1.0, 1.0)), masses=(1.0, 1.0, 1.0), N_star=(1.0, 1.0, 1.0),
        N_init=(2.0, 1.0, 0.5), lam_matrix=lam_matrix,
    ))


def make_kinked():
    """n = 1 whose stiffness branches on the sign of q, a guard of its
    kernels: L = v^2/2 - k q^2/2 - S with k = 1 for q < 0, else 4."""

    def lagrangian(q, v, S):
        k = 1.0 if q[0] < 0.0 else 4.0
        return 0.5 * v[0] * v[0] - 0.5 * k * q[0] * q[0] - S

    box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
    return dt.SimpleThermoModel(n=1, lagrangian=lagrangian, friction=lambda q, v, S: (-0.2 * v[0],),
                                domain_box=box, name="kinked")


def make_cold(n):
    """L = |v|^2/2 - |q|^2/2 - 1e-4 S, F = -v/2: at a temperature of 1e-4
    the force-balance rows, scaled by it, are smaller than the entropy
    row, so the implicit step's reduced Newton matrix swaps rows when it
    pivots."""
    box = dt.DomainBox(q_lo=(-1.0,) * n, q_hi=(1.0,) * n, v_lo=(-1.0,) * n, v_hi=(1.0,) * n, s_lo=-1.0, s_hi=1.0)

    def lagrangian(q, v, S):
        return sum(0.5 * v[i] * v[i] - 0.5 * q[i] * q[i] for i in range(n)) - 1e-4 * S

    return dt.SimpleThermoModel(n=n, lagrangian=lagrangian, friction=lambda q, v, S: tuple(-0.5 * x for x in v),
                                domain_box=box, name="cold")


def make_hot():
    """n = 1 whose dL/dS = q - 1 turns positive past q = 1, where friction
    acts: L = v^2/2 + (q - 1) S, F = -v."""
    box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
    return dt.SimpleThermoModel(
        n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] + (q[0] - 1.0) * S,
        friction=lambda q, v, S: (-v[0],), domain_box=box, name="hot",
    )


FUSED_MODELS = {
    "piston": lambda: compile_kernels(dt.build_piston()),
    "membrane": lambda: compile_kernels(dt.build_membrane()),
    "reactions": lambda: compile_kernels(dt.build_reactions()),
    "oscillator": lambda: compile_kernels(make_oscillator()),
    "dragged": lambda: compile_kernels(make_dragged()),
    "stiffening": lambda: compile_kernels(make_stiffening()),
    "pushed-piston": lambda: compile_kernels(pushed(dt.build_piston())),
    "pushed-membrane": lambda: compile_kernels(pushed(dt.build_membrane())),
    "pushed-reactions": lambda: compile_kernels(pushed(dt.build_reactions())),
    "2-reactions": lambda: compile_kernels(two_reactions()),
    "2-reactions-uncoupled": lambda: compile_kernels(two_reactions(((2.0, 0.0), (0.0, 3.0)))),
    "coupled": lambda: compile_kernels(make_coupled_model()),
    "coupled-pair": lambda: compile_kernels(make_coupled_pair()),
}
_compiled_models = {}


def fused_model(kind):
    if kind not in _compiled_models:
        _compiled_models[kind] = FUSED_MODELS[kind]()
    return _compiled_models[kind]


def edgy(rng, size):
    """Coordinates: a quarter drawn from the signed zeros and units, the
    rest uniform in [-3, 3], which holds the shipped boxes and leaves
    them (piston x <= 0 is off its domain, where the fused kernels must
    hand over)."""
    out = rng.uniform(-3.0, 3.0, size)
    special = rng.random(size) < 0.25
    out[special] = rng.choice([0.0, -0.0, 1.0, -1.0], special.sum())
    return out.tolist()


def field_outputs(model, y):
    """(rate, work record, diagnostics record) of a velocity-side field at y."""
    field = dt.lagrangian_field(model)
    r = field.rate(y)
    return r, field.work(y), tuple(field.diagnostics(y, r))


def hamilton_outputs(model, y, v):
    """(rate, work record, diagnostics record) of a momentum-side field
    at the tuple y = (q, S, p), whose fiber inversion starts from rest,
    and the work there from the seed v, as a step's stage reads it."""
    field = dt.hamilton_field_N(legendre.HamiltonianModel(model))
    r = field.rate(y)
    seeded = dynamics._evaluate(model, "momentum", dynamics._build_momentum, (*y, *v))
    return r, field.work(y), tuple(field.diagnostics(y, r)), seeded


def step_outputs(model, x, rates, h):
    """One implicit step from the P row x with the last rates, as the
    integrator takes it (the fast binding, else the strict one), each
    part of its answer an array."""
    out = dynamics._evaluate(model, "implicit-step", dynamics._build_implicit_step, (*x, *rates, h))
    return tuple(np.asarray(part, dtype=float) for part in out)


def kernel_outputs(model, rng, draw):
    """A function of no arguments giving the outcome of every fused
    kernel's entry point at coordinates drawn once by ``draw(rng, size)``:
    a velocity-side field's outputs, the implicit residual, one implicit
    step from there and, unless the model is degenerate, the fiber
    inversion and a momentum-side field's outputs."""
    n = model.n
    q, v, p, (S,) = draw(rng, n), draw(rng, n), draw(rng, n), draw(rng, 1)
    y = np.array(q + [S] + ([] if model.degenerate else v))
    x = np.array(q + [S] + v + draw(rng, n + 2))
    rates = np.array(draw(rng, 3 * n + 3))
    point = dt.ArenaPoint("P", n, x)

    def outputs():
        out = [
            outcome(lambda: field_outputs(model, y)),
            outcome(lambda: dt.implicit_residual_P(model, point, rates, with_value=True)),
            outcome(lambda: step_outputs(model, x.tolist(), rates.tolist(), 1e-3)),
        ]
        if not model.degenerate:
            out.append(outcome(lambda: dt.inverse_partial_legendre(model, q, p, S, v0=v, with_jet=True)))
            out.append(outcome(lambda: hamilton_outputs(model, (*q, S, *p), v)))
        return out

    return outputs


def non_finite(rng, size):
    """:func:`edgy` coordinates, each a NaN or +-inf with probability 1/4."""
    out = np.array(edgy(rng, size))
    special = rng.random(size) < 0.25
    out[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
    return out.tolist()


def same_runs(a, b) -> bool:
    """Two trajectories with the same bits in every stored array."""
    return a.completed == b.completed and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.times, b.times), (a.states, b.states), (a.rates, b.rates),
                     (a.diagnostics, b.diagnostics))
    )


EXPLICIT_RUNS = [(kind, route) for kind in ("piston", "membrane", "stiffening")
                 for route in ("lagrangian", "hamilton-dirac-N")] + [("reactions", "lagrangian")]
HANDOVER_RUNS = [("membrane", "lagrangian"), ("membrane", "hamilton-dirac-N"),
                 ("stiffening", "hamilton-dirac-N"), ("reactions", "lagrangian")]


def explicit_start(model):
    """The (q, v, S) that the whole-run tests start from."""
    return sample_states(model, 1, seed=43)[0]


_reference_runs = {}


def reference_run(kind, route):
    """The per-evaluator path's run of the route from :func:`explicit_start`,
    t_end = 0.2 at h = 1e-3: the reference step throughout, computed once."""
    if (kind, route) not in _reference_runs:
        model = fused_model(kind)
        with per_evaluator():
            _reference_runs[kind, route] = dt.integrate_route(model, route, explicit_start(model), 0.2, 1e-3)
    return _reference_runs[kind, route]


def counted_strict_steps(monkeypatch) -> Counter:
    """Counts of the RK4 steps that the explicit routes run on the strict
    binding of their generated step from now on: those the fast binding
    hands over, and every step where there is none (under
    ``per_evaluator()`` the reference step)."""
    calls = Counter()

    def counted_field(build):
        def counted_build(arg):
            field = build(arg)

            def step(strict=False):
                kernel = field.step(strict)
                if not strict:
                    return kernel
                return lambda *args: calls.update(["strict"]) or kernel(*args)

            return dataclasses.replace(field, step=step)

        return counted_build

    for name in ("lagrangian_field", "hamilton_field_N"):
        monkeypatch.setattr(dynamics, name, counted_field(getattr(dynamics, name)))
    return calls


def step_fails(monkeypatch, model, route, calls):
    """The fast binding of the model's generated step on the route
    answers None at each of its friction replays numbered in ``calls``,
    counted from 1 from now on (1 is the first step's k2, 4 its next
    state's k1): the replay answers None there."""
    if route == "lagrangian":
        step = _fused(model, "work-step", dynamics._build_work_step)
    else:
        step = _fused(model, "momentum-step", dynamics._build_momentum_step)
    replay, count = step.__globals__["F0"], Counter()

    def F0(*args):
        count["F0"] += 1
        return None if count["F0"] in calls else replay(*args)

    monkeypatch.setitem(step.__globals__, "F0", F0)


class TestFusedKernels:
    @pytest.mark.parametrize("kind", sorted(FUSED_MODELS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_every_output_has_the_per_evaluator_bits(self, kind, seed):
        model = fused_model(kind)
        outputs = kernel_outputs(model, np.random.default_rng(seed), edgy)
        fused = outputs()
        with strict_only():
            strict = outputs()
        with per_evaluator():
            reference = outputs()
        for got, want in zip(fused, reference):
            assert same_bits(got, want), (got, want)
        for got, want in zip(strict, reference):
            assert same_bits(got, want), ("strict", got, want)

    @pytest.mark.parametrize("kind", sorted(FUSED_MODELS))
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_coordinates_have_the_per_evaluator_outcomes(self, kind, seed):
        # a NaN or an inf fails the fast binding's finiteness guards; the
        # strict binding lets it through where numpy does and raises the
        # reference's errors, the fiber's non-finite residual among them
        model = fused_model(kind)
        outputs = kernel_outputs(model, np.random.default_rng(seed), non_finite)
        with strict_only():
            strict = outputs()
        with per_evaluator():
            reference = outputs()
        for got, want in zip(strict, reference):
            assert same_outcomes(got, want), (got, want)

    def test_a_nan_friction_at_rest_passes_as_numpy_reads_it(self):
        # n = 2, degenerate, friction (-2 v0 + 0 q0, -3 v1 + 1) at zero
        # velocity: (0, 1) raises, but at q0 = NaN the kernel's check
        # abs(d0) > 1e-12 or abs(d1) > 1e-12 fails where numpy's
        # max(|F0|) > 1e-12, a NaN maximum, does not; the strict binding
        # carries on as numpy does
        box = dt.DomainBox(q_lo=(-1.0, -1.0), q_hi=(1.0, 1.0), v_lo=(-1.0, -1.0), v_hi=(1.0, 1.0),
                           s_lo=-1.0, s_hi=1.0)
        model = dt.SimpleThermoModel(
            n=2, lagrangian=lambda q, v, S: -0.5 * (q[0] * q[0] + q[1] * q[1]) - S,
            friction=lambda q, v, S: (-2.0 * v[0] + 0.0 * q[0], -3.0 * v[1] + 1.0),
            domain_box=box, name="pushing", degenerate=True,
        )
        outcomes = []
        for q0 in (0.5, np.nan):
            y = np.array([q0, 0.5, 0.1])
            with per_evaluator():
                want = outcome(lambda: field_outputs(model, y))
            assert same_bits(outcome(lambda: field_outputs(model, y)), want), want
            outcomes.append(want)
        assert str(outcomes[0]) == ("the degenerate regime needs velocity-linear friction "
                                    "(got friction [0. 1.] at zero velocity, model pushing)")
        assert np.isnan(outcomes[1][0]).any()

    @pytest.mark.parametrize("kind", sorted(FUSED_MODELS))
    def test_the_public_entry_points_have_the_per_evaluator_bits(self, kind):
        # the solution pairs and the momentum-side field read the kernels'
        # one path, the fast binding or the strict one, with the bits of
        # the per-evaluator reference
        model = fused_model(kind)
        hmodel = legendre.HamiltonianModel(model)
        pairs = (dt.solution_pair_P, dt.solution_pair_M, dt.solution_pair_TstarQ, dt.solution_pair_N)

        def outputs(q, v, p, S):
            def rows(pair):
                return pair.base.row, pair.tangent, pair.covector

            out = [outcome(lambda: rows(f(model, q, v, S))) for f in pairs]
            out.append(outcome(lambda: dt.vector_field_lagrangian(model, q, v, S)))
            if not model.degenerate:
                out.append(outcome(lambda: rows(dt.solution_pair_N_hamiltonian(hmodel, q, v, S))))
                out.append(outcome(lambda: dt.vector_field_N(hmodel, dt.PointN(q=q, S=S, p=p), v0=v)))
            return out

        for seed in range(12):
            rng = np.random.default_rng(seed)
            q, v, p, (S,) = edgy(rng, model.n), edgy(rng, model.n), edgy(rng, model.n), edgy(rng, 1)
            fused = outputs(q, v, p, S)
            with strict_only():
                strict = outputs(q, v, p, S)
            with per_evaluator():
                reference = outputs(q, v, p, S)
            for got in (fused, strict):
                assert all(map(same_bits, got, reference)), (got, reference)

    @pytest.mark.parametrize("kind", sorted(FUSED_MODELS))
    def test_the_kernels_answer_inside_the_box(self, kind):
        # the parity above would hold vacuously if every state handed over
        model = fused_model(kind)
        n = model.n
        for q, v, S in sample_states(model, 5, seed=41):
            args = [*q, *([] if model.degenerate else v), S]
            assert _fused(model, "work")(*args) is not None
            x = [*q, S, *v, 0.1, *v, 0.0]
            assert _fused(model, "residual")(*x, *x) is not None
            start = implicit_start(model, q, v, S)
            rate = dt.solution_pair_P(model, q, v, S).tangent
            step = implicit_step(model)(*start.row.tolist(), *rate.tolist(), 1e-3)
            # the oscillator's L ignores S: its Newton matrix is singular,
            # which the fast binding hands over for the strict one to raise
            assert (step is None) == (kind == "oscillator")
            if not model.degenerate:
                p = dt.momentum_map(model, q, v, S)
                assert _fused(model, "fiber")(*q, *v, S, *p, 1e-12) is not None
                assert _fused(model, "momentum")(*q, S, *p, *v) is not None

    def test_the_piston_default_start_keeps_its_signed_zeros(self):
        # at rest the friction -lam v is -0.0: no entropy rate, and the
        # stored rows and records keep every zero's sign
        model = fused_model("piston")
        y = np.array([1.0, 0.0, 0.0])
        assert np.signbit(_fused(model, "work")(1.0, 0.0, 0.0).F[0])
        with per_evaluator():
            want = field_outputs(model, y)
        assert same_bits(field_outputs(model, y), want)

    def test_off_the_piston_domain_the_kernels_hand_over(self):
        model = fused_model("piston")
        for x in (-0.5, 0.0, -0.0):
            assert _fused(model, "work")(x, 0.5, 0.3) is None
            assert _fused(model, "fiber")(x, 0.5, 0.3, 0.5, 1e-12) is None
            assert _fused(model, "momentum")(x, 0.3, 0.5, 0.5) is None
            y = np.array([x, 0.3, 0.5])
            outputs = [lambda: field_outputs(model, y), lambda: hamilton_outputs(model, (x, 0.3, 0.5), [0.5])]
            with per_evaluator():
                want = [outcome(compute) for compute in outputs]
            assert same_bits(tuple(outcome(compute) for compute in outputs), tuple(want))

    @pytest.mark.parametrize("route", ["lagrangian", "hamilton-dirac-N"])
    @pytest.mark.parametrize("kind", ["piston", "membrane", "stiffening"])
    def test_whole_runs_have_the_per_evaluator_bits(self, kind, route, monkeypatch):
        # every rate of the fused run, the RK4 stage states included, is
        # the fast binding's: no strict binding is called; under
        # per_evaluator() every rate is the reference's, once per rate: the
        # stored rows and records read the rate's work. Each fiber solve
        # starts from the last rate's velocity, which moves stiffening's bits
        model = fused_model(kind)
        q, v, S = sample_states(model, 1, seed=43)[0]
        fallback = "_per_evaluator_work" if route == "lagrangian" else "_momentum_work"
        calls = Counter()
        original, fused = getattr(conftest, fallback), dynamics._fused

        def counted(*args, **kwargs):
            calls[fallback] += 1
            return original(*args, **kwargs)

        def counted_fused(of, name, build=None, strict=False):
            kernel = fused(of, name, build, strict)
            if not strict or kernel is None:
                return kernel

            def counted_strict(*args):
                calls["strict"] += 1
                return kernel(*args)

            return counted_strict

        monkeypatch.setattr(conftest, fallback, counted)
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "_fused", counted_fused)
            patched.setattr(legendre, "_fused", counted_fused)
            run = dt.integrate_route(model, route, (q, v, S), 0.2, 1e-3)
        assert run.completed and calls["strict"] == 0
        with per_evaluator():
            reference = dt.integrate_route(model, route, (q, v, S), 0.2, 1e-3)
        assert calls[fallback] == 4 * 200 + 1
        assert same_runs(run, reference)
        # the reference loop, each diagnostics row its state's own record
        start = np.concatenate([q, [S], v if route == "lagrangian" else dt.momentum_map(model, q, v, S)])
        assert same_runs(run, explicit_reference(model, route, start, 0.2, 1e-3))

    @pytest.mark.parametrize("kind,route", EXPLICIT_RUNS)
    def test_whole_runs_take_the_generated_step_throughout(self, kind, route, monkeypatch):
        # no step of a fused run hands over to the strict binding, which
        # per_evaluator() takes at every step
        model, want = fused_model(kind), reference_run(kind, route)
        steps = counted_strict_steps(monkeypatch)
        run = dt.integrate_route(model, route, explicit_start(model), 0.2, 1e-3)
        assert run.completed and steps["strict"] == 0 and same_runs(run, want)
        with per_evaluator():
            dt.integrate_route(model, route, explicit_start(model), 0.01, 1e-3)
        assert steps["strict"] == 10  # the counter sees the strict steps

    @pytest.mark.parametrize("stage", [2, 3, 4, 1])
    @pytest.mark.parametrize("kind,route", HANDOVER_RUNS)
    def test_a_step_handed_over_keeps_the_bits(self, kind, route, stage, monkeypatch):
        # the generated steps 104 and 106 fail a guard at one of their
        # evaluations (k2, k3, k4 or the next state's k1): each reruns on
        # the strict binding from the same state and seed, and the run
        # keeps today's bits. On N the fiber seeds keep their chain, which
        # moves stiffening's bits there (a seed from rest, or from the
        # first state, would change them)
        model = fused_model(kind)
        want = reference_run(kind, route)
        step_fails(monkeypatch, model, route, [4 * (m - 1) + (stage - 1 or 4) for m in (104, 106)])
        steps = counted_strict_steps(monkeypatch)
        run = dt.integrate_route(model, route, explicit_start(model), 0.2, 1e-3)
        assert steps["strict"] == 2 and same_runs(run, want)

    def test_a_non_finite_next_state_stops_the_run(self, monkeypatch):
        # a free particle of mass 1e-308 at v = 1e308 from near the largest
        # float: every stage state is finite, the next state's
        # 2.0 * (k2 + k3) overflows in q, and no kernel reads q, so only
        # the step's check of the next state sees it: the fast binding
        # stops the run there, handing nothing over
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: (0.5e-308 * v[0]) * v[0] - S,
            friction=lambda q, v, S: (0.0,), domain_box=UNIT_BOX, name="featherweight",
        )
        start = ([1.7e308], [1e308], 0.1)
        steps = counted_strict_steps(monkeypatch)
        run = dt.integrate_route(model, "lagrangian", start, 0.01, 1e-3)
        assert steps["strict"] == 0 and not run.completed and len(run.times) == 1
        assert _fused(model, "work-step") is not None
        with per_evaluator():
            assert same_runs(run, dt.integrate_route(model, "lagrangian", start, 0.01, 1e-3))

    @pytest.mark.parametrize("route", ["lagrangian", "hamilton-dirac-N"])
    def test_a_strict_site_crossed_mid_run_keeps_its_error(self, route, monkeypatch):
        # the run reaches q = 1, where dL/dS turns positive: the generated
        # step hands that step over, and its strict binding raises
        # today's error
        model, start = make_hot(), ([0.95], [1.0], 0.5)
        steps = counted_strict_steps(monkeypatch)
        with pytest.raises(dt.TemperatureSignError) as fused:
            dt.integrate_route(model, route, start, 0.2, 1e-3)
        assert steps["strict"] == 1
        with per_evaluator(), pytest.raises(dt.TemperatureSignError) as reference:
            dt.integrate_route(model, route, start, 0.2, 1e-3)
        assert str(fused.value) == str(reference.value)
        assert str(fused.value).startswith("dL/dS = ") and str(fused.value).endswith(" (model hot)")

    def test_a_guard_crossed_mid_run_keeps_the_bits(self):
        # L's stiffness branches on the sign of q, a guard of its kernels;
        # the run starts at q > 0 and crosses q = 0, where the fused work
        # kernel hands over to its strict binding, and back
        model = make_kinked()
        y0 = np.array([0.3, 0.1, -1.0])
        run = dt.integrate_explicit(dt.lagrangian_field(model), y0, 2.0, 1e-2)
        kernel = _fused(model, "work")
        assert kernel(0.3, -1.0, 0.1) is not None and kernel(-0.3, -1.0, 0.1) is None
        assert run.completed and run.states.q.min() < 0.0 < run.states.q.max()
        assert same_runs(run, explicit_reference(model, "lagrangian", y0, 2.0, 1e-2))
        # the momentum side's fiber iterate meets the same guard
        start = ([0.3], [-1.0], 0.1)
        run = dt.integrate_route(model, "hamilton-dirac-N", start, 2.0, 1e-2)
        momentum = _fused(model, "momentum")
        assert momentum(0.3, 0.1, -1.0, -1.0) is not None and momentum(-0.3, 0.1, -1.0, -1.0) is None
        assert run.completed and run.states.q.min() < 0.0 < run.states.q.max()
        with per_evaluator():
            reference = dt.integrate_route(model, "hamilton-dirac-N", start, 2.0, 1e-2)
        assert same_runs(run, reference)

    def test_a_temperature_of_the_wrong_sign_keeps_its_error(self):
        model = make_hot()
        field = dt.lagrangian_field(model)
        field.rate(np.array([0.5, 0.0, 0.5]))
        assert _fused(model, "work") is not None
        with pytest.raises(dt.TemperatureSignError) as fused:
            field.rate(np.array([1.5, 0.0, 0.5]))
        with per_evaluator(), pytest.raises(dt.TemperatureSignError) as reference:
            dt.lagrangian_field(model).rate(np.array([1.5, 0.0, 0.5]))
        assert str(fused.value) == str(reference.value)
        assert str(fused.value) == "dL/dS = 0.5 must be negative where friction acts (model hot)"
        # the momentum side, chart (q, S, p)
        hmodel = dt.build_hamiltonian_model(model)
        dt.hamilton_field_N(hmodel).rate(np.array([0.5, 0.5, 0.3]))
        assert _fused(model, "momentum") is not None
        with pytest.raises(dt.TemperatureSignError) as fused:
            dt.hamilton_field_N(hmodel).rate(np.array([1.5, 0.5, 0.3]))
        with per_evaluator(), pytest.raises(dt.TemperatureSignError) as reference:
            dt.hamilton_field_N(hmodel).rate(np.array([1.5, 0.5, 0.3]))
        assert str(fused.value) == str(reference.value)
        assert str(fused.value) == "dL/dS = 0.5 must be negative where friction acts (model hot)"

    def test_a_singular_velocity_hessian_keeps_its_errors(self):
        # the mass q vanishes at q = 0: a zero pivot of the rate and the fiber solve
        box = dt.DomainBox(q_lo=(0.5,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: 0.5 * q[0] * v[0] * v[0] - S,
            friction=lambda q, v, S: (-v[0],), domain_box=box, name="massless",
        )
        hmodel = dt.build_hamiltonian_model(model)
        dt.hamilton_field_N(hmodel).rate(np.array([0.8, 0.0, 0.3]))
        dt.lagrangian_field(model).rate(np.array([0.8, 0.0, 0.3]))
        assert _fused(model, "work") is not None and _fused(model, "fiber") is not None
        assert _fused(model, "momentum") is not None

        def errors():
            out = []
            for compute in (lambda: dt.lagrangian_field(model).rate(np.array([0.0, 0.0, 0.3])),
                            lambda: dt.inverse_partial_legendre(model, [0.0], [0.3], 0.0),
                            lambda: dt.hamilton_field_N(hmodel).rate(np.array([0.0, 0.3, 0.3]))):
                with pytest.raises(dt.DegenerateLagrangianError) as err:
                    compute()
                out.append(str(err.value))
            return out

        fused = errors()
        with per_evaluator():
            assert fused == errors()
        assert fused == [
            "singular velocity Hessian; model massless needs the velocity-independent regime",
            "singular velocity Hessian at q=[0.], S=0.0 (model massless)",
            "singular velocity Hessian at q=[0.], S=0.3 (model massless)",
        ]

    def test_the_fused_kernels_are_dropped_with_their_models(self):
        gc.collect()
        before = len(_FUSED)
        for k in range(40):
            model = (dt.build_piston if k % 2 else dt.build_membrane)()
            for route in ("lagrangian", "hamilton-dirac-N"):
                dt.integrate_route(model, route, ([0.8] * model.n, [0.3] * model.n, 0.5), 0.003, 1e-3)
            assert _fused(model, "work") is not None and _fused(model, "momentum") is not None
        del model
        gc.collect()
        assert len(_FUSED) == before

    def test_an_l_without_weak_references_binds_strict_at_each_call(self):
        # no cache entry can hold its kernels: no fast binding is compiled,
        # and each evaluation binds the strict one afresh (its jets are dict
        # jets), with the bits of the piston whose kernels are cached
        piston = fused_model("piston")

        class Slotted:  # no __weakref__ slot
            __slots__ = ()

            def __call__(self, q, v, S):
                return piston.lagrangian(q, v, S)

        model = dataclasses.replace(piston, lagrangian=Slotted())
        before = len(_FUSED)
        for x in (0.8, -0.5):  # inside the box and off the domain
            y = np.array([x, 0.3, 0.5])
            want = outcome(lambda: field_outputs(piston, y))
            assert same_bits(outcome(lambda: field_outputs(model, y)), want)
            want = outcome(lambda: hamilton_outputs(piston, (x, 0.3, 0.5), [0.5]))
            assert same_bits(outcome(lambda: hamilton_outputs(model, (x, 0.3, 0.5), [0.5])), want)
        assert _fused(model, "work") is None and len(_FUSED) == before

    def test_an_overflowing_entropy_rate_stops_the_run_without_a_warning(self):
        # the friction -1e300 v^3 overflows to inf: the entropy rate is inf,
        # and L_vS = 0 meets it in the momentum rate; the run stops on its
        # non-finite state
        box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] - S - 0.5 * q[0] * q[0],
            friction=lambda q, v, S: (-1e300 * v[0] * v[0] * v[0],), domain_box=box, name="overflow",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = dt.integrate_route(model, "lagrangian", ([0.2], [0.5], 0.1), 0.01, 1e-3)
        assert not traj.completed and len(traj.times) == 1


    def test_an_overflowing_momentum_rate_stops_the_run_without_a_warning(self):
        # at S = 1e308 the coupled model's L_vq = 2 q v + S meets v = 10 in
        # the momentum rate, whose matmul overflows to inf: the run stops
        # on its non-finite state
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = dt.integrate_route(make_coupled_model(), "lagrangian", ([-0.5], [10.0], 1e308), 0.01, 1e-3)
        assert not traj.completed and len(traj.times) == 1
        assert not np.isfinite(traj.rates[0, 2])  # vdot


# --- the implicit route's float-code loop against the numpy loop ----------

IMPLICIT_LENGTHS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)  # stored states per run
IMPLICIT_MODELS = {
    "piston": dt.build_piston(),
    "reactions": dt.build_reactions(),
    "stiffening": make_stiffening(),
    "oscillator": make_oscillator(),  # L ignores S: every step's Jacobian is singular
    "pushed-piston": pushed(dt.build_piston()),
    "2-reactions": two_reactions(),
    "cold": make_cold(1),  # the reduced Newton matrix pivots on the entropy row
    "cold-pair": make_cold(2),
}


def implicit_start(model, q, v, S):
    """P's consistent start at (q, v, S): W the entropy rate, p = dL/dv, lam = 0."""
    return dt.make_point("P", model.n, q=q, S=S, v=v, W=dt.vector_field_lagrangian(model, q, v, S)[2],
                         p=dt.momentum_map(model, q, v, S), lam=0.0)


def sampled_start(kind, seed, model=None):
    """(model, P's consistent start at a state drawn from its box); the
    model ``IMPLICIT_MODELS[kind]`` unless given."""
    model = IMPLICIT_MODELS[kind] if model is None else model
    q, v, S = sample_states(model, 1, seed=seed)[0]
    if kind.endswith("reactions"):
        S = 0.8 * S  # reactions' box reaches S = 5; from S >= 4 Newton stalls (ROADMAP item 1)
    return model, implicit_start(model, q, v, S)


def same_implicit_outcomes(got, want) -> bool:
    """A library run and a reference run (plain arrays) with the same
    bits in every stored array and the same ``completed``, or the same
    error type and message."""
    if isinstance(got, BaseException) or isinstance(want, BaseException):
        return same_bits(got, want)
    K = len(got.times)
    flat = lambda records: np.asarray(records).view(np.float64).reshape(K, -1)  # noqa: E731
    return (
        got.completed == want.completed
        and K == len(want.times)
        and got.times.tobytes() == want.times.tobytes()
        and flat(got.states).tobytes() == want.states.tobytes()
        and got.rates.tobytes() == want.rates.tobytes()
        and flat(got.diagnostics).tobytes() == want.diagnostics.tobytes()
    )


def assert_implicit_parity(model, start, t_end, h):
    """The library's run and the numpy loop's, which must agree; returns
    the library's outcome."""
    got = outcome(lambda: dt.integrate_implicit_P(model, start, t_end, h))
    want = outcome(lambda: implicit_reference(model, start, t_end, h))
    assert same_implicit_outcomes(got, want), (got, want)
    return got


def assert_a_trailing_nan_stops_the_run(path, monkeypatch):
    """One residual off the fast binding, the one at which the 10th step
    converges, is NaN in its momentum rows and only there: the
    per-evaluator reference's array, or that of the strict binding's step,
    whose replay of L's order-1 jet answers NaN for dL/dv, the fast
    binding found nowhere. Python's max skips a NaN that is not first and
    would take that residual as converged; the library's run and the
    numpy loop's stop at the 10th step instead, with the same rows."""
    model, start = sampled_start("piston", 46)
    n, calls, ends = model.n, Counter(), []
    residual, step = conftest._per_evaluator_residual, conftest.implicit_reference_step

    def counted_residual(*args):
        calls["residual"] += 1
        out, o = residual(*args)
        if calls["residual"] == calls["nan"]:
            out = out.copy()
            out[n + 1 : 2 * n + 1] = np.nan
        return out, o

    def counted_step(*args):
        out = step(*args)
        ends.append(calls["residual"])
        return out

    monkeypatch.setattr(conftest, "_per_evaluator_residual", counted_residual)
    with monkeypatch.context() as patched, per_evaluator():
        patched.setattr(conftest, "implicit_reference_step", counted_step)
        assert implicit_reference(model, start, 0.1, 1e-3).completed
    calls.clear()
    calls["nan"] = ends[9]  # the start's residual is the first
    if path == "reference":
        with per_evaluator():
            run = dt.integrate_implicit_P(model, start, 0.1, 1e-3)
    else:
        strict, replays = implicit_step(model, strict=True), Counter()
        original = strict.__globals__["L1"]

        def L1(*args):  # the steps' residuals only: the start's is the residual kernel's
            replays["L1"] += 1
            o = original(*args)
            return o[: 1 + n] + (math.nan,) * n + o[1 + 2 * n :] if replays["L1"] == ends[9] - 1 else o

        monkeypatch.setitem(strict.__globals__, "L1", L1)
        with strict_only():
            run = dt.integrate_implicit_P(model, start, 0.1, 1e-3)
    calls["residual"] = 0
    with per_evaluator():
        want = implicit_reference(model, start, 0.1, 1e-3)
    assert not run.completed and len(run.times) == 10
    assert same_implicit_outcomes(run, want)


class TestReducedNewtonStep:
    @pytest.mark.parametrize("kind", sorted(IMPLICIT_MODELS))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_the_reduced_step_is_the_full_solve(self, kind, seed):
        # the generated step's increment, eliminated by blocks down to an
        # (n + 1)-square system (3 x 3 on 2-reactions and cold-pair), agrees
        # with LAPACK's solve of the full (3n + 3)-square Jacobian to 1e-12
        # of its size, at off-shell states (random W, p, lam and backward
        # rates). The measured worst over 400 draws per model is 7.4e-14
        # (piston; cold 4.9e-14), and there LAPACK is the less accurate one:
        # against an exact rational solve (60 piston draws) the reduced
        # step is within 7.1e-16 of the size and LAPACK's within 5.8e-14.
        # The oscillator's Jacobian is singular in both.
        model, h = IMPLICIT_MODELS[kind], 1e-3
        n, d = model.n, 3 * model.n + 3
        rng = np.random.default_rng(seed)
        q, v, S = sample_states(model, 1, seed=seed % 2**16)[0]
        if kind.endswith("reactions"):
            S = 0.8 * S
        x = dt.make_point("P", n, q=q, S=S, v=v, W=rng.uniform(-1, 1),
                          p=rng.uniform(-1, 1, n), lam=rng.uniform(-1, 1)).row
        rates = rng.uniform(-1, 1, d)
        r = dt.implicit_residual_P(model, dt.ArenaPoint("P", n, x), rates)
        J = conftest._per_evaluator_jacobian(model, x, rates, h, implicit_constants(n, h))
        if kind == "oscillator":
            with pytest.raises(dt.NewtonError, match="singular Jacobian in the implicit step"):
                conftest.reduced_solve(J, r)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(J, r)
            return
        got, want = np.array(conftest.reduced_solve(J, r)), np.linalg.solve(J, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (got, want)


IMPLICIT_RUNS = ("piston", "reactions", "stiffening", "pushed-piston", "2-reactions")


class TestImplicitLoop:
    @pytest.mark.parametrize("kind", sorted(IMPLICIT_MODELS))
    @given(seed=st.integers(0, 2**32 - 1), states=st.sampled_from(IMPLICIT_LENGTHS))
    @settings(max_examples=4, deadline=None)
    def test_whole_runs_have_the_numpy_loops_bits(self, kind, seed, states):
        model, start = sampled_start(kind, seed)
        run = assert_implicit_parity(model, start, (states - 1) * 1e-3, 1e-3)
        if kind == "oscillator":
            assert str(run) == "singular Jacobian in the implicit step"

    def test_the_shipped_runs_complete(self):
        # the parity above would say little if every draw raised
        for kind in IMPLICIT_RUNS:
            model, start = sampled_start(kind, 45)
            run = dt.integrate_implicit_P(model, start, (2 * _BLOCK) * 1e-3, 1e-3)
            assert run.completed and len(run.times) == 2 * _BLOCK + 1, kind

    def test_off_the_piston_domain_the_kernel_hands_over_mid_run(self, monkeypatch):
        # under a weak gas pressure the piston runs into x = 0: a Newton
        # iterate reaches x <= 0 after 20 stored steps, where the fused
        # residual hands over and the fallback's non-finite residual stops
        # the run
        model = dt.build_piston(dt.PistonParams(U0=0.1, lam=0.1))
        start = implicit_start(model, [1.0], [-5.0], 0.0)
        calls = counted_fallback(monkeypatch)
        run = dt.integrate_implicit_P(model, start, 1.0, 0.01)
        assert not run.completed and len(run.times) == 21 and calls["fallback"] >= 1
        assert _fused(model, "residual")(*[-0.5, 0.0, 1.0, 0.0, 1.0, 0.0] * 2) is None
        assert_implicit_parity(model, start, 1.0, 0.01)

    def test_a_guard_crossed_mid_run_keeps_the_bits(self, monkeypatch):
        # L's stiffness branches on the sign of q: the run starts at q > 0
        # and crosses q = 0, where the fused residual and Jacobian hand over
        model = make_kinked()
        start = implicit_start(model, [0.3], [-1.0], 0.1)
        calls = counted_fallback(monkeypatch)
        run = dt.integrate_implicit_P(model, start, 2.0, 1e-2)
        kernel = _fused(model, "residual")
        x = [0.3, 0.1, -1.0, 0.0, -1.0, 0.0]
        assert kernel(*x, *x) is not None and kernel(-0.3, *x[1:], *x) is None
        assert run.completed and run.states.q.min() < 0.0 < run.states.q.max()
        assert calls["fallback"] > 0
        assert_implicit_parity(model, start, 2.0, 1e-2)

    def test_an_escaping_run_stops_with_its_rows(self):
        # L = v^2/2 + q^4/4 - S escapes in finite time; written with
        # products, its iterates overflow to inf instead of raising
        box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] + 0.25 * q[0] * q[0] * q[0] * q[0] - S,
            friction=lambda q, v, S: (0.0,), domain_box=box, name="escaping",
        )
        start = implicit_start(model, [1.0], [0.0], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            run = assert_implicit_parity(model, start, 4.0, 0.05)
        assert not run.completed and 1 < len(run.times) < 81

    def test_a_nan_after_the_first_entry_still_stops_the_run(self, monkeypatch):
        # Python's max skips a NaN that is not first; a per-evaluator
        # residual whose other rows converged but that holds a NaN must
        # stop the run, not pass as converged
        assert_a_trailing_nan_stops_the_run("reference", monkeypatch)

    def test_a_nan_after_the_first_entry_of_a_strict_residual_stops_the_run(self, monkeypatch):
        # as above, the residual the strict binding's step's
        assert_a_trailing_nan_stops_the_run("strict", monkeypatch)

    def test_the_loops_errors_are_the_numpy_loops(self, monkeypatch):
        # membrane's Newton residual stalls above the tolerance (ROADMAP
        # item 1): both loops give up on the first step after the same 25
        # increments, the library's in the fast binding, which answers the
        # stall without handing the step over
        membrane = fused_model("membrane")
        q, v, S = sample_states(membrane, 1, seed=47)[0]
        start = implicit_start(membrane, q, v, S)
        residuals = counted_replays(monkeypatch, implicit_step(membrane), ["L1"])
        fallbacks = counted_fallback(monkeypatch)
        solves, solve = Counter(), conftest.reduced_solve
        monkeypatch.setattr(conftest, "reduced_solve", lambda *args: solves.update(["solve"]) or solve(*args))
        stall = outcome(lambda: dt.integrate_implicit_P(membrane, start, 0.05, 1e-3))
        assert same_implicit_outcomes(stall, outcome(lambda: implicit_reference(membrane, start, 0.05, 1e-3)))
        assert isinstance(stall, dt.NewtonError)
        assert str(stall).startswith("implicit step did not converge: residual ")
        assert str(stall).endswith(" after 25 iterations")
        assert residuals["L1"] - 1 == solves["solve"] == 25 and fallbacks["fallback"] == 0
        oscillator = IMPLICIT_MODELS["oscillator"]
        singular = assert_implicit_parity(oscillator, implicit_start(oscillator, [0.5], [0.1], 0.0), 0.05, 1e-3)
        assert isinstance(singular, dt.NewtonError) and str(singular) == "singular Jacobian in the implicit step"
        piston = IMPLICIT_MODELS["piston"]
        off = implicit_start(piston, [1.0], [0.5], 0.3)
        off.p = off.p + 1e-3
        inconsistent = assert_implicit_parity(piston, off, 0.05, 1e-3)
        assert isinstance(inconsistent, dt.IntegrationError)

    @pytest.mark.parametrize("kind", IMPLICIT_RUNS)
    def test_whole_runs_take_the_generated_step_throughout(self, kind, monkeypatch):
        # no step of a run whose kernels are traced hands over to the
        # strict binding, which strict_only() takes at every step
        model = fused_model(kind)
        _, start = sampled_start(kind, 45, model)
        steps = counted_fallback(monkeypatch)
        run = dt.integrate_implicit_P(model, start, 0.2, 1e-3)
        assert run.completed and steps["fallback"] == 0
        assert same_implicit_outcomes(run, implicit_reference(model, start, 0.2, 1e-3))
        with strict_only():
            dt.integrate_implicit_P(model, start, 0.01, 1e-3)
        assert steps["fallback"] == 10  # the counter sees the strict binding's steps

    @pytest.mark.parametrize("replay,call", [("F0", 250), ("F1", 80)])
    @pytest.mark.parametrize("kind", IMPLICIT_RUNS)
    def test_a_step_handed_over_keeps_the_bits(self, kind, replay, call, monkeypatch):
        # one friction replay of the fast binding answers None: the
        # force's value at an iterate (the 250th residual of the run) or
        # its jet at a predictor (the 80th step's Newton matrix); that step
        # reruns from its state on the strict binding, and the run keeps
        # the numpy loop's bits
        model = fused_model(kind)
        _, start = sampled_start(kind, 45, model)
        step, count = implicit_step(model), Counter()
        original = step.__globals__[replay]

        def fails(*args):
            count[replay] += 1
            return None if count[replay] == call else original(*args)

        monkeypatch.setitem(step.__globals__, replay, fails)
        steps = counted_fallback(monkeypatch)
        run = dt.integrate_implicit_P(model, start, 0.2, 1e-3)
        assert count[replay] > call and steps["fallback"] == 1
        assert same_implicit_outcomes(run, implicit_reference(model, start, 0.2, 1e-3))

    def test_a_step_may_converge_at_its_last_residual(self, monkeypatch):
        # L = v^2/2 - q^2/2 - S with an external force -a q whose q partial
        # duals.value strips: the Newton matrix lacks it, and each increment
        # shrinks the residual by about a / (1/h^2 + 1) = 0.3. From q = 0.0024
        # the 25th increment takes it from 2.0e-10 to 6.1e-11: the step
        # converges at its last residual, the 26th, which is checked before
        # the iteration limit (it was reported as "did not converge:
        # residual 6.094e-11 after 25 iterations")
        box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=-1.0, s_hi=1.0)
        model = dt.SimpleThermoModel(
            n=1, lagrangian=lambda q, v, S: 0.5 * v[0] * v[0] - 0.5 * q[0] * q[0] - S,
            friction=lambda q, v, S: (0.0,), external=lambda q, v, S: (-3e5 * duals.value(q[0]),),
            domain_box=box, name="lagging",
        )
        start = implicit_start(model, [0.0024], [0.0], 0.0)
        assert dt.integrate_implicit_P(model, start, 1e-3, 1e-3).completed  # traces the step's jets
        residuals = counted_replays(monkeypatch, implicit_step(model), ["L1"])
        steps = counted_fallback(monkeypatch)
        solves, solve = Counter(), conftest.reduced_solve
        monkeypatch.setattr(conftest, "reduced_solve", lambda *args: solves.update(["solve"]) or solve(*args))
        run = dt.integrate_implicit_P(model, start, 1e-3, 1e-3)
        assert run.completed and residuals["L1"] == 26 and steps["fallback"] == 0
        assert 5e-11 < run.diagnostics.dirac_residual[1] <= 1e-10
        assert same_implicit_outcomes(run, implicit_reference(model, start, 1e-3, 1e-3))
        assert solves["solve"] == 25

    @pytest.mark.parametrize("kind", ["piston", "reactions", "2-reactions"])
    def test_every_stored_momentum_is_the_momentum_map(self, kind):
        # the snap reads dL/dv off the converged residual's replay: the
        # bits momentum_map gives at the stored (q, v, S); lam is +0.0
        model, start = sampled_start(kind, 48)
        run = dt.integrate_implicit_P(model, start, 0.3, 1e-3)
        assert run.completed
        for row in run.states:
            assert dt.momentum_map(model, row.q, row.v, row.S).tobytes() == np.asarray(row.p).tobytes()
        assert (run.states.lam == 0.0).all() and not np.signbit(run.states.lam).any()
