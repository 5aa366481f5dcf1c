"""The integrators' diagnostics rows, built in blocks of stored states,
against the per-state record of ``conftest`` bit for bit: whole runs of
every route, runs that end on either side of a block boundary, a run
that aborts mid-block, a vanishing entropy slope and off-rate records.
Also the bit rule the block pass rests on (stacked ``np.matmul`` gives
each row the bits of its own product) and its memory bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dirac_thermo as dt
from dirac_thermo import dynamics
from dirac_thermo.dirac import _conditions
from dirac_thermo.dynamics import _BLOCK, _dots, DiagnosticsRecord
from dirac_thermo.model import _dot

from conftest import (
    hamilton_record,
    implicit_reference,
    lagrangian_record,
    make_escaping,
    make_oscillator,
    make_stiffening,
    sample_states,
)

LENGTHS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)  # stored states per run
H = 1e-3

MODELS = {
    "piston": dt.build_piston(),
    "membrane": dt.build_membrane(),
    "reactions": dt.build_reactions(),
    "stiffening": make_stiffening(),
}


def rows(diagnostics) -> np.ndarray:
    """A trajectory's diagnostics record array as (K, 5) floats."""
    return np.column_stack([diagnostics[name] for name in DiagnosticsRecord._fields])


def field_of(model, route):
    if route == "lagrangian":
        return dt.lagrangian_field(model), lagrangian_record
    return dt.hamilton_field_N(dt.build_hamiltonian_model(model)), hamilton_record


def start_of(model, route, q, v, S):
    if route == "lagrangian":
        return dt.lagrangian_chart_initial(model, (q, v, S))
    return np.concatenate([q, [S], dt.momentum_map(model, q, v, S)])


def explicit_run(model, route, y0, t_end, h):
    """(run, seen, record): a run of the route with its generated step,
    the (chart state, work) of each stored state as the per-rate path
    read them in a run with the step switched off, which has the run's
    bits, and the route's per-state record."""
    field, record = field_of(model, route)
    seen = []

    def work(y):
        w = field.work(y)
        seen.append((y, w))
        return w

    per_rate = dt.integrate_explicit(dataclasses.replace(field, work=work, step=lambda: None), y0, t_end, h)
    run = dt.integrate_explicit(field_of(model, route)[0], y0, t_end, h)
    assert run.completed == per_rate.completed
    for name in ("times", "states", "rates", "diagnostics"):
        assert getattr(run, name).tobytes() == getattr(per_rate, name).tobytes(), name
    return run, seen, record


def explicit_reference(run, seen, record, n) -> np.ndarray:
    return np.array([record(n, t, tuple(r.tolist()), w) for (t, w), r in zip(seen, run.rates)])


def assert_explicit_parity(model, route, y0, states):
    run, seen, record = explicit_run(model, route, y0, (states - 1) * H, H)
    assert len(seen) == len(run.times)
    want = explicit_reference(run, seen, record, model.n)
    assert rows(run.diagnostics).tobytes() == want.tobytes()
    return run


CASES = [
    (kind, route)
    for kind in MODELS
    for route in ("lagrangian", "hamilton-dirac-N")
    if not (kind == "reactions" and route != "lagrangian")
]


class TestBlockParity:
    @pytest.mark.parametrize("kind,route", CASES)
    @given(seed=st.integers(0, 2**32 - 1), states=st.sampled_from(LENGTHS))
    @settings(max_examples=6, deadline=None)
    def test_explicit_runs_have_the_per_state_bits(self, kind, route, seed, states):
        model = MODELS[kind]
        q, v, S = sample_states(model, 1, seed=seed)[0]
        run = assert_explicit_parity(model, route, start_of(model, route, q, v, S), states)
        assert run.completed and len(run.times) == states

    @pytest.mark.parametrize("kind", ["piston", "reactions"])
    @given(seed=st.integers(0, 2**32 - 1), states=st.sampled_from(LENGTHS))
    @settings(max_examples=4, deadline=None)
    def test_implicit_runs_have_the_per_state_bits(self, kind, seed, states):
        model = MODELS[kind]
        n = model.n
        q, v, S = sample_states(model, 1, seed=seed)[0]
        start = dt.make_point("P", n, q=q, S=S, v=v, W=dt.vector_field_lagrangian(model, q, v, S)[2],
                              p=dt.momentum_map(model, q, v, S), lam=0.0)
        try:
            run = dt.integrate_implicit_P(model, start, (states - 1) * H, H)
        except dt.NewtonError:
            assume(False)  # the known stall (ROADMAP item 1)
        # the numpy loop's rows, each from its stored state's own record
        want = implicit_reference(model, start, (states - 1) * H, H).diagnostics
        assert len(run.times) == states
        assert rows(run.diagnostics).tobytes() == want.tobytes()

    def test_a_run_aborted_mid_block_has_every_record(self):
        model = make_escaping()
        with np.errstate(over="ignore", invalid="ignore"):
            run, seen, record = explicit_run(model, "lagrangian", np.array([1.0, 0.0, 0.0]), 4.0, 0.01)
            want = explicit_reference(run, seen, record, 1)
        K = len(run.times)
        assert not run.completed and _BLOCK < K < 2 * _BLOCK
        assert len(seen) == len(run.diagnostics) == K
        assert rows(run.diagnostics).tobytes() == want.tobytes()

    @pytest.mark.parametrize("route", ["lagrangian", "hamilton-dirac-N"])
    def test_a_vanishing_entropy_slope_stays_infinite(self, route):
        model = make_oscillator()
        y0 = start_of(model, route, np.array([0.4]), np.array([0.2]), 0.0)
        run = assert_explicit_parity(model, route, y0, _BLOCK + 1)
        assert np.all(np.isinf(run.diagnostics.dirac_residual))

    @pytest.mark.parametrize("kind,route", CASES + [("oscillator", "lagrangian")])
    def test_off_rate_records_have_the_per_state_bits(self, kind, route):
        model = MODELS.get(kind) or make_oscillator()
        n = model.n
        for q, v, S in sample_states(model, 4, seed=51):
            field, record = field_of(model, route)
            y = tuple(start_of(model, route, q, v, S).tolist())
            r = field.rate(y)
            for off in (r, tuple(a + 0.01 for a in r)):
                got = field.diagnostics(y, off)
                want = record(n, y, off, field.work(y))
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", ["piston", "membrane", "stiffening"])
    def test_a_record_leaves_the_fiber_seed(self, kind):
        # each fiber inversion starts from the last rate's velocity; a
        # record of another state evaluates it without becoming that rate
        model = MODELS[kind]
        states = [tuple(start_of(model, "hamilton-dirac-N", q, v, S).tolist())
                  for q, v, S in sample_states(model, 3, seed=52)]
        plain, diagnosed = (dt.hamilton_field_N(dt.build_hamiltonian_model(model)) for _ in range(2))
        plain.rate(states[0])
        diagnosed.rate(states[0])
        diagnosed.diagnostics(states[1], diagnosed.rate(states[0]))
        assert diagnosed.rate(states[2]) == plain.rate(states[2])


class TestBitRule:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stacked_matmul_has_each_rows_bits(self, seed):
        # the block pass's residuals and momentum rates; np.einsum and
        # elementwise sums change bits here
        rng = np.random.default_rng(seed)

        def sparse(shape):
            a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
            zero = rng.random(shape) < 0.6
            a[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
            return a

        for d, D in ((4, 8), (10, 20), (3, 6)):
            A, z = sparse((40, d, D)), sparse((40, D))
            stacked = (A @ z[:, :, None])[:, :, 0]
            assert stacked.tobytes() == np.array([A[k] @ z[k] for k in range(40)]).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_dots_and_conditions_have_each_rows_bits(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 3):
            x, y = rng.normal(size=(30, n)), rng.normal(size=(30, n))
            x[rng.random(x.shape) < 0.3] = -0.0  # a length-1 dot turns -0.0 into +0.0
            want = [_dot(tuple(a.tolist()), tuple(b.tolist())) for a, b in zip(x, y)]
            assert _dots(x, y).tobytes() == np.array(want).tobytes()
            coef = rng.normal(size=30)
            for arena in ("M", "N", "P", "TstarQ"):
                want = np.array([_conditions(arena, n, float(c), F) for c, F in zip(coef, x)])
                assert _conditions(arena, n, coef, x).tobytes() == want.tobytes()


class TestMemoryBound:
    @pytest.mark.parametrize("route", dt.ROUTES)
    def test_a_pass_never_holds_more_than_a_block(self, route, monkeypatch):
        # a run of 2B + 1 stored states takes three passes, so the pass's
        # scratch memory does not grow with t_end / h
        sizes = []
        block = dynamics._diagnostics_block

        def counted(arena, n, points, rates, kept):
            sizes.append(len(points))
            return block(arena, n, points, rates, kept)

        monkeypatch.setattr(dynamics, "_diagnostics_block", counted)
        run = dt.integrate_route(MODELS["piston"], route, ([1.0], [0.5], 0.0), 2 * _BLOCK * H, H)
        assert run.completed and len(run.times) == 2 * _BLOCK + 1
        assert sizes == [_BLOCK, _BLOCK, 1]
