"""The integrators' diagnostics rows, built in blocks of stored states,
against the per-state record of ``conftest`` bit for bit: whole runs of
every route, runs that end on either side of a block boundary, a run
that aborts mid-block, a vanishing entropy slope and off-rate records.
Also the rule the block pass rests on (a column accumulation gives each
row the bits of its own fixed-order sum) and its memory bound."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dirac_thermo as dt
from dirac_thermo import dynamics
from dirac_thermo.dirac import _conditions
from dirac_thermo.dynamics import _BLOCK, DiagnosticsRecord
from dirac_thermo.model import _dots

from conftest import (
    explicit_reference,
    fixed_dot,
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


def assert_explicit_parity(model, route, y0, t_end, h):
    """A run of the route with the bits of conftest's per-rate loop, whose
    diagnostics rows are each its stored state's own record."""
    run = dt.integrate_explicit(field_of(model, route)[0], y0, t_end, h)
    want = explicit_reference(model, route, y0, t_end, h)
    assert run.completed == want.completed
    for name in ("times", "states", "rates", "diagnostics"):
        assert getattr(run, name).tobytes() == getattr(want, name).tobytes(), name
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
        run = assert_explicit_parity(model, route, start_of(model, route, q, v, S), (states - 1) * H, H)
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
            run = assert_explicit_parity(model, "lagrangian", np.array([1.0, 0.0, 0.0]), 4.0, 0.01)
        K = len(run.times)
        assert not run.completed and _BLOCK < K < 2 * _BLOCK
        assert len(run.diagnostics) == K

    @pytest.mark.parametrize("route", ["lagrangian", "hamilton-dirac-N"])
    def test_a_vanishing_entropy_slope_stays_infinite(self, route):
        model = make_oscillator()
        y0 = start_of(model, route, np.array([0.4]), np.array([0.2]), 0.0)
        run = assert_explicit_parity(model, route, y0, _BLOCK * H, H)
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
    def test_a_fields_rate_reads_its_state_alone(self, kind):
        # the field keeps no fiber seed: each inversion starts from rest,
        # whatever the field evaluated before
        model = MODELS[kind]
        states = [tuple(start_of(model, "hamilton-dirac-N", q, v, S).tolist())
                  for q, v, S in sample_states(model, 3, seed=52)]
        fresh, used = (dt.hamilton_field_N(dt.build_hamiltonian_model(model)) for _ in range(2))
        used.diagnostics(states[1], used.rate(states[0]))
        assert used.rate(states[2]) == fresh.rate(states[2])


class TestBitRule:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_dots_and_conditions_have_each_rows_bits(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 3):
            x, y = rng.normal(size=(30, n)), rng.normal(size=(30, n))
            x[rng.random(x.shape) < 0.3] = -0.0  # a dot adds -0.0 products to +0.0
            want = [fixed_dot(a, b) for a, b in zip(x, y)]
            assert _dots(x, y).tobytes() == np.array(want).tobytes()
            # the stacked matrix-vector products of the membership residual
            A, z = rng.normal(size=(30, 2 * n, 4 * n)), rng.normal(size=(30, 4 * n))
            want = [[fixed_dot(row, b) for row in a] for a, b in zip(A, z)]
            assert _dots(A, z[:, None, :]).tobytes() == np.array(want).tobytes()
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
