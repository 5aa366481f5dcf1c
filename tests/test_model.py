"""Model record, arena points, and derivative helper tests.

The piston oracles are hand calculus on U(x,S) = U0 e^{(S-S0)/(c N0 R)}
(V0/(A x))^{1/c}; the coupled toy model exists because both shipped
regular models have momenta depending on velocity alone, which would
leave the mixed second-derivative helpers untested.
"""

import dataclasses
import gc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dirac_thermo as dt
from dirac_thermo import model as model_module
from dirac_thermo.model import (
    _FUSED_GLOBALS,
    _force_jets,
    _kernel_source,
    _momentum_rate_from,
    _momentum_rate_source,
    _solve,
    _solve_source,
    _tuple,
)

from conftest import (
    callable_lam_piston,
    counted_numpy_calls,
    dual_friction_jacobian,
    make_coupled_model,
    sample_states,
)


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

    @pytest.mark.parametrize("warm", [True, False])
    def test_partials_off_the_domain_are_nan(self, warm):
        # at x < 0 the gas volume is negative and U's power is complex in
        # Python floats; the first- and second-order readers answer with
        # numpy's NaN, from a traced kernel and from a fresh one alike, not
        # TypeError
        piston = dt.build_piston()
        if warm:
            dt.lagrangian_partials(piston, [1.0], [0.5], 0.0)
        point = dt.make_point("P", 1, q=[-0.5], S=0.0, v=[0.5], W=0.0, p=[0.5], lam=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dLdq, dLdv, s = dt.lagrangian_partials(piston, [-0.5], [0.5], 0.0)
            scalars = dt.lagrangian_partials(piston, -0.5, 0.5, 0.0)
            slope = dt.entropy_slope(piston, [-0.5], [0.5], 0.0)
            p = dt.momentum_map(piston, [-0.5], [0.5], 0.0)
            residual = dt.implicit_residual_P(piston, point, np.zeros(6))
            L, jet_dLdq, jet_dLdv, jet_s, Lv = dt.lagrangian_jet(piston, [-0.5], [0.5], 0.0)
        assert np.isnan(L) and np.isnan(jet_dLdq[0]) and np.isnan(jet_s)
        assert jet_dLdv[0] == 0.5 and Lv.tolist() == [[0.0, 1.0, 0.0]]  # nor does m v^2/2
        assert np.isnan(dLdq[0]) and np.isnan(s) and np.isnan(slope)
        assert np.isnan(scalars[0][0]) and scalars[1][0] == 0.5 and np.isnan(scalars[2])
        assert dLdv[0] == 0.5 and p[0] == 0.5  # m v does not reach the gas
        assert np.isnan(residual[:2]).all() and np.isfinite(residual[2:]).all()


def two_reaction_network(lam_matrix):
    return dt.build_reactions(dt.ReactionParams(
        nu=((-1.0, 1.0, 0.0), (0.0, -1.0, 1.0)),
        masses=(1.0, 1.0, 1.0),
        N_star=(1.0, 1.0, 1.0),
        N_init=(2.0, 1.0, 0.5),
        lam_matrix=lam_matrix,
    ))


class TestFrictionJacobian:
    @pytest.mark.parametrize("build", [
        dt.build_piston,
        dt.build_membrane,
        dt.build_reactions,
        lambda: two_reaction_network(((2.0, 0.5), (-0.3, 3.0))),
        lambda: two_reaction_network(((2.0, 0.0), (0.0, 3.0))),  # -0.0 off the diagonal
    ], ids=["piston", "membrane", "reactions", "2-reactions-coupled", "2-reactions-diagonal"])
    def test_one_jet_call_has_the_dual_lifts_bits(self, build):
        model = build()
        for q, v, S in sample_states(model, 400, seed=5):
            got = dt.friction_velocity_jacobian(model, q, v, S)
            assert got.tobytes() == dual_friction_jacobian(model, q, v, S).tobytes()

    def test_friction_is_called_once(self):
        model = two_reaction_network(((2.0, 0.5), (-0.3, 3.0)))
        calls = []
        counted = dataclasses.replace(
            model, friction=lambda q, v, S: calls.append(1) or model.friction(q, v, S)
        )
        J = dt.friction_velocity_jacobian(counted, [0.1, 0.2], [0.3, -0.4], 0.5)
        assert len(calls) == 1
        assert J.tolist() == [[-2.0, -0.5], [0.3, -3.0]]


# coordinates from either side of zero, zeros of both signs among them
edgy = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(min_value=-3.0, max_value=3.0))


def make_pushing():
    """An external force that divides by q (inf or NaN at q = 0 in numpy
    floats, ZeroDivisionError in Python floats) and raises 2 to a
    state-dependent power."""

    def pushing(q, v, S):
        return tuple(v[i] / q[i] - 2.0 ** (0.5 * S) * q[i] for i in range(len(q)))

    return pushing


FORCE_MODELS = {
    "piston": dt.build_piston,
    "piston-callable-lam": callable_lam_piston,
    "membrane": dt.build_membrane,
    "reactions": dt.build_reactions,
    "2-reactions": lambda: two_reaction_network(((2.0, 0.5), (-0.3, 3.0))),
}


def with_pushing(kind):
    """A fresh shipped model with :func:`make_pushing`'s external force."""
    return dataclasses.replace(FORCE_MODELS[kind](), external=make_pushing())


WARM_FORCE_MODELS = {}


def warm_force_model(kind):
    """One model per kind whose force kernels are traced at the middle
    of its box."""
    if kind not in WARM_FORCE_MODELS:
        model = with_pushing(kind)
        box = model.domain_box
        mid = (np.add(box.q_lo, box.q_hi) / 2 + 0.25, np.add(box.v_lo, box.v_hi) / 2, box.s_lo)
        dt.friction_value(model, *mid), dt.external_value(model, *mid)
        _force_jets(model, *mid)
        WARM_FORCE_MODELS[kind] = model
    return WARM_FORCE_MODELS[kind]


def on_floats(evaluator, args, n, jet_at=()):
    """The reference: the evaluator at the flat state ``args`` in Python
    floats, or in numpy floats where those raise, with the coordinates
    in ``jet_at`` lifted to first-order jets; (values, partials over the
    flat state)."""

    def run(xs):
        xs = [dt.Jet(x, {~i: 1.0}, None) if i in jet_at else x for i, x in enumerate(xs)]
        out = evaluator(tuple(xs[:n]), tuple(xs[n : 2 * n]), xs[2 * n])
        D = np.zeros((n, 2 * n + 1))
        for a, F in enumerate(out):
            if isinstance(F, dt.Jet):
                for key, d in F.g.items():
                    D[a, ~key] = d
        return np.array([dt.value(F) for F in out]), D

    try:
        return run([float(x) for x in args])
    except (TypeError, ArithmeticError):
        with np.errstate(all="ignore"):
            return run([np.float64(x) for x in args])


def canonical_bits(a) -> bytes:
    """The bytes of a float array with every NaN made the same NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestForceKernels:
    @pytest.mark.parametrize("kind", sorted(FORCE_MODELS))
    @pytest.mark.parametrize("warm", [True, False])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_force_kernels_replay_the_evaluator_bits(self, kind, warm, data):
        # friction and external force through their values and first-order
        # kernels, replayed (warm) or traced at this state (cold), against
        # the evaluators run on floats and on first-order jets; at q = 0
        # the external force is inf or NaN, from numpy floats, in both
        model = warm_force_model(kind) if warm else with_pushing(kind)
        n = model.n
        args = data.draw(st.lists(edgy, min_size=2 * n + 1, max_size=2 * n + 1))
        q, v, S = np.array(args[:n]), np.array(args[n : 2 * n]), args[2 * n]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the reruns warn about nothing
            F, Fext = dt.friction_value(model, q, v, S), dt.external_value(model, q, v, S)
            Jv = dt.friction_velocity_jacobian(model, q, v, S)
            jets = _force_jets(model, q, v, S)
        velocities, everything = range(n, 2 * n), range(2 * n + 1)
        assert canonical_bits(F) == canonical_bits(on_floats(model.friction, args, n)[0])
        assert canonical_bits(Fext) == canonical_bits(on_floats(model.external, args, n)[0])
        want_Jv = on_floats(model.friction, args, n, velocities)[1][:, n : 2 * n]
        assert canonical_bits(Jv) == canonical_bits(want_Jv)
        for got, evaluator in ((jets[:2], model.friction), (jets[2:], model.external)):
            want = on_floats(evaluator, args, n, everything)
            assert all(canonical_bits(a) == canonical_bits(b) for a, b in zip(got, want))

    def test_the_callable_lam_partials_are_exact(self):
        # F = -lam(x, S) v with lam = 0.5 + 0.25 x^2 + 0.1 e^S: the jets
        # carry the coefficient's x and S partials beside the velocity's
        model = callable_lam_piston()
        x, v, S = 1.2, 0.5, 0.3
        F, dF, _, _ = _force_jets(model, [x], [v], S)
        lam = 0.5 + 0.25 * x * x + 0.1 * np.exp(S)
        assert F[0] == pytest.approx(-lam * v, rel=1e-15)
        assert dF[0, 0] == pytest.approx(-0.5 * x * v, rel=1e-15)
        assert dF[0, 1] == pytest.approx(-lam, rel=1e-15)
        assert dF[0, 2] == pytest.approx(-0.1 * np.exp(S) * v, rel=1e-15)

    def test_the_kernels_are_dropped_with_their_evaluators(self):
        gc.collect()
        before = len(model_module._JET_KERNELS)
        for _ in range(50):
            model = with_pushing("membrane")
            dt.friction_value(model, np.zeros(3), np.ones(3), 0.5)
            _force_jets(model, np.ones(3), np.ones(3), 0.5)
        del model
        gc.collect()
        assert len(model_module._JET_KERNELS) == before


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


class TestSmallSolve:
    @pytest.mark.parametrize("n", [2, 3])
    def test_bits_equal_numpy_solve(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(300):
            Lv = rng.normal(size=(n, 2 * n + 1))
            Lv[:, n : 2 * n] += 2.0 * n * np.eye(n)  # well conditioned
            b = rng.normal(size=n)
            for A in (Lv[:, n : 2 * n], np.ascontiguousarray(Lv[:, n : 2 * n])):
                assert _solve(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    def test_n1_is_the_division(self):
        rng = np.random.default_rng(44)
        for a, b in rng.normal(size=(200, 2)):
            assert _solve(np.array([[a]]), np.array([b])).tobytes() == (np.array([b]) / a).tobytes()

    @pytest.mark.parametrize("A", [[[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]])
    def test_singular_raises(self, A):
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.array(A), np.ones(len(A)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_matrix_gives_nan(self, n):
        A, b = np.full((n, n), np.nan), np.ones(n)
        assert np.isnan(_solve(A, b)).all() and np.isnan(np.linalg.solve(A, b)).all()

    def test_callers_keep_their_errors(self):
        box = dt.DomainBox(q_lo=(-1.0,), q_hi=(1.0,), v_lo=(-1.0,), v_hi=(1.0,), s_lo=0.0, s_hi=1.0)

        def model(lagrangian, friction=lambda q, v, S: (0.0 * v[0],), degenerate=False):
            return dt.SimpleThermoModel(n=1, lagrangian=lagrangian, friction=friction,
                                        domain_box=box, degenerate=degenerate)

        no_mass = model(lambda q, v, S: -q[0] * q[0] - S)  # flagged regular, L_vv = 0
        with pytest.raises(dt.DegenerateLagrangianError):
            dt.vector_field_lagrangian(no_mass, [0.5], [0.1], 0.5)
        no_drag = model(lambda q, v, S: -q[0] * q[0] - S, degenerate=True)  # zero coefficient
        with pytest.raises(dt.DiracThermoError, match="singular friction coefficient"):
            dt.vector_field_lagrangian(no_drag, [0.5], [0.1], 0.5)
        cubic = model(lambda q, v, S: v[0] * v[0] * v[0] / 3.0 - S)  # L_vv = 2 v, zero at v = 0
        with pytest.raises(dt.DegenerateLagrangianError):
            dt.inverse_partial_legendre(cubic, [0.5], [1.0], 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            dt.hamiltonian_S_derivative(cubic, [0.5], [0.0], 0.5)


class TestSmallSolveWarnings:
    """The gufunc flags a singular matrix as an invalid operation;
    ``_solve`` turns that flag into LinAlgError inside an errstate, so
    no RuntimeWarning leaks whatever the warning filters say."""

    @pytest.mark.parametrize("n", [2, 6])
    def test_singular_raises_not_warns(self, n):
        A = np.ones((n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _solve(A, np.arange(1.0, n + 1.0))

    def test_nan_matrix_gives_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_solve(np.full((3, 3), np.nan), np.ones(3))).all()


def rule_kernel(params, lines, out):
    """The fused-kernel source ``lines`` as a function of ``params`` that
    returns the names ``out``, or None where a line raised."""
    namespace = dict(_FUSED_GLOBALS)
    exec(_kernel_source(params, [*lines, f"return {_tuple(out)}"]), namespace)
    return namespace["kernel"]


def names(prefix, count):
    return [f"{prefix}{i}" for i in range(count)]


def solve_kernel(n):
    """:func:`_solve_source` at n over A0..A(n*n-1), b0..b(n-1)."""
    A, b, x = names("A", n * n), names("b", n), names("x", n)
    return rule_kernel(A + b, _solve_source(A, b, x), x)


def momentum_rate_kernel(n):
    """The work kernel's momentum rate at vdot = 0, L_vq v + L_vS w, over
    the flat velocity rows o (n rows of 2n + 1), v0..v(n-1) and w."""
    v, m = names("v", n), names("m", n)
    return rule_kernel(["o", *v, "w"], _momentum_rate_source("o", 0, [*v, *["0.0"] * n, "w"], m), m)


# signed zeros, subnormals, huge magnitudes and plain values
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.7e308, -1.0, 3.0, 7.0]
MAGNITUDES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3, allow_nan=False))
ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def small_systems(draw):
    """(A, b) at n = 2 or 3 whose off-diagonal entries are mostly signed
    zeros: rule D's systems, and ones just outside it."""
    n = draw(st.sampled_from([2, 3]))
    A = np.array([[draw(MAGNITUDES if i == j else st.one_of(ZEROS, ZEROS, ZEROS, MAGNITUDES))
                   for j in range(n)] for i in range(n)])
    return A, np.array([draw(MAGNITUDES) for _ in range(n)])


@st.composite
def momentum_rate_rows(draw):
    """(o, v, w) at n = 1, 2 or 3: velocity rows and rates with mixed
    signed-zero factors, now and then an inf velocity or entropy rate."""
    n = draw(st.sampled_from([1, 2, 3]))
    factors = st.one_of(ZEROS, ZEROS, MAGNITUDES)
    o = tuple(draw(factors) for _ in range(n * (2 * n + 1)))
    rates = st.one_of(factors, st.sampled_from([np.inf, -np.inf]))
    return o, [draw(rates) for _ in range(n)], draw(rates)


class TestSmallSolveRules:
    """The fused kernels' float-code answers for trivial small linear
    algebra against the numpy calls they stand for. Rule D: a solve whose
    off-diagonal entries are zeros and whose diagonal entries and right-hand
    side are nonzero is b_i / A_ii. Rule Z: a momentum-rate row each of
    whose terms has a zero factor, every factor finite, is +0.0."""

    @given(system=small_systems())
    @example(system=(np.array([[2.0, 0.0], [-0.0, 3.0]]), np.array([1.0, -0.0])))  # a zero b_i
    @example(system=(np.array([[3.0, -0.0], [0.0, 10.0]]), np.array([5.0, 0.1])))  # not a reciprocal
    @example(system=(np.array([[1e-300, 0.0], [0.0, 2.0]]), np.array([1e300, 1.0])))  # overflow
    @example(system=(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0])))  # a zero pivot
    @settings(max_examples=400, deadline=None)
    def test_rule_d_has_the_bits_of_the_lapack_solve(self, system):
        A, b = system
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            got = solve_kernel(len(b))(*A.ravel().tolist(), *b.tolist())
            try:
                want = _solve(A, b)
            except np.linalg.LinAlgError:
                assert got is None
                return
        if np.isfinite(got).all():
            assert np.array(got).tobytes() == want.tobytes()
        else:  # both branches fail the kernels' finiteness guard
            assert not np.isfinite(want).all()

    @given(rows=momentum_rate_rows())
    @example(rows=((0.0, 1.0, -0.0), [-2.0], 5.0))  # L_vq = +0, L_vS = -0
    @example(rows=((-0.0, 1.0, 0.0), [np.inf], 0.0))  # 0 x inf is NaN
    @settings(max_examples=400, deadline=None)
    def test_rule_z_has_the_bits_of_the_matmul(self, rows):
        o, v, w = rows
        n = len(v)
        with np.errstate(over="ignore"):  # a huge product overflows in the matmul
            got = momentum_rate_kernel(n)(o, *v, w)
            want = _momentum_rate_from(o, (*v, *(0.0,) * n, w))
        assert np.array(got).tobytes() == want.tobytes()

    def test_each_rule_answers_in_float_code(self, monkeypatch):
        # the bit tests above would hold vacuously if no rule ever answered
        calls = counted_numpy_calls(monkeypatch)
        assert solve_kernel(2)(2.0, -0.0, 0.0, 4.0, 1.0, -3.0) == (0.5, -0.75)
        assert momentum_rate_kernel(1)((-0.0, 2.0, 0.0), 3.0, 0.0) == (0.0,)
        assert not calls
        solve_kernel(2)(2.0, 1.0, 0.0, 4.0, 1.0, -3.0)
        momentum_rate_kernel(1)((1.0, 2.0, 0.0), 3.0, 0.0)
        assert calls == {"_solve_rows": 1, "_mv": 1}


class TestJetKernelCache:
    def test_dropped_models_leave_the_cache(self):
        gc.collect()
        before = len(model_module._JET_KERNELS)
        for k in range(200):
            m = (dt.build_piston if k % 2 else dt.build_membrane)()
            dt.lagrangian_jet(m, np.full(m.n, 0.8), np.full(m.n, 0.3), 0.5)
        del m
        gc.collect()
        assert len(model_module._JET_KERNELS) == before

    def test_an_evaluator_without_weak_references_keeps_the_dict_jet(self, piston):
        calls = []

        class Slotted:  # no __weakref__ slot
            __slots__ = ()

            def __call__(self, q, v, S):
                calls.append(1)
                return piston.lagrangian(q, v, S)

        m = dataclasses.replace(piston, lagrangian=Slotted())
        states = sample_states(piston, 3, seed=4)
        wants = [dt.lagrangian_jet(piston, q, v, S) for q, v, S in states]
        before = len(model_module._JET_KERNELS)
        for (q, v, S), want in zip(states, wants):
            got = dt.lagrangian_jet(m, q, v, S)
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))
        assert len(calls) == 3  # one dict jet per state
        assert len(model_module._JET_KERNELS) == before
