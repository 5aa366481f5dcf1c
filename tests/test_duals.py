"""Forward-mode differentiation tests.

Ground truth throughout is hand calculus on small closed-form
functions; the finite-difference comparator is itself under test, so
it only appears with hand-checked expectations next to it.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_thermo import (
    DimensionMismatchError,
    Jet,
    JetKernel,
    ScalarField,
    build_membrane,
    build_piston,
    build_reactions,
    entropy_slope,
    exp,
    fd_check,
    gradient,
    hessian_matrix,
    jet,
    lagrangian_jet,
    lagrangian_partials,
    log,
    momentum_map,
    second_directional,
    sin,
    value,
)
from dirac_thermo import duals
from dirac_thermo.duals import _jet_of
from dirac_thermo.model import _kernel_jet

import conftest as reference
from conftest import Dual, dual_lifts, vector_lift

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
positive = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


class TestDualArithmetic:
    def test_mul_propagates_product_rule(self):
        a = Dual(2.0, 3.0)
        b = Dual(5.0, 7.0)
        c = a * b
        assert c.re == 10.0
        assert c.du == 2.0 * 7.0 + 3.0 * 5.0

    def test_add_sub_neg(self):
        a = Dual(1.5, 2.0)
        assert (a + 1.0).re == 2.5 and (a + 1.0).du == 2.0
        assert (1.0 - a).re == -0.5 and (1.0 - a).du == -2.0
        assert (-a).du == -2.0

    def test_div_quotient_rule(self):
        a = Dual(3.0, 1.0)
        b = Dual(2.0, 0.5)
        c = a / b
        assert c.re == 1.5
        # (a'b - ab') / b^2 = (2 - 1.5) / 4
        assert abs(c.du - (1.0 * 2.0 - 3.0 * 0.5) / 4.0) < 1e-15
        d = 6.0 / b
        assert d.re == 3.0
        assert abs(d.du - (-6.0 * 0.5 / 4.0)) < 1e-15

    def test_pow_float_exponent(self):
        x = Dual(1.7, 1.0)
        assert abs((x ** 3).du - 3 * 1.7 ** 2) < 1e-14
        assert (x ** 0).du == 0.0
        assert abs((x ** -2).du - (-2.0 * 1.7 ** -3)) < 1e-15

    def test_pow_dual_exponent(self):
        # 2^x at x=1.3 has derivative ln(2) * 2^1.3
        x = Dual(1.3, 1.0)
        y = 2.0 ** x
        assert abs(y.re - 2.0 ** 1.3) < 1e-14
        assert abs(y.du - math.log(2.0) * 2.0 ** 1.3) < 1e-14

    def test_comparisons_use_real_part(self):
        assert Dual(1.0, 99.0) < 2.0
        assert Dual(3.0, -1.0) > Dual(2.0, 50.0)

    def test_value_unwraps_nesting(self):
        assert reference.value(Dual(Dual(4.0, 1.0), Dual(2.0, 3.0))) == 4.0
        assert value(Jet(4.0, {0: 1.0}, None)) == 4.0
        assert value(7.25) == 7.25


class TestTranscendentals:
    x0 = 0.8

    def test_exp_log_sqrt(self):
        x = Dual(self.x0, 1.0)
        assert abs(reference.exp(x).du - math.exp(self.x0)) < 1e-14
        assert abs(reference.log(x).du - 1.0 / self.x0) < 1e-14
        assert abs(reference.sqrt(x).du - 0.5 / math.sqrt(self.x0)) < 1e-14

    def test_sin_cos(self):
        x = Dual(self.x0, 1.0)
        assert abs(reference.sin(x).du - math.cos(self.x0)) < 1e-15
        assert abs(reference.cos(x).du + math.sin(self.x0)) < 1e-15

    def test_plain_float_passthrough(self):
        assert exp(0.5) == math.exp(0.5)
        assert sin(0.3) == math.sin(0.3)

    def test_exp_overflow_is_inf(self):
        # IEEE's (numpy's) answer, not math.exp's OverflowError: on plain
        # and numpy floats, in a jet, and in a kernel whose replay overflows
        # (the dict jet answers for it)
        assert exp(1000.0) == math.inf and exp(np.float64(1000.0)) == math.inf
        f = lambda x, y: exp(x) * y  # noqa: E731
        kernel = JetKernel(2, 2)
        kernel(f, [0.5, 2.0])  # traced
        for got in (jet(f, [1000.0, 2.0]), kernel(f, [1000.0, 2.0])):
            assert got[0] == math.inf and got[1][0] == math.inf

    @given(x=positive)
    @settings(max_examples=50, deadline=None)
    def test_exp_log_roundtrip_derivative(self, x):
        # d/dx log(exp(x)) = 1 identically
        d = reference.log(reference.exp(Dual(x, 1.0))).du
        assert abs(d - 1.0) < 1e-12


def poly3(x, y, z):
    return x * x * y + z ** 3


class TestGradient:
    def test_low_arity_matches_hand_partials(self):
        g = gradient(poly3, [1.3, -0.7, 0.4])
        expect = np.array([2 * 1.3 * -0.7, 1.3 ** 2, 3 * 0.4 ** 2])
        assert np.max(np.abs(g - expect)) < 1e-14

    def test_vector_mode_matches_hand_partials(self):
        # arity 6: one jet over every coordinate
        def f(*a):
            return a[0] * a[1] + a[2] * a[3] * a[4] + exp(a[5])

        pt = [0.5, -1.5, 2.0, 0.25, -0.75, 0.1]
        g = gradient(f, pt)
        expect = np.array(
            [-1.5, 0.5, 0.25 * -0.75, 2.0 * -0.75, 2.0 * 0.25, math.exp(0.1)]
        )
        assert np.max(np.abs(g - expect)) < 1e-14

    def test_both_modes_agree(self):
        # one jet over all six coordinates against one dual lift per coordinate
        def f(*a):
            return a[0] * a[5] + sum(c * c for c in a)

        pt = [0.7, -0.2, 0.3, 1.1, -0.9, 0.25]
        vec = gradient(f, pt)
        for i in range(6):
            lifted = list(pt)
            lifted[i] = Dual(pt[i], 1.0)
            assert abs(f(*lifted).du - vec[i]) < 1e-14, f"coordinate {i}"

    def test_constant_function_gives_zeros(self):
        assert np.all(gradient(lambda *a: 42.0, [1.0] * 6) == 0.0)

    def test_padding_the_arity_keeps_the_bits(self):
        # a power with a constant base, exp(k log 2) as a jet: padding
        # the arity must not change the route, and so the bits
        def f3(x, y, z):
            return (2.0 ** (0.5 * z)) * x

        def f5(x, y, z, a, b):
            return f3(x, y, z)

        rng = np.random.default_rng(5)
        for pt in rng.uniform(-2.0, 2.0, (1000, 3)):
            padded = gradient(f5, [*pt, 0.3, -0.4])
            assert gradient(f3, pt).tobytes() == padded[:3].tobytes(), pt
            assert not padded[3:].any()

    @given(x=finite, y=finite)
    @settings(max_examples=50, deadline=None)
    def test_product_rule_property(self, x, y):
        gf = gradient(lambda a, b: a * b, [x, y])
        assert abs(gf[0] - y) < 1e-12 and abs(gf[1] - x) < 1e-12


class TestSecondOrder:
    def test_hessian_matrix_hand_values(self):
        def f(x, y):
            return x * x * y + y ** 3

        H = hessian_matrix(f, [1.1, 0.6])
        expect = np.array([[2 * 0.6, 2 * 1.1], [2 * 1.1, 6 * 0.6]])
        assert np.max(np.abs(H - expect)) < 1e-13

    def test_symmetric_flag_mirrors_upper_triangle(self):
        def f(x, y, z):
            return x * y * z + x * x

        mirrored = hessian_matrix(f, [0.3, -1.2, 0.8])
        expect = np.array([[2.0, 0.8, -1.2], [0.8, 0.0, 0.3], [-1.2, 0.3, 0.0]])
        assert np.max(np.abs(mirrored - expect)) < 1e-13
        assert np.max(np.abs(mirrored - mirrored.T)) == 0.0

    def test_second_directional_is_hessian_row_action(self):
        def f(x, y):
            return x * x * y

        # H = [[2y, 2x], [2x, 0]]
        d = (0.4, -1.1)
        x0, y0 = 1.5, 0.7
        got0 = second_directional(f, [x0, y0], d, 0)
        got1 = second_directional(f, [x0, y0], d, 1)
        assert abs(got0 - (2 * y0 * d[0] + 2 * x0 * d[1])) < 1e-13
        assert abs(got1 - 2 * x0 * d[0]) < 1e-13

    @given(x=finite, y=finite)
    @settings(max_examples=50, deadline=None)
    def test_mixed_partials_commute(self, x, y):
        def f(a, b):
            return sin(a * b) + a * a * b

        ij = second_directional(f, [x, y], (0.0, 1.0), 0)
        ji = second_directional(f, [x, y], (1.0, 0.0), 1)
        assert abs(ij - ji) < 1e-10


class TestScalarFieldHelpers:
    field = ScalarField(2, lambda x, y: exp(x) * y)

    def test_grad_and_hessian(self):
        g = gradient(self.field.evaluator, [0.2, 3.0])
        assert abs(g[0] - 3.0 * math.exp(0.2)) < 1e-13
        assert abs(g[1] - math.exp(0.2)) < 1e-13
        H = hessian_matrix(self.field.evaluator, [0.2, 3.0])
        assert abs(H[0, 1] - math.exp(0.2)) < 1e-13
        assert abs(H[1, 1]) < 1e-13

    def test_fd_check_small_on_smooth_field(self):
        assert fd_check(self.field, [0.2, 3.0]) < 1e-9

    def test_fd_check_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_check(self.field, [0.2, 3.0], h=0.0)

    def test_arity_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            fd_check(self.field, [1.0, 2.0, 3.0])

    def test_fd_check_rejects_a_non_finite_field(self):
        # x * 1e308 * y overflows to inf in floats, and so does its gradient
        with pytest.raises(ValueError, match="non-finite"):
            fd_check(ScalarField(2, lambda x, y: x * 1e308 * y), [10.0, 10.0])


# --- second-order jets ---------------------------------------------------


def same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays, the sign of a zero aside
    (a sparse jet leaves an untouched partial at +0.0 where duals with
    vector parts can carry -0.0)."""
    a, b = np.asarray(a, dtype=float) + 0.0, np.asarray(b, dtype=float) + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def every_operator(x, y, z):
    """Every arithmetic operator and transcendental helper on jets: jet
    and constant operands on both sides, / and its reflection, ** with
    float, int, zero and jet exponents, and a constant base. Each jet
    exponent and its base depend on every coordinate, so one-coordinate
    duals take the same ``exp(k log x)`` route for every lift (a lift
    that leaves both constant computes ``x ** k`` in plain floats). The
    helpers are read off ``duals``, as the shipped models read them, so
    the reference lifts can lend them Dual arguments."""
    u = x * y - z / (1.5 + y * y) + 2.0 / (1.0 + x * x) - (-z) / 4.0
    w = 3.0 - x + abs(y - 0.3) * 0.5 + (+z) * 2
    r = 1.0 + x * x
    base = r + 0.1 * y * z
    powered = (1.0 + z * z) ** 1.5 + y ** 3 + x ** 0 + base ** (0.5 + 0.1 * duals.sin(x * y * z))
    trans = (duals.exp(0.3 * y) * duals.cos(z) + duals.log(r) * duals.sqrt(2.0 + y * y)
             - 2.0 ** (0.5 * z + 0.1 * x * y))
    return u * w + powered + trans / r


def every_operator_6(a, b, c, d, e, f):
    """Arity 6, with every coordinate inside a shared subexpression."""
    return every_operator(a, b * f, c) * (1.0 + 0.1 * d) - every_operator(e, a, d * c) / 3.0


def flat(model):
    n = model.n
    return lambda *a: model.lagrangian(a[:n], a[n : 2 * n], a[2 * n])


def central_hessian(f, args, h=1e-5):
    """Columns from central differences of ``gradient``."""
    args = np.asarray(args, dtype=float)
    cols = []
    for j in range(args.size):
        step = np.zeros(args.size)
        step[j] = h
        cols.append((gradient(f, args + step) - gradient(f, args - step)) / (2.0 * h))
    return np.array(cols).T


coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
BUILDERS = {"piston": build_piston, "membrane": build_membrane, "reactions": build_reactions}


class TestJet:
    @given(pt=st.lists(coordinate, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_gradient_bits_match_duals_one_coordinate_at_a_time(self, pt):
        assert same_bits(jet(every_operator, pt)[1], dual_lifts(every_operator, pt))
        assert same_bits(gradient(every_operator, pt), dual_lifts(every_operator, pt))

    @given(pt=st.lists(coordinate, min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_gradient_bits_match_duals_vector_mode(self, pt):
        assert same_bits(jet(every_operator_6, pt)[1], vector_lift(every_operator_6, pt))

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_bits_match_duals_on_shipped_lagrangians(self, kind, seed):
        model = BUILDERS[kind]()
        q, v, S = model.domain_box.sample(np.random.default_rng(seed))
        args = [*q, *v, S]
        assert same_bits(jet(flat(model), args)[1], dual_lifts(flat(model), args))
        _, dLdq, dLdv, s, _ = lagrangian_jet(model, q, v, S)
        ref = lagrangian_partials(model, q, v, S)
        assert same_bits(dLdq, ref[0]) and same_bits(dLdv, ref[1]) and same_bits(s, ref[2])

    def test_hessian_hand_values(self):
        def f(x, y):
            return x * x * y + y ** 3 + exp(x) / y

        x, y = 1.1, 0.6
        val, g, H = jet(f, [x, y])
        assert val == f(x, y)
        expect = np.array([
            [2 * y + math.exp(x) / y, 2 * x - math.exp(x) / y ** 2],
            [2 * x - math.exp(x) / y ** 2, 6 * y + 2 * math.exp(x) / y ** 3],
        ])
        assert np.max(np.abs(H - expect)) < 1e-12

    @pytest.mark.parametrize("f,arity", [(every_operator, 3), (every_operator_6, 6)])
    def test_hessian_matches_central_differences(self, f, arity):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pt = rng.uniform(-1.5, 1.5, arity)
            H = jet(f, pt)[2]
            fd = central_hessian(f, pt)
            assert np.max(np.abs(H - fd)) < 1e-6 * max(1.0, np.max(np.abs(H)))

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    def test_shipped_hessians_match_central_differences(self, kind):
        model = BUILDERS[kind]()
        rng = np.random.default_rng(5)
        for _ in range(5):
            q, v, S = model.domain_box.sample(rng)
            pt = [*q, *v, S]
            H = jet(flat(model), pt)[2]
            fd = central_hessian(flat(model), pt)
            assert np.max(np.abs(H - fd)) < 1e-6 * max(1.0, np.max(np.abs(H)))

    @given(pt=st.lists(coordinate, min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_hessian_is_exactly_symmetric(self, pt):
        H = jet(every_operator_6, pt)[2]
        assert np.array_equal(H, H.T)

    def test_numpy_scalar_left_operand(self):
        x = Jet(0.7, {0: 1.0}, {})
        for out, val, d1, d2 in [
            (np.float64(2.5) * x, 1.75, 2.5, 0.0),
            (np.float64(1.0) - x, 0.3, -1.0, 0.0),
            (np.float64(1.4) / x, 2.0, -1.4 / 0.49, 2.8 / 0.343),
            (np.float64(3.0) + x * x, 3.49, 1.4, 2.0),
        ]:
            assert type(out) is Jet
            assert type(out.re) is float and all(type(e) is float for e in out.g.values())
            assert abs(out.re - val) < 1e-15
            assert abs(out.g[0] - d1) < 1e-12
            assert abs(out.h.get((0, 0), 0.0) - d2) < 1e-12
        assert value(np.float64(2.0) ** x) == 2.0 ** 0.7

    def test_constant_function(self):
        val, g, H = jet(lambda x, y: 4.0, [1.0, 2.0])
        assert val == 4.0 and not g.any() and not H.any()


def jet_bits(compute):
    """The bytes of ``compute()``'s jet of any order (a value, or a tuple
    of a value and arrays), or the class of the exception it raises."""
    try:
        out = compute()
    except Exception as err:
        return type(err)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in (out if type(out) is tuple else (out,)))


def same_jet(kernel, f, args, order=2):
    """The kernel's jet has the dict jet's bits, signs of zeros included,
    or raises the same exception class."""
    want = jet_bits(lambda: jet(f, args, order))
    return jet_bits(lambda: kernel(f, args)) == want


@lru_cache(maxsize=None)
def traced_kernel(kind, order):
    """A model's kernel of ``order``, traced at the middle of its box."""
    model = BUILDERS[kind]()
    n, box = model.n, model.domain_box
    kernel = JetKernel(2 * n + 1, order)
    mid = [*(np.add(box.q_lo, box.q_hi) / 2), *(np.add(box.v_lo, box.v_hi) / 2), (box.s_lo + box.s_hi) / 2]
    kernel(flat(model), mid)
    assert kernel.replay is not None
    return model, kernel


# coordinates from either side of zero, zeros of both signs among them
edgy = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(min_value=-3.0, max_value=3.0))


class TestJetKernel:
    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_kernel_replays_the_dict_jet_on_shipped_lagrangians(self, kind, data):
        # every drawn state at every order
        n = BUILDERS[kind]().n
        args = data.draw(st.lists(edgy, min_size=2 * n + 1, max_size=2 * n + 1))
        q, v, S = args[:n], args[n : 2 * n], args[2 * n]
        for order in (0, 1, 2):
            model, kernel = traced_kernel(kind, order)
            assert same_jet(kernel, flat(model), args, order), order

            def via_dict_jet():
                try:
                    return jet(flat(model), args, order)
                except (TypeError, ArithmeticError):  # off the domain: numpy floats answer
                    with np.errstate(all="ignore"):  # with inf or NaN, as the model reader does
                        return _jet_of(flat(model), [np.float64(a) for a in args], order)

            # so does the model's own cached kernel of that order
            via_model = jet_bits(lambda: _kernel_jet(model.lagrangian, n, q, v, S, order))
            assert via_model == jet_bits(via_dict_jet), order
            if order == 2:  # lagrangian_jet reads this jet's velocity rows

                def velocity_rows():
                    L, dLdq, dLdv, s, Lv = lagrangian_jet(model, q, v, S)
                    return L, np.concatenate([dLdq, dLdv, [s]]), Lv

                def dict_velocity_rows():
                    L, g, H = via_dict_jet()
                    return L, g, H[n : 2 * n]

                assert jet_bits(velocity_rows) == jet_bits(dict_velocity_rows)

    @pytest.mark.parametrize("f,arity", [(every_operator, 3), (every_operator_6, 6)])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_kernel_replays_every_operator(self, f, arity, order):
        rng = np.random.default_rng(7)
        kernel = JetKernel(arity, order)
        for _ in range(40):  # the first call traces, and abs's guard flips on the way
            assert same_jet(kernel, f, list(rng.uniform(-1.5, 1.5, arity)), order)
        assert kernel.replay is not None

    @given(pt=st.lists(edgy, min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_every_operator_kernel_property(self, pt):
        kernel = JetKernel(3)
        kernel(every_operator, [0.4, 0.9, -0.3])
        assert same_jet(kernel, every_operator, pt)

    def test_kernel_raises_what_the_dict_jet_raises(self):
        # 1/x at x = 0, and x ** 1.5 whose second derivative is 0 ** -0.5
        # (the dict jet's inf), from a kernel traced elsewhere and from one
        # whose first call is the singular point
        for f, bad in [
            (lambda x, y: y / x + x * y, [0.0, 2.0]),
            (lambda x, y: x ** 1.5 * y, [0.0, 2.0]),
            (lambda x, y: log(x) + y, [-1.0, 2.0]),
            (lambda x, y: (x - 1.0) ** 0.5 * y, [0.5, 2.0]),  # a complex power
        ]:
            warm = JetKernel(2)
            assert same_jet(warm, f, [1.7, 0.4])
            assert same_jet(warm, f, bad)
            cold = JetKernel(2)
            assert same_jet(cold, f, bad)
            assert same_jet(cold, f, [1.7, 0.4])
            assert cold.replay is not None
        assert jet_bits(lambda: jet(lambda x, y: y / x, [0.0, 1.0])) is ZeroDivisionError

    def test_a_flipped_branch_falls_back_to_the_dict_jet(self):
        calls = []

        def branchy(x, y):
            calls.append(1)
            big = x * y if x > y else y - x * x
            return abs(x - 0.5) * big + exp(y)

        kernel = JetKernel(2)
        kernel(branchy, [1.0, 0.2])
        assert len(calls) == 1  # the trace
        for pt, falls_back in [
            ([1.1, 0.3], False),
            ([0.3, 0.1], True),   # abs's sign test flips
            ([0.7, 0.9], True),   # x > y flips
            ([2.0, -1.0], False),
        ]:
            before = len(calls)
            assert same_jet(kernel, branchy, pt)
            # same_jet calls the dict jet once itself
            assert len(calls) - before == (2 if falls_back else 1), pt

    @pytest.mark.parametrize("escape", [
        lambda x: float(x.re),
        lambda x: math.floor(x.re),
        lambda x: np.tanh(x.re),
        lambda x: 1.0 if x.re else 0.0,
        lambda x: x.re * np.float64(0.5),
        lambda x: complex(x.re).real,
    ])
    def test_a_value_escape_keeps_the_dict_jet(self, escape):
        calls = []

        def escaping(x, y):
            calls.append(1)
            return x * y * (1.0 + escape(x))

        kernel = JetKernel(2)
        for pt in ([0.4, 1.2], [1.6, -0.7], [2.5, 0.3]):
            before = len(calls)
            assert same_jet(kernel, escaping, pt)
            assert len(calls) - before >= 2  # the dict jet answered
        assert kernel.replay is None and not kernel.traceable

    def test_value_keeps_the_trace_and_replays_the_dict_jet(self):
        # value (or a jet's .re) strips the derivative layers and keeps the
        # traced primal: the kernel compiles, drops the partials that flow
        # through value as the dict jet does, and replays the dict jet's bits
        calls = []

        def stripping(x, y):
            calls.append(1)
            return x * y * (1.0 + value(x) * value(y)) + exp(value(x)) + (x.re - x)

        for order in (0, 1, 2):
            kernel = JetKernel(2, order)
            for pt in ([0.4, 1.2], [1.6, -0.7], [2.5, 0.3], [-0.0, 0.0]):
                assert same_jet(kernel, stripping, pt, order)
            assert kernel.replay is not None and kernel.traceable
        assert len(calls) == 3 * (1 + 4)  # the traces, then the dict jets of same_jet
        _, g, _ = jet(stripping, [0.4, 1.2])
        assert g.tolist() == [1.2 * (1.0 + 0.4 * 1.2) - 1.0, 0.4 * (1.0 + 0.4 * 1.2)]

    def test_a_covector_kernel_replays_the_stacked_dict_jet(self):
        # a tuple of outputs, one of them constant: the kernel stacks them
        # as jet does, and the order-0 kernel gives the plain-float tuple,
        # powers with a variable exponent included
        def covector(x, y, z):
            return (x * y - z, exp(x) / y, 0.5, abs(z) * x, 2.0 ** z * y ** x)

        shapes = [(5,), (5, 3), (5, 3, 3)]
        rng = np.random.default_rng(11)
        for order in (0, 1, 2):
            kernel = JetKernel(3, order)
            for _ in range(30):
                pt = list(rng.uniform(0.2, 1.5, 3) * rng.choice([-1.0, 1.0], 3))
                pt[1] = abs(pt[1])
                want, got = jet(covector, pt, order), kernel(covector, pt)
                if order == 0:
                    plain = np.array(covector(*pt), dtype=float)
                    assert want.tobytes() == plain.tobytes()
                    want, got = (want,), (got,)
                assert [a.shape for a in got] == shapes[: order + 1]
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            assert kernel.replay is not None

    def test_value_of_a_bare_traced_float_is_that_float(self):
        kernel = JetKernel(2, 0)
        kernel(lambda x, y: x * value(y), [1.5, 2.0])
        assert kernel.replay is not None
        assert kernel(lambda x, y: x * value(y), [3.0, -0.5]) == -1.5


def canonical_bits(a) -> bytes:
    """The bytes of a float array with every NaN made the same NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@lru_cache(maxsize=None)
def warm_model(kind):
    """A shipped model whose order-1 kernel is traced at the middle
    of its box."""
    model = BUILDERS[kind]()
    box = model.domain_box
    lagrangian_partials(model, np.add(box.q_lo, box.q_hi) / 2, np.add(box.v_lo, box.v_hi) / 2, box.s_lo)
    return model


class TestFirstOrderKernel:
    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    @pytest.mark.parametrize("warm", [True, False])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_order_readers_match_dual_lifts(self, kind, warm, data):
        # a replayed kernel, and a fresh model whose first call traces; at
        # piston x <= 0 the partials are NaN or inf, as the lifts give
        model = warm_model(kind) if warm else BUILDERS[kind]()
        n = model.n
        args = data.draw(st.lists(edgy, min_size=2 * n + 1, max_size=2 * n + 1))
        q, v, S = np.array(args[:n]), np.array(args[n : 2 * n]), args[2 * n]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = dual_lifts(flat(model), [*q, *v, S])
            dLdq, dLdv, s = lagrangian_partials(model, q, v, S)
            slope = entropy_slope(model, q, v, S)
            p = momentum_map(model, q, v, S)
        assert canonical_bits(np.concatenate([dLdq, dLdv, [s]])) == canonical_bits(want)
        assert canonical_bits(slope) == canonical_bits(want[2 * n])
        assert canonical_bits(p) == canonical_bits(want[n : 2 * n])
