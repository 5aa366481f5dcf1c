"""Forward-mode differentiation tests.

Ground truth throughout is hand calculus on small closed-form
functions; the finite-difference comparator is itself under test, so
it only appears with hand-checked expectations next to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_thermo import (
    DimensionMismatchError,
    Dual,
    Jet,
    ScalarField,
    build_membrane,
    build_piston,
    build_reactions,
    cos,
    exp,
    fd_check,
    grad,
    gradient,
    hessian,
    hessian_matrix,
    jet,
    lagrangian_jet,
    lagrangian_partials,
    log,
    second_directional,
    sin,
    sqrt,
    value,
)

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
        assert value(Dual(Dual(4.0, 1.0), Dual(2.0, 3.0))) == 4.0
        assert value(7.25) == 7.25


class TestTranscendentals:
    x0 = 0.8

    def test_exp_log_sqrt(self):
        x = Dual(self.x0, 1.0)
        assert abs(exp(x).du - math.exp(self.x0)) < 1e-14
        assert abs(log(x).du - 1.0 / self.x0) < 1e-14
        assert abs(sqrt(x).du - 0.5 / math.sqrt(self.x0)) < 1e-14

    def test_sin_cos(self):
        x = Dual(self.x0, 1.0)
        assert abs(sin(x).du - math.cos(self.x0)) < 1e-15
        assert abs(cos(x).du + math.sin(self.x0)) < 1e-15

    def test_plain_float_passthrough(self):
        assert exp(0.5) == math.exp(0.5)
        assert sin(0.3) == math.sin(0.3)

    @given(x=positive)
    @settings(max_examples=50, deadline=None)
    def test_exp_log_roundtrip_derivative(self, x):
        # d/dx log(exp(x)) = 1 identically
        d = log(exp(Dual(x, 1.0))).du
        assert abs(d - 1.0) < 1e-12


def poly3(x, y, z):
    return x * x * y + z ** 3


class TestGradient:
    def test_low_arity_matches_hand_partials(self):
        g = gradient(poly3, [1.3, -0.7, 0.4])
        expect = np.array([2 * 1.3 * -0.7, 1.3 ** 2, 3 * 0.4 ** 2])
        assert np.max(np.abs(g - expect)) < 1e-14

    def test_vector_mode_matches_hand_partials(self):
        # arity 6 goes through the one-shot array-payload path
        def f(*a):
            return a[0] * a[1] + a[2] * a[3] * a[4] + exp(a[5])

        pt = [0.5, -1.5, 2.0, 0.25, -0.75, 0.1]
        g = gradient(f, pt)
        expect = np.array(
            [-1.5, 0.5, 0.25 * -0.75, 2.0 * -0.75, 2.0 * 0.25, math.exp(0.1)]
        )
        assert np.max(np.abs(g - expect)) < 1e-14

    def test_both_modes_agree(self):
        def f(*a):
            return a[0] * a[5] + sum(c * c for c in a)

        pt = [0.7, -0.2, 0.3, 1.1, -0.9, 0.25]
        vec = gradient(f, pt)  # arity 6 takes the one-shot path
        for i in range(6):
            lifted = list(pt)
            lifted[i] = Dual(pt[i], 1.0)
            assert abs(f(*lifted).du - vec[i]) < 1e-14, f"coordinate {i}"

    def test_constant_function_gives_zeros(self):
        assert np.all(gradient(lambda *a: 42.0, [1.0] * 6) == 0.0)

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

        full = hessian_matrix(f, [0.3, -1.2, 0.8])
        mirrored = hessian_matrix(f, [0.3, -1.2, 0.8], symmetric=True)
        assert np.max(np.abs(full - mirrored)) < 1e-13
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
        g = grad(self.field, [0.2, 3.0])
        assert abs(g[0] - 3.0 * math.exp(0.2)) < 1e-13
        assert abs(g[1] - math.exp(0.2)) < 1e-13
        H = hessian(self.field, [0.2, 3.0])
        assert abs(H[0, 1] - math.exp(0.2)) < 1e-13
        assert abs(H[1, 1]) < 1e-13

    def test_fd_check_small_on_smooth_field(self):
        assert fd_check(self.field, [0.2, 3.0]) < 1e-9

    def test_fd_check_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_check(self.field, [0.2, 3.0], h=0.0)

    def test_arity_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            grad(self.field, [1.0, 2.0, 3.0])


# --- second-order jets ---------------------------------------------------


def same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays, the sign of a zero aside
    (a sparse jet leaves an untouched partial at +0.0 where vector-mode
    duals can carry -0.0)."""
    a, b = np.asarray(a, dtype=float) + 0.0, np.asarray(b, dtype=float) + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def every_operator(x, y, z):
    """Every arithmetic operator and transcendental helper on jets: jet
    and constant operands on both sides, / and its reflection, ** with
    float, int, zero and jet exponents, and a constant base. Each jet
    exponent and its base depend on every coordinate, so one-coordinate
    duals take the same ``exp(k log x)`` route for every lift (a lift
    that leaves both constant computes ``x ** k`` in plain floats)."""
    u = x * y - z / (1.5 + y * y) + 2.0 / (1.0 + x * x) - (-z) / 4.0
    w = 3.0 - x + abs(y - 0.3) * 0.5 + (+z) * 2
    r = 1.0 + x * x
    base = r + 0.1 * y * z
    powered = (1.0 + z * z) ** 1.5 + y ** 3 + x ** 0 + base ** (0.5 + 0.1 * sin(x * y * z))
    trans = exp(0.3 * y) * cos(z) + log(r) * sqrt(2.0 + y * y) - 2.0 ** (0.5 * z + 0.1 * x * y)
    return u * w + powered + trans / r


def every_operator_6(a, b, c, d, e, f):
    """Arity 6: :func:`gradient` takes its vector-payload route here."""
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
        assert same_bits(jet(every_operator, pt)[1], gradient(every_operator, pt))

    @given(pt=st.lists(coordinate, min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_gradient_bits_match_duals_vector_mode(self, pt):
        assert same_bits(jet(every_operator_6, pt)[1], gradient(every_operator_6, pt))

    @pytest.mark.parametrize("kind", ["piston", "membrane", "reactions"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_bits_match_duals_on_shipped_lagrangians(self, kind, seed):
        model = BUILDERS[kind]()
        q, v, S = model.domain_box.sample(np.random.default_rng(seed))
        args = [*q, *v, S]
        assert same_bits(jet(flat(model), args)[1], gradient(flat(model), args))
        dLdq, dLdv, s, _ = lagrangian_jet(model, q, v, S)
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

    def test_rows_select_hessian_rows(self):
        pt = [0.4, -0.8, 1.2, 0.1, -0.5, 0.9]
        _, g, full = jet(every_operator_6, pt)
        _, g2, part = jet(every_operator_6, pt, rows=[1, 4])
        assert same_bits(g, g2)
        for i in range(6):
            for j in range(6):
                want = full[i, j] if i in (1, 4) or j in (1, 4) else 0.0
                assert part[i, j] == want

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
