"""Forward-mode derivative arithmetic: operator algebra, the function
library, and the seeded partial/gradient/jacobian helpers, all checked
against central finite differences, and array-valued duals against the
scalar ones entry by entry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberdirac import dual as dm
from fiberdirac.charts import CoordinateDomain
from fiberdirac.dual import Dual
from fiberdirac.yangmills import (PrincipalData, StructureGroupModel,
                                  hopf_example)
from test_coupling import quadratic_so3_potential

FD_TOL = 1e-7
FD_H = 1e-6


def central_diff(f, x, h=FD_H):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_arithmetic_values_match_floats():
    a, b = Dual(1.7, 1.0), Dual(-0.4, 0.0)
    assert dm.value_of(a + b) == pytest.approx(1.3)
    assert dm.value_of(a * b) == pytest.approx(-0.68)
    assert dm.value_of(a - b) == pytest.approx(2.1)
    assert dm.value_of(a / b) == pytest.approx(1.7 / -0.4)
    assert dm.value_of(2.0 + a) == pytest.approx(3.7)
    assert dm.value_of(2.0 - a) == pytest.approx(0.3)
    assert dm.value_of(3.0 * a) == pytest.approx(5.1)
    assert dm.value_of(1.0 / a) == pytest.approx(1.0 / 1.7)
    assert dm.value_of(-a) == pytest.approx(-1.7)


def test_product_and_quotient_rules():
    x = Dual(0.83, 1.0)
    y = x * x * x
    assert y.eps == pytest.approx(3 * 0.83 ** 2, rel=1e-12)
    q = (x * x) / (1.0 + x)
    expected = (2 * 0.83 * (1 + 0.83) - 0.83 ** 2) / (1 + 0.83) ** 2
    assert q.eps == pytest.approx(expected, rel=1e-12)


def test_integer_power_handles_negative_base():
    x = Dual(-1.2, 1.0)
    y = x ** 3
    assert y.re == pytest.approx((-1.2) ** 3)
    assert y.eps == pytest.approx(3 * (-1.2) ** 2, rel=1e-12)


def test_scalar_power():
    x = Dual(2.3, 1.0)
    y = x ** 0.5
    assert y.eps == pytest.approx(0.5 * 2.3 ** (-0.5), rel=1e-12)


@pytest.mark.parametrize("name", sorted(dm.FUNCTIONS))
def test_function_library_derivatives(name):
    fn = dm.FUNCTIONS[name]
    x0 = {"asin": 0.4, "acos": 0.4, "log": 1.3, "sqrt": 1.3}.get(name, 0.7)
    out = fn(Dual(x0, 1.0))
    ref = central_diff(lambda t: dm.value_of(fn(t)), x0)
    assert out.eps == pytest.approx(ref, rel=FD_TOL, abs=FD_TOL)


def test_functions_pass_plain_floats_through():
    assert dm.sin(0.3) == pytest.approx(math.sin(0.3))
    assert dm.sqrt(2.0) == pytest.approx(math.sqrt(2.0))


def test_value_of_is_identity_on_floats():
    assert dm.value_of(2.5) == 2.5
    assert dm.value_of(Dual(2.5, 99.0)) == 2.5


def test_partial_and_gradient():
    f = lambda p: dm.sin(p[0]) * p[1] + p[1] * p[1]
    point = [0.6, -1.1]
    assert dm.partial(f, point, 0) == pytest.approx(
        math.cos(0.6) * -1.1, rel=1e-12)
    grad = dm.gradient(f, point)
    assert grad[1] == pytest.approx(math.sin(0.6) + 2 * -1.1, rel=1e-12)


def test_jacobian_shape_and_values():
    f = lambda p: [p[0] * p[1], p[0] + dm.exp(p[1])]
    jac = dm.jacobian(f, [0.5, 0.25])
    assert len(jac) == 2 and len(jac[0]) == 2
    assert jac[0][0] == pytest.approx(0.25)
    assert jac[0][1] == pytest.approx(0.5)
    assert jac[1][1] == pytest.approx(math.exp(0.25), rel=1e-12)


def test_directional_derivative_is_linear_combination():
    f = lambda p: p[0] * p[0] + 3.0 * p[1]
    point, direction = [1.2, 0.3], [0.5, -2.0]
    want = 2 * 1.2 * 0.5 + 3.0 * -2.0
    assert dm.directional(f, point, direction) == pytest.approx(want,
                                                                rel=1e-12)


def test_second_partials_commute():
    f = lambda p: dm.sin(p[0] * p[1]) + p[0] ** 3
    assert dm.second_partial(f, [0.7, 1.3], 0, 1) == pytest.approx(
        dm.second_partial(f, [0.7, 1.3], 1, 0), rel=1e-9)


def _flat_curvature(pd):
    return lambda q: [c for pair in pd.curvature(q) for c in pair]


def _nested_cases():
    hopf = hopf_example(lambda x: 2.0 * x + 1.0)
    base = CoordinateDomain.box([(-1.0, 1.0)] * 3, name="b3")
    so3 = PrincipalData(StructureGroupModel.rotations(), base,
                        quadratic_so3_potential)
    return {"hopf-omega": (hopf.omega_h, [0.3, -0.4, 0.5], 2),
            "hopf-curvature": (_flat_curvature(hopf.principal), [0.3, -0.4],
                               2),
            "so3-quadratic-curvature": (_flat_curvature(so3),
                                        [0.3, -0.4, 0.5], 3)}


@pytest.mark.parametrize("case", ["hopf-omega", "hopf-curvature",
                                  "so3-quadratic-curvature"])
def test_nested_partials_match_central_differences(case):
    """dm.partial along each base coordinate of a function that takes
    partials itself: the outer seed lands on dual points, which the inner
    seed must wrap in a new level."""
    fn, point, n_base = _nested_cases()[case]
    for a in range(n_base):
        up, down = list(point), list(point)
        up[a] += FD_H
        down[a] -= FD_H
        want = [(u - d) / (2.0 * FD_H) for u, d in zip(fn(up), fn(down))]
        assert dm.partial(fn, point, a) == pytest.approx(
            want, rel=FD_TOL, abs=FD_TOL), a


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_composite_derivative_matches_finite_difference(a, b):
    f = lambda t: dm.sin(t * t + a) * dm.exp(0.3 * t) + b * t
    out = f(Dual(0.9, 1.0))
    ref = central_diff(lambda t: dm.value_of(f(t)), 0.9)
    assert out.eps == pytest.approx(ref, rel=1e-6, abs=1e-6)


# -- array-valued duals ----------------------------------------------------------

RNG = np.random.default_rng(20240611)
N_ARRAY = 257

BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "**": lambda a, b: a ** b,
}


def array_dual(lo, hi):
    return Dual(RNG.uniform(lo, hi, N_ARRAY), RNG.uniform(-2.0, 2.0, N_ARRAY))


def element(x, k):
    """Entry k of an array, or of both slots of an array Dual, as floats."""
    if isinstance(x, Dual):
        return Dual(element(x.re, k), element(x.eps, k))
    return float(x[k]) if isinstance(x, np.ndarray) else x


def assert_elementwise(out, scalar_results, rel=0.0):
    assert isinstance(out, Dual)
    for part in ("re", "eps"):
        got = np.broadcast_to(getattr(out, part), (N_ARRAY,))
        want = np.array([getattr(r, part) if isinstance(r, Dual) else 0.0
                         for r in scalar_results])
        if rel == 0.0:
            assert np.array_equal(got, want), part
        else:
            np.testing.assert_allclose(got, want, rtol=rel, atol=0.0,
                                       err_msg=part)


def operand_pairs():
    """(left, right) operand combinations with an array on at least one
    side; bases are positive so every power is real."""
    d1, d2 = array_dual(0.2, 3.0), array_dual(0.2, 3.0)
    a = RNG.uniform(0.2, 3.0, N_ARRAY)
    return [(d1, d2), (d1, a), (a, d1), (d1, 1.7), (1.7, d1),
            (Dual(1.3, 0.4), d1), (d1, Dual(1.3, 0.4)), (d1, 3)]


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_array_ring_ops_equal_scalar_ops_bitwise(op):
    fn = BINARY_OPS[op]
    for left, right in operand_pairs():
        out = fn(left, right)
        assert_elementwise(out, [fn(element(left, k), element(right, k))
                                 for k in range(N_ARRAY)])


def test_array_powers_agree_with_scalar_powers():
    # numpy's power is not libm's pow (x*x for a square, its own loop
    # otherwise), so powers agree to an ulp or two rather than bitwise
    fn = BINARY_OPS["**"]
    for left, right in operand_pairs():
        out = fn(left, right)
        assert_elementwise(out, [fn(element(left, k), element(right, k))
                                 for k in range(N_ARRAY)], rel=1e-15)


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_ndarray_op_dual_returns_a_dual(op):
    fn = BINARY_OPS[op]
    a = np.array([0.5, 1.5, 2.5])
    for d in (Dual(1.2, 0.3), Dual(np.array([0.7, 1.1, 1.9]), 1.0)):
        for out in (fn(a, d), fn(np.float64(1.5), d)):
            assert isinstance(out, Dual), type(out)
            assert np.asarray(out.re).dtype == np.float64


DOMAINS = {"asin": (-0.95, 0.95), "acos": (-0.95, 0.95), "log": (0.05, 4.0),
           "sqrt": (0.05, 4.0), "tan": (-1.4, 1.4)}


@pytest.mark.parametrize("name", sorted(dm.FUNCTIONS))
def test_function_library_on_arrays_matches_scalars(name):
    # numpy's tan/exp/log/... may differ from math's by an ulp
    fn = dm.FUNCTIONS[name]
    x = array_dual(*DOMAINS.get(name, (-2.0, 2.0)))
    out = fn(x)
    assert isinstance(out.re, np.ndarray) and isinstance(out.eps, np.ndarray)
    assert_elementwise(out, [fn(element(x, k)) for k in range(N_ARRAY)],
                       rel=1e-15)
    plain = fn(x.re)
    assert isinstance(plain, np.ndarray)
    np.testing.assert_allclose(plain, out.re, rtol=0.0, atol=0.0)


def test_array_duals_have_no_order():
    d = Dual(np.array([0.5, -0.5]), 1.0)
    for compare in (lambda: d < 0.0, lambda: d <= 0.0, lambda: d > 0.0,
                    lambda: d >= 0.0, lambda: 0.0 < d, lambda: abs(d)):
        with pytest.raises(TypeError):
            compare()
    assert abs(Dual(-0.5, 1.0)).eps == -1.0


def test_domain_errors_on_arrays_are_nan():
    with np.errstate(invalid="ignore"):
        out = dm.log(Dual(np.array([-1.0, 2.0]), 1.0))
    assert math.isnan(out.re[0]) and out.re[1] == math.log(2.0)
    # the derivative of an undefined value is undefined, not 1/x
    assert math.isnan(out.eps[0]) and out.eps[1] == 0.5
    with pytest.raises(ValueError):
        dm.log(Dual(-1.0, 1.0))
