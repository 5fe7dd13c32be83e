"""Numerical kernels: integrator order, quadrature exactness, sampling
determinism, subspace helpers, the small dense helpers and the residual
reduction."""

import math

import numpy as np
import pytest

from fiberdirac import dual as dm
from fiberdirac._numerics import (det, intersection_dimension, lstsq_residual,
                                  nullspace, orthonormal_basis, parallel_map,
                                  principal_angles, rk4_integrate,
                                  sample_unit_cube, simpson_integrate,
                                  simpson_weights, skew_matrix, smoothstep,
                                  worst)


def test_rk4_matches_exponential():
    y = rk4_integrate(lambda t, y: [y[0]], [1.0], 0.0, 1.0, step=1e-3)
    assert y[0] == pytest.approx(math.e, rel=1e-12)


def test_rk4_is_fourth_order():
    def err(step):
        y = rk4_integrate(lambda t, y: [math.cos(t) * y[0]], [1.0],
                          0.0, 1.5, step=step)
        return abs(y[0] - math.exp(math.sin(1.5)))

    ratio = err(0.02) / err(0.01)
    assert 12.0 < ratio < 20.0        # 2⁴ = 16 up to higher-order terms


def test_rk4_integrates_backward():
    y = rk4_integrate(lambda t, y: [y[0]], [math.e], 1.0, 0.0, step=1e-3)
    assert y[0] == pytest.approx(1.0, rel=1e-10)


def test_simpson_weights_and_cubic_exactness():
    w = simpson_weights(5)
    assert sum(w) == pytest.approx(1.0, rel=1e-14)
    nodes = [k / 4 for k in range(5)]
    samples = [t ** 3 - 2 * t + 0.5 for t in nodes]
    assert simpson_integrate(samples) == pytest.approx(0.25 - 1.0 + 0.5,
                                                       rel=1e-14)
    with pytest.raises(ValueError):
        simpson_weights(4)            # even node counts have no rule


def test_smoothstep_endpoint_derivatives():
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    h = 1e-6
    assert abs(smoothstep(h) / h) < 1e-4          # s′(0) = 0
    assert abs((1.0 - smoothstep(1.0 - h)) / h) < 1e-4


def test_sample_unit_cube_determinism_and_range():
    a = sample_unit_cube(32, 3, seed=7)
    b = sample_unit_cube(32, 3, seed=7)
    assert a == b
    assert a != sample_unit_cube(32, 3, seed=8)
    assert all(0.0 <= c < 1.0 for row in a for c in row)


def test_orthonormal_basis_and_angles():
    basis = orthonormal_basis([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert len(basis) == 2
    angles = principal_angles([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    assert angles[0] == pytest.approx(math.pi / 2, rel=1e-12)


def test_intersection_dimension():
    xy = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    yz = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert intersection_dimension(xy, yz) == 1
    assert intersection_dimension(xy, [[0.0, 0.0, 1.0]]) == 0


def test_nullspace_of_singular_matrix():
    rows = [[1.0, 2.0], [2.0, 4.0]]
    null = nullspace(rows)
    assert len(null) == 1
    v = null[0]
    assert abs(v[0] + 2.0 * v[1]) < 1e-12


def test_lstsq_residual_detects_membership():
    basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert lstsq_residual(basis, [0.3, -0.7, 0.0]) < 1e-14
    assert lstsq_residual(basis, [0.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda k: k * k, items) == [k * k for k in items]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_det_matches_numpy(n):
    rng = np.random.RandomState(n)
    mat = rng.uniform(-1.0, 1.0, size=(n, n))
    want = np.linalg.det(mat) if n else 1.0
    assert det(mat.tolist()) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_det_on_duals_gives_the_derivative():
    # d/ds det(A + sB) at s = 0 is tr(adj(A) B) = det(A) tr(A⁻¹ B)
    rng = np.random.RandomState(7)
    a = rng.uniform(-1.0, 1.0, size=(3, 3))
    b = rng.uniform(-1.0, 1.0, size=(3, 3))
    out = det([[dm.Dual(a[i, j], b[i, j]) for j in range(3)]
               for i in range(3)])
    assert out.re == pytest.approx(np.linalg.det(a), rel=1e-12)
    assert out.eps == pytest.approx(
        np.linalg.det(a) * np.trace(np.linalg.solve(a, b)), rel=1e-10)


def test_skew_matrix_places_entries_with_signs():
    assert skew_matrix(3, [1.0, 2.0, 3.0]) == [[0.0, 1.0, 2.0],
                                               [-1.0, 0.0, 3.0],
                                               [-2.0, -3.0, 0.0]]
    assert skew_matrix(1, []) == [[0.0]]


def test_worst_is_zero_when_empty_and_keeps_nan_in_any_position():
    assert worst([]) == 0.0
    assert worst([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(worst([float("nan"), 0.0, 1.0]))
    assert math.isnan(worst([0.0, 1.0, float("nan")]))


def test_tangent_reads_back_eps_parts():
    assert dm.tangent(dm.Dual(1.0, 2.5)) == 2.5
    assert dm.tangent([dm.Dual(1.0, 2.0), 3.0, dm.Dual(0.0, -1.0)]) == \
        [2.0, 0.0, -1.0]
    assert dm.tangent(4.0) == 0.0
    nested = dm.Dual(dm.Dual(1.0, 2.0), dm.Dual(3.0, 4.0))
    inner = dm.tangent(nested)
    assert isinstance(inner, dm.Dual)
    assert (inner.re, inner.eps) == (3.0, 4.0)
    assert dm.tangent(inner) == 4.0
