"""Numerical kernels: integrator order and time grid, time tables, linear
RK4 runs as products of step matrices, quadrature exactness, sampling
determinism, subspace helpers, the small dense helpers and the residual
reduction."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fiberdirac import _numerics
from fiberdirac import dual as dm
from fiberdirac._numerics import (det, halves, intersection_dimension,
                                  linear_rk4, lstsq_residual, nullspace,
                                  orthonormal_basis, parallel_map,
                                  principal_angles, rk4_integrate, rk4_step,
                                  rk4_times, sample_unit_cube,
                                  simpson_integrate, simpson_weights,
                                  skew_matrix, smoothstep, stack,
                                  step_matrices, time_table, unstack, worst)
from fiberdirac.apath import flow_commutation_residual
from fiberdirac.cli import MIN_APATH_STEP, compile_expression
from fiberdirac.fibration import BasePath, Transport
from fiberdirac.yangmills import HamiltonianFiber, so3_coadjoint_example
from reference import (per_dimension_unit_cube, per_node_simpson_integrate,
                       stepped_propagators)
from test_coupling import per_vector_distance


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


def asked_times(t0, t1, step):
    """The times rk4_integrate passes to its right-hand side, a repeat in
    a row counted once (the two midpoint stages, and a step's end that is
    the next step's start)."""
    asked = []
    rk4_integrate(lambda t, y: asked.append(t) or [0.0], [0.0], t0, t1,
                  step=step)
    return [t.hex() for k, t in enumerate(asked)
            if k == 0 or t != asked[k - 1]]


@pytest.mark.parametrize("t0,t1,step,steps", [
    (0.0, 1.0, 0.1, 10),             # forward
    (1.0, 0.0, 0.1, 10),             # backward
    (0.25, 0.9, 0.3, 3),             # the step does not divide the span
    (0.2, 0.7, 0.5 / (3 + 5e-13), 3),  # within 1e-12 of 3 steps: 3
    (0.2, 0.7, 0.5 / (3 + 5e-12), 4),  # beyond it: a fourth step
], ids=["forward", "backward", "remainder", "ceil-edge", "past-edge"])
def test_rk4_times_are_the_times_the_integrator_asks(t0, t1, step, steps):
    times = rk4_times(t0, t1, step)
    assert len(times) == 2 * steps + 1
    assert [t.hex() for t in times] == asked_times(t0, t1, step)


def test_rk4_times_of_an_empty_run_is_its_start():
    assert rk4_times(0.4, 0.4, 1e-3) == [0.4]
    assert asked_times(0.4, 0.4, 1e-3) == []


def test_time_table_evaluates_once_and_refuses_off_grid_times():
    calls = []

    def fn(t):
        calls.append(len(t))
        return [dm.sin(t), 2.0, np.stack([t, 3.0 * t], axis=-1)]

    row = time_table(fn, 0.0, 1.0, 0.25)
    assert calls == [9]
    got = row(0.375)
    assert type(got[0]) is float and got[0] == math.sin(0.375)
    assert got[1] == 2.0
    assert got[2].tolist() == [0.375, 1.125]
    assert calls == [9]
    for off in (0.3, -0.125, 1.125):   # not RK4 times of the run
        with pytest.raises(ValueError, match=repr(off)):
            row(off)
    assert calls == [9]


def test_time_table_ignores_numpy_warnings_past_an_escape():
    with np.errstate(all="raise"):
        row = time_table(lambda t: [np.log(0.6 - t)], 0.0, 1.0, 0.25)
    assert row(0.25)[0] == math.log(0.35)
    assert math.isnan(row(1.0)[0])


def linear_table(steps, d, seed=0):
    """The times of the RK4 run over [0, 1] in `steps` steps, and a smooth
    M(t) = sin(t·A) + B (d × d, A and B drawn from `seed`) at each."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-2.0, 2.0, (2, d, d))
    times = rk4_times(0.0, 1.0, 1.0 / steps)
    return times, np.sin(np.multiply.outer(np.array(times), a)) + b


def test_each_step_matrix_is_one_rk4_step_on_the_columns_of_the_identity():
    steps, d = 7, 4
    times, m = linear_table(steps, d)
    at = dict(zip(times, m))     # rk4_step asks exactly these times
    h = 1.0 / steps
    s = step_matrices(m, h)
    assert s.shape == (steps, d, d)
    for k in range(steps):
        for j in range(d):
            want = np.array(rk4_step(lambda t, y: list(at[t] @ np.array(y)),
                                     times[2 * k], list(np.eye(d)[j]), h))
            assert np.max(np.abs(s[k][:, j] - want)) <= \
                1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [63, 64, 65, 129])
def test_the_block_fold_is_the_one_pass_fold_to_the_bit(monkeypatch, steps):
    _, m = linear_table(steps, 5, seed=steps)
    z0 = np.linspace(-1.0, 1.0, 5)
    sizes = []

    def matrices(s):
        sizes.append(len(m[s]))
        return m[s]

    def runs():
        return (linear_rk4(matrices, 0.0, 1.0, 1.0 / steps, z0),
                linear_rk4(matrices, 0.0, 1.0, 1.0 / steps))

    blocked = runs()
    assert max(sizes) == 2 * min(steps, _numerics.RK4_BLOCK) + 1
    assert len(sizes) == 2 * math.ceil(steps / _numerics.RK4_BLOCK)
    monkeypatch.setattr(_numerics, "RK4_BLOCK", 10 ** 6)
    one_pass = runs()
    assert blocked[1].shape == (steps + 1, 5, 5)
    assert blocked[0].tobytes() == one_pass[0].tobytes()
    assert blocked[1].tobytes() == one_pass[1].tobytes()
    assert blocked[1][0].tolist() == np.eye(5).tolist()


def test_the_propagator_is_the_stepped_route():
    geom = so3_coadjoint_example()
    path = BasePath(lambda t: [0.4 * dm.sin(2 * math.pi * t) * t,
                               0.3 * (1 - dm.cos(2 * math.pi * t))],
                    name="loopish")
    times, props = Transport(geom.connection, path)._build()
    want = stepped_propagators(geom.connection, path)
    assert times == rk4_times(0.0, 1.0, _numerics.DEFAULT_RK4_STEP)[::2]
    assert props.shape == want.shape == (1001, 3, 3)
    assert np.max(np.abs(props - want)) < 1e-14


def test_flow_commutation_memory_stays_bounded_at_the_smallest_step():
    # the α tables of a quarter are its only arrays over the whole run, so
    # at the smallest step a scenario may ask for (10,000 RK4 steps) the
    # traced peak stays near the step-at-a-time route's 1.7 MB; a fold
    # with no blocks peaks near 15 MB
    fns = [compile_expression(e, ["t", "e"]) for e in
           ("(3+e)*sin(2*pi*t)", "2.5*cos(3*pi*t)-e*t", "1.5*sin(5*t+e)")]
    alpha = lambda t, e: [f([t, e]) for f in fns]
    fib = HamiltonianFiber.coadjoint_so3()
    tracemalloc.start()
    try:
        flow_commutation_residual(fib, alpha, [0.6, 0.0, 0.8], eps=0.3,
                                  step=MIN_APATH_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_halves_take_each_piece_at_its_own_entries():
    # each piece is undefined on the other half, so a numpy warning, raised
    # here, would mean a piece ran at an entry it does not keep
    seen = []

    def piece(sign):
        def fn(u):
            seen.append(np.asarray(dm.value_of(u)).tolist())
            return [dm.sqrt(sign * (0.5 - u) + 0.01), 2.0]
        return fn

    u = np.array([0.1, 0.35, 0.5, 0.6, 0.85])
    with np.errstate(all="raise"):
        out = halves(piece(1.0), piece(-1.0), dm.Dual(u, 1.0))
    assert seen == [[0.1, 0.35, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.6, 0.85]]
    assert out[0].re.tolist() == [
        math.sqrt(s * (0.5 - x) + 0.01)
        for s, x in zip((1.0, 1.0, 1.0, -1.0, -1.0), u.tolist())]
    assert out[1].tolist() == [2.0] * 5
    seen.clear()
    assert halves(piece(1.0), piece(-1.0), 0.25) == [math.sqrt(0.26), 2.0]
    assert seen == [0.25]


def test_lstsq_residual_is_nan_on_a_non_finite_entry():
    assert lstsq_residual([[1.0, 0.0]], [[0.0, 2.0]]).tolist() == [2.0]
    assert np.isnan(lstsq_residual([[math.nan, 0.0]], [[0.0, 2.0]])).all()
    assert np.isnan(lstsq_residual([[1.0, 0.0]], [[math.inf, 2.0]])).all()


def per_vector_distances(basis, vectors):
    """The distances of a stack one vector at a time, by the per-vector
    least-squares reference of the closure-oracle tests, in the layout
    `lstsq_residual` returns."""
    shape = np.broadcast_shapes(basis.shape[:-2], vectors.shape[:-2])
    k, d = basis.shape[-2:]
    m = vectors.shape[-2]
    n = math.prod(shape)
    items = zip(np.broadcast_to(basis, shape + (k, d)).reshape(n, k, d),
                np.broadcast_to(vectors, shape + (m, d)).reshape(n, m, d))
    return np.array([[per_vector_distance(b.tolist(), v.tolist())
                      for v in vs] for b, vs in items]).reshape(shape + (m,))


def hexes(distances):
    return [float(x).hex() for x in np.ravel(distances)]


def random_stack(seed, k, d, m=3):
    """A stack (3, 4) of bases of k independent rows and m vectors each,
    those of item (0, 0) in its span."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((3, 4, k, d))
    vectors = rng.standard_normal((3, 4, m, d))
    vectors[0, 0] = rng.standard_normal((m, k)) @ basis[0, 0]
    return basis, vectors


@pytest.mark.parametrize("k,d", [(2, 4), (5, 10), (6, 12)])
def test_stacked_lstsq_residual_is_the_per_vector_route(k, d):
    # a QR projection rounds differently from LAPACK's least squares:
    # the two agree to 1e-13 on vectors of unit size
    basis, vectors = random_stack(k * d, k, d)
    out = lstsq_residual(basis, vectors)
    assert out.shape == (3, 4, 3)
    np.testing.assert_allclose(out, per_vector_distances(basis, vectors),
                               rtol=0.0, atol=1e-13)
    assert out[0, 0].max() < 1e-13
    # one basis against many vectors is factored once and broadcasts like
    # the copy of it
    one = lstsq_residual(basis[:, :1], vectors)
    np.testing.assert_allclose(one, per_vector_distances(basis[:, :1],
                                                         vectors),
                               rtol=0.0, atol=1e-13)


def test_stacked_lstsq_residual_factors_each_basis_once(monkeypatch):
    basis, vectors = random_stack(7, 3, 6, m=5)
    shapes, qr = [], np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    lstsq_residual(basis[:, :1], vectors)
    assert shapes == [(3, 1, 6, 3)]


def test_stacked_lstsq_residual_takes_any_layout():
    rng = np.random.default_rng(5)
    basis = np.moveaxis(rng.standard_normal((10, 5, 4)), 0, -1)   # (5, 4, 10)
    vectors = np.moveaxis(rng.standard_normal((10, 5, 2)), 0, -1)
    assert not basis.flags.c_contiguous
    out = lstsq_residual(basis, vectors)
    assert hexes(out) == hexes(lstsq_residual(np.ascontiguousarray(basis),
                                              np.ascontiguousarray(vectors)))
    np.testing.assert_allclose(out, per_vector_distances(basis, vectors),
                               rtol=0.0, atol=1e-13)


def test_an_empty_basis_leaves_the_length():
    basis = np.zeros((2, 0, 2))
    vectors = np.array([[[3.0, 4.0]], [[0.0, -2.0]]])
    assert lstsq_residual(basis, vectors).tolist() == [[5.0], [2.0]]
    assert lstsq_residual(basis, vectors).tolist() == \
        per_vector_distances(basis, vectors).tolist()


def test_a_rank_deficient_basis_is_nan_and_never_an_underestimate():
    # the distance to a span of dependent rows is not measured: a row that
    # repeats the others, a zero basis and more rows than dimensions read
    # NaN, and the independent items keep their bits
    basis, vectors = random_stack(11, 3, 5)
    clean = lstsq_residual(basis, vectors)
    basis[1, 2, -1] = basis[1, 2, 0] - 2.0 * basis[1, 2, 1]
    basis[2, 3] = 0.0
    out = lstsq_residual(basis, vectors)
    assert np.isnan(out[1, 2]).all() and np.isnan(out[2, 3]).all()
    keep = np.ones((3, 4), dtype=bool)
    keep[1, 2] = keep[2, 3] = False
    assert hexes(out[keep]) == hexes(clean[keep])
    assert np.isnan(lstsq_residual([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                   [[0.3, 0.4]])).all()
    assert np.isnan(lstsq_residual([[1.0, 2.0], [2.0, 4.0 + 1e-12]],
                                   [[1.0, 0.0]])).all()


def test_rows_of_very_different_lengths_are_independent():
    # the rank test reads the sine of each row's angle with the rows before
    # it, not |R_ii| against the largest: rescaling the rows of a basis,
    # one at 1e-9 and one at 1e15, changes no distance
    assert lstsq_residual([[1.0, 0.0, 0.0], [0.0, 1e9, 0.0]],
                          [[0.3, 0.4, 2.0]]).tolist() == [2.0]
    basis, vectors = random_stack(5, 4, 7)
    scales = np.array([1e-9, 1.0, 1e9, 1e15])[:, None]
    scaled = lstsq_residual(scales * basis, vectors)
    assert not np.isnan(scaled).any()
    assert np.allclose(scaled, lstsq_residual(basis, vectors),
                       rtol=1e-12, atol=1e-13)


def test_a_non_finite_item_is_nan_and_the_others_keep_their_bits(capfd):
    basis, vectors = random_stack(3, 3, 6)
    clean = lstsq_residual(basis, vectors)
    basis[1, 0, 2, 0] = math.nan
    vectors[2, 3, 1, 5] = math.inf
    out = lstsq_residual(basis, vectors)
    assert np.isnan(out[1, 0]).all() and math.isnan(out[2, 3, 1])
    bad = np.isnan(out)
    assert bad.sum() == 4
    assert hexes(out[~bad]) == hexes(clean[~bad])
    assert capfd.readouterr().err == ""   # LAPACK saw no NaN


def test_simpson_weights_and_cubic_exactness():
    w = simpson_weights(5)
    assert sum(w) == pytest.approx(1.0, rel=1e-14)
    nodes = [k / 4 for k in range(5)]
    samples = [t ** 3 - 2 * t + 0.5 for t in nodes]
    assert simpson_integrate(samples) == pytest.approx(0.25 - 1.0 + 0.5,
                                                       rel=1e-14)
    with pytest.raises(ValueError):
        simpson_weights(4)            # even node counts have no rule


def test_simpson_sums_are_the_per_node_weights_to_the_bit():
    # the three weights, repeated, are the ones each node computes, so every
    # sum keeps its bits, on floats and on rows of arrays
    rng = np.random.default_rng(3)
    for n in range(3, 130, 2):
        floats = rng.uniform(-2.0, 2.0, n).tolist()
        rows = list(rng.uniform(-2.0, 2.0, (n, 4)))
        for samples in (floats, rows):
            assert hexes(simpson_integrate(samples)) == \
                hexes(per_node_simpson_integrate(samples)), n


def test_smoothstep_endpoint_derivatives():
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    h = 1e-6
    assert abs(smoothstep(h) / h) < 1e-4          # s′(0) = 0
    assert abs((1.0 - smoothstep(1.0 - h)) / h) < 1e-4


def test_sample_unit_cube_determinism_and_range():
    a = sample_unit_cube(32, 3, seed=7)
    b = sample_unit_cube(32, 3, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_unit_cube(32, 3, seed=8))
    assert all(0.0 <= c < 1.0 for row in unstack(a, 32) for c in row)


def test_sample_unit_cube_jitter_is_a_fresh_generator_stream(monkeypatch):
    cases = [(count, dim, seed) for seed in (2, 0, 1)
             for count in (1, 2, 3, 8, 24, 64, 255, 256)
             for dim in range(1, 9)]
    points = [unstack(sample_unit_cube(*case), case[0]) for case in cases]
    monkeypatch.setattr(_numerics, "_jitter", lambda seed, count, dim: (
        np.random.RandomState(seed).uniform(-1.0, 1.0, size=(count, dim))))
    assert points == [unstack(sample_unit_cube(*case), case[0])
                      for case in cases]


def halton(index, base):
    """The index-th Halton number in `base`, one digit at a time."""
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def per_point_unit_cube(count, dim, seed):
    """`sample_unit_cube` by the loop over points and axes, with the
    jitter from a fresh generator."""
    noise = np.random.RandomState(seed).uniform(-1.0, 1.0, size=(count, dim))
    noise = noise * (0.25 / max(count, 1))
    pts = []
    for k in range(count):
        row = [halton(k + 1, (2, 3, 5, 7, 11, 13, 17, 19)[d])
               + float(noise[k, d]) for d in range(dim)]
        pts.append([min(max(x, 0.0), 1.0 - 1e-12) for x in row])
    return pts


def test_sample_unit_cube_is_the_per_point_halton_loop_to_the_bit():
    for count in (1, 2, 6, 8, 12, 16, 24, 32, 48, 64, 84, 256, 1000):
        for dim in range(1, 9):
            for seed in range(4):
                got = unstack(sample_unit_cube(count, dim, seed), count)
                want = per_point_unit_cube(count, dim, seed)
                assert [[c.hex() for c in p] for p in got] == \
                    [[c.hex() for c in p] for p in want], (count, dim, seed)


def test_a_lattice_run_does_not_import_numpy_random():
    # numpy.random costs memory to import; only sampling may load it
    package = Path(_numerics.__file__).parent
    scenario = (package / "scenarios" / "so3-lattice.json").read_text()
    script = ("import json, sys\n"
              "from fiberdirac.cli import run_scenario\n"
              f"report, code = run_scenario(json.loads({scenario!r}))\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split() == ["0", "False"]


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


def test_intersection_dimension_counts_an_exact_intersection():
    # planes and 3-spaces of R^5 sharing one line: arccos of the largest
    # cosine, rounded to an ulp or two below 1, read an angle of 1.5e-8 or
    # more on about half of these, and no intersection; the sines are 0
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(40):
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        pairs.append((rng.standard_normal((2, 2)) @ q[:2],
                      rng.standard_normal((3, 3)) @ q[1:4]))
    assert [intersection_dimension(a, b) for a, b in pairs] == [1] * 40
    a, b = (np.array(x) for x in zip(*pairs))
    assert intersection_dimension(a, b).tolist() == [1] * 40


def test_stacked_subspace_helpers_are_the_per_item_calls():
    # one SVD call for the stack keeps each item's rank rule: the rows past
    # an item's rank are zeroed and count for nothing
    stack = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                      [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                      np.zeros((3, 3))])
    yz = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert intersection_dimension(stack, yz).tolist() == \
        [intersection_dimension(item.tolist(), yz) for item in stack] == \
        [1, 0, 0]
    # on either side: a zeroed row of the second basis is no intersection
    assert intersection_dimension(yz, stack).tolist() == \
        [intersection_dimension(yz, item.tolist()) for item in stack] == \
        [1, 0, 0]
    assert np.any(nullspace(stack), axis=-1).sum(axis=-1).tolist() == \
        [len(nullspace(item.tolist())) for item in stack] == [1, 2, 3]


def test_nullspace_of_singular_matrix():
    rows = [[1.0, 2.0], [2.0, 4.0]]
    null = nullspace(rows)
    assert len(null) == 1
    v = null[0]
    assert abs(v[0] + 2.0 * v[1]) < 1e-12


def test_lstsq_residual_detects_membership():
    basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    inside, outside = lstsq_residual(basis, [[0.3, -0.7, 0.0],
                                             [0.0, 0.0, 1.0]])
    assert inside < 1e-14
    assert outside == pytest.approx(1.0)


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
    # an array counts as its largest entry, and a NaN in any entry of any
    # array, among scalars or not, is the result
    for i, size in enumerate((3, 4)):
        for j in range(size):
            arrays = [np.array([0.5, 2.0, 1.0]),
                      np.array([3.0, 0.25, 1.5, 0.0])]
            arrays[i][j] = math.nan
            assert math.isnan(worst(arrays))
            assert math.isnan(worst([0.5] + arrays + [4.0]))
    assert worst([np.array([])]) == 0.0
    assert worst([1.0, np.array([]), 0.5]) == 1.0
    assert worst([0.5, np.array([0.25, 3.0]), 2.0]) == 3.0
    assert worst([np.array([0.25, 0.5]), 0.75, np.array(0.125)]) == 0.75
    assert type(worst([np.array([0.25, 3.0])])) is float


def test_unstack_inverts_stack():
    points = [[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]]
    columns = stack(points, 3)
    assert [c.tolist() for c in columns] == [[0.1, 0.4], [-0.2, 0.5],
                                             [0.3, -0.6]]
    assert unstack(columns, len(points)) == points
    assert unstack([columns[0], 7.0], 2) == [[0.1, 7.0], [0.4, 7.0]]


@pytest.mark.parametrize("points,dim,lengths", [
    ([], 3, []), ([[0.1, 0.2, 0.3, 0.4]], 3, [4]),
    ([[0.1, 0.2, 0.3], [0.4, 0.5]], 3, [2, 3])],
    ids=["empty", "too-long", "ragged"])
def test_stack_refuses_points_of_another_length(points, dim, lengths):
    with pytest.raises(ValueError, match=rf"points of {dim} coordinates, "
                       rf"got {len(points)} points of lengths "
                       rf"\[{', '.join(map(str, lengths))}\]"):
        stack(points, dim)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_unit_cube_refuses_an_empty_sample(count):
    with pytest.raises(ValueError, match=f"at least 1, got {count}"):
        sample_unit_cube(count, 2)


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


@pytest.mark.parametrize("seed", [0, 1, 7, 301])
def test_sample_unit_cube_is_the_per_dimension_loop_to_the_bytes(seed):
    # all axes take their Halton digits in one array loop; an axis whose
    # indices ran out of digits adds +0.0, so each keeps its bytes
    for count in (1, 2, 3, 5, 8, 12, 16, 24, 48, 84, 255, 256, 1000, 4097):
        for dim in range(1, 9):
            got = sample_unit_cube(count, dim, seed)
            want = per_dimension_unit_cube(count, dim, seed)
            assert [c.tobytes() for c in got] == \
                [c.tobytes() for c in want], (count, dim)
