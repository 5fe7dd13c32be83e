"""Shared numerical kernels: fixed-step RK4, composite Simpson, Halton
sampling with seeded jitter, index tuples and the coboundary sum over
them, small dense linear algebra (dot products, bilinear values,
determinants, adjugate inverses, antisymmetric matrices, subspace
angles), the sample points as one array axis, the NaN-propagating
residual reduction every check uses, and the complex step of the
independent oracles.  Each rule is written here once.  The one
unit-vector builder, `dual.unit`, lives in the module this one sits on.

The RK4 and Simpson routines operate on plain Python lists so that
dual-number states flow through unchanged (differentials of flows are
obtained by integrating with dual initial conditions).  An RK4 state entry
may also be a numpy array or an array Dual: one integration then advances
a whole stack of states at once (every ε-slice of a transgression).
Otherwise numpy is used only for float-valued linear algebra.

This module is the one home of the RK4 time grid: `rk4_times` lists every
time `rk4_step` receives on an `rk4_integrate` run, and `rk4_integrate`
walks that list.  What a right-hand side reads that depends on time alone
(a path's point and velocity, a transport generator, a covector curve, a
coefficient curve) comes from a `time_table`: one array call over that
grid, whose rows the RK4 stages look up.  A linear run z' = M(t) z takes
no `rk4_step`: `linear_rk4` folds its RK4 step matrices, from M over the
grid as whole arrays (`time_columns`); a `LinearRun` keeps one at its nodes.
"""

from __future__ import annotations

import itertools
import math
import threading
from array import array
from bisect import bisect_right

import numpy as np

from . import dual as dm
from .dual import value_of

DEFAULT_RK4_STEP = 1e-3
RANK_THRESHOLD = 1e-8


# -- fixed-step Runge–Kutta 4 ------------------------------------------------

def _axpy(y, k, h):
    return [yi + h * ki for yi, ki in zip(y, k)]


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, _axpy(y, k1, 0.5 * h))
    k3 = f(t + 0.5 * h, _axpy(y, k2, 0.5 * h))
    k4 = f(t + h, _axpy(y, k3, h))
    return [yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _step_count(t0, t1, step):
    """The fewest RK4 steps of at most ``step`` from t0 to t1 (t1 ≠ t0)."""
    return max(1, int(math.ceil(abs(t1 - t0) / step - 1e-12)))


def rk4_times(t0, t1, step):
    """Every time `rk4_step` receives on the `rk4_integrate` run from t0 to
    t1: t0, then t + h/2 and t + h for each step, with t += h (the same
    floats, in order; [t0] alone when t1 == t0).  ``step`` is a magnitude,
    and h = (t1 − t0)/n for the fewest n steps of at most ``step``."""
    times = [t0]
    if t1 == t0:
        return times
    n = _step_count(t0, t1, step)
    h = (t1 - t0) / n
    t = t0
    for _ in range(n):
        times += (t + 0.5 * h, t + h)
        t += h
    return times


def rk4_integrate(f, y0, t0, t1, step=DEFAULT_RK4_STEP, observer=None):
    """Integrate y' = f(t, y) from t0 to t1 with fixed step size, over the
    grid of `rk4_times`.

    ``step`` is a magnitude; integration direction follows sign(t1 - t0).
    ``observer(t, y)`` is called after every accepted step (and once at t0).
    State entries may be floats, duals, numpy arrays or array duals.
    """
    times = rk4_times(t0, t1, step)
    y = list(y0)
    if observer is not None:
        observer(t0, y)
    if t1 == t0:
        return y
    h = (t1 - t0) / (len(times) // 2)   # two times per step after t0
    for t, t_end in zip(times[:-1:2], times[2::2]):
        y = rk4_step(f, t, y, h)
        if observer is not None:
            observer(t_end, y)
    return y


def time_table(fn, t0, t1, step):
    """The rows of a time-only input of an RK4 right-hand side on the
    `rk4_integrate` run from t0 to t1, from one `time_columns` call on the
    whole grid of `rk4_times`.  The returned lookup gives a time its row,
    the list of the entries at that time: a Python float for a number or
    1-D entry, an array view otherwise; a time off the grid is an error.
    The columns are kept as `time_columns` returns them, and a row is
    built when it is looked up."""
    times = array("d", rk4_times(t0, t1, step))
    columns = time_columns(fn, times)
    last = len(times) - 1
    half = (t1 - t0) / last if last else 1.0   # times[k] ≈ t0 + k·h/2

    def row(t):
        k = round((t - t0) / half)
        if 0 <= k <= last and times[k] == t:
            return [c[k] for c in columns]
        raise ValueError(f"time {t!r} is not a time of the RK4 run")

    return row


def time_columns(fn, times):
    """The entries of a time-only input over `times`, a run's `rk4_times`.
    ``fn(T)`` takes a 1-D float array of times and returns a list of
    entries, each a number (constant in time) or a float array whose first
    axis runs over T (or has length one).  It is called once, under
    ``np.errstate(all="ignore")``: an input that is undefined at some grid
    time (past an escape) is NaN there, not a warning.  Each entry comes
    back broadcast along the time axis: an ``array('d')`` when it holds one
    float per time (its entries read as Python floats), else an array."""
    with np.errstate(all="ignore"):
        entries = fn(np.array(times, dtype=float))
    out = []
    for e in entries:
        e = np.asarray(e, dtype=float)
        e = np.broadcast_to(e, (len(times),) + e.shape[1:])
        out.append(array("d", e.tobytes()) if e.ndim == 1
                   else np.ascontiguousarray(e))
    return out


# -- RK4 on a linear system as products of step matrices ----------------------

RK4_BLOCK = 64   # steps whose matrices `linear_rk4` forms at once


def step_matrices(m, h):
    """The RK4 step matrices (n, d, d) of z' = M(t) z, from M (2n + 1, d, d)
    at a run's `rk4_times`: S_k = I + (h/6)(k₁ + 2k₂ + 2k₃ + k₄), with
    k₁ = M(t_k), k₂ = M(t_k + h/2)(I + (h/2)k₁), k₃ = M(t_k + h/2)(I +
    (h/2)k₂) and k₄ = M(t_k + h)(I + h k₃), RK4's stability polynomial
    (Hairer, Nørsett & Wanner): S_k z is `rk4_step` of z, summed in
    another order."""
    eye = np.eye(m.shape[-1])
    start, mid, end = m[:-1:2], m[1::2], m[2::2]
    k2 = mid @ (eye + (0.5 * h) * start)
    k3 = mid @ (eye + (0.5 * h) * k2)
    k4 = end @ (eye + h * k3)
    return eye + (h / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)


def linear_rk4(matrices, t0, t1, step, state=None):
    """The `rk4_integrate` run of z' = M(t) z from t0 to t1 as a product of
    `step_matrices`, formed `RK4_BLOCK` steps at a time, so the working set
    does not grow with the run, and folded in step order, so the result
    does not depend on the block.  ``matrices(s)`` gives M at the entries s
    (a slice) of the run's `rk4_times`.  Returns S_{n−1}⋯S_0 ``state`` (a
    vector or a matrix; ``state`` itself when t1 == t0), or with no state
    every node's product (n + 1, d, d), the identity first."""
    if t1 == t0:
        return state
    n = _step_count(t0, t1, step)
    h = (t1 - t0) / n
    nodes = [] if state is None else None
    for lo in range(0, n, RK4_BLOCK):
        block = step_matrices(
            matrices(slice(2 * lo, 2 * min(lo + RK4_BLOCK, n) + 1)), h)
        if state is None:   # the identity of each item of a batched M
            state = np.broadcast_to(np.eye(block.shape[-1]), block.shape[1:])
            nodes.append(state)
        for s in block:
            state = s @ state
            if nodes is not None:
                nodes.append(state)
    return state if nodes is None else np.array(nodes)


class LinearRun:
    """The `linear_rk4` run of z' = M(t) z over [0, 1], M = ``entry(T)`` at
    an array T of times, kept at its nodes (every other RK4 time): the step
    matrix products, times ``state`` if given.  Steps: `DEFAULT_RK4_STEP`."""

    def __init__(self, entry, state=None):
        self.entry, times = entry, rk4_times(0.0, 1.0, DEFAULT_RK4_STEP)
        self.times, nodes = times[::2], linear_rk4(
            self.matrix(times).__getitem__, 0.0, 1.0, DEFAULT_RK4_STEP)
        self.states = nodes if state is None else nodes @ state

    def matrix(self, times):
        """M at `times`, one `entry` call (`time_columns`)."""
        return time_columns(lambda t: [self.entry(t)], times)[0]

    def at(self, t):
        """The state at t: a node's, else one RK4 step from the node below."""
        tol = 1e-12 / (len(self.times) - 1)
        k = max(bisect_right(self.times, t + tol) - 1, 0)   # at or below t
        t0, h = self.times[k], abs(t - self.times[k])
        if h <= tol:   # t is the node, up to rounding
            return self.states[k]
        return linear_rk4(self.matrix(rk4_times(t0, t, h)).__getitem__, t0,
                          t, h, self.states[k])


def stacked_matrix(rows, t):
    """A matrix whose entries are numbers or arrays over the times (or
    sample points) of t, as one float array of shape
    ``np.shape(t) + (len(rows), len(rows[0]))``, each entry assigned into
    its slot: a matrix-valued `time_table` entry, or a frame's rows over
    its sample points."""
    out = np.empty(np.shape(t) + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e
    return out


def stacked_jets(jac):
    """`dual.jacobian` rows, at a float point or over sample points, as the
    float array (..., m, n) of the jets, jets[..., a, j] = ∂_j f_a: the
    Jacobian's axes moved, with no entry copied one at a time."""
    return np.moveaxis(np.asarray(jac, dtype=float), (0, 1), (-2, -1))


# -- composite Simpson ---------------------------------------------------------

def smoothstep(u):
    """Monotone [0,1] → [0,1] warp with vanishing derivative at both ends:
    s(u) = u − sin(2πu)/2π.  Dual-compatible."""
    return u - dm.sin(2.0 * math.pi * u) / (2.0 * math.pi)


def halves(first, second, u):
    """first(u) for u ≤ ½ and second(u) after: the two pieces of a
    concatenation, each a function of a number, Dual or array u that
    returns a list.  On an array each piece is evaluated at the entries it
    keeps and at its end u = ½ elsewhere, so the entries the other piece
    supplies can raise no numpy warning; the real part decides."""
    uv = np.real(value_of(u))
    if not isinstance(uv, np.ndarray):
        return first(u) if uv <= 0.5 else second(u)
    lower = uv <= 0.5
    a = first(dm.where(lower, u, 0.5))
    b = second(dm.where(lower, 0.5, u))
    return [dm.where(lower, p, q) for p, q in zip(a, b)]


def simpson_weights(n_nodes):
    """Composite-Simpson weights for n_nodes equally spaced samples on [0,1]:
    its three distinct weights, repeated in node order.

    n_nodes must be odd (even interval count); weights sum to 1.
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    h = 1.0 / (n_nodes - 1)
    end, odd, even = h / 3.0, 4.0 * h / 3.0, 2.0 * h / 3.0
    return [end] + [odd, even] * ((n_nodes - 3) // 2) + [odd, end]


def simpson_integrate(samples):
    """Integrate uniformly spaced samples over [0,1] by composite Simpson:
    Σ_k samples_k·w_k, summed left to right from 0.0."""
    acc = 0.0
    for s, w in zip(samples, simpson_weights(len(samples))):
        acc = acc + s * w
    return acc


# -- the complex step ----------------------------------------------------------

#: h of Im f(x + ih)/h, which takes no difference and so cancels nothing
COMPLEX_STEP = 1e-30


def complex_partials(f, point):
    """f(point) and partials[i][a] = ∂f_a/∂x_i by the complex step (Squire
    & Trefethen, SIAM Rev. 40, 1998): one pass of f per coordinate, no Dual.
    f maps a list of float arrays to a list of values and must be
    complex-analytic.  A partial is NaN wherever the real primal is not
    finite: Im log(−0.3 + ih)/h is π/h, not a failure."""
    primal = f(point)
    partials = []
    for i in range(len(point)):
        shifted = f([x + 1j * COMPLEX_STEP if k == i else x
                     for k, x in enumerate(point)])
        partials.append([np.where(np.isfinite(p), np.imag(c) / COMPLEX_STEP,
                                  math.nan) for p, c in zip(primal, shifted)])
    return primal, partials


# -- sampling ------------------------------------------------------------------

_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)
MAX_SAMPLE_DIM = len(_HALTON_BASES)


_JITTER = []   # the one jitter generator, built by the first `_jitter`
_JITTER_LOCK = threading.Lock()


def _jitter(seed, count, dim):
    """``np.random.RandomState(seed).uniform(-1, 1, (count, dim))`` from one
    generator, reseeded per call: building a generator costs about twenty
    reseeds.  It is built on first use, so a run that never samples never
    imports `numpy.random`; the lock keeps a reseed and its draw together."""
    with _JITTER_LOCK:
        if _JITTER:
            _JITTER[0].seed(seed)
        else:
            _JITTER.append(np.random.RandomState(seed))
        return _JITTER[0].uniform(-1.0, 1.0, size=(count, dim))


def sample_unit_cube(count, dim, seed=0):
    """Deterministic low-discrepancy points in [0,1)^dim, as one point
    whose ``dim`` coordinates are float arrays over the ``count`` samples.

    Halton sequence (skipping the origin), its digits taken over the index
    array, followed by a fixed-seed jitter pass of amplitude
    ``0.25 / count`` per axis; identical (count, dim, seed) always produce
    identical points.
    """
    if dim > MAX_SAMPLE_DIM:
        raise ValueError(f"sampling supports at most {MAX_SAMPLE_DIM} dims")
    if count < 1:
        raise ValueError(f"sampling needs a count of at least 1, got {count}")
    noise = _jitter(seed, count, dim) * (0.25 / count)
    # one row per axis: a row whose index has run out of digits adds
    # f·0 = +0.0 and keeps its value
    base = np.array(_HALTON_BASES[:dim])[:, None]
    i = np.broadcast_to(np.arange(1, count + 1), (dim, count)).copy()
    f, r = np.ones((dim, 1)), np.zeros((dim, count))
    while i.any():
        f /= base
        r += f * (i % base)
        i //= base
    return list(np.minimum(np.maximum(r + noise.T, 0.0), 1.0 - 1e-12))


# -- index tuples and the coboundary sum ---------------------------------------

def combos(n, k):
    """The sorted k-tuples of indices below n, in lexicographic order: the
    component order of k-forms and k-vectors."""
    return list(itertools.combinations(range(n), k))


def coboundary(tuples, face):
    """Σ_pos (−1)^pos face(J[pos], J∖J[pos]) for each index tuple J, summed
    in the order of J from 0.0: d of a form from its derivatives, d_Γ ω_H,
    and the Bianchi sum.  A face value is a float, a Dual or an array."""
    out = []
    for J in tuples:
        acc = 0.0
        for pos, a in enumerate(J):
            term = face(a, J[:pos] + J[pos + 1:])
            acc = acc + (term if pos % 2 == 0 else -term)
        out.append(acc)
    return out


# -- small dense linear algebra (generic over float / Dual) --------------------

def dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def matvec(m, v):
    return [dot(row, v) for row in m]


def bilinear(m, u, v):
    """uᵀ M v."""
    return dot(u, matvec(m, v))


def det(rows):
    """Determinant by cofactor expansion along the first row (1.0 for the
    empty matrix); entries may be duals."""
    n = len(rows)
    if n == 0:
        return 1.0
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = 0.0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def adjugate_inverse(mat):
    """Inverse by the adjugate, inv[i][j] = (−1)^(i+j)·det(minor(j, i)) /
    det(mat); the entries stay dual-compatible, which lets exterior
    derivatives pass through."""
    n = len(mat)
    d = det(mat)

    def cofactor(r, c):
        m = det([row[:c] + row[c + 1:] for k, row in enumerate(mat) if k != r])
        return m if (r + c) % 2 == 0 else -m

    return [[cofactor(j, i) / d for j in range(n)] for i in range(n)]


def skew_matrix(n, vals):
    """Full n×n antisymmetric matrix from its independent entries, listed
    over the sorted index pairs i < j in lexicographic order."""
    mat = [[0.0] * n for _ in range(n)]
    for idx, (i, j) in enumerate(combos(n, 2)):
        mat[i][j] = vals[idx]
        mat[j][i] = -vals[idx]
    return mat


# -- the sample axis and residual reduction ------------------------------------

def stack(points, dim):
    """A caller's list of `points`, each of `dim` coordinates, as one point
    whose coordinates are float arrays over them: the format the samplers
    return.  An empty list or a point of another length is refused."""
    lengths = sorted({len(p) for p in points})
    if lengths != [dim]:
        raise ValueError(f"expected one or more points of {dim} coordinates,"
                         f" got {len(points)} points of lengths {lengths}")
    return list(np.array(points, dtype=float).T)


def unstack(columns, count):
    """The inverse of `stack`: per-point lists of Python floats from arrays
    over `count` points (a plain number broadcasts)."""
    return np.column_stack([np.broadcast_to(c, count)
                            for c in columns]).tolist()


def worst(residuals):
    """Largest residual (an array counts as its largest entry), 0.0 when there
    are none.  A NaN anywhere is returned as NaN (``max`` would drop it or keep
    it by position), so a non-finite residual never reads as a pass."""
    out = 0.0
    for r in residuals:
        if isinstance(r, np.ndarray):   # ndarray.max keeps a NaN
            r = float(r.max()) if r.size else 0.0
        if r != r:   # NaN
            return r
        if r > out:
            out = r
    return out


# -- linear algebra on small subspaces -----------------------------------------

def as_float_matrix(rows):
    """Rows of numbers or Duals (their values) as a float array; an array,
    such as a stack of matrices (..., k, d), passes through."""
    if isinstance(rows, np.ndarray):
        return rows
    return np.array([[value_of(x) for x in row] for row in rows], dtype=float)


def _rank(s):
    """Each item's rank from its singular values s (..., k), descending:
    how many exceed `RANK_THRESHOLD` times the largest (times 1 when the
    largest is not positive)."""
    top = s[..., :1]
    return np.sum(s > RANK_THRESHOLD * np.where(top > 0, top, 1.0), axis=-1)


def _rows_below(rank, count):
    """A mask (..., count, 1) over the rows of each item: row r < rank."""
    return np.arange(count)[:, None] < np.asarray(rank)[..., None, None]


def orthonormal_basis(rows):
    """Orthonormal row basis of span(rows) via SVD with rank threshold.  On
    a stack (..., k, d) each item keeps min(k, d) rows, those past its rank
    zeroed, so the stack stays one array.  Only `principal_angles` and
    `intersection_dimension` call it; the benchmark tracer patches it by
    name."""
    a = as_float_matrix(rows)
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = _rank(s)
    if a.ndim == 2:
        return vt[:rank]
    return np.where(_rows_below(rank, vt.shape[-2]), vt, 0.0)


def principal_angles(rows_a, rows_b):
    """Principal angles (radians, ascending) between two row-span
    subspaces, as an array; on stacks, (..., m) per pair of items, where a
    zeroed basis row adds an angle of π/2.  No package module calls it
    (`intersection_dimension` counts by sines); the benchmark tracer
    patches it by name."""
    qa = orthonormal_basis(rows_a)
    qb = orthonormal_basis(rows_b)
    if qa.shape[-2] == 0 or qb.shape[-2] == 0:
        return np.zeros(0)
    sv = np.linalg.svd(qa @ np.swapaxes(qb, -1, -2), compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def intersection_dimension(rows_a, rows_b):
    """dim(span(rows_a) ∩ span(rows_b)): the principal angles whose sine
    is below `RANK_THRESHOLD`; an integer array over the items of stacks.
    The sines are the singular values of Q_b minus its projection on Q_a,
    which resolve a small angle that arccos of a cosine near 1 cannot (one
    ulp below 1 is an angle of 1.5e-8).  A zeroed row of a stacked Q_b
    leaves a zero singular value, which is not counted: it is an angle of
    π/2, as in `principal_angles`.  No package module calls it (the
    groupoid's fiber nondegeneracy is the kernel of a block of Ω); the
    tests keep it as a reference and the benchmark tracer patches it by
    name."""
    qa = orthonormal_basis(rows_a)
    qb = orthonormal_basis(rows_b)
    if qa.shape[-2] == 0 or qb.shape[-2] == 0:
        return 0
    rest = qb - (qb @ np.swapaxes(qa, -1, -2)) @ qa
    sines = np.linalg.svd(rest, compute_uv=False)
    padded = np.sum(~qb.any(axis=-1), axis=-1)
    dims = np.sum(sines < RANK_THRESHOLD, axis=-1) - padded
    return int(dims) if dims.ndim == 0 else dims


def nullspace(rows):
    """Orthonormal basis (rows) of the right nullspace of the matrix.  On a
    stack (..., k, n) each item keeps n rows, those that span its row space
    zeroed, so the stack stays one array."""
    a = as_float_matrix(rows)
    if a.shape[0] == 0:
        return np.eye(a.shape[1]) if a.ndim == 2 else np.zeros((0, 0))
    u, s, vt = np.linalg.svd(a)
    rank = _rank(s)
    if a.ndim == 2:
        return vt[rank:]
    return np.where(_rows_below(rank, vt.shape[-2]), 0.0, vt)


def lstsq_residual(basis_rows, vector):
    """Euclidean distance from each of m vectors to the row span of a basis,
    for one item or a stack of them: a basis ``(..., k, d)`` of independent
    rows and vectors ``(..., m, d)``, whose leading axes broadcast, give the
    distances ``(..., m)``.  Each basis item is factored once, by a reduced
    QR of its transpose (one stacked `np.linalg.qr` call), and every vector
    v against it reads ‖v − Q Qᵀ v‖.  An item in which some row i makes
    an angle with the rows before it whose sine, |R_ii| / ‖row i‖, is at
    most `RANK_THRESHOLD` (a zero row included) has dependent rows and
    reads NaN, never an underestimate; the test is the same at every scale
    of the rows.  An item or a vector holding a non-finite entry reads NaN
    and is zeroed first: LAPACK never sees it, and the others are
    unchanged."""
    basis = np.asarray(basis_rows, dtype=float)
    vectors = np.asarray(vector, dtype=float)
    k, d = basis.shape[-2:]
    bad = (~np.isfinite(basis).all(axis=(-2, -1)))[..., None]
    bad_vector = ~np.isfinite(vectors).all(axis=-1)
    if bad.any():
        basis = np.where(bad[..., None], 0.0, basis)
    if bad_vector.any():
        vectors = np.where(bad_vector[..., None], 0.0, vectors)
    r = vectors.swapaxes(-1, -2)   # the vectors as columns, (..., d, m)
    if k and d:
        q, rr = np.linalg.qr(basis.swapaxes(-1, -2))
        # |R_ii| is the distance of row i from the rows before it, so
        # |R_ii| / |row i| is the sine of their angle, whatever the sizes
        height = np.abs(np.diagonal(rr, axis1=-2, axis2=-1))
        length = np.linalg.norm(basis[..., :d, :], axis=-1)
        small = height <= RANK_THRESHOLD * length
        bad = bad | (k > d) | small.any(axis=-1, keepdims=True)
        with np.errstate(over="ignore", invalid="ignore"):
            r = r - q @ (q.swapaxes(-1, -2) @ r)
    return np.where(bad | bad_vector, math.nan, np.sqrt((r * r).sum(axis=-2)))


# -- ordered map ---------------------------------------------------------------

def parallel_map(fn, items):
    """``[fn(x) for x in items]``.  No package module calls it (a check
    runs on its sample points as one array axis); the benchmark tracer
    patches it by name."""
    return [fn(x) for x in items]
