"""Shared numerical kernels: fixed-step RK4, composite Simpson, Halton
sampling with seeded jitter, small dense linear algebra (dot products,
determinants, antisymmetric matrices, subspace angles), and the
NaN-propagating residual reduction every check uses.

The RK4 and Simpson routines operate on plain Python lists so that
dual-number states flow through unchanged (differentials of flows are
obtained by integrating with dual initial conditions).  numpy is used only
for float-valued linear algebra.
"""

from __future__ import annotations

import itertools
import math

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


def rk4_integrate(f, y0, t0, t1, step=DEFAULT_RK4_STEP, observer=None):
    """Integrate y' = f(t, y) from t0 to t1 with fixed step size.

    ``step`` is a magnitude; integration direction follows sign(t1 - t0).
    ``observer(t, y)`` is called after every accepted step (and once at t0).
    State entries may be floats or duals.
    """
    if t1 == t0:
        if observer is not None:
            observer(t0, y0)
        return list(y0)
    n = max(1, int(math.ceil(abs(t1 - t0) / step - 1e-12)))
    h = (t1 - t0) / n
    t, y = t0, list(y0)
    if observer is not None:
        observer(t, y)
    for _ in range(n):
        y = rk4_step(f, t, y, h)
        t += h
        if observer is not None:
            observer(t, y)
    return y


# -- composite Simpson ---------------------------------------------------------

def smoothstep(u):
    """Monotone [0,1] → [0,1] warp with vanishing derivative at both ends:
    s(u) = u − sin(2πu)/2π.  Dual-compatible."""
    return u - dm.sin(2.0 * math.pi * u) / (2.0 * math.pi)


def simpson_weights(n_nodes):
    """Composite-Simpson weights for n_nodes equally spaced samples on [0,1].

    n_nodes must be odd (even interval count); weights sum to 1.
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    h = 1.0 / (n_nodes - 1)
    w = [h / 3.0] * n_nodes
    for k in range(1, n_nodes - 1):
        w[k] = (4.0 if k % 2 == 1 else 2.0) * h / 3.0
    return w


def simpson_integrate(samples):
    """Integrate uniformly spaced samples over [0,1] by composite Simpson."""
    w = simpson_weights(len(samples))
    acc = samples[0] * w[0]
    for k in range(1, len(samples)):
        acc = acc + samples[k] * w[k]
    return acc


# -- sampling ------------------------------------------------------------------

_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _halton(index, base):
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def sample_unit_cube(count, dim, seed=0, jitter=0.25):
    """Deterministic low-discrepancy points in [0,1)^dim.

    Halton sequence (skipping the origin) followed by a fixed-seed jitter
    pass of amplitude ``jitter / count`` per axis; identical (count, dim,
    seed) always produce identical points.
    """
    if dim > len(_HALTON_BASES):
        raise ValueError(f"sampling supports at most {len(_HALTON_BASES)} dims")
    rng = np.random.RandomState(seed)
    noise = rng.uniform(-1.0, 1.0, size=(count, dim)) * (jitter / max(count, 1))
    pts = []
    for k in range(count):
        row = [_halton(k + 1, _HALTON_BASES[d]) + noise[k, d]
               for d in range(dim)]
        pts.append([min(max(x, 0.0), 1.0 - 1e-12) for x in row])
    return pts


# -- small dense linear algebra (generic over float / Dual) --------------------

def dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def matvec(m, v):
    return [dot(row, v) for row in m]


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


def skew_matrix(n, vals):
    """Full n×n antisymmetric matrix from its independent entries, listed
    over the sorted index pairs i < j in lexicographic order."""
    mat = [[0.0] * n for _ in range(n)]
    for idx, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        mat[i][j] = vals[idx]
        mat[j][i] = -vals[idx]
    return mat


# -- residual reduction --------------------------------------------------------

def worst(residuals):
    """Largest residual, 0.0 when there are none.  A NaN anywhere is
    returned as NaN (``max`` would drop it or keep it depending on its
    position), so a non-finite residual can never read as a pass."""
    out = 0.0
    for r in residuals:
        if r != r:   # NaN
            return r
        if r > out:
            out = r
    return out


# -- linear algebra on small subspaces -----------------------------------------

def as_float_matrix(rows):
    return np.array([[value_of(x) for x in row] for row in rows], dtype=float)


def orthonormal_basis(rows, threshold=RANK_THRESHOLD):
    """Orthonormal row basis of span(rows) via SVD with rank threshold."""
    a = as_float_matrix(rows)
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    rank = int(np.sum(s > threshold * scale))
    return vt[:rank]


def principal_angles(rows_a, rows_b, threshold=RANK_THRESHOLD):
    """Principal angles (radians, ascending) between two row-span subspaces."""
    qa = orthonormal_basis(rows_a, threshold)
    qb = orthonormal_basis(rows_b, threshold)
    if qa.shape[0] == 0 or qb.shape[0] == 0:
        return []
    sv = np.linalg.svd(qa @ qb.T, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return [float(math.acos(s)) for s in sv]


def intersection_dimension(rows_a, rows_b, threshold=RANK_THRESHOLD):
    """dim(span(rows_a) ∩ span(rows_b)) by the principal-angle criterion."""
    angles = principal_angles(rows_a, rows_b, threshold)
    return sum(1 for a in angles if a < threshold)


def nullspace(rows, threshold=RANK_THRESHOLD):
    """Orthonormal basis (rows) of the right nullspace of the matrix."""
    a = as_float_matrix(rows)
    if a.shape[0] == 0:
        return np.eye(a.shape[1]) if a.ndim == 2 else np.zeros((0, 0))
    u, s, vt = np.linalg.svd(a)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    rank = int(np.sum(s > threshold * scale))
    return vt[rank:]


def lstsq_residual(basis_rows, vector):
    """Euclidean distance from ``vector`` to the row span of ``basis_rows``."""
    a = as_float_matrix(basis_rows).T
    b = np.array([value_of(x) for x in vector], dtype=float)
    if a.size == 0:
        return float(np.linalg.norm(b))
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ sol - b))


# -- ordered map ---------------------------------------------------------------

def parallel_map(fn, items):
    """``[fn(x) for x in items]``: the one map site of the per-point and
    per-slice loops, so a trace can count them."""
    return [fn(x) for x in items]
