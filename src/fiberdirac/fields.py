"""Smooth fields on a chart and the exterior-calculus operations on them.

A :class:`SmoothField` is a valence tag plus an evaluator mapping a
coordinate point (list of floats or dual numbers) to components:

==================  =========================================================
valence             components returned by ``comps(point)``
==================  =========================================================
``scalar``          one scalar
``vector``          list of length n (contravariant)
``covector``        list of length n (covariant; equals a 1-form)
``form`` (k)        list over sorted k-tuples of indices, lexicographic
``multivector`` (k) list over sorted k-tuples (k = 2 is a bivector)
==================  =========================================================

A section of TM ⊕ T*M is not a field object but a plain callable
``pt ↦ X ‖ ξ`` with 2n components.  :func:`courant_at` is the Courant
bracket as one array kernel over stacked first jets: it brackets every
pair of sections of a stack, at every sample point, from their values and
Jacobian rows.

Antisymmetry is exact by construction: only independent components are ever
stored, and full matrices are reconstructed with explicit signs.

Differentiation is forward-mode dual numbers throughout (nestable once, so
second derivatives — e.g. d∘d or curvature checks — are exact).  Finite
differences appear only in the test-suite as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from . import dual as dm
from ._numerics import (coboundary, combos, dot, skew_matrix, stacked_jets,
                        stacked_matrix)

SCALAR = "scalar"
VECTOR = "vector"
COVECTOR = "covector"
FORM = "form"
MULTIVECTOR = "multivector"


class SmoothField:
    """A field of fixed valence over an n-dimensional chart."""

    def __init__(self, dim, valence, comps, degree=None, name=""):
        self.dim = dim
        self.valence = valence
        self.comps = comps
        self.degree = degree
        self.name = name
        if valence in (FORM, MULTIVECTOR) and degree is None:
            raise ValueError("forms and multivectors need an explicit degree")
        if valence == COVECTOR:
            self.degree = 1

    def __call__(self, point):
        return self.comps(point)

    def __repr__(self):
        deg = f", degree={self.degree}" if self.degree is not None else ""
        return f"SmoothField({self.name or self.valence}{deg}, dim={self.dim})"


# -- constructors -----------------------------------------------------------

def vector_field(dim, fn, name=""):
    return SmoothField(dim, VECTOR, fn, name=name)


def covector_field(dim, fn, name=""):
    return SmoothField(dim, COVECTOR, fn, name=name)


def k_form(dim, degree, fn, name=""):
    if degree == 1:
        return SmoothField(dim, COVECTOR, fn, name=name)
    return SmoothField(dim, FORM, fn, degree=degree, name=name)


def two_form(dim, fn, name=""):
    return k_form(dim, 2, fn, name=name)


# -- component plumbing -------------------------------------------------------

def antisym_matrix(field, point):
    """Full antisymmetric matrix of a degree-2 form/bivector at a point."""
    if field.degree != 2:
        raise ValueError("antisym_matrix needs degree 2")
    return skew_matrix(field.dim, field(point))


# -- derivations ----------------------------------------------------------------

def lie_bracket(X, Y):
    """Lie bracket of vector fields: [X,Y]^i = X^j ∂_j Y^i − Y^j ∂_j X^i."""
    n = X.dim

    def comps(pt):
        xv, yv = X(pt), Y(pt)
        dy = dm.jacobian(Y.comps, pt)
        dx = dm.jacobian(X.comps, pt)
        return [dot(dy[i], xv) - dot(dx[i], yv) for i in range(n)]

    return vector_field(n, comps, name=f"[{X.name},{Y.name}]")


def exterior_derivative(omega):
    """d of a k-form: (dω)_J = Σ_a (−1)^a ∂_{j_a} ω_{J∖j_a}."""
    n = omega.dim
    if omega.valence == SCALAR:
        return covector_field(
            n, lambda pt: dm.gradient(omega.comps, pt), name=f"d{omega.name}")
    if omega.valence not in (COVECTOR, FORM):
        raise ValueError("exterior derivative applies to forms")
    k = omega.degree
    src_index = {c: i for i, c in enumerate(combos(n, k))}
    dst = combos(n, k + 1)

    def comps(pt):
        grads = dm.jacobian(omega.comps, pt)   # grads[i][j] = ∂_j ω_i
        return coboundary(dst, lambda j, face: grads[src_index[face]][j])

    return SmoothField(n, FORM, comps, degree=k + 1, name=f"d{omega.name}")


# -- the Courant bracket ------------------------------------------------------

def courant_at(u, du, v, dv):
    """⟦(X,α),(Y,β)⟧ = ([X,Y], L_X β − L_Y α + ½ d(α(Y) − β(X))) for stacks of
    section values u = X ‖ α, v = Y ‖ β, shape (..., 2n), and their first
    jets du[..., a, j] = ∂_j u_a, dv likewise, shape (..., 2n, n); the
    leading axes (pairs, points) broadcast and the result is (..., 2n).
    Each entry is summed from 0.0 in j order, term by term as a scalar
    evaluation would, so every bracket entry has the bits it has at one
    point and one pair."""
    n = u.shape[-1] // 2
    x, a, y, b = u[..., :n], u[..., n:], v[..., :n], v[..., n:]
    dx, da = du[..., :n, :], du[..., n:, :]
    dy, db = dv[..., :n, :], dv[..., n:, :]

    def over_j(term):
        # Σ_j term(j), one entry per free index i
        acc = 0.0
        for j in range(n):
            acc = acc + term(j)
        return acc

    def along(jet, w):
        # w^j ∂_j of each component: dot(jet[i], w)
        return over_j(lambda j: jet[..., :, j] * w[..., j, None])

    def lie(x, dx, b, db):
        # (L_X β)_i = X^j ∂_j β_i + β_j ∂_i X^j
        return along(db, x) + over_j(
            lambda j: b[..., j, None] * dx[..., j, :])

    def d_pair(a, da, y, dy):
        # ∂_i α(Y) = α_j ∂_i Y^j + ∂_i α_j Y^j
        return over_j(lambda j: a[..., j, None] * dy[..., j, :]
                      + da[..., j, :] * y[..., j, None])

    vec = along(dy, x) - along(dx, y)
    cov = (lie(x, dx, b, db) - lie(y, dy, a, da)
           + 0.5 * (d_pair(a, da, y, dy) - d_pair(b, db, x, dx)))
    return np.concatenate([vec, cov], axis=-1)


def courant_bracket(s1, s2):
    """⟦s1, s2⟧ of two TM ⊕ T*M sections, as a section pt ↦ its 2n
    components: one Jacobian of each per point, and one `courant_at` call
    on every sample point of pt at once.  No package module calls it (the
    checks bracket stacked jets with `courant_at`); the benchmark tracer
    patches it by name."""

    def bracket(pt):
        values = stacked_matrix([s1(pt), s2(pt)], pt[0])
        du, dv = (stacked_jets(dm.jacobian(s, pt)) for s in (s1, s2))
        out = courant_at(values[..., 0, :], du, values[..., 1, :], dv)
        return list(np.moveaxis(out, -1, 0))

    return bracket
