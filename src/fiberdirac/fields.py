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
``pt ↦ X ‖ ξ`` with 2n components; :func:`courant_at` brackets two of them
from their values and Jacobian rows (their first jets) at a point.

Antisymmetry is exact by construction: only independent components are ever
stored, and full matrices are reconstructed with explicit signs.

Differentiation is forward-mode dual numbers throughout (nestable once, so
second derivatives — e.g. d∘d or curvature checks — are exact).  Finite
differences appear only in the test-suite as an independent cross-check.
"""

from __future__ import annotations

from . import dual as dm
from ._numerics import coboundary, combos, dot, skew_matrix

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

def scalar_field(dim, fn, name=""):
    return SmoothField(dim, SCALAR, fn, name=name)


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


def bivector(dim, fn, name=""):
    return SmoothField(dim, MULTIVECTOR, fn, degree=2, name=name)


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


def lie_derivative_bivector(X, piv):
    """(L_X π)^{ij} = X^k ∂_k π^{ij} − π^{kj} ∂_k X^i − π^{ik} ∂_k X^j."""
    n = X.dim
    pairs = combos(n, 2)

    def comps(pt):
        xv = X(pt)
        mat = antisym_matrix(piv, pt)
        dpi = dm.jacobian(piv.comps, pt)    # dpi[idx][k] = ∂_k π_idx
        dx = dm.jacobian(X.comps, pt)       # dx[i][k] = ∂_k X^i
        out = []
        for idx, (i, j) in enumerate(pairs):
            adv = dot(dpi[idx], xv)
            corr = sum(mat[k][j] * dx[i][k] + mat[i][k] * dx[j][k]
                       for k in range(n))
            out.append(adv - corr)
        return out

    return bivector(n, comps, name=f"L_{X.name}{piv.name}")


# -- the Courant bracket ------------------------------------------------------

def courant_at(u, du, v, dv):
    """⟦(X,α),(Y,β)⟧ = ([X,Y], L_X β − L_Y α + ½ d(α(Y) − β(X))) at a point,
    from the values u = X ‖ α, v = Y ‖ β and their Jacobian rows
    du[a][j] = ∂_j u_a, dv[a][j] = ∂_j v_a."""
    n = len(u) // 2
    x, a, y, b = u[:n], u[n:], v[:n], v[n:]
    dx, da, dy, db = du[:n], du[n:], dv[:n], dv[n:]

    def lie(x, dx, b, db, i):
        # (L_X β)_i = X^j ∂_j β_i + β_j ∂_i X^j
        return dot(db[i], x) + sum(b[j] * dx[j][i] for j in range(n))

    def d_pair(a, da, y, dy, i):
        # ∂_i α(Y) = α_j ∂_i Y^j + ∂_i α_j Y^j
        return sum(a[j] * dy[j][i] + da[j][i] * y[j] for j in range(n))

    vec = [dot(dy[i], x) - dot(dx[i], y) for i in range(n)]
    cov = [lie(x, dx, b, db, i) - lie(y, dy, a, da, i)
           + 0.5 * (d_pair(a, da, y, dy, i) - d_pair(b, db, x, dx, i))
           for i in range(n)]
    return vec + cov


def courant_bracket(s1, s2):
    """⟦s1, s2⟧ of two TM ⊕ T*M sections, as a section: one Jacobian of
    each per point."""
    return lambda pt: courant_at(s1(pt), dm.jacobian(s1, pt),
                                 s2(pt), dm.jacobian(s2, pt))
