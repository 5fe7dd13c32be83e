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
``vvform`` (k)      list over sorted k-tuples, each entry a coefficient list
                    (vector-valued form, used for Lie-algebra valued data)
==================  =========================================================

Antisymmetry is exact by construction: only independent components are ever
stored, and full matrices are reconstructed with explicit signs.

Differentiation is forward-mode dual numbers throughout (nestable once, so
second derivatives — e.g. d∘d or curvature checks — are exact).  Finite
differences appear only in the test-suite as an independent cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import dual as dm
from ._numerics import det, dot, matvec, skew_matrix

SCALAR = "scalar"
VECTOR = "vector"
COVECTOR = "covector"
FORM = "form"
MULTIVECTOR = "multivector"
VVFORM = "vvform"


def combos(n, k):
    return list(itertools.combinations(range(n), k))


class SmoothField:
    """A field of fixed valence over an n-dimensional chart."""

    def __init__(self, dim, valence, comps, degree=None, name=""):
        self.dim = dim
        self.valence = valence
        self.comps = comps
        self.degree = degree
        self.name = name
        if valence in (FORM, MULTIVECTOR, VVFORM) and degree is None:
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


@dataclass
class SectionPair:
    """A vector field together with a covector field (a TM ⊕ T*M section)."""

    vector: SmoothField
    covector: SmoothField

    @property
    def dim(self):
        return self.vector.dim

    def value(self, point):
        """Concatenated 2n-component value (vector part, covector part)."""
        return list(self.vector(point)) + list(self.covector(point))


def section_pair(X, alpha):
    return SectionPair(X, alpha)


# -- component plumbing -------------------------------------------------------

def antisym_matrix(field, point):
    """Full antisymmetric matrix of a degree-2 form/bivector at a point."""
    if field.degree != 2:
        raise ValueError("antisym_matrix needs degree 2")
    return skew_matrix(field.dim, field(point))


def evaluate_form(field, point, vectors):
    """Evaluate a k-form (or k-multivector on covectors) on k arguments."""
    k = field.degree if field.degree is not None else 1
    if field.valence == COVECTOR:
        a = field(point)
        (v,) = vectors
        return dot(a, v)
    vals = field(point)
    acc = 0.0
    for idx, combo in enumerate(combos(field.dim, k)):
        minor = [[vec[i] for i in combo] for vec in vectors]
        acc = acc + vals[idx] * det(minor)
    return acc


def sharp(biv_field, point, alpha):
    """π^♯α at a point: (π^♯α)^i = π^{ij} α_j."""
    return matvec(antisym_matrix(biv_field, point), alpha)


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
    src = combos(n, k)
    src_index = {c: i for i, c in enumerate(src)}
    dst = combos(n, k + 1)

    def comps(pt):
        grads = [dm.gradient(lambda q, i=i: omega.comps(q)[i], pt)
                 for i in range(len(src))]
        out = []
        for J in dst:
            acc = 0.0
            for a, j in enumerate(J):
                sub = J[:a] + J[a + 1:]
                term = grads[src_index[sub]][j]
                acc = acc + (term if a % 2 == 0 else -term)
            out.append(acc)
        return out

    return SmoothField(n, FORM, comps, degree=k + 1, name=f"d{omega.name}")


def lie_derivative_covector(X, alpha):
    """(L_X α)_i = X^j ∂_j α_i + α_j ∂_i X^j."""
    n = X.dim

    def comps(pt):
        xv = X(pt)
        av = alpha(pt)
        da = dm.jacobian(alpha.comps, pt)   # da[i][j] = ∂_j α_i
        dx = dm.jacobian(X.comps, pt)       # dx[j][i] = ∂_i X^j
        return [dot(da[i], xv) + sum(av[j] * dx[j][i] for j in range(n))
                for i in range(n)]

    return covector_field(n, comps, name=f"L_{X.name}{alpha.name}")


def lie_derivative_bivector(X, piv):
    """(L_X π)^{ij} = X^k ∂_k π^{ij} − π^{kj} ∂_k X^i − π^{ik} ∂_k X^j."""
    n = X.dim
    pairs = combos(n, 2)

    def comps(pt):
        xv = X(pt)
        mat = antisym_matrix(piv, pt)
        dpi = [dm.gradient(lambda q, idx=idx: piv.comps(q)[idx], pt)
               for idx in range(len(pairs))]
        dx = dm.jacobian(X.comps, pt)       # dx[i][k] = ∂_k X^i
        out = []
        for idx, (i, j) in enumerate(pairs):
            adv = dot(dpi[idx], xv)
            corr = sum(mat[k][j] * dx[i][k] + mat[i][k] * dx[j][k]
                       for k in range(n))
            out.append(adv - corr)
        return out

    return bivector(n, comps, name=f"L_{X.name}{piv.name}")


def interior_product(X, omega):
    """i_X ω for a form of degree 1 or 2."""
    n = omega.dim
    if omega.valence == COVECTOR:
        return scalar_field(n, lambda pt: dot(omega(pt), X(pt)))
    if omega.degree == 2:
        def comps(pt):
            mat = antisym_matrix(omega, pt)
            xv = X(pt)
            return [sum(xv[i] * mat[i][j] for i in range(n)) for j in range(n)]
        return covector_field(n, comps, name=f"i_{X.name}{omega.name}")
    raise ValueError("interior product implemented for degrees 1 and 2")


def schouten_square(piv):
    """Schouten square of a bivector, as the trivector S with

        S^{pqr} = Σ_l ( π^{pl} ∂_l π^{qr} + π^{ql} ∂_l π^{rp} + π^{rl} ∂_l π^{pq} )

    normalized so that S(df, dg, dh) equals the Jacobiator
    {f,{g,h}} + {g,{h,f}} + {h,{f,g}} of the induced bracket exactly
    (the second-derivative terms of the nested brackets cancel pairwise, and
    collecting the coefficient of ∂_p f ∂_q g ∂_r h gives the formula above).
    π is Poisson iff S vanishes.
    """
    n = piv.dim
    pairs = combos(n, 2)
    pair_index = {c: i for i, c in enumerate(pairs)}

    def comp(mat, grads, i, j):
        if i == j:
            return None
        sgn = 1.0 if i < j else -1.0
        return sgn, pair_index[(min(i, j), max(i, j))]

    def comps(pt):
        mat = antisym_matrix(piv, pt)
        grads = [dm.gradient(lambda q, idx=idx: piv.comps(q)[idx], pt)
                 for idx in range(len(pairs))]

        def dpi(l, i, j):
            if i == j:
                return 0.0
            sgn, idx = comp(mat, grads, i, j)
            return sgn * grads[idx][l]

        out = []
        for (p, q, r) in combos(n, 3):
            acc = 0.0
            for l in range(n):
                acc = acc + mat[p][l] * dpi(l, q, r)
                acc = acc + mat[q][l] * dpi(l, r, p)
                acc = acc + mat[r][l] * dpi(l, p, q)
            out.append(acc)
        return out

    return SmoothField(n, MULTIVECTOR, comps, degree=3, name=f"[{piv.name},{piv.name}]")


def poisson_bracket(piv, f, g):
    """{f, g} = π(df, dg)."""
    n = piv.dim

    def comps(pt):
        df = dm.gradient(f.comps, pt)
        dg = dm.gradient(g.comps, pt)
        mat = antisym_matrix(piv, pt)
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc = acc + mat[i][j] * df[i] * dg[j]
        return acc

    return scalar_field(n, comps, name=f"{{{f.name},{g.name}}}")


# -- the split-tangent pairings and the Courant bracket ----------------------

def pairing(s1, s2, sign=+1):
    """⟨(X,α),(Y,β)⟩_± = ½(α(Y) ± β(X)) as a scalar field."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")

    def comps(pt):
        ay = dot(s1.covector(pt), s2.vector(pt))
        bx = dot(s2.covector(pt), s1.vector(pt))
        return 0.5 * (ay + sign * bx)

    return scalar_field(s1.dim, comps)


def courant_bracket(s1, s2):
    """⟦(X,α),(Y,β)⟧ = ([X,Y], L_X β − L_Y α + d⟨(X,α),(Y,β)⟩_−)."""
    X, alpha = s1.vector, s1.covector
    Y, beta = s2.vector, s2.covector
    bracket = lie_bracket(X, Y)
    lxb = lie_derivative_covector(X, beta)
    lya = lie_derivative_covector(Y, alpha)
    dminus = exterior_derivative(pairing(s1, s2, sign=-1))

    def cov_comps(pt):
        a, b, c = lxb(pt), lya(pt), dminus(pt)
        return [ai - bi + ci for ai, bi, ci in zip(a, b, c)]

    return SectionPair(bracket, covector_field(s1.dim, cov_comps))


# -- shipped field library -----------------------------------------------------

def so3_linear_bivector(sign=+1.0, name="so3"):
    """Linear bivector on R³ ≅ so(3)*: π^{ij} = sign · ε_{ijk} x_k.

    Both signs have vanishing Schouten square; the Yang–Mills fiber model
    uses sign = −1 so that its infinitesimal action is hamiltonian for its
    recorded conventions.
    """
    def comps(x):
        return [sign * x[2], -sign * x[1], sign * x[0]]
    return bivector(3, comps, name=name)


def round_area_form(chart=0, name="round-area"):
    """The round area form of the unit sphere in stereographic chart 0 or 1.

    In chart 0 the density is +4/(1+ρ²)² (total area +4π); the transition is
    orientation-reversing, so the chart-1 representative carries a minus.
    """
    sgn = 1.0 if chart == 0 else -1.0

    def comps(w):
        r2 = w[0] * w[0] + w[1] * w[1]
        den = 1.0 + r2
        return [sgn * 4.0 / (den * den)]

    return two_form(2, comps, name=name)


def constant_symplectic_bivector(n_pairs=1, name="canonical"):
    """Constant bivector Σ ∂_{2k} ∧ ∂_{2k+1} on R^{2·n_pairs}."""
    n = 2 * n_pairs
    pairs = combos(n, 2)
    vals = [1.0 if (j == i + 1 and i % 2 == 0) else 0.0 for (i, j) in pairs]
    return bivector(n, lambda pt: vals, name=name)
