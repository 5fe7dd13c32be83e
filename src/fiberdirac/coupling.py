"""Coupling data on a fibered space and the associated Dirac frames.

The geometric triple (vertical bivector π_V, connection Γ, horizontal
two-form ω_H) determines a maximal isotropic subbundle

    L = graph(ω_H on Hor) ⊕ graph(π_V on Ver*)

of TE ⊕ T*E.  At a point with connection coefficient A, fiber bivector
matrix P, and horizontal-form matrix W (W_ab = ω_H(h(e_a), h(e_b))), the
frame rows are

    base row a:   X = (e_a, A e_a),        ξ = (W_{a,:}, 0)
    fiber row k:  X = (0, P_{:,k}),        ξ = (−A_{k,:}, f_k)

which is isotropic identically in (A, W, P).  L is closed under the
Courant bracket exactly when the triple satisfies four conditions:

    vertical_poisson      [π_V, π_V] = 0       (fiberwise Schouten square)
    transport_invariance  L_{h(v)} π_V = 0     (coordinate lifts v)
    covariant_closure     d_Γ ω_H = 0
    curvature_match       Curv(u, v) = π_V^♯ d_V ω_H(h(u), h(v))

`check_coupling_conditions` measures all four at sampled points, while
`dirac_closure_residual` measures Courant closure of the frame sections
directly; the two routes must agree on every verdict.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import dual as dm
from .dual import Dual
from ._numerics import (RANK_THRESHOLD, dot, intersection_dimension,
                        lstsq_residual, matvec, parallel_map, skew_matrix,
                        worst)
from . import fields
from .fibration import (HorizontalForm, VerticalBivector, covariant_differential,
                        curvature)


class GeometricData:
    """The triple (π_V, Γ, ω_H) on a fibered space."""

    def __init__(self, space, connection, pi_v, omega_h, name=""):
        if not isinstance(pi_v, VerticalBivector):
            raise TypeError("pi_v must be a VerticalBivector")
        if not isinstance(omega_h, HorizontalForm) or omega_h.degree != 2:
            raise TypeError("omega_h must be a degree-2 HorizontalForm")
        self.space = space
        self.connection = connection
        self.pi_v = pi_v
        self.omega_h = omega_h
        self.name = name or "coupling-data"

    def conn_matrix(self, point):
        b, x = self.space.split(point)
        return self.connection.coeff(b, x)

    def omega_matrix(self, point):
        return skew_matrix(self.space.n_base, self.omega_h(point))

    def pi_matrix(self, point):
        return self.pi_v.matrix(point)

    def sample_points(self, count=256, seed=0):
        return self.space.sample(count, seed=seed)

    def __repr__(self):
        return f"GeometricData({self.name!r})"


# -- point frames ----------------------------------------------------------------

class DiracPointFrame:
    """n rows spanning a rank-n isotropic subspace of R^n ⊕ R^n* at a point."""

    def __init__(self, space, point, rows):
        self.space = space
        self.point = list(point)
        self.rows = [list(r) for r in rows]
        self.n = space.dim

    def vectors(self):
        return [r[:self.n] for r in self.rows]

    def covectors(self):
        return [r[self.n:] for r in self.rows]

    def isotropy_residual(self):
        """max |⟨row_r, row_s⟩_+| over all row pairs (zero by construction
        for assembled frames; nonzero flags hand-built input)."""
        n = self.n

        def plus_pairing(r, s):
            return 0.5 * (dot(r[n:], s[:n]) + dot(s[n:], r[:n]))

        return worst(abs(dm.value_of(plus_pairing(r, s)))
                     for r in self.rows for s in self.rows)


def assemble_dirac(geom, point):
    """The Dirac frame of the coupling triple at a point."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    a_mat = geom.conn_matrix(point)
    w_mat = geom.omega_matrix(point)
    p_mat = geom.pi_matrix(point)
    rows = []
    for i in range(nb):
        vec = [1.0 if j == i else 0.0 for j in range(nb)]
        vec += [a_mat[k][i] for k in range(nf)]
        cov = list(w_mat[i]) + [0.0] * nf
        rows.append(vec + cov)
    for k in range(nf):
        vec = [0.0] * nb + [p_mat[m][k] for m in range(nf)]
        cov = [-a for a in a_mat[k]] + [1.0 if m == k else 0.0 for m in range(nf)]
        rows.append(vec + cov)
    return DiracPointFrame(space, point, rows)


def fiber_nondegeneracy(frame):
    """Check (Ver ⊕ Ver⁰) ∩ L = {0} at the frame's point.

    Primary route: an element of L with vanishing base-vector and fiber-
    covector parts is a null combination of the rows restricted to those
    columns, so the n×n restriction matrix must have full rank.  The
    secondary route intersects the two subspaces by principal angles.
    Returns a dict with both answers.
    """
    space = frame.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim
    cols = list(range(nb)) + list(range(n + nb, 2 * n))
    sub = np.array([[dm.value_of(r[c]) for c in cols] for r in frame.rows],
                   dtype=float)
    svals = np.linalg.svd(sub, compute_uv=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    min_rel = float(svals[-1] / scale) if svals.size else 0.0

    # principal-angle route on the ambient 2n-dimensional space
    ver_rows = []
    for k in range(nf):
        ver_rows.append([0.0] * nb + [1.0 if m == k else 0.0 for m in range(nf)]
                        + [0.0] * n)
    for a in range(nb):
        ver_rows.append([0.0] * n + [1.0 if j == a else 0.0 for j in range(nb)]
                        + [0.0] * nf)
    frame_rows = [[dm.value_of(c) for c in r] for r in frame.rows]
    inter_dim = intersection_dimension(frame_rows, ver_rows)

    ok = min_rel > RANK_THRESHOLD and inter_dim == 0
    return {"ok": ok, "min_singular": min_rel, "intersection_dim": inter_dim}


def extract_geometric_data(frame):
    """Recover (A, W, P) point data from a nondegenerate Dirac frame.

    Row-reduces the frame so the (base-vector, fiber-covector) block is the
    identity; the remaining blocks are then read off.  Returns the three
    matrices plus a `consistency` residual (the connection coefficient is
    recovered twice, from the base rows' vectors and the fiber rows'
    covectors, and must agree) and asymmetry residuals for W and P.
    """
    space = frame.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim
    g = np.array([[dm.value_of(c) for c in r] for r in frame.rows], dtype=float)
    cols = list(range(nb)) + list(range(n + nb, 2 * n))
    sub = g[:, cols]
    canon = np.linalg.solve(sub, g)
    a_from_h = canon[:nb, nb:n].T               # base rows, fiber-vector block
    a_from_v = -canon[nb:, n:n + nb]            # fiber rows, base-covector block
    w_raw = canon[:nb, n:n + nb]
    p_raw = canon[nb:, nb:n].T
    consistency = float(np.max(np.abs(a_from_h - a_from_v))) if a_from_h.size else 0.0
    w_skew = float(np.max(np.abs(w_raw + w_raw.T))) if w_raw.size else 0.0
    p_skew = float(np.max(np.abs(p_raw + p_raw.T))) if p_raw.size else 0.0
    return {
        "connection": 0.5 * (a_from_h + a_from_v),
        "omega": 0.5 * (w_raw - w_raw.T),
        "pi": 0.5 * (p_raw - p_raw.T),
        "consistency": consistency,
        "omega_asymmetry": w_skew,
        "pi_asymmetry": p_skew,
    }


# -- the four coupling conditions -------------------------------------------------

def _fiber_partial(space, fn, point, k):
    """∂/∂x_k (fiber coordinate) of a scalar function on E at a point."""
    seeded = list(point)
    seeded[space.n_base + k] = Dual(point[space.n_base + k], 1.0)
    return dm.tangent(fn(seeded))


def _vertical_schouten(geom, point):
    """max |[π_V, π_V]^{pqr}| over fiber index triples (fiber derivatives only)."""
    space = geom.space
    nf = space.n_fiber
    if nf < 3:
        return 0.0
    p_mat = geom.pi_matrix(point)

    def component(p, q, r):
        acc = 0.0
        for (i, j, k) in ((p, q, r), (q, r, p), (r, p, q)):
            for l in range(nf):
                dj = _fiber_partial(space, lambda pt: geom.pi_matrix(pt)[j][k],
                                    point, l)
                acc = acc + p_mat[i][l] * dj
        return acc

    return worst(abs(dm.value_of(component(*tri)))
                 for tri in itertools.combinations(range(nf), 3))


def _embedded_pi_field(geom):
    """π_V as a bivector field on the total space (fiber-fiber block)."""
    space = geom.space
    nb, n = space.n_base, space.dim
    pair_index = {pair: idx for idx, pair in enumerate(geom.pi_v.pairs)}

    def comps(pt):
        vals = geom.pi_v(pt)
        out = []
        for (i, j) in fields.combos(n, 2):
            if i >= nb and j >= nb:
                out.append(vals[pair_index[(i - nb, j - nb)]])
            else:
                out.append(0.0)
        return out

    return fields.bivector(n, comps, name="pi_V")


def _transport_invariance(geom, point):
    """max |(L_{h(e_a)} π_V)^{ij}| over base directions a and all pairs."""
    space = geom.space
    nb = space.n_base
    if space.n_fiber < 2:
        return 0.0
    piv = _embedded_pi_field(geom)

    def lie_at_point(a):
        ha = geom.connection.lift_field(
            lambda b: [1.0 if i == a else 0.0 for i in range(nb)])
        return fields.lie_derivative_bivector(ha, piv)(point)

    return worst(abs(dm.value_of(c)) for a in range(nb)
                 for c in lie_at_point(a))


def _covariant_closure(geom, point):
    """max |(d_Γ ω_H)_{abc}| (empty, hence zero, when the base has dim < 3)."""
    if geom.space.n_base < 3:
        return 0.0
    d = covariant_differential(geom.connection, geom.omega_h)
    return worst(abs(dm.value_of(v)) for v in d(point))


def _curvature_match(geom, point):
    """max |Curv(e_a,e_b) − π_V^♯ d_V ω_H(h(e_a),h(e_b))| over base pairs."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    if nf == 0:
        return 0.0
    p_mat = geom.pi_matrix(point)

    def defects(idx, a, b):
        ea = [1.0 if i == a else 0.0 for i in range(nb)]
        eb = [1.0 if i == b else 0.0 for i in range(nb)]
        curv = curvature(geom.connection, point, ea, eb)
        grad = [_fiber_partial(space, lambda pt: geom.omega_h(pt)[idx],
                               point, k) for k in range(nf)]
        return [abs(dm.value_of(c) - dm.value_of(r))
                for c, r in zip(curv, matvec(p_mat, grad))]

    return worst(d for idx, (a, b) in enumerate(geom.omega_h.combos)
                 for d in defects(idx, a, b))


CONDITION_NAMES = ("vertical_poisson", "transport_invariance",
                   "covariant_closure", "curvature_match")


def check_coupling_conditions(geom, points=None, count=256, seed=0):
    """Residuals of the four coupling conditions, maximized over points.

    Returns {condition_name: residual} plus "max".  Points default to a
    deterministic low-discrepancy sample of the total space.
    """
    if points is None:
        points = geom.sample_points(count=count, seed=seed)

    def at_point(pt):
        return (_vertical_schouten(geom, pt),
                _transport_invariance(geom, pt),
                _covariant_closure(geom, pt),
                _curvature_match(geom, pt))

    rows = parallel_map(at_point, points)
    out = {name: worst(r[i] for r in rows)
           for i, name in enumerate(CONDITION_NAMES)}
    out["max"] = worst(out[name] for name in CONDITION_NAMES)
    return out


# -- direct Courant-closure route ---------------------------------------------------

def frame_sections(geom):
    """The frame rows as smooth TE ⊕ T*E sections (base rows, then fiber rows)."""
    space = geom.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim
    sections = []
    for i in range(nb):
        def vec(pt, i=i):
            a = geom.conn_matrix(pt)
            return [1.0 if j == i else 0.0 for j in range(nb)] + \
                   [a[k][i] for k in range(nf)]

        def cov(pt, i=i):
            w = geom.omega_matrix(pt)
            return list(w[i]) + [0.0] * nf

        sections.append(fields.section_pair(
            fields.vector_field(n, vec, name=f"h(e{i})"),
            fields.covector_field(n, cov, name=f"i_h(e{i}) omega")))
    for k in range(nf):
        def vec(pt, k=k):
            p = geom.pi_matrix(pt)
            return [0.0] * nb + [p[m][k] for m in range(nf)]

        def cov(pt, k=k):
            a = geom.conn_matrix(pt)
            return [-c for c in a[k]] + \
                   [1.0 if m == k else 0.0 for m in range(nf)]

        sections.append(fields.section_pair(
            fields.vector_field(n, vec, name=f"sharp(f{k})"),
            fields.covector_field(n, cov, name=f"f{k}")))
    return sections


def dirac_closure_residual(geom, points=None, count=24, seed=0):
    """Distance of every pairwise Courant bracket of the frame sections to
    the frame's span, maximized over sampled points (relative to the
    bracket's size).  Vanishes exactly when the subbundle is involutive."""
    if points is None:
        points = geom.sample_points(count=count, seed=seed)
    sections = frame_sections(geom)
    pairs = list(itertools.combinations(range(len(sections)), 2))
    brackets = {pr: fields.courant_bracket(sections[pr[0]], sections[pr[1]])
                for pr in pairs}

    def relative_distance(rows, vec):
        return lstsq_residual(rows, vec) / max(1.0, max(abs(c) for c in vec))

    def at_point(pt):
        rows = [[dm.value_of(c) for c in sec.value(pt)] for sec in sections]
        return worst(
            relative_distance(rows, [dm.value_of(c)
                                     for c in brackets[pr].value(pt)])
            for pr in pairs)

    return worst(parallel_map(at_point, points))


# -- leaf two-form -------------------------------------------------------------------

def leaf_two_form(frame):
    """The induced presymplectic form on the leaf through the frame's point.

    Returns (tangent_rows, omega) where tangent_rows are the frame's vector
    parts (spanning the leaf tangent) and omega[r][s] = ξ_r(X_s); isotropy
    makes this matrix antisymmetric.
    """
    n = frame.n
    vecs = frame.vectors()
    covs = frame.covectors()
    omega = [[dot(covs[r], vecs[s]) for s in range(len(vecs))]
             for r in range(len(vecs))]
    return vecs, omega


# -- splitting brackets ----------------------------------------------------------------

def embed_fiber_covector(geom, alpha_fn, name="alpha"):
    """V*-section α ↪ L: X = (0, π^♯α), ξ = (−Aᵀα, α)."""
    space = geom.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim

    def vec(pt):
        p = geom.pi_matrix(pt)
        a = alpha_fn(pt)
        return [0.0] * nb + matvec(p, a)

    def cov(pt):
        amat = geom.conn_matrix(pt)
        a = alpha_fn(pt)
        base = [-dot([amat[k][j] for k in range(nf)], a) for j in range(nb)]
        return base + list(a)

    return fields.section_pair(fields.vector_field(n, vec, name=f"sharp({name})"),
                               fields.covector_field(n, cov, name=name))


def embed_horizontal(geom, v, name="v"):
    """h*(v) for a constant base vector v: X = h(v), ξ = (i_{h(v)}ω_H, 0)."""
    space = geom.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim

    def vec(pt):
        a = geom.conn_matrix(pt)
        return list(v) + matvec(a, v)

    def cov(pt):
        w = geom.omega_matrix(pt)
        base = [dot(v, [w[b][j] for b in range(nb)]) for j in range(nb)]
        return base + [0.0] * nf

    return fields.section_pair(fields.vector_field(n, vec, name=f"h({name})"),
                               fields.covector_field(n, cov, name=f"hstar({name})"))


def _fiber_gradient(space, fn, point):
    return [_fiber_partial(space, fn, point, k) for k in range(space.n_fiber)]


def vertical_covector_bracket(geom, alpha_fn, beta_fn):
    """[α, β]_V = L_{π^♯α} β − L_{π^♯β} α − d_V π(α, β) as a fiber covector field."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber

    def comps(pt):
        p = geom.pi_matrix(pt)
        a = alpha_fn(pt)
        b = beta_fn(pt)
        sha = matvec(p, a)
        shb = matvec(p, b)

        def lie(sh_src, sh_fn, tgt_fn, k):
            # (L_{♯σ} τ)_k with vertical ♯σ: ♯σ·∂_V τ_k + τ_m ∂_k(♯σ)^m
            acc = 0.0
            for m in range(nf):
                acc = acc + sh_src[m] * _fiber_partial(
                    space, lambda q, k=k: tgt_fn(q)[k], pt, m)
                acc = acc + tgt_fn(pt)[m] * _fiber_partial(
                    space, lambda q, m=m: sh_fn(q)[m], pt, k)
            return acc

        def sharp_alpha(q):
            pm = geom.pi_matrix(q)
            av = alpha_fn(q)
            return matvec(pm, av)

        def sharp_beta(q):
            pm = geom.pi_matrix(q)
            bv = beta_fn(q)
            return matvec(pm, bv)

        def pairing_scalar(q):
            # π(α, β) = β(♯α), the slot order compatible with ♯α = P α
            pm = geom.pi_matrix(q)
            av, bv = alpha_fn(q), beta_fn(q)
            return dot(bv, matvec(pm, av))

        out = []
        for k in range(nf):
            t1 = lie(sha, sharp_alpha, beta_fn, k)
            t2 = lie(shb, sharp_beta, alpha_fn, k)
            t3 = _fiber_partial(space, pairing_scalar, pt, k)
            out.append(t1 - t2 - t3)
        return out

    return comps


def horizontal_covector_derivative(geom, v, alpha_fn):
    """(L_{h(v)} α)_k for a fiber covector field α and constant base v."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber

    def comps(pt):
        a = geom.conn_matrix(pt)
        hv = list(v) + matvec(a, v)
        out = []
        for k in range(nf):
            acc = dm.directional(lambda q: alpha_fn(q)[k], pt, hv)
            for m in range(nf):
                lift_m = lambda q, m=m: dot(geom.conn_matrix(q)[m], v)
                acc = acc + alpha_fn(pt)[m] * _fiber_partial(space, lift_m, pt, k)
            out.append(acc)
        return out

    return comps


def splitting_bracket_residual(geom, points=None, count=12, seed=0,
                               alpha_fn=None, beta_fn=None, v=None, w=None):
    """Residuals of the three splitting-bracket identities.

    Each identity is checked by comparing the ambient Courant bracket of
    embedded sections against the embedding of the formula's result:

        ⟦emb α, emb β⟧      = emb([α, β]_V)
        ⟦h*(v), emb α⟧      = emb(L_{h(v)} α)
        ⟦h*(v), h*(w)⟧      = h*([v,w]) + emb(d_V ω_H(h(v), h(w)))

    (constant v, w make the h*([v,w]) term vanish).  Returns a dict of the
    three residuals plus "max".
    """
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    if points is None:
        points = geom.sample_points(count=count, seed=seed)
    if alpha_fn is None:
        alpha_fn = _default_fiber_covector(space, salt=0)
    if beta_fn is None:
        beta_fn = _default_fiber_covector(space, salt=1)
    if v is None:
        v = [1.0 if i == 0 else 0.25 for i in range(nb)]
    if w is None:
        w = [0.5 if i == 0 else (1.0 if i == nb - 1 else -0.75)
             for i in range(nb)]

    sec_a = embed_fiber_covector(geom, alpha_fn, name="alpha")
    sec_b = embed_fiber_covector(geom, beta_fn, name="beta")
    sec_v = embed_horizontal(geom, v, name="v")
    sec_w = embed_horizontal(geom, w, name="w")

    vv_formula = vertical_covector_bracket(geom, alpha_fn, beta_fn)
    hv_formula = horizontal_covector_derivative(geom, v, alpha_fn)

    def hh_formula(pt):
        def scalar(q):
            wm = geom.omega_matrix(q)
            return dot(v, matvec(wm, w))
        return _fiber_gradient(space, scalar, pt)

    lhs_vv = fields.courant_bracket(sec_a, sec_b)
    lhs_hv = fields.courant_bracket(sec_v, sec_a)
    lhs_hh = fields.courant_bracket(sec_v, sec_w)
    rhs_vv = embed_fiber_covector(geom, vv_formula, name="[a,b]_V")
    rhs_hv = embed_fiber_covector(geom, hv_formula, name="L_h(v) a")
    rhs_hh = embed_fiber_covector(geom, hh_formula, name="d_V om(hv,hw)")

    def resid(lhs, rhs):
        return worst(abs(dm.value_of(a) - dm.value_of(b))
                     for pt in points
                     for a, b in zip(lhs.value(pt), rhs.value(pt)))

    out = {"vertical_vertical": resid(lhs_vv, rhs_vv),
           "horizontal_vertical": resid(lhs_hv, rhs_hv),
           "horizontal_horizontal": resid(lhs_hh, rhs_hh)}
    out["max"] = worst(out.values())
    return out


def _default_fiber_covector(space, salt=0):
    """A fixed mildly generic fiber covector field (depends on b and x)."""
    nb, nf = space.n_base, space.n_fiber
    c0 = [0.3 + 0.1 * ((k + salt) % 3) for k in range(nf)]

    def fn(pt):
        out = []
        for k in range(nf):
            acc = c0[k]
            for i in range(space.dim):
                acc = acc + (0.05 * ((2 * k + 3 * i + salt) % 5 - 2)) * pt[i]
            out.append(acc)
        return out

    return fn
