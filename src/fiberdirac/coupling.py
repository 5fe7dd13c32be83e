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

A section of TE ⊕ T*E is a plain callable pt ↦ X ‖ ξ with 2n components,
and `frame_rows(geom)` is the whole frame as one such function, pt ↦ its n
rows.  A check evaluates each field once per call, on its sample points
stacked as one array axis (`_numerics.stack`).  `check_coupling_conditions`
measures the four conditions: algebra on one set of first derivatives of
(A, ω_H, π_V), each field differentiated once per direction.
`dirac_closure_residual` measures Courant closure of the frame directly and
never calls `_condition_residuals`: it takes one Jacobian of the flattened
frame, fills the frame rows and their first jets into stacked arrays over
the points, brackets every pair of rows at every point in one call of the
array kernel `fields.courant_at`, and measures the distance of every
bracket to its point's span in one stacked least-squares call.  The two
routes must agree on every verdict.  A caller's `points=` list must hold
one or more points of the space's dimension, and a sample at least one
point.
"""

from __future__ import annotations

import numpy as np

from . import dual as dm
from ._numerics import (bilinear, coboundary, combos, dot, lstsq_residual,
                        matvec, skew_matrix, stack, stacked_matrix, worst)
from . import fields
from .fibration import HorizontalForm, VerticalBivector


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
        """`count` samples of the total space, as one point whose
        coordinates are float arrays over them."""
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


def frame_rows(geom):
    """The frame as one function: pt ↦ its n rows X ‖ ξ (base rows, then
    fiber rows), all built from one evaluation of A, W and P."""
    nb, nf = geom.space.n_base, geom.space.n_fiber
    e_base = [dm.unit(nb, i) for i in range(nb)]
    e_fiber = [dm.unit(nf, k) for k in range(nf)]

    def rows(pt):
        a, w = geom.conn_matrix(pt), geom.omega_matrix(pt)
        p = geom.pi_matrix(pt)
        base = [e_base[i] + [a[k][i] for k in range(nf)] + list(w[i])
                + [0.0] * nf for i in range(nb)]
        fiber = [[0.0] * nb + [p[m][k] for m in range(nf)]
                 + [-c for c in a[k]] + e_fiber[k]
                 for k in range(nf)]
        return base + fiber

    return rows


def assemble_dirac(geom, point):
    """The Dirac frame of the coupling triple at a point: the value of
    its `frame_rows`."""
    return DiracPointFrame(geom.space, point, frame_rows(geom)(point))


# -- the four coupling conditions -------------------------------------------------

CONDITION_NAMES = ("vertical_poisson", "transport_invariance",
                   "covariant_closure", "curvature_match")


def _condition_residuals(geom, basis, pt):
    """The four residuals at one point, in `CONDITION_NAMES` order: algebra
    on one seeded pass per field and direction that a condition reads.
    `basis` holds the base unit vectors e_a.  With P = π_V, h_a = h(e_a)
    and fiber indices i, j, k, l:

        vertical_poisson      Σ_cyc(ijk) P^{il} ∂_l P^{jk}
        transport_invariance  h_a(P^{ij}) − P^{kj} ∂_k A_ia − P^{ik} ∂_k A_ja
        covariant_closure     Σ_pos (−1)^pos h_a(ω_H)_{J∖a},  J = (a,b,c)
        curvature_match       h_a(A_ib) − h_b(A_ia) − P^{ik} ∂_k ω_ab

    (L_{h_a} π_V has no base components, since π_V is vertical.)
    """
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    p = geom.pi_matrix(pt)
    lifts = [geom.connection.lift(e, pt) for e in basis]

    def flat_a(q):
        # A_ia sits at i * nb + a
        return [c for row in geom.conn_matrix(q) for c in row]

    def along_fiber(fn):
        return [dm.partial(fn, pt, nb + k) for k in range(nf)]

    def along_lifts(fn):
        return [dm.directional(fn, pt, h) for h in lifts]

    poisson = transport = closure = curv = 0.0
    if nf >= 2:
        d_pi = [dm.partial(geom.pi_v.comps, pt, l) for l in range(space.dim)]
        d_p = [skew_matrix(nf, d) for d in d_pi[nb:]]
        d_a = along_fiber(flat_a)

        def jacobiator(i, j, k):
            acc = 0.0
            for (r, s, t) in ((i, j, k), (j, k, i), (k, i, j)):
                for l in range(nf):
                    acc = acc + p[r][l] * d_p[l][s][t]
            return acc

        def lie(a, idx, i, j):
            corr = sum(p[k][j] * d_a[k][i * nb + a]
                       + p[i][k] * d_a[k][j * nb + a] for k in range(nf))
            return dot([d[idx] for d in d_pi], lifts[a]) - corr

        poisson = worst(abs(dm.value_of(jacobiator(*tri)))
                        for tri in combos(nf, 3))
        transport = worst(abs(dm.value_of(lie(a, idx, i, j)))
                          for a in range(nb)
                          for idx, (i, j) in enumerate(geom.pi_v.pairs))
    if nb >= 3:
        d_w_h = along_lifts(geom.omega_h.comps)
        src = {c: idx for idx, c in enumerate(geom.omega_h.combos)}
        closure = worst(abs(dm.value_of(c)) for c in coboundary(
            combos(nb, 3), lambda a, face: d_w_h[a][src[face]]))
    if nf and nb >= 2:
        d_w = along_fiber(geom.omega_h.comps)
        d_a_h = along_lifts(flat_a)

        def defects(idx, a, b):
            c = [d_a_h[a][i * nb + b] - d_a_h[b][i * nb + a]
                 for i in range(nf)]
            r = matvec(p, [d[idx] for d in d_w])
            return [abs(dm.value_of(x) - dm.value_of(y))
                    for x, y in zip(c, r)]

        curv = worst(d for idx, (a, b) in enumerate(geom.omega_h.combos)
                     for d in defects(idx, a, b))
    return poisson, transport, closure, curv


def check_coupling_conditions(geom, points=None, count=256, seed=0):
    """Residuals of the four coupling conditions, maximized over points.

    Returns {condition_name: residual} plus "max".  Points default to a
    deterministic low-discrepancy sample of the total space.
    """
    pt = (geom.sample_points(count=count, seed=seed) if points is None
          else stack(points, geom.space.dim))
    basis = [dm.unit(geom.space.n_base, a) for a in range(geom.space.n_base)]
    out = dict(zip(CONDITION_NAMES, _condition_residuals(geom, basis, pt)))
    out["max"] = worst(out[name] for name in CONDITION_NAMES)
    return out


# -- direct Courant-closure route ---------------------------------------------------

def dirac_closure_residual(geom, points=None, count=24, seed=0):
    """Distance of every pairwise Courant bracket of the frame rows to the
    frame's span, maximized over sampled points (relative to the bracket's
    size).  Vanishes exactly when the subbundle is involutive.  One
    Jacobian of the whole frame serves every point, and one `courant_at`
    call brackets every pair of rows at every point."""
    n = geom.space.dim
    pt = (geom.sample_points(count=count, seed=seed) if points is None
          else stack(points, n))
    frame = frame_rows(geom)
    # rows[p, r, a]: entry a of frame row r; jets[p, r, a, j] = ∂_j of it
    rows = stacked_matrix(frame(pt), pt[0])
    jets = stacked_matrix(dm.jacobian(
        lambda q: [c for row in frame(q) for c in row], pt), pt[0])
    jets = jets.reshape(rows.shape + (n,))
    r, s = np.array(combos(n, 2), dtype=int).reshape(-1, 2).T
    brackets = fields.courant_at(rows[..., r, :], jets[..., r, :, :],
                                 rows[..., s, :], jets[..., s, :, :])
    return worst([lstsq_residual(rows[..., None, :, :], brackets)
                  / np.maximum(1.0, np.abs(brackets).max(axis=-1))])


# -- leaf two-form -------------------------------------------------------------------

def leaf_two_form(frame):
    """The induced presymplectic form on the leaf through the frame's point.

    Returns (tangent_rows, omega) where tangent_rows are the frame's vector
    parts (spanning the leaf tangent) and omega[r][s] = ξ_r(X_s); isotropy
    makes this matrix antisymmetric.
    """
    vecs = frame.vectors()
    covs = frame.covectors()
    omega = [[dot(covs[r], vecs[s]) for s in range(len(vecs))]
             for r in range(len(vecs))]
    return vecs, omega


# -- splitting brackets ----------------------------------------------------------------

def embed_fiber_covector(geom, alpha_fn):
    """V*-section α ↪ L as a section pt ↦ X ‖ ξ: X = (0, π^♯α),
    ξ = (−Aᵀα, α)."""
    nb, nf = geom.space.n_base, geom.space.n_fiber

    def section(pt):
        p, a, amat = geom.pi_matrix(pt), alpha_fn(pt), geom.conn_matrix(pt)
        base = [-dot([amat[k][j] for k in range(nf)], a) for j in range(nb)]
        return [0.0] * nb + matvec(p, a) + base + list(a)

    return section


def embed_horizontal(geom, v):
    """h*(v) for a constant base vector v, as a section pt ↦ X ‖ ξ:
    X = h(v), ξ = (i_{h(v)}ω_H, 0)."""
    nb, nf = geom.space.n_base, geom.space.n_fiber

    def section(pt):
        a, w = geom.conn_matrix(pt), geom.omega_matrix(pt)
        base = [dot(v, [w[b][j] for b in range(nb)]) for j in range(nb)]
        return list(v) + matvec(a, v) + base + [0.0] * nf

    return section


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

        def fiber_partials(fn):
            # out[m] = ∂_m fn along fiber direction m, one pass each
            return [dm.partial(fn, pt, nb + m) for m in range(nf)]

        def lie(sh_src, d_sh, tgt, d_tgt, k):
            # (L_{♯σ} τ)_k with vertical ♯σ: ♯σ·∂_V τ_k + τ_m ∂_k(♯σ)^m
            acc = 0.0
            for m in range(nf):
                acc = acc + sh_src[m] * d_tgt[m][k]
                acc = acc + tgt[m] * d_sh[k][m]
            return acc

        def sharp(fn):
            return lambda q: matvec(geom.pi_matrix(q), fn(q))

        def pairing_scalar(q):
            # π(α, β) = β(♯α), the slot order compatible with ♯α = P α
            pm, av, bv = geom.pi_matrix(q), alpha_fn(q), beta_fn(q)
            return bilinear(pm, bv, av)

        d_a, d_b = fiber_partials(alpha_fn), fiber_partials(beta_fn)
        d_sha = fiber_partials(sharp(alpha_fn))
        d_shb = fiber_partials(sharp(beta_fn))
        d_pair = fiber_partials(pairing_scalar)
        out = []
        for k in range(nf):
            t1 = lie(sha, d_sha, b, d_b, k)
            t2 = lie(shb, d_shb, a, d_a, k)
            out.append(t1 - t2 - d_pair[k])
        return out

    return comps


def horizontal_covector_derivative(geom, v, alpha_fn):
    """(L_{h(v)} α)_k for a fiber covector field α and constant base v."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber

    def lift(q):
        return matvec(geom.conn_matrix(q), v)

    def comps(pt):
        av = alpha_fn(pt)
        d_alpha = dm.directional(alpha_fn, pt, list(v) + lift(pt))   # along h(v)
        out = []
        for k in range(nf):
            d_lift = dm.partial(lift, pt, nb + k)
            acc = d_alpha[k]
            for m in range(nf):
                acc = acc + av[m] * d_lift[m]
            out.append(acc)
        return out

    return comps


def splitting_bracket_residual(geom, count=12, seed=0, alpha_fn=None,
                               beta_fn=None, v=None, w=None):
    """Residuals of the three splitting-bracket identities.

    Each identity is checked by comparing the ambient Courant bracket of
    embedded sections against the embedding of the formula's result:

        ⟦emb α, emb β⟧      = emb([α, β]_V)
        ⟦h*(v), emb α⟧      = emb(L_{h(v)} α)
        ⟦h*(v), h*(w)⟧      = h*([v,w]) + emb(d_V ω_H(h(v), h(w)))

    (constant v, w make the h*([v,w]) term vanish) at `count` sampled
    points.  Returns a dict of the three residuals plus "max".
    """
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    pt = geom.sample_points(count=count, seed=seed)
    if alpha_fn is None:
        alpha_fn = _default_fiber_covector(space, salt=0)
    if beta_fn is None:
        beta_fn = _default_fiber_covector(space, salt=1)
    if v is None:
        v = [1.0 if i == 0 else 0.25 for i in range(nb)]
    if w is None:
        w = [0.5 if i == 0 else (1.0 if i == nb - 1 else -0.75)
             for i in range(nb)]

    sec_a = embed_fiber_covector(geom, alpha_fn)
    sec_b = embed_fiber_covector(geom, beta_fn)
    sec_v = embed_horizontal(geom, v)
    sec_w = embed_horizontal(geom, w)

    vv_formula = vertical_covector_bracket(geom, alpha_fn, beta_fn)
    hv_formula = horizontal_covector_derivative(geom, v, alpha_fn)

    def hh_formula(pt):
        def scalar(q):
            return bilinear(geom.omega_matrix(q), v, w)
        return [dm.partial(scalar, pt, nb + k) for k in range(nf)]

    lhs_vv = fields.courant_bracket(sec_a, sec_b)
    lhs_hv = fields.courant_bracket(sec_v, sec_a)
    lhs_hh = fields.courant_bracket(sec_v, sec_w)
    rhs_vv = embed_fiber_covector(geom, vv_formula)
    rhs_hv = embed_fiber_covector(geom, hv_formula)
    rhs_hh = embed_fiber_covector(geom, hh_formula)

    def resid(lhs, rhs):
        return worst(abs(dm.value_of(a) - dm.value_of(b))
                     for a, b in zip(lhs(pt), rhs(pt)))

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
