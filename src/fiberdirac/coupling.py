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
frame (one seeded pass), holds the frame rows and their first jets as
stacked arrays over the points, brackets every pair of rows at every point
in one call of the array kernel `fields.courant_at`, and measures the
distance of every bracket to its point's span by one QR factorization of
the frame per point.  The two routes must agree on every verdict.
`splitting_bracket_residual` takes one Jacobian (one seeded pass) of one
stacked field (the four embedded sections and the two scalars its
formulas differentiate, from one evaluation of π_V, A and ω_H), brackets
its three pairs of sections in one `courant_at` call, and reads the
right-hand formulas off the same jets.  A caller's `points=` list must
hold one or more points of the space's dimension, and a sample at least
one point.
"""

from __future__ import annotations

import numpy as np

from . import dual as dm
from ._numerics import (bilinear, coboundary, combos, dot, lstsq_residual,
                        matvec, skew_matrix, stack, stacked_jets,
                        stacked_matrix, worst)
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
    Jacobian of the whole frame serves every point, one `courant_at` call
    brackets every pair of rows at every point, and the frame rows of a
    point, independent by construction (each has a unit entry in its own
    base-vector or fiber-covector slot), are factored once for all its
    brackets."""
    n = geom.space.dim
    pt = (geom.sample_points(count=count, seed=seed) if points is None
          else stack(points, n))
    frame = frame_rows(geom)
    # rows[p, r, a]: entry a of frame row r; jets[p, r, a, j] = ∂_j of it
    rows = stacked_matrix(frame(pt), pt[0])
    jets = stacked_jets(dm.jacobian(
        lambda q: [c for row in frame(q) for c in row], pt))
    jets = jets.reshape(rows.shape + (n,))
    r, s = np.array(combos(n, 2), dtype=int).reshape(-1, 2).T
    brackets = fields.courant_at(rows[..., r, :], jets[..., r, :, :],
                                 rows[..., s, :], jets[..., s, :, :])
    return worst([lstsq_residual(rows, brackets)
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

SPLITTING_NAMES = ("vertical_vertical", "horizontal_vertical",
                   "horizontal_horizontal")


def _fiber_section(nb, p, amat, c):
    """A fiber covector c embedded in L as X ‖ ξ: X = (0, π^♯c),
    ξ = (−Aᵀc, c), from the values P and A at its point."""
    nf = len(c)
    base = [-dot([amat[k][j] for k in range(nf)], c) for j in range(nb)]
    return [0.0] * nb + matvec(p, c) + base + list(c)


def _horizontal_section(nf, amat, wmat, v):
    """h*(v) of a constant base vector v as X ‖ ξ: X = h(v) = (v, A v),
    ξ = (i_{h(v)}ω_H, 0), from the values A and W at its point."""
    nb = len(v)
    base = [dot(v, [wmat[b][j] for b in range(nb)]) for j in range(nb)]
    return list(v) + matvec(amat, v) + base + [0.0] * nf


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

    One Jacobian of one stacked field serves the call: pt ↦ the sections
    emb α, emb β, h*(v), h*(w), then π(α, β) = β(♯α) and ω_H(h v, h w),
    all from one evaluation of P, A and W in one seeded pass.  One
    `fields.courant_at` call brackets the three pairs of sections, and the
    formulas are algebra on the same jets, with ♯α = Pα, α and A v read
    from the sections and ∂_k the partial along fiber direction k:

        [α, β]_V,k     = Σ_m (♯α^m ∂_m β_k + β_m ∂_k ♯α^m)
                         − Σ_m (♯β^m ∂_m α_k + α_m ∂_k ♯β^m) − ∂_k π(α, β)
        (L_{h(v)} α)_k = ∇α_k · h(v) + Σ_m α_m ∂_k (A v)^m
        d_V ω_H(h(v), h(w))_k = ∂_k ω_H(h v, h w)
    """
    space = geom.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim
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

    def field(q):
        p, amat = geom.pi_matrix(q), geom.conn_matrix(q)
        wmat, a, b = geom.omega_matrix(q), alpha_fn(q), beta_fn(q)
        return p, amat, (
            _fiber_section(nb, p, amat, a) + _fiber_section(nb, p, amat, b)
            + _horizontal_section(nf, amat, wmat, v)
            + _horizontal_section(nf, amat, wmat, w)
            + [bilinear(p, b, a), bilinear(wmat, v, w)])

    p, amat, values = field(pt)
    jets = dm.jacobian(lambda q: field(q)[2], pt)
    # where each value starts: section s at 2ns, its ♯ (or A v) part at
    # + nb and its fiber covector at + n + nb; π(α, β) and ω_H(h v, h w)
    # follow the sections
    i_sha, i_a, i_shb, i_b, i_av = (nb, n + nb, 2 * n + nb, 3 * n + nb,
                                    4 * n + nb)

    def d(i, k):
        return jets[i][nb + k]

    def lie(sh, tgt, k):
        # (L_{♯σ} τ)_k = Σ_m ♯σ^m ∂_m τ_k + τ_m ∂_k ♯σ^m
        acc = 0.0
        for m in range(nf):
            acc = acc + values[sh + m] * d(tgt + k, m)
            acc = acc + values[tgt + m] * d(sh + m, k)
        return acc

    def along_h_v(k):
        acc = dot(jets[i_a + k], list(v) + values[i_av:i_av + nf])
        for m in range(nf):
            acc = acc + values[i_a + m] * d(i_av + m, k)
        return acc

    formulas = [
        [lie(i_sha, i_b, k) - lie(i_shb, i_a, k) - d(8 * n, k)
         for k in range(nf)],
        [along_h_v(k) for k in range(nf)],
        [d(8 * n + 1, k) for k in range(nf)]]
    sections = stacked_matrix([values[2 * n * s:2 * n * (s + 1)]
                               for s in range(4)], pt[0])
    d_sections = stacked_jets(jets[:8 * n]).reshape(sections.shape + (n,))
    # the pairs (emb α, emb β), (h*(v), emb α) and (h*(v), h*(w))
    first, second = [0, 2, 2], [1, 0, 3]
    lhs = fields.courant_at(sections[..., first, :],
                            d_sections[..., first, :, :],
                            sections[..., second, :],
                            d_sections[..., second, :, :])
    rhs = stacked_matrix([_fiber_section(nb, p, amat, c) for c in formulas],
                         pt[0])
    defects = np.abs(lhs - rhs)
    out = {name: worst([defects[..., i, :]])
           for i, name in enumerate(SPLITTING_NAMES)}
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
