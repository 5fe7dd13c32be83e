"""Independent references that only the tests use.

Each function here is a general operator, or the loop a package check
replaced by an array pass, that no package code calls: the tests keep it
as the second route that a package check is compared with, often to the
bit.  It is built from the package's pieces, so it runs on the same
fields, connections and paths.
"""

import math

import numpy as np

from fiberdirac import dual as dm
from fiberdirac._numerics import (bilinear, coboundary, combos, dot,
                                  intersection_dimension, matvec,
                                  simpson_integrate, smoothstep,
                                  stacked_matrix, worst)
from fiberdirac.apath import AlgebroidPath, _warped
from fiberdirac.charts import CoordinateDomain
from fiberdirac.coupling import _default_fiber_covector
from fiberdirac.fibration import (BasePath, HorizontalForm,
                                  directional_on_total)
from fiberdirac.fields import (MULTIVECTOR, SCALAR, SmoothField,
                               antisym_matrix)
from fiberdirac.groupoid import PairForm, _strided, coupling_form
from fiberdirac.monodromy import (_RADIAL_DIR, lattice_model_data,
                                  round_sphere, transgress)
from fiberdirac.yangmills import monopole_potential


def scalar_field(dim, fn, name=""):
    return SmoothField(dim, SCALAR, fn, name=name)


def bivector(dim, fn, name=""):
    return SmoothField(dim, MULTIVECTOR, fn, degree=2, name=name)


def per_direction_jacobian(f, point):
    """`dual.jacobian` by one seeded pass per coordinate: J[a][i] is the
    tangent of f_a on the pass seeded along coordinate i alone, a float,
    an array or a Dual, as that pass leaves it."""
    n = len(point)
    cols = [dm._seeded_pass(f, point, dm.unit(n, i)) for i in range(n)]
    return [[col[a] for col in cols] for a in range(len(cols[0]))]


def lie_derivative_bivector(X, piv):
    """(L_X π)^{ij} = X^k ∂_k π^{ij} − π^{kj} ∂_k X^i − π^{ik} ∂_k X^j."""
    n = X.dim
    pairs = combos(n, 2)

    def comps(pt):
        xv = X(pt)
        mat = antisym_matrix(piv, pt)
        dpi = per_direction_jacobian(piv.comps, pt)  # dpi[idx][k] = ∂_k π_idx
        dx = per_direction_jacobian(X.comps, pt)     # dx[i][k] = ∂_k X^i
        out = []
        for idx, (i, j) in enumerate(pairs):
            adv = dot(dpi[idx], xv)
            corr = sum(mat[k][j] * dx[i][k] + mat[i][k] * dx[j][k]
                       for k in range(n))
            out.append(adv - corr)
        return out

    return bivector(n, comps, name=f"L_{X.name}{piv.name}")


def covariant_differential(connection, form):
    """d_Γ of a horizontal k-form (k ∈ {0, 1, 2}), on coordinate fields:

        (d_Γ ω)(e_{a₀},…,e_{a_k}) = Σ_i (−1)^i L_{h(e_{a_i})} ω(…,ê_{a_i},…)

    (coordinate base fields commute, so no bracket terms appear).  A scalar
    function on E counts as the k = 0 case.
    """
    space = connection.space
    nb = space.n_base
    basis = [dm.unit(nb, a) for a in range(nb)]

    if callable(form) and not isinstance(form, HorizontalForm):
        # scalar function on E → horizontal 1-form
        def comps1(pt):
            return [directional_on_total(connection, e, form, pt)
                    for e in basis]
        return HorizontalForm(space, 1, comps1, name="dGamma(f)")

    k = form.degree
    if k not in (1, 2):
        raise ValueError("covariant differential implemented for k in {0,1,2}")
    src_index = {c: i for i, c in enumerate(form.combos)}
    dst = combos(nb, k + 1)

    def comps(pt):
        # along[a][idx] = L_{h(e_a)} ω_idx, one pass per base direction
        along = [directional_on_total(connection, e, form.comps, pt)
                 for e in basis]
        return coboundary(dst, lambda a, face: along[a][src_index[face]])

    return HorizontalForm(space, k + 1, comps, name=f"dGamma({form.name})")


def reparameterized(apath):
    """Orientation-preserving reparameterization by s = `smoothstep`:
    points compose with s, covectors pick up the factor s′ (they scale like
    velocities)."""
    return AlgebroidPath(
        apath.geom,
        BasePath(lambda u: apath.base_path(smoothstep(u)),
                 name=f"{apath.base_path.name}@s"),
        lambda u: apath.fiber_path(smoothstep(u)),
        lambda u: _warped(apath.covector_path, u, 1.0),
        name=f"{apath.name}@s")


# -- the splitting brackets, one section at a time --------------------------------

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
    """[α, β]_V = L_{π^♯α} β − L_{π^♯β} α − d_V π(α, β) as a fiber covector
    field, each field differentiated by its own seeded passes."""
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
        # along h(v)
        d_alpha = dm.directional(alpha_fn, pt, list(v) + lift(pt))
        out = []
        for k in range(nf):
            d_lift = dm.partial(lift, pt, nb + k)
            acc = d_alpha[k]
            for m in range(nf):
                acc = acc + av[m] * d_lift[m]
            out.append(acc)
        return out

    return comps


def per_section_splitting(geom, pt, bracket):
    """The three splitting residuals at `pt`, in the order vertical–
    vertical, horizontal–vertical, horizontal–horizontal, with the check's
    default sections: each Courant bracket by ``bracket(s1, s2)``, a
    section pt ↦ its 2n components, and each right-hand side by its own
    seeded passes of the fields it reads."""
    space = geom.space
    nb, nf = space.n_base, space.n_fiber
    alpha_fn = _default_fiber_covector(space, salt=0)
    beta_fn = _default_fiber_covector(space, salt=1)
    v = [1.0 if i == 0 else 0.25 for i in range(nb)]
    w = [0.5 if i == 0 else (1.0 if i == nb - 1 else -0.75)
         for i in range(nb)]
    sec_a = embed_fiber_covector(geom, alpha_fn)
    sec_b = embed_fiber_covector(geom, beta_fn)
    sec_v = embed_horizontal(geom, v)
    sec_w = embed_horizontal(geom, w)

    def hh_formula(pt):
        def scalar(q):
            return bilinear(geom.omega_matrix(q), v, w)
        return [dm.partial(scalar, pt, nb + k) for k in range(nf)]

    def resid(lhs, rhs):
        return worst(abs(dm.value_of(a) - dm.value_of(b))
                     for a, b in zip(lhs(pt), rhs(pt)))

    return [
        resid(bracket(sec_a, sec_b), embed_fiber_covector(
            geom, vertical_covector_bracket(geom, alpha_fn, beta_fn))),
        resid(bracket(sec_v, sec_a), embed_fiber_covector(
            geom, horizontal_covector_derivative(geom, v, alpha_fn))),
        resid(bracket(sec_v, sec_w), embed_fiber_covector(geom, hh_formula))]


# -- per-dimension and per-node loops ------------------------------------------------

HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def per_node_simpson_integrate(samples):
    """`_numerics.simpson_integrate` with each weight computed at its node:
    h/3 at the ends, and 4h/3 or 2h/3 between them by the node's parity."""
    n = len(samples)
    h = 1.0 / (n - 1)
    acc = 0.0
    for k, s in enumerate(samples):
        w = h / 3.0
        if 0 < k < n - 1:
            w = (4.0 if k % 2 == 1 else 2.0) * h / 3.0
        acc = acc + s * w
    return acc


def per_dimension_unit_cube(count, dim, seed):
    """`sample_unit_cube` by the loop over dimensions: each axis takes its
    own Halton digits over the index array, with the jitter from a fresh
    generator."""
    noise = np.random.RandomState(seed).uniform(-1.0, 1.0, size=(count, dim))
    noise = noise * (0.25 / count)
    coords = []
    for d in range(dim):
        base = HALTON_BASES[d]
        i = np.arange(1, count + 1)
        f, r = 1.0, np.zeros(count)
        while i.any():
            f /= base
            r += f * (i % base)
            i //= base
        coords.append(np.minimum(np.maximum(r + noise[:, d], 0.0),
                                 1.0 - 1e-12))
    return coords


def per_node_gauge_transition():
    """`gauge_transition_check` by the loop over ring nodes: one seeded
    pass per closedness point and direction, one Jacobian of the chart
    transition per node, one pass per direction."""
    radius, n_ring = 1.3, 129
    pot0 = monopole_potential(0)
    pot1 = monopole_potential(1)
    transition = CoordinateDomain.sphere().transition

    def diff_cov(w):
        jac = per_direction_jacobian(transition, w)   # J[i][j] = ∂T_i/∂w_j
        a1 = pot1(transition(w))   # [[A_u1], [A_v1]]
        pulled = [jac[0][0] * a1[0][0] + jac[1][0] * a1[1][0],
                  jac[0][1] * a1[0][0] + jac[1][1] * a1[1][0]]
        a0 = pot0(w)
        return [pulled[0] - a0[0][0], pulled[1] - a0[1][0]]

    def curl(k):
        phi = 2.0 * math.pi * (k + 0.37) / 8.0
        w = [radius * math.cos(phi), radius * math.sin(phi)]
        return (dm.partial(lambda q: diff_cov(q)[1], w, 0)
                - dm.partial(lambda q: diff_cov(q)[0], w, 1))

    closedness = worst(abs(curl(k)) for k in range(8))
    samples = []
    for k in range(n_ring):
        t = k / (n_ring - 1)
        phi = 2.0 * math.pi * t
        w = [radius * math.cos(phi), radius * math.sin(phi)]
        dw = [-2.0 * math.pi * radius * math.sin(phi),
              2.0 * math.pi * radius * math.cos(phi)]
        d = diff_cov(w)
        samples.append(d[0] * dw[0] + d[1] * dw[1])
    winding = simpson_integrate(samples) / (2.0 * math.pi)
    return {"closedness": closedness, "winding": winding}


def per_radius_lattice(f, radii, grid):
    """`so3_lattice`'s radial generator components by the loop over radii:
    one `transgress(...).endpoint()` per positive radius, each with its own
    collapse probe and family nodes."""
    geom = lattice_model_data(f)
    family = round_sphere(n_t=grid[0] + 1, n_eps=grid[1] + 1)
    return [dot(transgress(geom, family,
                           [r * c for c in _RADIAL_DIR]).endpoint(),
                _RADIAL_DIR) for r in radii if r > 0.0]


# -- fiber nondegeneracy as a subspace intersection -----------------------------------

def fiber_intersection_dim(geom, count, seed):
    """Part (a) of `integrated_data_check` by its definition in T ⊕ T*:
    the largest dim(graph(Ω) ∩ (Ver_G ⊕ Ver_G⁰)) over the `count` sampled
    arrows, one stacked `intersection_dimension` call over them."""
    space = geom.space
    nb, nf, dim = space.n_base, space.n_fiber, space.dim
    y, x = _strided(geom.sample_points(2 * count, seed=seed), 2)
    arrow = y + x
    big_omega = stacked_matrix(PairForm(coupling_form(geom)).matrix(arrow),
                               arrow[0])
    two_d = 2 * dim
    zero = [0.0] * two_d
    # per block, the fiber vectors, then the base covectors
    w_rows = []
    for blk in (0, 1):
        w_rows += [dm.unit(two_d, blk * dim + nb + i) + zero
                   for i in range(nf)]
        w_rows += [zero + dm.unit(two_d, blk * dim + i) for i in range(nb)]
    # the graph rows e_i ‖ Ω_i of every arrow, one stack
    graph = np.concatenate(
        [np.broadcast_to(np.eye(two_d), big_omega.shape), big_omega], axis=-1)
    return int(intersection_dimension(graph, w_rows).max())
