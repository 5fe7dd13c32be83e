"""Pair-groupoid checks for coupling data.

Over a simply connected coordinate patch the arrow space is the pair
groupoid M × M, where every construction is finitely computable: a closed
two-form ω on M induces the multiplicative form Ω = t*ω − s*ω on arrows,
and the checks here verify multiplicativity, presymplectic nondegeneracy
at units, and — for the coupling form ω_H ⊕ π_V⁻¹ of a geometric triple —
the integrated-data formulas: fiber nondegeneracy of Ω over the base pair
groupoid, the horizontal-lift identity, and source–target orthogonality
of the invariant lifts.

Conventions (recorded in reports): arrows are concatenated coordinate
blocks (y ‖ x) with t(y, x) = y and s(y, x) = x; the left-invariant lift
of a vertical covector η is the block field (0, ♯η) and the right-
invariant lift is (♯ξ, 0).  Sign: the fiber block π_V⁻¹ of the coupling
form integrates the coupling structure of −π_V — the graph of ω_H ⊕ π_V⁻¹
is the Dirac frame of (−π_V, Γ, ω_H), not of (π_V, Γ, ω_H) — until the
paper's convention is settled.
"""

from __future__ import annotations

import numpy as np

from . import dual as dm
from . import fields
from ._numerics import (RANK_THRESHOLD, adjugate_inverse, bilinear, combos,
                        det, dot, matvec, nullspace, sample_unit_cube,
                        stacked_matrix, worst)

CLOSED_TOL = 1e-10
SAMPLE_BOX = 1.5   # the checks sample the coordinate box [−1.5, 1.5]^d


def _box_points(count, dim, seed=0):
    """`count` low-discrepancy points of the sampled box
    [−SAMPLE_BOX, SAMPLE_BOX]^dim, as one point whose coordinates are
    float arrays over them."""
    return [SAMPLE_BOX * (2.0 * c - 1.0)
            for c in sample_unit_cube(count, dim, seed=seed)]


def _strided(pts, stride):
    """The sample point `pts` dealt into `stride` points: the i-th takes
    samples i, i + stride, … of every coordinate."""
    return [[c[i::stride] for c in pts] for i in range(stride)]


# -- the pair groupoid ----------------------------------------------------------------

class PairGroupoid:
    """The pair groupoid of a coordinate patch: arrows are concatenated
    blocks (y ‖ x), composition concatenates matching middles."""

    def __init__(self, dim, name=""):
        self.dim = dim
        self.name = name or f"pair-groupoid({dim})"

    def source(self, arrow):
        return list(arrow[self.dim:])

    def target(self, arrow):
        return list(arrow[:self.dim])

    def unit(self, x):
        return list(x) + list(x)

    def inverse(self, arrow):
        return list(arrow[self.dim:]) + list(arrow[:self.dim])

    def multiply(self, second, first):
        """m(second, first) for second = (z, y), first = (y, x)."""
        mid_a = second[self.dim:]
        mid_b = first[:self.dim]
        gap = worst(abs(a - b) for a, b in zip(mid_a, mid_b))
        if not gap <= 1e-12:
            raise ValueError(f"arrows are not composable (middle points "
                             f"differ by {gap:.3e})")
        return list(second[:self.dim]) + list(first[self.dim:])

    def axioms_residual(self, count=8, seed=0):
        """Max defect of the groupoid axioms over `count` sampled triples of
        composable arrows, all at once along the sample axis — the
        structure maps are coordinate projections, so this is exactly 0."""
        w, z, y, x = _strided(_box_points(4 * count, self.dim, seed=seed), 4)
        g, h, f = z + y, y + x, w + z
        gh = self.multiply(g, h)
        identities = [
            (self.source(gh), self.source(h)),
            (self.target(gh), self.target(g)),
            (self.multiply(self.multiply(f, g), h),
             self.multiply(f, self.multiply(g, h))),
            (self.multiply(h, self.unit(x)), h),
            (self.multiply(self.unit(y), h), h),
            (self.multiply(h, self.inverse(h)), self.unit(y))]
        return worst(abs(a - b) for lhs, rhs in identities
                     for a, b in zip(lhs, rhs))


# -- multiplicative two-forms ---------------------------------------------------------

class PairForm:
    """Ω = t*ω − s*ω on the pair groupoid: block form ω(y) ⊖ ω(x)."""

    def __init__(self, base_form, name=""):
        self.base_form = base_form
        self.dim = base_form.dim
        self.name = name or f"pair({base_form.name})"

    def base_matrix(self, point):
        return fields.antisym_matrix(self.base_form, point)

    def matrix(self, arrow):
        d = self.dim
        my = self.base_matrix(arrow[:d])
        mx = self.base_matrix(arrow[d:])
        out = [[0.0] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                out[i][j] = my[i][j]
                out[d + i][d + j] = -mx[i][j]
        return out

    def value(self, arrow, u, v):
        d = self.dim
        my = self.base_matrix(arrow[:d])
        mx = self.base_matrix(arrow[d:])
        return bilinear(my, u[:d], v[:d]) - bilinear(mx, u[d:], v[d:])


def pair_form(omega):
    """Build Ω = t*ω − s*ω from a closed two-form on the patch; the
    closedness precondition is verified at six sampled points, in one
    evaluation of dω."""
    if omega.degree != 2:
        raise ValueError("pair_form needs a degree-2 form")
    d_omega = fields.exterior_derivative(omega)
    defect = worst(abs(dm.value_of(v))
                   for v in d_omega(_box_points(6, omega.dim)))
    if not defect < CLOSED_TOL:
        raise ValueError(f"the base form is not closed (|dω| = {defect:.3e} "
                         f"on samples, tolerance {CLOSED_TOL:.0e})")
    return PairForm(omega)


def multiplicativity_residual(arrow_form, dim, seed=0):
    """max |m*Ω − pr₁*Ω − pr₂*Ω| over twelve sampled composable pairs of
    arrows and composable tangent pairs.

    `arrow_form(arrow, u, v)` evaluates the candidate form; it is called
    three times, on arrows and tangents whose coordinates are arrays over
    the twelve pairs.  A composable tangent pair at ((z,y),(y,x)) shares
    its middle block, and dm maps it to the outer blocks.
    """
    pts = _box_points(7 * 12, dim, seed=seed)
    z, y, x, dz, dy, dx, extra = _strided(pts, 7)
    second, first, composed = z + y, y + x, z + x
    # two composable tangent pairs (shared middle components)
    u2, u1, u12 = dz + dy, dy + dx, dz + dx
    v2, v1, v12 = extra + dx, dx + dz, extra + dz
    lhs = arrow_form(composed, u12, v12)
    rhs = arrow_form(second, u2, v2) + arrow_form(first, u1, v1)
    return worst([abs(dm.value_of(lhs) - dm.value_of(rhs))])


def presymplectic_nondegeneracy(omega):
    """Kernel report for Ω = t*ω − s*ω at eight sampled units.

    On the pair groupoid ker ds ∩ ker dt is already {0}, so the triple
    kernel ker Ω ∩ ker ds ∩ ker dt is reported alongside the meaningful
    desk-scale quantity: the kernel of ω on the base patch, whose
    dimension is what jumps when the form degenerates.  Verdict is PASS
    iff the base kernel is trivial at every sample.
    """
    d = omega.dim
    form = PairForm(omega)
    ds_dt = ([[0.0] * d + dm.unit(d, i) for i in range(d)]     # ds: x-block
             + [dm.unit(d, i) + [0.0] * d for i in range(d)])   # dt: y-block
    x = _box_points(8, d)
    triple = stacked_matrix(form.matrix(x + x) + ds_dt, x[0])
    # a unit's kernel dimension: the nonzero rows of its stacked nullspace
    triple_dim, base_dim = (
        int(np.any(nullspace(m), axis=-1).sum(axis=-1).max())
        for m in (triple, stacked_matrix(form.base_matrix(x), x[0])))
    return {
        "triple_kernel_dim": triple_dim,
        "base_kernel_dim": base_dim,
        "verdict": "PASS" if base_dim == 0 else "FAIL",
    }


# -- the coupling form and integrated data --------------------------------------------

def coupling_form(geom):
    """The coupling two-form ω_H ⊕ π_V⁻¹ on the total space: ω_H on
    horizontal subspaces (the graph of the connection), the inverse
    vertical structure on fibers, zero mixed pairing.  Requires π_V
    invertible on the fiber.  Its graph is the Dirac frame of the triple
    (−π_V, Γ, ω_H): the fiber block π_V⁻¹ integrates −π_V."""
    space = geom.space
    nb, nf, dim = space.n_base, space.n_fiber, space.dim

    def matrix(pt):
        w = geom.omega_matrix(pt)
        a = geom.conn_matrix(pt)
        q = adjugate_inverse(geom.pi_matrix(pt))
        qa = [[dot(qr, [a[i][b] for i in range(nf)]) for b in range(nb)]
              for qr in q]
        atqa = [[dot([a[i][r] for i in range(nf)],
                      [qa[i][c] for i in range(nf)])
                 for c in range(nb)] for r in range(nb)]
        out = [[0.0] * dim for _ in range(dim)]
        for r in range(nb):
            for c in range(nb):
                out[r][c] = w[r][c] + atqa[r][c]
        for r in range(nf):
            for c in range(nf):
                out[nb + r][nb + c] = q[r][c]
        for r in range(nb):
            for c in range(nf):
                val = -dot([a[i][r] for i in range(nf)],
                            [q[i][c] for i in range(nf)])
                out[r][nb + c] = val
                out[nb + c][r] = -val
        return out

    def comps(pt):
        m = matrix(pt)
        return [m[i][j] for i, j in combos(dim, 2)]

    return fields.two_form(dim, comps, name=f"coupling({geom.name})")


def _check_pi_invertible(geom, pt):
    mat = geom.pi_matrix(pt)
    # a NaN determinant fails `>=` too
    if len(mat) == 0 or not np.all(np.abs(det(mat)) >= 1e-10):
        raise ValueError(
            "the vertical structure is not invertible at a sampled "
            "point; the coupling form needs invertible π_V")


def left_lift(geom, eta_fn):
    """Left-invariant lift of a vertical covector field: (0, ♯η) in the
    (y ‖ x) block convention, acting on the source side."""
    space = geom.space

    def field(arrow):
        x = arrow[space.dim:]
        sharp = geom.pi_v.sharp(x, eta_fn(x))
        return [0.0] * space.dim + [0.0] * space.n_base + sharp

    return field


def right_lift(geom, xi_fn):
    """Right-invariant lift: (♯ξ, 0), acting on the target side."""
    space = geom.space

    def field(arrow):
        y = arrow[:space.dim]
        sharp = geom.pi_v.sharp(y, xi_fn(y))
        return [0.0] * space.n_base + sharp + [0.0] * space.dim

    return field


def source_target_orthogonality(geom, form, seed=0):
    """Ω(left lift, right lift) at eight sampled arrows, evaluated as one
    array axis — the invariant lifts land in complementary blocks, so this
    vanishes."""
    y, x = _strided(geom.sample_points(2 * 8, seed=seed), 2)
    eta = lambda x: [0.3 + 0.1 * x[0], -0.4, 0.2][:geom.space.n_fiber]
    xi = lambda y: [0.1, 0.5 - 0.2 * y[0], -0.3][:geom.space.n_fiber]
    lf = left_lift(geom, eta)
    rf = right_lift(geom, xi)
    arrow = y + x
    return worst([abs(dm.value_of(form.value(arrow, lf(arrow), rf(arrow))))])


def integrated_data_check(geom, count=6, seed=0):
    """Desk-scale verification of the integrated geometric data for the
    coupling form Ω = pair(ω_H ⊕ π_V⁻¹) at `count` sampled arrows:

    (a) fiber nondegeneracy over the base pair groupoid — the graph of Ω
        meets Ver_G ⊕ Ver_G⁰ trivially at sampled arrows, i.e. Ω's
        vertical block has trivial kernel (one stacked SVD over all
        arrows);
    (b) the horizontal-form identity Ω(HOR(v₁,w₁), HOR(v₂,w₂)) =
        ω_H(h v₁, h v₂)∘t − ω_H(h w₁, h w₂)∘s on coordinate lifts;
    (c) HOR(v, w) projects to (v, w) and is Ω-orthogonal to Ver_G,

    with HOR(v, w) = (h(v) at y, h(w) at x) in the block convention.
    (a), (b) and (c) are each evaluated once, along the sample axis.
    """
    space = geom.space
    nb, nf, dim = space.n_base, space.n_fiber, space.dim
    pts = geom.sample_points(2 * count, seed=seed)
    _check_pi_invertible(geom, pts)
    y, x = _strided(pts, 2)
    form = PairForm(coupling_form(geom))
    arrow = y + x
    mat = form.matrix(arrow)

    # (a) graph(Ω) meets Ver_G ⊕ Ver_G⁰ in {(u, Ωu) : u vertical, Ωu
    # vanishing on Ver_G}: the kernel of Ω's vertical block, counted by
    # singular values below the absolute threshold
    big_omega = stacked_matrix(mat, arrow[0])
    if not np.isfinite(big_omega).all():
        # an infinite entry would give NaN singular values, none below the
        # threshold, and a kernel that reads 0
        raise ValueError("the coupling form is not finite at a sampled "
                         "arrow")
    ver = [blk * dim + nb + i for blk in (0, 1) for i in range(nf)]
    sv = np.linalg.svd(big_omega[..., ver, :][..., ver], compute_uv=False)
    max_kernel = int(np.sum(sv < RANK_THRESHOLD, axis=-1).max())

    # (b) and (c) on coordinate-sampled base vectors
    unit = sample_unit_cube(4 * count, nb, seed=seed + 1)
    v1, w1, v2, w2 = _strided([2.0 * c - 1.0 for c in unit], 4)
    a_y = geom.conn_matrix(y)
    a_x = geom.conn_matrix(x)
    h1 = v1 + matvec(a_y, v1) + w1 + matvec(a_x, w1)
    h2 = v2 + matvec(a_y, v2) + w2 + matvec(a_x, w2)
    lhs = bilinear(mat, h1, h2)
    rhs = (geom.omega_h.value(y, [v1, v2])
           - geom.omega_h.value(x, [w1, w2]))
    proj = h1[:nb] + h1[dim:dim + nb]
    return {
        "fiber_nondegeneracy_dim": max_kernel,
        "horizontal_identity": worst(
            [abs(dm.value_of(lhs) - dm.value_of(rhs))]),
        "hor_projection": worst(abs(a - b)
                                for a, b in zip(proj, v1 + w1)),
        "hor_vertical_orthogonality": worst(
            abs(dm.value_of(dot(h1, [row[j] for row in mat]))) for j in ver),
    }
