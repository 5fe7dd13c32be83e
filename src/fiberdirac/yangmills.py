"""Gauge-theoretic example builders: principal-bundle data with a
hamiltonian fiber model, assembled into coupling triples.

A structure-group model carries structure constants; principal data is a
local potential A: TB → g per chart, with curvature

    ω_θ(u, v) = dA(u, v) + [A(u), A(v)].

A hamiltonian fiber model is a Poisson fiber (F, π_F) with an infinitesimal
g-action ρ and hamiltonians h_ξ; the model is admissible when

    ρ(ξ) = π_F^♯ d h_ξ     and     [ρ(ξ), ρ(η)] = ρ([ξ, η]),

which `prehamiltonian_residual` measures.  The assembled triple on B × F is

    A_E(b,x) v = ρ(A_b(v))(x),   π_V = π_F,
    ω_H(h(u), h(v)) = h_{ω_θ(u,v)}(x) + σ_B(u, v)

for an optional closed base two-form σ_B; the four coupling conditions then
hold identically, which the builders' tests confirm numerically.

Shipped examples: the degree-2 monopole bundle over the round sphere with a
one-dimensional fiber (`hopf_example`), the coadjoint so(3)* fiber over a
flat base with a nonabelian potential (`so3_coadjoint_example`), and a flat
torus model (`trivial_torus_example`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import dual as dm
from ._numerics import (coboundary, combos, dot, matvec, simpson_integrate,
                        skew_matrix, worst)
from .charts import CoordinateDomain
from . import fields
from .fibration import Connection, FiberedSpace, FlatConnection, HorizontalForm, \
    VerticalBivector
from .coupling import GeometricData


# -- structure groups --------------------------------------------------------------

class StructureGroupModel:
    """A compact structure group presented by its structure constants:
    bracket(e_i, e_j) = Σ_k c[i][j][k] e_k."""

    def __init__(self, name, dim, constants):
        self.name = name
        self.dim = dim
        self.constants = constants

    def bracket(self, u, v):
        out = [0.0] * self.dim
        for i in range(self.dim):
            for j in range(self.dim):
                cij = self.constants[i][j]
                for k in range(self.dim):
                    if cij[k]:
                        out[k] = out[k] + cij[k] * u[i] * v[j]
        return out

    def jacobi_residual(self):
        """max |[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]|."""
        basis = [dm.unit(self.dim, i) for i in range(self.dim)]

        def jacobiator(i, j, k):
            acc = [0.0] * self.dim
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                term = self.bracket(self.bracket(basis[a], basis[b]), basis[c])
                acc = [x + y for x, y in zip(acc, term)]
            return acc

        return worst(abs(x)
                     for ijk in itertools.product(range(self.dim), repeat=3)
                     for x in jacobiator(*ijk))

    @classmethod
    def circle(cls):
        """u(1): one abelian generator."""
        return cls("u1", 1, [[[0.0]]])

    @classmethod
    def rotations(cls):
        """so(3): [e_i, e_j] = ε_{ijk} e_k (the cross product)."""
        eps = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j, k), s in (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
                             ((1, 0, 2), -1.0), ((2, 1, 0), -1.0), ((0, 2, 1), -1.0)):
            eps[i][j][k] = s
        return cls("so3", 3, eps)


# -- principal data ------------------------------------------------------------------

class PrincipalData:
    """A local potential on one chart: potential(b) = [A(e_1), …, A(e_nB)],
    each entry a Lie-algebra vector."""

    def __init__(self, group, base, potential, name=""):
        self.group = group
        self.base = base
        self.potential = potential
        self.name = name or "principal"

    def _curv_pair(self, b, a, c):
        da = dm.partial(lambda q: self.potential(q)[c], b, a)
        dc = dm.partial(lambda q: self.potential(q)[a], b, c)
        pot = self.potential(b)
        br = self.group.bracket(pot[a], pot[c])
        return [x - y + z for x, y, z in zip(da, dc, br)]

    def curvature(self, b):
        """ω_θ(e_a, e_b) = ∂_a A_b − ∂_b A_a + [A_a, A_b] over base pairs."""
        return [self._curv_pair(b, a, c)
                for a, c in combos(self.base.dim, 2)]

    def bianchi_residual(self, b):
        """max |d ω_θ + [A, ω_θ]|_{abc} (empty, hence zero, for dim B < 3)
        at b, or over every point of a stacked b (coordinate arrays)."""
        nb = self.base.dim
        if nb < 3:
            return 0.0
        pot = self.potential(b)

        def face(a, rest):
            # ∂_a ω_θ(rest) + [A_a, ω_θ(rest)], the face opposite a
            d = dm.partial(lambda q: self._curv_pair(q, *rest), b, a)
            br = self.group.bracket(pot[a], self._curv_pair(b, *rest))
            return np.array(np.broadcast_arrays(
                *[dm.value_of(x) + y for x, y in zip(d, br)]))

        return worst(abs(dm.value_of(x))
                     for defect in coboundary(combos(nb, 3), face)
                     for x in defect)


# -- hamiltonian fiber models ----------------------------------------------------------

class HamiltonianFiber:
    """A Poisson fiber with an infinitesimal action of the structure group.

    `action(xi, x)` is the claimed generating vector field; `hamiltonian(xi, x)`
    its claimed hamiltonian.  Admissibility (action = π_F^♯ d h, and the
    action being a bracket homomorphism) is measured, not assumed.

    The action must be linear in the fiber point, ρ(e_i)(x) = G(e_i)x, so
    the assembled connection transports by matrices.  The constant
    matrices `generators`, one per basis vector of the Lie algebra, are
    read off the action once, at construction: column k of G(e_i) is
    ρ(e_i)(e_k).  So must the Poisson tensor be: its π(e_k) are kept as
    `pi_basis` for π_V's `generator`, checked only by `anchor_residual`.
    """

    def __init__(self, group, domain, pi_comps, hamiltonian, action,
                 name=""):
        self.group = group
        self.domain = domain
        self.pi_comps = pi_comps          # x ↦ comps over fiber pairs (may be [])
        self.hamiltonian = hamiltonian    # (xi, x) ↦ scalar
        self.action = action              # (xi, x) ↦ fiber vector
        self.name = name or "fiber-model"
        e_fiber = [dm.unit(domain.dim, k) for k in range(domain.dim)]
        self.generators = [
            [list(row) for row in zip(*(action(dm.unit(group.dim, i), e)
                                        for e in e_fiber))]
            for i in range(group.dim)]
        self.pi_basis = [self.pi_matrix(e) for e in e_fiber]

    def pi_matrix(self, x):
        return skew_matrix(self.domain.dim, self.pi_comps(x))

    def hamiltonian_gradient(self, xi, x):
        return dm.gradient(lambda y: self.hamiltonian(xi, y), x)

    def hamiltonian_field(self, xi, x):
        """π_F^♯ d h_ξ at x."""
        return matvec(self.pi_matrix(x), self.hamiltonian_gradient(xi, x))

    def action_matrix(self, xi):
        """The matrix of x ↦ ρ(ξ)(x): Σ_i ξ_i G(e_i)."""
        nf = self.domain.dim
        return [[dot(xi, [g[r][c] for g in self.generators])
                 for c in range(nf)] for r in range(nf)]

    def prehamiltonian_residual(self, count=32, seed=0):
        """max over generators and sampled points of |action − π_F^♯ dh|
        and of the homomorphism defect |[ρ(ξ), ρ(η)] − ρ([ξ, η])|."""
        x = self.domain.sample(count=count, seed=seed)
        dim_g = self.group.dim
        nf = self.domain.dim
        basis = [dm.unit(dim_g, i) for i in range(dim_g)]
        flds = [fields.vector_field(nf, lambda x, xi=xi: self.action(xi, x))
                for xi in basis]

        pairs = [(self.action(xi, x), self.hamiltonian_field(xi, x))
                 for xi in basis]
        pairs += [(fields.lie_bracket(flds[i], flds[j])(x),
                   self.action(self.group.bracket(basis[i], basis[j]), x))
                  for i, j in combos(dim_g, 2)]
        return worst(abs(dm.value_of(a) - dm.value_of(h))
                     for lhs, rhs in pairs for a, h in zip(lhs, rhs))

    @classmethod
    def coadjoint_so3(cls):
        """so(3)* on the box |x_i| ≤ 2 with π^{ij} = −ε_{ijk} x_k, action
        ρ(ξ)(x) = x × ξ, hamiltonian h_ξ(x) = ⟨x, ξ⟩ (the identity as
        momentum)."""
        group = StructureGroupModel.rotations()
        dom = CoordinateDomain.box([(-2.0, 2.0)] * 3, name="so3-dual")

        def pi_comps(x):
            return [-x[2], x[1], -x[0]]

        def ham(xi, x):
            return x[0] * xi[0] + x[1] * xi[1] + x[2] * xi[2]

        def action(xi, x):
            return [x[1] * xi[2] - x[2] * xi[1],
                    x[2] * xi[0] - x[0] * xi[2],
                    x[0] * xi[1] - x[1] * xi[0]]

        return cls(group, dom, pi_comps, ham, action, name="coadjoint-so3")

    @classmethod
    def scaled_line(cls, f):
        """One-dimensional fiber on [−1.5, 1.5], trivial Poisson structure,
        trivial action, hamiltonian h_ξ(x) = f(x)·ξ for the abelian
        generator."""
        group = StructureGroupModel.circle()
        dom = CoordinateDomain.box([(-1.5, 1.5)], name="line")
        return cls(group, dom,
                   lambda x: [],
                   lambda xi, x: f(x[0]) * xi[0],
                   lambda xi, x: [0.0],
                   name="scaled-line")



# -- assembly --------------------------------------------------------------------------

def ymh_geometric_data(principal, fiber, base_form=None, name=""):
    """Assemble the coupling triple of a potential and a fiber model.

    base_form(b) — optional comps of a closed base two-form added to ω_H.
    The triple keeps both inputs, as `principal` and `fiber_model`.
    """
    space = FiberedSpace(principal.base, fiber.domain)
    nb, nf = space.n_base, space.n_fiber

    def coeff(b, x):
        pot = principal.potential(b)
        cols = [fiber.action(pot[a], x) for a in range(nb)]
        return [[cols[a][k] for a in range(nb)] for k in range(nf)]

    def generator(b, v):
        # A_E(b, x)v = ρ(Σ_a v_a A_a(b))(x) = G(Σ_a v_a A_a(b))x
        pot = principal.potential(b)
        return fiber.action_matrix([dot(v, [p[i] for p in pot])
                                    for i in range(principal.group.dim)])

    conn = Connection(space, coeff, name=f"{principal.name}-transport",
                      generator=generator)
    # π_V(b, x)^♯a = L(a)x, column k of L(a) being π(e_k)^♯a
    pi_v = VerticalBivector(
        space, lambda pt: fiber.pi_comps(pt[nb:]), name=fiber.name,
        generator=lambda b, a: [list(row) for row in zip(
            *(matvec(p, a) for p in fiber.pi_basis))])

    def om_comps(pt):
        b, x = pt[:nb], pt[nb:]
        out = [fiber.hamiltonian(c, x) for c in principal.curvature(b)]
        if base_form is not None:
            extra = base_form(b)
            out = [v + e for v, e in zip(out, extra)]
        return out

    omega_h = HorizontalForm(space, 2, om_comps, name="ymh-omega")
    geom = GeometricData(space, conn, pi_v, omega_h,
                         name=name or f"ymh-{principal.name}")
    geom.principal, geom.fiber_model = principal, fiber
    return geom


# -- shipped examples --------------------------------------------------------------------

def monopole_potential(chart=0):
    """The degree-2 monopole potential on a stereographic sphere chart:

        chart 0:  A = (2/(1+ρ²)) (−v du + u dv),
        chart 1:  A = −(2/(1+ρ₁²)) (−v₁ du₁ + u₁ dv₁),

    with curvature dA = ±4/(1+ρ²)² du∧dv (the round area form of the chart).
    """
    sign = 1.0 if chart == 0 else -1.0

    def potential(b):
        r2 = b[0] * b[0] + b[1] * b[1]
        g = 2.0 / (1.0 + r2)
        return [[-sign * g * b[1]], [sign * g * b[0]]]

    return potential


def hopf_example(f, chart=0, name=""):
    """monopole bundle over a sphere chart; one-dimensional fiber,
    horizontal form f(x)·(round area)

    Coupling data of the monopole bundle on chart 0 or 1: flat Poisson
    fiber, ω_H = f(x)·(round area form of the chart).

    `f` must be smooth and dual-compatible (use the function library in
    `fiberdirac.dual` for transcendentals).
    """
    base = CoordinateDomain.sphere(name=f"sphere-chart{chart}")
    pd = PrincipalData(StructureGroupModel.circle(), base,
                       monopole_potential(chart), name=f"monopole-c{chart}")
    return ymh_geometric_data(pd, HamiltonianFiber.scaled_line(f),
                              name=name or f"hopf-chart{chart}")


def hopf_flat_example(f, name="hopf-flat"):
    """flat trivialized variant of the sphere model (the
    transgression-oracle setting)

    The same ω_H = f(x)·(round area form) as `hopf_example` on chart 0, but
    with the flat connection, the standing setting for the transgression
    oracle.

    ω_H is written directly (the trivial potential has zero field
    strength, so the assembly route would produce ω_H ≡ 0)."""
    base = CoordinateDomain.sphere(name="sphere-chart0")
    fib = HamiltonianFiber.scaled_line(f)
    space = FiberedSpace(base, fib.domain)

    def om_comps(pt):
        r2 = pt[0] * pt[0] + pt[1] * pt[1]
        den = 1.0 + r2
        return [f(pt[2]) * 4.0 / (den * den)]

    geom = GeometricData(
        space, FlatConnection(space),
        VerticalBivector(space, lambda pt: [], name="zero"),
        HorizontalForm(space, 2, om_comps, name="f-round-area"),
        name=name)
    geom.principal = PrincipalData(StructureGroupModel.circle(), base,
                                   lambda b: [[0.0], [0.0]],
                                   name="trivial-circle")
    geom.fiber_model = fib
    return geom


def so3_coadjoint_example(name="so3-coadjoint"):
    """so(3)* coadjoint fiber over a planar base with a nonabelian
    potential

    The base is the flat box [−1, 1]², and the potential depends on b, so
    its field strength is nonzero."""
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    a0 = (0.3, -0.5, 0.7)
    d0 = (0.5, 0.1, -0.3)
    c0 = (-0.2, 0.9, 0.4)

    def potential(b):
        return [[a0[k] + b[1] * d0[k] for k in range(3)],
                [c0[k] for k in range(3)]]

    pd = PrincipalData(StructureGroupModel.rotations(), base, potential,
                       name="so3-potential")
    return ymh_geometric_data(pd, HamiltonianFiber.coadjoint_so3(), name=name)


def trivial_torus_example(f=None, name="trivial-torus"):
    """flat abelian model over a square torus chart

    Zero potential, fiber scaling f (defaults to 1 + x²/4), and
    ω_H = f(x)·db₁∧db₂."""
    if f is None:
        f = lambda x: 1.0 + 0.25 * x * x
    base = CoordinateDomain.box([(0.0, 2.0 * math.pi)] * 2, name="torus-chart")
    fib = HamiltonianFiber.scaled_line(f)
    space = FiberedSpace(base, fib.domain)
    conn = FlatConnection(space)
    pi_v = VerticalBivector(space, lambda pt: [], name="zero")
    omega_h = HorizontalForm(space, 2, lambda pt: [f(pt[2])], name="f-area")
    geom = GeometricData(space, conn, pi_v, omega_h, name=name)
    geom.fiber_model = fib
    return geom


#: the example models by name.  A builder's first docstring paragraph is
#: its note in `fiberdirac examples`, and its signature says whether it
#: takes a scenario's `f` (required or not) and `chart`.
EXAMPLES = {
    "hopf": hopf_example,
    "hopf-flat": hopf_flat_example,
    "so3-coadjoint": so3_coadjoint_example,
    "trivial-torus": trivial_torus_example,
}


# -- two-chart compatibility ------------------------------------------------------------

def gauge_transition_check():
    """Compatibility of the two monopole charts on their overlap.

    The difference D = T*(A₁) − A₀ must be closed, and its winding number
    (1/2π) ∮ D around the circle of radius 1.3 (Simpson over 129 nodes)
    must be the integer −2 (the bundle degree, with orientation).  The 8
    closedness points and the 129 winding nodes are each one array axis.
    Returns {"closedness": …, "winding": …}.
    """
    radius, n_ring = 1.3, 129
    pot0 = monopole_potential(0)
    pot1 = monopole_potential(1)
    transition = CoordinateDomain.sphere().transition

    def diff_cov(w):
        jac = dm.jacobian(transition, w)   # J[i][j] = ∂T_i/∂w_j
        a1 = pot1(transition(w))   # [[A_u1], [A_v1]]
        pulled = [jac[0][0] * a1[0][0] + jac[1][0] * a1[1][0],
                  jac[0][1] * a1[0][0] + jac[1][1] * a1[1][0]]
        a0 = pot0(w)
        return [pulled[0] - a0[0][0], pulled[1] - a0[1][0]]

    def ring(phis):
        # cos and sin of the node angles as arrays of `math` values (np.cos
        # may differ by an ulp)
        return (np.array([math.cos(phi) for phi in phis]),
                np.array([math.sin(phi) for phi in phis]))

    # closedness of D at 8 points on the ring (via duals), one array pass
    cos, sin = ring([2.0 * math.pi * (k + 0.37) / 8.0 for k in range(8)])
    w = [radius * cos, radius * sin]
    curl = (dm.partial(lambda q: diff_cov(q)[1], w, 0)
            - dm.partial(lambda q: diff_cov(q)[0], w, 1))
    closedness = worst([abs(curl)])

    # winding of D around the ring, every node in one array pass
    cos, sin = ring([2.0 * math.pi * (k / (n_ring - 1))
                     for k in range(n_ring)])
    w = [radius * cos, radius * sin]
    dw = [-2.0 * math.pi * radius * sin, 2.0 * math.pi * radius * cos]
    d = diff_cov(w)
    samples = d[0] * dw[0] + d[1] * dw[1]
    winding = simpson_integrate(samples.tolist()) / (2.0 * math.pi)
    return {"closedness": closedness, "winding": winding}
