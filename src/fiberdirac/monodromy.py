"""Transgression over sphere families and monodromy lattices.

A sphere family is a smooth map γ: I² → B whose boundary collapses to a
single base point b (a π₂ representative); a based family relaxes this to
a family of loops at b that starts at the constant loop.  For coupling
data (π_V, Γ, ω_H) the transgression of a family at a fiber point x₀ is
the vertical-covector path

    c(ε) = d_V|_{γ̃(ε)} [ ∫₀¹ ω_H(h ∂_t γ, h ∂_ε γ) ∘ φ^{γ^ε}_{s,0} ds ],

where φ^{γ^ε}_{s,0} is parallel transport along the ε-slice of the family
and γ̃(ε) carries x₀ around the ε-slice holonomies.  The accumulated
endpoint of the path (computed here as its Simpson integral in ε, the
abelian accumulation) is the monodromy element attached to the family.

For a flat connection on a trivialized bundle the endpoint has a closed
form — the vertical differential of the plain surface integral of ω_H —
which `transgress_flat` evaluates as an independent oracle.

`so3_lattice` runs the machinery on the model family S² × so(3)* with
ω_H = f(|x|)·(round area form): the generator covector at radius r is
(area)·f′(r)·dr, and `integrability_verdict` turns the resulting report
into one of INTEGRABLE-CANDIDATE / NON-INTEGRABLE / INCONCLUSIVE.  The
rationality half of the integrability criterion is decided only on exact
rational input (numerics cannot distinguish a rational slope).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, dot, parallel_map, simpson_weights,
                        smoothstep, worst)
from .charts import CoordinateDomain
from .coupling import GeometricData
from .fibration import (BasePath, FiberedSpace, FlatConnection,
                        HorizontalForm, VerticalBivector, parallel_transport,
                        transport_samples)

COLLAPSE_TOL = 1e-10


class SphereFamily:
    """A two-parameter base-point family γ(t, ε) with collapsed boundary.

    `fn(t, ε)` must be dual-compatible in both slots; partial derivatives
    are exact (dual-seeded) unless explicit evaluators are supplied.
    `closed` families collapse the whole boundary ∂I² to the base point;
    based families (closed=False) collapse only the three edges t=0, t=1,
    ε=0, so they sweep from the constant loop to a final loop at ε=1.
    """

    def __init__(self, fn, n_t=65, n_eps=65, closed=True, d_t=None,
                 d_eps=None, name=""):
        if n_t < 3 or n_t % 2 == 0 or n_eps < 3 or n_eps % 2 == 0:
            raise ValueError("grid resolutions must be odd and >= 3")
        self.fn = fn
        self.n_t = n_t
        self.n_eps = n_eps
        self.closed = closed
        self._d_t = d_t
        self._d_eps = d_eps
        self.name = name or "sphere-family"

    def point(self, t, eps):
        return self.fn(t, eps)

    def d_t(self, t, eps):
        if self._d_t is not None:
            return self._d_t(t, eps)
        return dm.tangent(self.fn(Dual(t, 1.0), eps))

    def d_eps(self, t, eps):
        if self._d_eps is not None:
            return self._d_eps(t, eps)
        return dm.tangent(self.fn(t, Dual(eps, 1.0)))

    def base_point(self):
        return [dm.value_of(c) for c in self.fn(0.0, 0.0)]

    def eps_slice(self, eps):
        return BasePath(lambda t: self.fn(t, eps),
                        name=f"{self.name}@eps={eps:.3g}")

    def collapse_residual(self, n_probe=33):
        """Max chart distance of the collapsed edges from the base point."""
        b = self.base_point()
        probes = [k / (n_probe - 1) for k in range(n_probe)]
        edges = [lambda u: (u, 0.0), lambda u: (0.0, u), lambda u: (1.0, u)]
        if self.closed:
            edges.append(lambda u: (u, 1.0))
        return worst(abs(dm.value_of(c) - q)
                     for edge in edges for u in probes
                     for c, q in zip(self.fn(*edge(u)), b))

    def signed_area(self, two_form):
        """∫∫ γ*(two_form) over I² by double Simpson on the family grid
        (two_form: point → antisymmetric coefficient list over base pairs,
        evaluated through a degree-2 HorizontalForm-style minor sum)."""
        wt = simpson_weights(self.n_t)
        we = simpson_weights(self.n_eps)
        acc = 0.0
        for j in range(self.n_eps):
            eps = j / (self.n_eps - 1)
            row = 0.0
            for k in range(self.n_t):
                t = k / (self.n_t - 1)
                p = self.point(t, eps)
                vt = self.d_t(t, eps)
                ve = self.d_eps(t, eps)
                row = row + wt[k] * two_form(p, vt, ve)
            acc = acc + we[j] * row
        return acc


def _collapse_or_raise(family):
    res = family.collapse_residual()
    if not res < COLLAPSE_TOL:
        raise ValueError(
            f"boundary collapse violated for {family.name!r}: edge residual "
            f"{res:.3e} exceeds {COLLAPSE_TOL:.0e}")


# -- built-in families -------------------------------------------------------------

def _stretch(u):
    """Bijection [0,1] → [-∞,∞] with vanishing derivative at the ends
    (smoothstep flattening keeps boundary partials exactly zero)."""
    return dm.tan(math.pi * (smoothstep(u) - 0.5))


def round_sphere(n_t=65, n_eps=65):
    """Degree-one cover of the round sphere in inverse-chart coordinates,
    oriented so the round area form integrates to +4π.  The constant
    offsets keep every grid node away from the chart pole."""

    def fn(t, eps):
        z1 = _stretch(eps) + 1.0 / math.sqrt(2.0)
        z2 = _stretch(t) + 1.0 / math.sqrt(3.0)
        norm = z1 * z1 + z2 * z2
        return [z1 / norm, z2 / norm]

    return SphereFamily(fn, n_t=n_t, n_eps=n_eps, closed=True,
                        name="round-sphere")


def cap(theta, n_t=65, n_eps=65):
    """Based family sweeping a spherical cap of opening angle θ ∈ (0, π):
    loops through the base point fill the cap, signed area 2π(1 − cos θ)."""
    if not 0.0 < theta < math.pi:
        raise ValueError("cap opening angle must lie strictly in (0, pi)")
    c0 = -1.0 / math.tan(theta)

    def fn(t, eps):
        # cot((π/2)s) written as tan of the complement so the ε → 0 end
        # stays finite in floating point (the loop degenerates there)
        z1 = c0 - dm.tan(0.5 * math.pi * (1.0 - smoothstep(eps)))
        z2 = _stretch(t) + 1.0 / math.sqrt(5.0)
        norm = z1 * z1 + z2 * z2
        return [z1 / norm, z2 / norm]

    return SphereFamily(fn, n_t=n_t, n_eps=n_eps, closed=False,
                        name=f"cap({theta:.6g})")


def concat_families(first, second):
    """Concatenate two closed families along ε (first on [0,½]); for
    abelian data the transgression endpoint is additive over this."""
    if not (first.closed and second.closed):
        raise ValueError("only closed families concatenate along eps")

    def fn(t, eps):
        ev = dm.value_of(eps)
        if ev <= 0.5:
            return first.fn(t, smoothstep(2.0 * eps))
        return second.fn(t, smoothstep(2.0 * eps - 1.0))

    return SphereFamily(fn, n_t=max(first.n_t, second.n_t),
                        n_eps=2 * max(first.n_eps, second.n_eps) - 1,
                        closed=True,
                        name=f"{second.name}*{first.name}")


FAMILIES = {"round-sphere": round_sphere, "cap": cap}


# -- the transgression evaluator ----------------------------------------------------

class VerStarPath:
    """Discretized path of vertical covectors ε ↦ c(ε) with the base-point
    trajectory γ̃(ε) it lives over."""

    def __init__(self, eps_grid, covectors, base_points, geom=None,
                 family=None, x0=None, name=""):
        self.eps_grid = list(eps_grid)
        self.covectors = [list(c) for c in covectors]
        self.base_points = [list(p) for p in base_points]
        self.geom = geom
        self.family = family
        self.x0 = list(x0) if x0 is not None else None
        self.name = name or "verstar-path"

    def endpoint(self):
        """Accumulated monodromy covector: the Simpson ε-integral of the
        path (abelian accumulation of the group path's derivative)."""
        w = simpson_weights(len(self.eps_grid))
        nf = len(self.covectors[0])
        return [sum(wj * c[i] for wj, c in zip(w, self.covectors))
                for i in range(nf)]

    def transport_consistency(self, step=DEFAULT_RK4_STEP, n_probe=5):
        """Recompute the base-point trajectory by holonomy transports and
        return the max distance to the stored one."""
        if self.geom is None or self.family is None or self.x0 is None:
            raise ValueError("path carries no construction data")
        conn = self.geom.connection
        y0 = parallel_transport(conn, self.family.eps_slice(0.0), self.x0,
                                0.0, 1.0, step=step)
        m = len(self.eps_grid)
        stride = max(1, (m - 1) // max(1, n_probe - 1))

        def fresh(j):
            sl = self.family.eps_slice(self.eps_grid[j])
            return parallel_transport(conn, sl, y0, 1.0, 0.0, step=step)

        return worst(abs(a - b) for j in range(0, m, stride)
                     for a, b in zip(fresh(j), self.base_points[j]))


def _slice_nodes(family, eps):
    """(base point, ∂_t γ, ∂_ε γ) at each s-grid node of one ε-slice.
    They do not depend on the fiber point, so each slice computes them once
    and every vertical-gradient channel of `transgress` reuses them."""
    out = []
    for k in range(family.n_t):
        s = k / (family.n_t - 1)
        out.append((family.point(s, eps), family.d_t(s, eps),
                    family.d_eps(s, eps)))
    return out


def transgress(geom, family, x0, step=DEFAULT_RK4_STEP):
    """Evaluate the transgression of a sphere family at a fiber point.

    Per ε-slice: pull the integrand ω_H(h ∂_t γ, h ∂_ε γ) back through the
    slice transports, integrate in s by composite Simpson, and take the
    vertical differential at the holonomy-carried point γ̃(ε).
    """
    _collapse_or_raise(family)
    space = geom.space
    conn = geom.connection
    omega = geom.omega_h
    w_s = simpson_weights(family.n_t)
    s_nodes = [k / (family.n_t - 1) for k in range(family.n_t)]
    eps_grid = [j / (family.n_eps - 1) for j in range(family.n_eps)]

    y0 = parallel_transport(conn, family.eps_slice(0.0), list(x0),
                            0.0, 1.0, step=step)

    def one_slice(eps):
        sl = family.eps_slice(eps)
        x_tilde = parallel_transport(conn, sl, y0, 1.0, 0.0, step=step)
        nodes = _slice_nodes(family, eps)

        def s_integral(x):
            if conn.is_flat:
                states = [x] * family.n_t
            else:
                states = transport_samples(conn, sl, x, s_nodes, step=step)
            acc = 0.0
            for wk, (b, vt, ve), xk in zip(w_s, nodes, states):
                acc = acc + wk * omega.value(space.join(b, xk), [vt, ve])
            return acc

        cov = dm.gradient(s_integral, x_tilde)
        return cov, x_tilde

    results = parallel_map(one_slice, eps_grid)
    covectors = [r[0] for r in results]
    base_points = [r[1] for r in results]
    return VerStarPath(eps_grid, covectors, base_points, geom=geom,
                       family=family, x0=x0,
                       name=f"transgress({family.name})")


def transgress_flat(geom, family, x0):
    """Closed-form endpoint for flat data on a trivialized bundle: the
    vertical differential of the plain surface integral of ω_H, the
    independent oracle for `transgress`."""
    if not getattr(geom.connection, "is_flat", False):
        raise ValueError("transgress_flat requires a flat connection")
    space = geom.space
    omega = geom.omega_h

    def surface_integral(x):
        return family.signed_area(
            lambda p, vt, ve: omega.value(space.join(p, x), [vt, ve]))

    return dm.gradient(surface_integral, list(x0))


# -- the so(3)* model lattice --------------------------------------------------------

_RADIAL_DIR = (0.6, 0.0, 0.8)   # unit direction of the sample ray


def lattice_model_data(f, fiber_bound=2.5):
    """The model coupling: trivial bundle over the round two-sphere with
    so(3)*-linear vertical structure and ω_H = f(|x|) · (round area)."""
    base = CoordinateDomain.sphere()
    fiber = CoordinateDomain.box([(-fiber_bound, fiber_bound)] * 3,
                                 name="so3-dual")
    space = FiberedSpace(base, fiber, name="sphere-so3-lattice")
    conn = FlatConnection(space)

    def radius(p):
        return dm.sqrt(p[2] * p[2] + p[3] * p[3] + p[4] * p[4])

    def omega_comp(p):
        s = 1.0 + p[0] * p[0] + p[1] * p[1]
        return [f(radius(p)) * 4.0 / (s * s)]

    omega = HorizontalForm(space, 2, omega_comp, name="f(r)-round")
    pi_v = VerticalBivector(
        space, lambda p: [-p[4], p[3], -p[2]], name="so3-linear")
    return GeometricData(space, conn, pi_v, omega, name="so3-lattice-model")


class LatticeReport:
    """Sampled monodromy generators along the radial ray, with constancy
    and discreteness assessments."""

    def __init__(self, radii, generators, radial_components,
                 constancy_deviation, is_constant, has_degenerate_origin,
                 origin_generator, grid, tolerance):
        self.radii = list(radii)
        self.generators = [list(g) for g in generators]
        self.radial_components = list(radial_components)
        self.constancy_deviation = constancy_deviation
        self.is_constant = is_constant
        self.has_degenerate_origin = has_degenerate_origin
        self.origin_generator = list(origin_generator)
        self.grid = tuple(grid)
        self.tolerance = tolerance
        if constancy_deviation < 0.0:
            raise ValueError("deviations are non-negative by construction")

    @property
    def is_discrete(self):
        """Desk-scale embedding proxy: the generator field is locally
        constant, so the lattice ranks cannot jump off the degenerate
        locus."""
        return self.is_constant

    def mean_radial(self):
        return sum(self.radial_components) / len(self.radial_components)


def so3_lattice(f, radii=(0.5, 1.0, 1.5), grid=(64, 64),
                constancy_tol=1e-3, step=DEFAULT_RK4_STEP):
    """Monodromy lattice of the so(3)* model with ω_H = f(|x|)·(round
    area): per radius r > 0 the generator covector is transgressed over
    the full round sphere; r = 0 records the degenerate lattice {0}
    directly (the vertical leaf there is a point, no generator exists).

    `grid` counts Simpson intervals (N_t, N_ε); nodes are N+1 each.
    """
    geom = lattice_model_data(f)
    family = round_sphere(n_t=grid[0] + 1, n_eps=grid[1] + 1)
    positive = [r for r in radii if r > 0.0]
    has_origin = any(r == 0.0 for r in radii)
    if not positive:
        raise ValueError("at least one positive radius is required")

    generators, radial = [], []
    for r in positive:
        x0 = [r * c for c in _RADIAL_DIR]
        path = transgress(geom, family, x0, step=step)
        g = path.endpoint()
        generators.append(g)
        radial.append(dot(g, _RADIAL_DIR))

    mean = sum(radial) / len(radial)
    deviation = worst(abs(c - mean) for c in radial)
    scale = max(1.0, abs(mean))
    return LatticeReport(
        radii=positive,
        generators=generators,
        radial_components=radial,
        constancy_deviation=deviation,
        is_constant=deviation <= constancy_tol * scale,
        has_degenerate_origin=has_origin,
        origin_generator=[0.0, 0.0, 0.0],
        grid=grid,
        tolerance=constancy_tol)


VERDICT_CANDIDATE = "INTEGRABLE-CANDIDATE"
VERDICT_NON = "NON-INTEGRABLE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


def _as_exact_rational(slope):
    if isinstance(slope, bool) or isinstance(slope, float):
        raise TypeError("exact_slope must be an exact rational (int, "
                        "Fraction, or 'p/q' string), not a float")
    if isinstance(slope, Rational):
        return Fraction(slope)
    if isinstance(slope, str):
        return Fraction(slope)
    raise TypeError(f"cannot read an exact rational from {slope!r}")


def integrability_verdict(report, exact_slope=None, match_tol=1e-3):
    """Decide integrability for a lattice report.

    Non-constant generators ⇒ NON-INTEGRABLE (the lattice rank jumps, so
    the monodromy cannot embed).  Constant generators with an exact
    rational slope that matches the numerics ⇒ INTEGRABLE-CANDIDATE.
    Constant generators alone ⇒ INCONCLUSIVE: rationality of the slope is
    not numerically decidable and is only accepted as exact input.
    """
    if not report.radii:
        raise ValueError("empty lattice report")
    if not report.is_constant:
        return VERDICT_NON
    if exact_slope is None:
        return VERDICT_INCONCLUSIVE
    slope = _as_exact_rational(exact_slope)
    expected = 4.0 * math.pi * float(slope)
    observed = report.mean_radial()
    if abs(observed - expected) > match_tol * max(1.0, abs(expected)):
        raise ValueError(
            f"exact slope {slope} predicts generator {expected:.6g}, but "
            f"the transgressed generator is {observed:.6g}")
    return VERDICT_CANDIDATE
