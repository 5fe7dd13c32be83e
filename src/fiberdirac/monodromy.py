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
which `transgress_flat` evaluates as an independent oracle: it
differentiates by the complex step, `transgress` by Duals.

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

import numpy as np

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, complex_partials, dot,
                        simpson_integrate, simpson_weights, smoothstep,
                        unstack, worst)
from .charts import CoordinateDomain
from .coupling import GeometricData
from .fibration import (BasePath, FiberedSpace, FlatConnection,
                        HorizontalForm, VerticalBivector, _transport,
                        parallel_transport, transport_samples)

COLLAPSE_TOL = 1e-10


class SphereFamily:
    """A two-parameter base-point family γ(t, ε) with collapsed boundary.

    `fn(t, ε)` must accept numbers, Duals and real or complex numpy arrays
    that broadcast (a column of t against a row of ε), and branch only on
    the real part of an argument; `d_t`, `d_eps`, `signed_area` and
    `transgress` seed Duals, the flat oracle takes the complex step.
    `closed` families collapse the whole boundary ∂I² to the base point;
    based families (closed=False) collapse only the three edges t=0, t=1,
    ε=0, so they sweep from the constant loop to a final loop at ε=1.
    """

    def __init__(self, fn, n_t=65, n_eps=65, closed=True, name=""):
        if n_t < 3 or n_t % 2 == 0 or n_eps < 3 or n_eps % 2 == 0:
            raise ValueError("grid resolutions must be odd and >= 3")
        self.fn = fn
        self.n_t = n_t
        self.n_eps = n_eps
        self.closed = closed
        self.name = name or "sphere-family"

    def point(self, t, eps):
        return self.fn(t, eps)

    def d_t(self, t, eps):
        return dm.tangent(self.fn(Dual(t, 1.0), eps))

    def d_eps(self, t, eps):
        return dm.tangent(self.fn(t, Dual(eps, 1.0)))

    def base_point(self):
        return [dm.value_of(c) for c in self.fn(0.0, 0.0)]

    def eps_slice(self, eps):
        return BasePath(lambda t: self.fn(t, eps),
                        name=f"{self.name}@eps={eps:.3g}")

    def collapse_residual(self):
        """Max chart distance of the collapsed edges from the base point,
        probed at 33 points per edge: one array call of `fn` per edge."""
        b = self.base_point()
        u = np.arange(33) / 32
        edges = [(u, 0.0), (0.0, u), (1.0, u)]
        if self.closed:
            edges.append((u, 1.0))
        return worst(abs(dm.value_of(c) - q)
                     for edge in edges for c, q in zip(self.fn(*edge), b))

    def signed_area(self, two_form):
        """∫∫ γ*(two_form) over I² by double Simpson on the family grid
        (two_form: point → antisymmetric coefficient list over base pairs),
        one `point`, `d_t` and `d_eps` per node: the area checks exercise
        the family's Dual partials, which the flat oracle does not use."""
        ts = [k / (self.n_t - 1) for k in range(self.n_t)]

        def row(eps):
            return simpson_integrate([
                two_form(self.point(t, eps), self.d_t(t, eps),
                         self.d_eps(t, eps)) for t in ts])

        return simpson_integrate([row(j / (self.n_eps - 1))
                                  for j in range(self.n_eps)])


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
    abelian data the transgression endpoint is additive over this.  On an
    ε array each half is evaluated at the entries it keeps and at its end
    ε = ½ (the collapsed base point) elsewhere, so the entries the other
    half supplies can raise no numpy warning."""
    if not (first.closed and second.closed):
        raise ValueError("only closed families concatenate along eps")

    def fn(t, eps):
        ev = dm.value_of(eps)
        if not isinstance(ev, np.ndarray):
            if np.real(ev) <= 0.5:
                return first.fn(t, smoothstep(2.0 * eps))
            return second.fn(t, smoothstep(2.0 * eps - 1.0))
        lower = np.real(ev) <= 0.5
        a = first.fn(t, smoothstep(2.0 * _where(lower, eps, 0.5)))
        b = second.fn(t, smoothstep(2.0 * _where(lower, 0.5, eps) - 1.0))
        return [_where(lower, p, q) for p, q in zip(a, b)]

    return SphereFamily(fn, n_t=max(first.n_t, second.n_t),
                        n_eps=2 * max(first.n_eps, second.n_eps) - 1,
                        closed=True,
                        name=f"{second.name}*{first.name}")


def _where(cond, a, b):
    """`np.where` through Dual layers: a where `cond` holds, else b."""
    if not (isinstance(a, Dual) or isinstance(b, Dual)):
        return np.where(cond, a, b)
    a, b = (x if isinstance(x, Dual) else Dual(x, 0.0) for x in (a, b))
    return Dual(_where(cond, a.re, b.re), _where(cond, a.eps, b.eps))


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
        return [simpson_integrate(col) for col in zip(*self.covectors)]

    def transport_consistency(self, step=DEFAULT_RK4_STEP):
        """Recompute the base-point trajectory by holonomy transports at
        five evenly strided slices and return the max distance to the
        stored one."""
        if self.geom is None or self.family is None or self.x0 is None:
            raise ValueError("path carries no construction data")
        conn = self.geom.connection
        y0 = parallel_transport(conn, self.family.eps_slice(0.0), self.x0,
                                0.0, 1.0, step=step)
        m = len(self.eps_grid)
        stride = max(1, (m - 1) // 4)

        def fresh(j):
            sl = self.family.eps_slice(self.eps_grid[j])
            return parallel_transport(conn, sl, y0, 1.0, 0.0, step=step)

        return worst(abs(a - b) for j in range(0, m, stride)
                     for a, b in zip(fresh(j), self.base_points[j]))


def _grid_nodes(family, eps):
    """(base point, ∂_t γ, ∂_ε γ) over the (s, ε) grid of the slices in
    `eps`, each a coordinate list of arrays of shape (n_t, len(eps)): s runs
    down the column k/(n_t − 1), ε along the row `eps`.  One call of
    `family.fn` per quantity, seeded `Dual(s, 1.0)` for ∂_t and
    `Dual(eps, 1.0)` for ∂_ε.
    An entry that does not depend on s or ε is a plain number or a row or
    column, which broadcasts.  The nodes do not depend on the fiber point,
    so every vertical-gradient channel of `transgress` reuses them."""
    s = (np.arange(family.n_t) / (family.n_t - 1))[:, None]
    return (family.fn(s, eps),
            dm.tangent(family.fn(Dual(s, 1.0), eps)),
            dm.tangent(family.fn(s, Dual(eps, 1.0))))


def _stack(column):
    """Per-node states of one fiber coordinate (arrays over the ε-slices,
    or first-order duals of these) as one array Dual with the s-nodes on
    the first axis.  A plain-number entry broadcasts."""
    return Dual(np.stack(np.broadcast_arrays(*map(dm.value_of, column))),
                np.stack(np.broadcast_arrays(*dm.tangent(column))))


def _simpson_row(w, val, n_eps):
    """Σ_k w_k·val_k over the s-axis of the (s, ε) grid: one value per
    ε-slice.  `val` is an array over the grid, a plain number (a zero form
    returns 0.0, a tangent that does not depend on the seed is 0.0) or a
    Dual of these; either broadcasts to the grid.  numpy returns NaN where
    `math` raises, so where a slice's value is not finite its tangent is
    NaN: the derivative of an undefined integrand must not read as a
    number."""
    if isinstance(val, Dual):
        re = _simpson_row(w, val.re, n_eps)
        eps = _simpson_row(w, val.eps, n_eps)
        return Dual(re, np.where(np.isfinite(re), eps, math.nan))
    return w @ np.broadcast_to(val, (len(w), n_eps))


#: (s, ε) nodes per array pass of `transgress`.  A pass keeps about a
#: dozen grid-sized arrays alive at once, so larger grids run in blocks of
#: whole ε-slices: a 65 × 65 family is one block, a 129 × 129 one three.
BLOCK_NODES = 8192


def transgress(geom, family, x0, step=DEFAULT_RK4_STEP):
    """Evaluate the transgression of a sphere family at a fiber point.

    y₀ is the scalar transport of x₀ along the ε = 0 slice, and γ̃(ε)
    carries y₀ back along every slice.  The ε-slices are then processed
    together, in blocks of at most `BLOCK_NODES` (s, ε) nodes
    (`_transgress_block`).
    """
    _collapse_or_raise(family)
    conn = geom.connection
    y0 = parallel_transport(conn, family.eps_slice(0.0), list(x0),
                            0.0, 1.0, step=step)
    n_eps = family.n_eps
    eps = np.arange(n_eps) / (n_eps - 1)
    n_blocks = -(-family.n_t * n_eps // BLOCK_NODES)   # ceiling division
    width = -(-n_eps // n_blocks)
    covectors, base_points = [], []
    for lo in range(0, n_eps, width):
        cov, pts = _transgress_block(geom, family, y0, eps[lo:lo + width],
                                     step)
        covectors += cov
        base_points += pts
    return VerStarPath(eps.tolist(), covectors, base_points, geom=geom,
                       family=family, x0=x0,
                       name=f"transgress({family.name})")


def _transgress_block(geom, family, y0, eps, step):
    """Covectors and γ̃ of the ε-slices in `eps`, as per-slice lists of
    Python floats.

    The slices are stacked into one base path whose coordinates are arrays
    over `eps`, so each transport is one RK4 integration with array state.
    Per vertical-gradient channel, the integrand ω_H(h ∂_t γ, h ∂_ε γ) is
    one array evaluation over the (s, ε) grid (`_grid_nodes`), at the fiber
    points carried from γ̃ through the slice transports (a flat connection
    leaves them in place; a curved one stacks the dual-seeded
    `transport_samples` states into (n_t, len(eps)) array duals),
    integrated in s by composite Simpson per slice.
    """
    space = geom.space
    conn = geom.connection
    omega = geom.omega_h
    n_eps = len(eps)
    w_s = np.array(simpson_weights(family.n_t))
    s_nodes = [k / (family.n_t - 1) for k in range(family.n_t)]
    slices = BasePath(lambda t: family.fn(t, eps),
                      name=f"{family.name}@eps-block")
    x_tilde = _transport(conn, slices,
                         [np.full(n_eps, c, dtype=float) for c in y0],
                         1.0, 0.0, step)
    b, vt, ve = _grid_nodes(family, eps)

    def s_integral(x):
        if not conn.is_flat:
            states = transport_samples(conn, slices, x, s_nodes, step=step)
            x = [_stack(column) for column in zip(*states)]
        return _simpson_row(
            w_s, omega.value(space.join(b, x), [vt, ve]), n_eps)

    covectors = unstack(dm.gradient(s_integral, x_tilde), n_eps)
    return covectors, unstack(x_tilde, n_eps)


def transgress_flat(geom, family, x0):
    """Closed-form endpoint for flat data on a trivialized bundle: the
    vertical differential of the plain surface integral of ω_H, the
    independent oracle for `transgress`: one complex-step pass of ω_H over
    the grid per fiber direction, with ∂_t γ and ∂_ε γ held as floats."""
    if not getattr(geom.connection, "is_flat", False):
        raise ValueError("transgress_flat requires a flat connection")
    space = geom.space
    omega = geom.omega_h
    b, (vt, ve) = _surface_nodes(family)
    _, partials = complex_partials(
        lambda x: [omega.value(space.join(b, x), [vt, ve])],
        [np.full((family.n_t, family.n_eps), float(c)) for c in x0])
    return [_surface_integral(family, d) for (d,) in partials]


def _surface_nodes(family):
    """(γ, (∂_t γ, ∂_ε γ)) over the (t, ε) grid as float arrays, t down the
    column and ε along the row; the partials by the complex step."""
    t = (np.arange(family.n_t) / (family.n_t - 1))[:, None]
    eps = np.arange(family.n_eps) / (family.n_eps - 1)
    return complex_partials(lambda p: family.fn(*p), [t, eps])


def _surface_integral(family, values):
    """Simpson over t (rows as arrays over ε), then over ε: the summation
    order of a per-slice loop.  A number, row or column broadcasts."""
    grid = np.broadcast_to(values, (family.n_t, family.n_eps))
    return float(simpson_integrate(simpson_integrate(grid)))


# -- the so(3)* model lattice --------------------------------------------------------

_RADIAL_DIR = (0.6, 0.0, 0.8)   # unit direction of the sample ray


def lattice_model_data(f):
    """The model coupling: trivial bundle over the round two-sphere with
    so(3)*-linear vertical structure on the box |x_i| ≤ 2.5 and
    ω_H = f(|x|) · (round area)."""
    base = CoordinateDomain.sphere()
    fiber = CoordinateDomain.box([(-2.5, 2.5)] * 3,
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
    """Radial components of the monodromy generators sampled along the
    radial ray, with their constancy assessment: `relative_deviation` is
    max |c − mean| / max(1, |mean|) over the components c, and the
    generators are constant when it is below the tolerance, the rule the
    CLI's `generator_constancy` check scores."""

    def __init__(self, radii, radial_components, relative_deviation,
                 is_constant, has_degenerate_origin, origin_pi):
        self.radii = list(radii)
        self.radial_components = list(radial_components)
        self.relative_deviation = relative_deviation
        self.is_constant = is_constant
        self.has_degenerate_origin = has_degenerate_origin
        self.origin_pi = origin_pi
        if relative_deviation < 0.0:
            raise ValueError("deviations are non-negative by construction")

    def mean_radial(self):
        return sum(self.radial_components) / len(self.radial_components)


def so3_lattice(f, radii=(0.5, 1.0, 1.5), grid=(64, 64),
                constancy_tol=1e-3):
    """Monodromy lattice of the so(3)* model with ω_H = f(|x|)·(round
    area): per radius r > 0 the generator covector is transgressed over
    the full round sphere.  For r = 0, `origin_pi` = max_b |π_V(b, 0)|
    over a grid of base points b vanishes exactly when the leaf through
    the origin is a point, with lattice {0} (None without r = 0).

    `grid` counts Simpson intervals (N_t, N_ε); nodes are N+1 each.  The
    model connection is flat, so no RK4 step is taken.
    """
    geom = lattice_model_data(f)
    family = round_sphere(n_t=grid[0] + 1, n_eps=grid[1] + 1)
    positive = [r for r in radii if r > 0.0]
    has_origin = any(r == 0.0 for r in radii)
    if not positive:
        raise ValueError("at least one positive radius is required")

    radial = []
    for r in positive:
        x0 = [r * c for c in _RADIAL_DIR]
        radial.append(dot(transgress(geom, family, x0).endpoint(),
                          _RADIAL_DIR))

    origin_pi = None
    if has_origin:   # π_V at (b, 0) over a 3 × 3 grid of base points b
        origin_pi = worst(
            abs(c) for u in (0.1, 0.5, 0.9) for v in (0.1, 0.5, 0.9)
            for c in geom.pi_v(geom.space.base.from_unit([u, v])
                               + [0.0, 0.0, 0.0]))
    mean = sum(radial) / len(radial)
    deviation = worst(abs(c - mean) for c in radial) / max(1.0, abs(mean))
    return LatticeReport(
        radii=positive,
        radial_components=radial,
        relative_deviation=deviation,
        is_constant=deviation < constancy_tol,
        has_degenerate_origin=has_origin,
        origin_pi=origin_pi)


VERDICT_CANDIDATE = "INTEGRABLE-CANDIDATE"
VERDICT_NON = "NON-INTEGRABLE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICTS = (VERDICT_CANDIDATE, VERDICT_NON, VERDICT_INCONCLUSIVE)


def exact_rational(slope):
    """The Fraction an exact slope stands for: an int, a Fraction, or a
    'p/q' string, of a size a float can hold.  Anything else — a float, a
    bool, a string that is no finite rational, 1e400 — raises TypeError."""
    if isinstance(slope, bool) or isinstance(slope, float):
        raise TypeError("exact_slope must be an exact rational (int, "
                        "Fraction, or 'p/q' string), not a float")
    try:
        if isinstance(slope, (Rational, str)):
            fraction = Fraction(slope)
            float(fraction)     # the verdict compares it with the numerics
            return fraction
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise TypeError(f"cannot read an exact rational from {slope!r}")


def integrability_verdict(report, exact_slope=None):
    """Decide integrability for a lattice report.

    A generator that is not finite ⇒ INCONCLUSIVE: the numerics decide
    nothing.  Non-constant generators ⇒ NON-INTEGRABLE (the lattice rank
    jumps, so the monodromy cannot embed).  Constant generators with an exact
    rational slope that matches the numerics to a relative 1e-3 ⇒
    INTEGRABLE-CANDIDATE.
    Constant generators alone ⇒ INCONCLUSIVE: rationality of the slope is
    not numerically decidable and is only accepted as exact input.
    """
    if not report.radii:
        raise ValueError("empty lattice report")
    if not all(math.isfinite(c) for c in report.radial_components):
        return VERDICT_INCONCLUSIVE
    if not report.is_constant:
        return VERDICT_NON
    if exact_slope is None:
        return VERDICT_INCONCLUSIVE
    slope = exact_rational(exact_slope)
    expected = 4.0 * math.pi * float(slope)
    observed = report.mean_radial()
    if abs(observed - expected) > 1e-3 * max(1.0, abs(expected)):
        raise ValueError(
            f"exact slope {slope} predicts generator {expected:.6g}, but "
            f"the transgressed generator is {observed:.6g}")
    return VERDICT_CANDIDATE
