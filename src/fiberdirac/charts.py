"""Coordinate domains: boxes and the two-chart stereographic sphere.

A domain fixes the coordinate conventions every field evaluator runs in.
Two kinds are supported:

``box``
    an axis-aligned box in R^n with explicit bounds (also the escape region
    for transports).

``sphere-stereo``
    the unit sphere with two stereographic charts.  Chart 0 projects from
    the south pole (covers everything but the south pole; the origin is the
    north pole), chart 1 projects from the north pole.  The transition map
    on the overlap is the plane inversion w ↦ w/|w|², its own inverse.
    All working evaluations happen in chart 0; quadrature parameterizes by
    spherical angles mapped into the chart, excluding the measure-zero poles.
"""

from __future__ import annotations

import math

from . import dual as dm
from ._numerics import sample_unit_cube

BOX = "box"
SPHERE_STEREO = "sphere-stereo"

#: colatitude margin used when sampling the sphere by angles (keeps the
#: south pole — infinite in chart 0 — strictly out of every sample set)
POLE_MARGIN = 0.15


class CoordinateDomain:
    """A coordinate chart domain; see module docstring for the two kinds."""

    def __init__(self, kind, dim, bounds=None, name=""):
        if kind not in (BOX, SPHERE_STEREO):
            raise ValueError(f"unknown domain kind: {kind!r}")
        if kind == SPHERE_STEREO and dim != 2:
            raise ValueError("sphere-stereo domains are 2-dimensional")
        self.kind = kind
        self.dim = dim
        self.bounds = [tuple(b) for b in bounds] if bounds is not None else None
        self.name = name or kind
        if kind == BOX and (self.bounds is None or len(self.bounds) != dim):
            raise ValueError("box domain needs one (lo, hi) pair per axis")

    @classmethod
    def box(cls, bounds, name="box"):
        return cls(BOX, len(bounds), bounds=bounds, name=name)

    @classmethod
    def sphere(cls, name="sphere"):
        return cls(SPHERE_STEREO, 2, name=name)

    def __repr__(self):
        return f"CoordinateDomain({self.name!r}, kind={self.kind}, dim={self.dim})"

    # -- membership / escape ------------------------------------------------

    def contains(self, point, slack=1e-9):
        vals = [dm.value_of(x) for x in point]
        if any(not math.isfinite(v) for v in vals):
            return False
        if self.kind == BOX:
            return all(lo - slack <= v <= hi + slack
                       for v, (lo, hi) in zip(vals, self.bounds))
        return True  # chart 0 covers the sphere minus one pole; any finite point is in

    # -- sampling -----------------------------------------------------------

    def from_unit(self, row):
        """Map a point of the unit cube [0,1)^dim into the domain."""
        if self.kind == BOX:
            return [lo + u * (hi - lo) for u, (lo, hi) in zip(row, self.bounds)]
        u, v = row
        theta = POLE_MARGIN + u * (math.pi - 2.0 * POLE_MARGIN)
        phi = v * 2.0 * math.pi
        return self.from_angles(theta, phi)

    def sample(self, count=256, seed=0):
        """Deterministic low-discrepancy samples (plus fixed-seed jitter)."""
        cube = sample_unit_cube(count, self.dim, seed=seed)
        return [self.from_unit(row) for row in cube]

    # -- sphere-specific maps -------------------------------------------------

    def transition(self, w):
        """Chart transition (both directions): plane inversion w ↦ w/|w|²."""
        self._require_sphere()
        r2 = w[0] * w[0] + w[1] * w[1]
        return [w[0] / r2, w[1] / r2]

    def embed(self, w, chart=0):
        """Chart coordinates → point on the unit sphere in R³."""
        self._require_sphere()
        u, v = w
        r2 = u * u + v * v
        den = 1.0 + r2
        z = (1.0 - r2) / den if chart == 0 else (r2 - 1.0) / den
        return [2.0 * u / den, 2.0 * v / den, z]

    def from_angles(self, theta, phi):
        """Colatitude/azimuth → chart-0 coordinates tan(θ/2)·(cosφ, sinφ)."""
        self._require_sphere()
        t = dm.tan(theta * 0.5)
        return [t * dm.cos(phi), t * dm.sin(phi)]

    def to_angles(self, w):
        self._require_sphere()
        u, v = dm.value_of(w[0]), dm.value_of(w[1])
        rho = math.hypot(u, v)
        return [2.0 * math.atan(rho), math.atan2(v, u)]

    def _require_sphere(self):
        if self.kind != SPHERE_STEREO:
            raise ValueError("operation requires a sphere-stereo domain")

