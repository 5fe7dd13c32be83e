"""Fibered spaces with Ehresmann connections: lifts, parallel transport,
curvature, horizontal forms and vertical bivectors.

A fibered space is presented per patch as a product E = B × F with the
projection onto the first factor; points are concatenated coordinate lists
(b, x).  A connection is its local coefficient A(b, x): T_b B → T_x F,
linear in the base vector; the horizontal lift is h(v) = (v, A(b,x)v).

Parallel transport integrates dx/dt = A(γ(t), x)·γ̇(t) with fixed-step RK4.
Because the integrator runs on generic scalars, transporting dual-seeded
initial conditions yields exact differentials of the transport maps, and a
path whose coordinates are numpy arrays transports a whole stack of paths
(the ε-slices of a sphere family) in one integration.  The right-hand side
reads γ(t) and γ̇(t) from a `_numerics.time_table`: one evaluation of the
path at an array of all the RK4 times, seeded `Dual(T, 1)`.

A connection that is linear in the fiber point, A(b, x)v = K(b, v)x,
declares its generator K.  Transport along one path is then one matrix
propagator, and a `Transport` integrates it once, a product of RK4 step
matrices, and answers every transport and transport differential along
that path from it; K is evaluated once over its RK4 times, as one array.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, combos, det, linear_rk4,
                        linear_state, matvec, rk4_integrate, rk4_times,
                        sample_unit_cube, skew_matrix, stacked_matrix,
                        time_columns, time_table)


class IncompleteTransportError(RuntimeError):
    """Raised when transport escapes the fiber chart before finishing."""

    def __init__(self, t_escape, point=None):
        self.t_escape = t_escape
        self.point = point
        super().__init__(f"incomplete transport: escaped the fiber chart at "
                         f"t = {t_escape:.6f}")


class FiberedSpace:
    """A product patch E = B × F with first-factor projection."""

    def __init__(self, base, fiber, name=""):
        self.base = base
        self.fiber = fiber
        self.n_base = base.dim
        self.n_fiber = fiber.dim
        self.dim = base.dim + fiber.dim
        self.name = name or f"{base.name}x{fiber.name}"

    def split(self, point):
        return list(point[:self.n_base]), list(point[self.n_base:])

    def join(self, b, x):
        return list(b) + list(x)

    def sample(self, count=256, seed=0):
        """Joint low-discrepancy samples of the total space (b, x), as one
        point whose coordinates are float arrays over them."""
        cube = sample_unit_cube(count, self.dim, seed=seed)
        return self.join(self.base.from_unit(cube[:self.n_base]),
                         self.fiber.from_unit(cube[self.n_base:]))

    def __repr__(self):
        return f"FiberedSpace({self.name!r}, base={self.n_base}, fiber={self.n_fiber})"


class BasePath:
    """A smooth path [0,1] → B given by an evaluator; velocity via duals.

    `fn(t)` must accept a number, a Dual and a 1-D numpy array of times, or
    a Dual of one: at an array every coordinate is a number (it does not
    move) or an array whose first axis runs over the times.  So `fn` must
    not branch on t, and must call `dual` functions rather than `math`.
    """

    def __init__(self, fn, name=""):
        self.fn = fn
        self.name = name
        self._propagators = {}   # connection ↦ a `Transport` grid

    def __call__(self, t):
        return self.fn(t)

    def jet(self, t):
        """γ(t) and γ̇(t), from one evaluation of fn at Dual(t, 1); t may be
        an array of times."""
        out = self.fn(Dual(t, 1.0))
        return [dm.value_of(c) for c in out], dm.tangent(out)

    def velocity(self, t):
        return self.jet(t)[1]

    def reversed(self):
        return BasePath(lambda t: self.fn(1.0 - t), name=f"{self.name}~")


class Connection:
    """Connection on E = B × F with coefficient A(b, x) (n_F × n_B).

    `generator`, when given, declares the connection linear in the fiber
    point: generator(b, v) is the n_F × n_F matrix K with A(b, x)v = K x
    for every x.  `Transport` then propagates matrices instead of points.
    """

    is_flat = False

    def __init__(self, space, coefficient, name="", generator=None):
        self.space = space
        self.coefficient = coefficient
        self.name = name or "connection"
        self.generator = generator

    def coeff(self, b, x):
        return self.coefficient(b, x)

    def lift(self, v, point):
        """Horizontal lift h(v) = (v, A(b,x)v) as a full tangent vector."""
        b, x = self.space.split(point)
        return list(v) + matvec(self.coeff(b, x), v)


class FlatConnection(Connection):
    """The trivialized flat connection: zero coefficient."""

    is_flat = True

    def __init__(self, space):
        def zero(b, x):
            return [[0.0] * space.n_base for _ in range(space.n_fiber)]
        super().__init__(space, zero, name="flat")


def directional_on_total(connection, v, fn, point):
    """Derivative of fn (scalar or list valued on E) along h(v) at point."""
    return dm.directional(fn, point, connection.lift(v, point))


# -- parallel transport -------------------------------------------------------

def parallel_transport(connection, path, x0, t0=0.0, t1=1.0,
                       step=DEFAULT_RK4_STEP):
    """Transport the fiber point x0 along the base path from t0 to t1.

    Raises :class:`IncompleteTransportError` (naming the escape time) when
    the state leaves the fiber chart or turns non-finite.  The state may be
    dual-seeded, in which case the result carries the transport differential.
    """
    return _transport(connection, path, x0, t0, t1, step)


def transport_samples(connection, path, x0, times, step=DEFAULT_RK4_STEP):
    """States of the transport at the given increasing times (t₀ first).
    Each state entry may also be an array over stacked paths, or an array
    dual, as in `_transport`."""
    out = [list(x0)]
    x = list(x0)
    for ta, tb in zip(times[:-1], times[1:]):
        x = _transport(connection, path, x, ta, tb, step)
        out.append(list(x))
    return out


def _transport(connection, path, x0, t0, t1, step):
    """The RK4 transport behind `parallel_transport` and
    `transport_samples`, reading γ and γ̇ from one evaluation of the path
    over the run's RK4 times.  State entries may be floats, duals, or numpy
    arrays (or array duals) holding one entry per stacked path, when `path`
    evaluates to coordinate arrays.  A stacked state escapes as soon as one
    entry does; the error then names the point of the lowest-index path
    that escaped."""
    fiber = connection.space.fiber
    if connection.is_flat:
        return list(x0)
    n = connection.space.n_base
    drive = time_table(lambda t: [c for part in path.jet(t) for c in part],
                       t0, t1, step)

    def rhs(t, x):
        row = drive(t)   # γ(t), then γ̇(t)
        return matvec(connection.coeff(row[:n], x), row[n:])

    def guard(t, x):
        if not fiber.contains(x):
            raise IncompleteTransportError(t, point=_escaped_point(fiber, x))

    return rk4_integrate(rhs, list(x0), t0, t1, step=step, observer=guard)


def _escaped_point(fiber, x):
    """The state's primal point, or for a stacked state the point of its
    lowest-index entry outside the fiber chart, as Python floats."""
    vals = [dm.value_of(c) for c in x]
    if not any(isinstance(v, np.ndarray) for v in vals):
        return vals
    outside = ~fiber.inside(vals)
    j = int(np.flatnonzero(outside)[0])
    return [float(np.broadcast_to(v, outside.shape).flat[j]) for v in vals]


class Transport:
    """Parallel transport of one connection along one base path, by RK4
    with `DEFAULT_RK4_STEP`: the maps φ from the fiber over γ(t0) to the
    fiber over γ(t1), and their differentials dφ, for times in [0, 1].

    A connection with a `generator` K transports linearly: φ is the matrix
    P(t1)·P(t0)⁻¹, where the propagator solves P' = K(γ(t), γ̇(t))·P,
    P(0) = I, and dφ is the same matrix.  P is integrated on the first
    query, as the running product of the RK4 step matrices of a direct
    transport from 0 to 1, and kept on the path for every later `Transport`
    of the same connection; a time between nodes takes one partial step
    from the node below (`_numerics.linear_state`).  Every path, a
    reversed one too, integrates its own P.  The chart guard checks the
    transported point at every grid node between t0 and t1 in one array
    pass.  From t0 = 0 it raises the direct route's
    `IncompleteTransportError`, with the same `t_escape` and point; from
    another grid node, the same up to rounding; from a time between nodes,
    the direct route steps on its own grid, so the two escape times lie
    within one step of each other.

    Every other connection takes the direct route: one RK4 transport per
    map, and one dual-seeded transport per Jacobian column.  Either route
    refuses a time outside [0, 1].
    """

    def __init__(self, connection, path):
        self.connection = connection
        self.path = path

    def map(self, x, t0, t1):
        """φ_{t0→t1}(x), the transported point."""
        _check_times(t0, t1)
        if self.connection.generator is None:
            return _transport(self.connection, self.path, x, t0, t1,
                              DEFAULT_RK4_STEP)
        return matvec(self.jacobian(x, t0, t1), x)

    def jacobian(self, x, t0, t1):
        """dφ_{t0→t1} at x as rows: J[i][k] = ∂(φ x)_i / ∂x_k."""
        _check_times(t0, t1)
        x = [dm.value_of(c) for c in x]
        if self.connection.generator is None:
            return dm.jacobian(lambda y: self.map(y, t0, t1), x)
        back = np.linalg.inv(self._at(t0))
        jac = self._at(t1) @ back
        self._guard(x, back @ np.array(x), t0, t1, jac @ np.array(x))
        return jac.tolist()

    def _grid(self):
        # kept on the path, not here: a path that held its Transport would
        # make a reference cycle, and the arrays would wait for a full
        # garbage collection
        grids = self.path._propagators
        if self.connection not in grids:
            grids[self.connection] = self._build()
        return grids[self.connection]

    def _build(self):
        """Integrate P over [0, 1]: the RK4 node times, and P at each node
        as one array of shape (nodes, n_F, n_F), the running product of
        the step matrices of P' = K P."""
        times = rk4_times(0.0, 1.0, DEFAULT_RK4_STEP)
        return times[::2], linear_rk4(self._generators(times).__getitem__,
                                      0.0, 1.0, DEFAULT_RK4_STEP)

    def _generators(self, t):
        """K(γ(t), γ̇(t)) along the path over an array of times t
        (`time_columns`): shape np.shape(t) + (n_F, n_F)."""
        return time_columns(lambda s: [stacked_matrix(
            self.connection.generator(*self.path.jet(s)), s)], t)[0]

    def _at(self, t):
        """P at the time t (`linear_state`)."""
        return linear_state(self._grid(), self._generators, t)

    def _guard(self, x0, y, t0, t1, x1):
        """Raise at the first grid state outside the fiber chart, walking
        from t0 to t1.  y is x0 carried back to the fiber over the path's
        start."""
        times, props = self._grid()
        a = bisect_right(times, min(t0, t1))
        b = bisect_left(times, max(t0, t1))
        inner, stamps = props[a:b] @ y, times[a:b]
        if t1 < t0:
            inner, stamps = inner[::-1], stamps[::-1]
        states = np.vstack([[x0], inner, [x1]])
        outside = ~self.connection.space.fiber.inside(list(states.T))
        if outside.any():
            j = int(np.flatnonzero(outside)[0])
            when = [t0, *stamps, t1]
            raise IncompleteTransportError(when[j], point=states[j].tolist())


def _check_times(*times):
    for t in times:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transport time {t!r} lies outside [0, 1]")


# -- curvature ------------------------------------------------------------------

def curvature(connection, point, u=None, v=None):
    """Curvature Curv(u, v) = [h(u), h(v)] − h([u, v]) at a point.

    ``u``/``v`` are constant base vectors (coordinate directions by default);
    the value is vertical by construction and returned as fiber components.
    """
    space = connection.space
    nb = space.n_base

    def col(pt, w):
        b, x = space.split(pt)
        return matvec(connection.coeff(b, x), w)

    def curv_pair(uu, vv):
        d_u = directional_on_total(connection, uu, lambda pt: col(pt, vv), point)
        d_v = directional_on_total(connection, vv, lambda pt: col(pt, uu), point)
        return [a - b for a, b in zip(d_u, d_v)]

    if u is not None or v is not None:
        if u is None or v is None:
            raise ValueError("supply both u and v or neither")
        return curv_pair(u, v)

    basis = [dm.unit(nb, a) for a in range(nb)]
    return [curv_pair(basis[a], basis[b]) for a, b in combos(nb, 2)]


# -- horizontal forms and vertical bivectors ------------------------------------

class HorizontalForm:
    """A horizontal k-form: components over sorted base-index tuples,
    coefficients smooth functions of the full point (b, x)."""

    def __init__(self, space, degree, comps, name=""):
        self.space = space
        self.degree = degree
        self.comps = comps
        self.name = name or f"hform{degree}"
        self.combos = combos(space.n_base, degree)

    def __call__(self, point):
        return self.comps(point)

    def value(self, point, base_vectors):
        """Evaluate on k base vectors."""
        vals = self.comps(point)
        acc = 0.0   # the value of an empty sum; otherwise the first term
        for idx, combo in enumerate(self.combos):
            term = vals[idx] * det([[vec[i] for i in combo]
                                    for vec in base_vectors])
            acc = term if idx == 0 else acc + term
        return acc


class VerticalBivector:
    """A vertical bivector: components over sorted fiber-index pairs,
    coefficients smooth functions of the full point.  `generator`, when
    given, declares π_V linear in the fiber point, as a connection's does:
    generator(b, a) is the n_F × n_F matrix L with π_V(b, x)^♯a = L x."""

    def __init__(self, space, comps, name="", generator=None):
        self.space = space
        self.comps = comps
        self.name = name or "pi_V"
        self.pairs = combos(space.n_fiber, 2)
        self.generator = generator

    def __call__(self, point):
        return self.comps(point)

    def matrix(self, point):
        return skew_matrix(self.space.n_fiber, self.comps(point))

    def sharp(self, point, alpha_fiber):
        return matvec(self.matrix(point), alpha_fiber)
