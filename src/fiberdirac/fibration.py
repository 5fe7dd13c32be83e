"""Fibered spaces with Ehresmann connections: lifts, parallel transport,
curvature, and covariant differentials of horizontal forms.

A fibered space is presented per patch as a product E = B × F with the
projection onto the first factor; points are concatenated coordinate lists
(b, x).  A connection is its local coefficient A(b, x): T_b B → T_x F,
linear in the base vector; the horizontal lift is h(v) = (v, A(b,x)v).

Parallel transport integrates dx/dt = A(γ(t), x)·γ̇(t) with fixed-step RK4.
Because the integrator runs on generic scalars, transporting dual-seeded
initial conditions yields exact differentials of the transport maps.
"""

from __future__ import annotations

import itertools

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, det, matvec, rk4_integrate,
                        sample_unit_cube, skew_matrix, worst)
from .fields import lie_bracket, vector_field


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

    def base_pairs(self):
        return list(itertools.combinations(range(self.n_base), 2))

    def sample(self, count=256, seed=0):
        """Joint low-discrepancy samples of the total space (b, x)."""
        cube = sample_unit_cube(count, self.dim, seed=seed)
        out = []
        for row in cube:
            b = self.base.from_unit(row[:self.n_base])
            x = self.fiber.from_unit(row[self.n_base:])
            out.append(self.join(b, x))
        return out

    def __repr__(self):
        return f"FiberedSpace({self.name!r}, base={self.n_base}, fiber={self.n_fiber})"


class BasePath:
    """A smooth path [0,1] → B given by an evaluator; velocity via duals."""

    def __init__(self, fn, name=""):
        self.fn = fn
        self.name = name

    def __call__(self, t):
        return self.fn(t)

    def velocity(self, t):
        return dm.tangent(self.fn(Dual(t, 1.0)))

    def reversed(self):
        return BasePath(lambda t: self.fn(1.0 - t), name=f"{self.name}~")


class Connection:
    """Connection on E = B × F with coefficient A(b, x) (n_F × n_B)."""

    is_flat = False

    def __init__(self, space, coefficient, name=""):
        self.space = space
        self.coefficient = coefficient
        self.name = name or "connection"

    def coeff(self, b, x):
        return self.coefficient(b, x)

    def lift(self, v, point):
        """Horizontal lift h(v) = (v, A(b,x)v) as a full tangent vector."""
        b, x = self.space.split(point)
        return list(v) + matvec(self.coeff(b, x), v)

    def lift_field(self, v_fn, name=""):
        """h(v) as a vector field on E for a base vector field v(b)."""
        def comps(pt):
            b, x = self.space.split(pt)
            v = v_fn(b)
            return list(v) + matvec(self.coeff(b, x), v)

        return vector_field(self.space.dim, comps, name=name or "h(v)")


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
    space = connection.space
    if connection.is_flat:
        return list(x0)

    def rhs(t, x):
        b = path(t)
        return matvec(connection.coeff(b, x), path.velocity(t))

    def guard(t, x):
        if not space.fiber.contains(x):
            raise IncompleteTransportError(t, point=[dm.value_of(c) for c in x])

    return rk4_integrate(rhs, list(x0), t0, t1, step=step, observer=guard)


def transport_samples(connection, path, x0, times, step=DEFAULT_RK4_STEP):
    """States of the transport at the given increasing times (t₀ first)."""
    out = [list(x0)]
    x = list(x0)
    for ta, tb in zip(times[:-1], times[1:]):
        x = parallel_transport(connection, path, x, t0=ta, t1=tb, step=step)
        out.append(list(x))
    return out


def holonomy(connection, loop, x0, step=DEFAULT_RK4_STEP):
    """Transport around a loop (a path with matching endpoints)."""
    return parallel_transport(connection, loop, x0, 0.0, 1.0, step=step)


# -- curvature ------------------------------------------------------------------

def curvature(connection, point, u=None, v=None):
    """Curvature Curv(u, v) = [h(u), h(v)] − h([u, v]) at a point.

    ``u``/``v`` are constant base vectors (coordinate directions by default);
    the value is vertical by construction and returned as fiber components.
    """
    space = connection.space
    nb, nf = space.n_base, space.n_fiber

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

    basis = [[1.0 if i == a else 0.0 for i in range(nb)] for a in range(nb)]
    return [curv_pair(basis[a], basis[b]) for a, b in space.base_pairs()]


def curvature_verticality_residual(connection, point):
    """Cross-check: base components of [h(e_a), h(e_b)] − h([e_a,e_b]).

    Zero in exact arithmetic for coordinate fields; evaluated through the
    full Lie bracket of the lifted fields as an independent route.
    """
    nb = connection.space.n_base

    def base_part(a, b):
        ha = connection.lift_field(lambda bb: [1.0 if i == a else 0.0
                                               for i in range(nb)])
        hb = connection.lift_field(lambda bb: [1.0 if i == b else 0.0
                                               for i in range(nb)])
        return lie_bracket(ha, hb)(point)[:nb]

    return worst(abs(dm.value_of(c))
                 for a, b in connection.space.base_pairs()
                 for c in base_part(a, b))


# -- horizontal forms and the covariant differential ----------------------------

class HorizontalForm:
    """A horizontal k-form: components over sorted base-index tuples,
    coefficients smooth functions of the full point (b, x)."""

    def __init__(self, space, degree, comps, name=""):
        self.space = space
        self.degree = degree
        self.comps = comps
        self.name = name or f"hform{degree}"
        self.combos = list(itertools.combinations(range(space.n_base), degree))

    def __call__(self, point):
        return self.comps(point)

    def value(self, point, base_vectors):
        """Evaluate on k base vectors."""
        vals = self.comps(point)
        acc = 0.0
        for idx, combo in enumerate(self.combos):
            minor = [[vec[i] for i in combo] for vec in base_vectors]
            acc = acc + vals[idx] * det(minor)
        return acc


class VerticalBivector:
    """A vertical bivector: components over sorted fiber-index pairs,
    coefficients smooth functions of the full point."""

    def __init__(self, space, comps, name=""):
        self.space = space
        self.comps = comps
        self.name = name or "pi_V"
        self.pairs = list(itertools.combinations(range(space.n_fiber), 2))

    def __call__(self, point):
        return self.comps(point)

    def matrix(self, point):
        return skew_matrix(self.space.n_fiber, self.comps(point))

    def sharp(self, point, alpha_fiber):
        return matvec(self.matrix(point), alpha_fiber)


def covariant_differential(connection, form):
    """d_Γ of a horizontal k-form (k ∈ {0, 1, 2}), on coordinate fields:

        (d_Γ ω)(e_{a₀},…,e_{a_k}) = Σ_i (−1)^i L_{h(e_{a_i})} ω(…,ê_{a_i},…)

    (coordinate base fields commute, so no bracket terms appear).  A scalar
    function on E counts as the k = 0 case.
    """
    space = connection.space
    nb = space.n_base

    if callable(form) and not isinstance(form, HorizontalForm):
        # scalar function on E → horizontal 1-form
        def comps1(pt):
            out = []
            for a in range(nb):
                e = [1.0 if i == a else 0.0 for i in range(nb)]
                out.append(directional_on_total(connection, e, form, pt))
            return out
        return HorizontalForm(space, 1, comps1, name="dGamma(f)")

    k = form.degree
    if k not in (1, 2):
        raise ValueError("covariant differential implemented for k in {0,1,2}")
    src_index = {c: i for i, c in enumerate(form.combos)}
    dst = list(itertools.combinations(range(nb), k + 1))

    def comps(pt):
        out = []
        for J in dst:
            acc = 0.0
            for pos, a in enumerate(J):
                rest = J[:pos] + J[pos + 1:]
                e = [1.0 if i == a else 0.0 for i in range(nb)]
                term = directional_on_total(
                    connection, e,
                    lambda q, idx=src_index[rest]: form.comps(q)[idx], pt)
                acc = acc + (term if pos % 2 == 0 else -term)
            out.append(acc)
        return out

    return HorizontalForm(space, k + 1, comps, name=f"dGamma({form.name})")


def second_covariant_residual(connection, scalar_fn, point):
    """Residual of d²_Γ f (e_a, e_b) = L_{Curv(e_a,e_b)} f at a point."""
    space = connection.space
    d1 = covariant_differential(connection, scalar_fn)
    d2 = covariant_differential(connection, d1)
    lhs = d2(point)
    curv = curvature(connection, point)
    nb = space.n_base

    def along_curvature(idx):
        return dm.directional(scalar_fn, point, [0.0] * nb + list(curv[idx]))

    return worst(abs(dm.value_of(lhs[idx]) - dm.value_of(along_curvature(idx)))
                 for idx in range(len(curv)))
