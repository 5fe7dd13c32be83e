"""Algebroid paths for coupling data: anchor-compatible paths, the split
presentation over a fixed fiber, concatenation, inversion, and the
evolution solver used by the flow-commutation check.

An algebroid path over (π_V, Γ, ω_H) consists of a base path γ_B, a fiber
path γ_F, and a curve of fiber covectors a_V; the anchor condition
determines the base component of the path's velocity and constrains the
fiber component:

    dγ_F/dt = A(γ) γ̇_B + P(γ) a_V     (A the connection coefficient,
                                        P the vertical bivector matrix).

The split presentation gauges the fiber data back to the fiber over the
base path's start using parallel transport:

    x̃(t) = φ_{0,t}(γ_F(t)),    ã(t) = a_V(t) ∘ dφ_{t,0}|_{x̃(t)},

where φ_{s,t} transports the fiber over γ_B(t) to the fiber over γ_B(s).

The evolution solver integrates, for a two-parameter coefficient curve
α^ε(t) in a finite-dimensional algebra acting linearly with generator G,

    dβ/dt = G(α^ε(t)) β + ∂_ε α^ε(t),    β(0) = β⁰(ε),

which is the derivative-of-flow transport law: the ε-derivative of the
time-t flow of the fields ρ(α^ε(t)) equals ρ(β^t(ε)) at the flowed point.
`flow_commutation_residual` measures exactly that identity; all of its
discretizations are tied to the single step parameter, so halving the step
contracts the residual at the integrator's fourth order.
"""

from __future__ import annotations

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, dot, matvec, rk4_integrate,
                        smoothstep, worst)
from .fibration import BasePath, parallel_transport


class AlgebroidPath:
    """An anchor-compatible path: (γ_B, γ_F, a_V) with γ̇_B implicit."""

    def __init__(self, geom, base_path, fiber_path, covector_path, name=""):
        self.geom = geom
        self.base_path = base_path
        self.fiber_path = fiber_path        # t ↦ fiber coords
        self.covector_path = covector_path  # t ↦ fiber covector
        self.name = name or "apath"

    def point(self, t):
        return self.geom.space.join(self.base_path(t), self.fiber_path(t))

    def fiber_velocity(self, t):
        return dm.tangent(self.fiber_path(Dual(t, 1.0)))

    def anchor_residual(self, n_nodes=33):
        """max |dγ_F/dt − A(γ) γ̇_B − P(γ) a_V| over a uniform t-grid."""
        def defects(t):
            pt = self.point(t)
            a_mat = self.geom.conn_matrix(pt)
            p_mat = self.geom.pi_matrix(pt)
            u = self.base_path.velocity(t)
            rhs = [x + y for x, y in zip(matvec(a_mat, u),
                                         matvec(p_mat, self.covector_path(t)))]
            return [abs(dm.value_of(l) - dm.value_of(r))
                    for l, r in zip(self.fiber_velocity(t), rhs)]

        return worst(d for k in range(n_nodes)
                     for d in defects(k / (n_nodes - 1)))

    def inverse(self):
        """Path-space inverse: reversed base, a⁻¹(t) = −a(1−t)."""
        return AlgebroidPath(
            self.geom,
            self.base_path.reversed(),
            lambda t: self.fiber_path(1.0 - t),
            lambda t: [-c for c in self.covector_path(1.0 - t)],
            name=f"{self.name}~")


def build_apath(geom, base_path, x0, covector_path, step=DEFAULT_RK4_STEP,
                name=""):
    """Construct an anchor-compatible path by integrating the fiber ODE
    from x0 with the given covector curve.  The fiber path is cached at the
    integrator's own nodes and interpolated nowhere: it is re-integrated
    from the nearest cached node, so evaluations stay at integrator
    accuracy for any t."""
    space = geom.space

    def rhs(t, x):
        pt = space.join(base_path(t), x)
        u = base_path.velocity(t)
        return [p + q for p, q in zip(matvec(geom.conn_matrix(pt), u),
                                      matvec(geom.pi_matrix(pt),
                                              covector_path(t)))]

    cache = {0.0: list(x0)}

    def fiber_path(t):
        tv = dm.value_of(t)
        t0 = max((s for s in cache if s <= tv + 1e-15), default=0.0)
        x = rk4_integrate(rhs, cache[t0], t0, tv, step=step) \
            if abs(tv - t0) > 1e-15 else list(cache[t0])
        if not isinstance(t, Dual):
            cache[tv] = [dm.value_of(c) for c in x]
            return x
        # dual time: one extra step for the velocity channel
        base = [dm.value_of(c) for c in x]
        vel = rhs(tv, base)
        return [Dual(b, v * t.eps) for b, v in zip(base, vel)]

    return AlgebroidPath(geom, base_path, fiber_path, covector_path,
                         name=name or "integrated-apath")


# -- split presentation ------------------------------------------------------------

class SplitPath:
    """Split data over the fiber at the base path's start: a point curve
    x̃(t), a covector curve ã(t) in that single fiber, and the exact rate
    dx̃/dt as `rate_fn`.  The split point curve obeys its own ODE,
    x̃˙ = dφ_{0,t}(P a_V), so each constructor in this module builds the
    rate from one transport differential, never from finite differences."""

    def __init__(self, geom, base_path, point_fn, covector_fn, rate_fn,
                 name=""):
        self.geom = geom
        self.base_path = base_path
        self.point_fn = point_fn
        self.covector_fn = covector_fn
        self.rate_fn = rate_fn
        self.name = name or "split-path"

    def point(self, t):
        return self.point_fn(t)

    def covector(self, t):
        return self.covector_fn(t)

    def rate(self, t):
        """dx̃/dt."""
        return self.rate_fn(t)


def _transport_differential(conn, base_path, x_from, t0, t1, step):
    """Columns of dφ_{t1,t0} at x_from (transport differential)."""
    nf = conn.space.n_fiber
    cols = []
    for k in range(nf):
        seeded = [Dual(dm.value_of(c), 1.0 if m == k else 0.0)
                  for m, c in enumerate(x_from)]
        out = parallel_transport(conn, base_path, seeded, t0=t0, t1=t1,
                                 step=step)
        cols.append(dm.tangent(out))
    return cols   # cols[k][i] = ∂(φ x)_i / ∂x_k


def _push_vector(cols, w):
    """Pushforward of a fiber vector through a transport differential."""
    nf = len(cols)
    return [dot([cols[k][i] for k in range(nf)], w) for i in range(nf)]


def split_apath(apath, step=DEFAULT_RK4_STEP):
    """Gauge an algebroid path to the fiber over its base start."""
    geom = apath.geom
    conn = geom.connection
    bp = apath.base_path

    def point_fn(t):
        xf = [dm.value_of(c) for c in apath.fiber_path(t)]
        return parallel_transport(conn, bp, xf, t0=t, t1=0.0, step=step)

    def covector_fn(t):
        xt = point_fn(t)
        cols = _transport_differential(conn, bp, xt, 0.0, t, step)
        a_v = apath.covector_path(t)
        # precomposition: ã_k = Σ_i (a_V)_i ∂(φ_{t,0})_i/∂x_k
        return matvec(cols, a_v)

    def rate_fn(t):
        # x̃˙(t) = dφ_{0,t}(γ̇_F − A γ̇_B) = dφ_{0,t}(P a_V) by the anchor
        # condition, so the rate needs one transport differential.
        xf = [dm.value_of(c) for c in apath.fiber_path(t)]
        pt = geom.space.join(bp(t), xf)
        w = matvec(geom.pi_matrix(pt), apath.covector_path(t))
        cols = _transport_differential(conn, bp, xf, t, 0.0, step)
        return _push_vector(cols, w)

    return SplitPath(geom, bp, point_fn, covector_fn, rate_fn,
                     name=f"split({apath.name})")


def unsplit_apath(split, step=DEFAULT_RK4_STEP):
    """Inverse of `split_apath`: recover the anchor-compatible path."""
    geom = split.geom
    conn = geom.connection
    bp = split.base_path

    def fiber_path(t):
        tv = dm.value_of(t)
        xt = split.point(tv)
        x = parallel_transport(conn, bp, xt, t0=0.0, t1=tv, step=step)
        if not isinstance(t, Dual):
            return x
        # γ_F(t) = φ_{t,0}(x̃(t)), so γ̇_F = A(γ) γ̇_B + dφ_{t,0}(x̃˙):
        # the family term is the transport generator at the image point.
        pt = geom.space.join(bp(tv), x)
        u = bp.velocity(tv)
        cols = _transport_differential(conn, bp, xt, 0.0, tv, step)
        pushed = _push_vector(cols, split.rate(tv))
        vel = [p + q for p, q in zip(matvec(geom.conn_matrix(pt), u),
                                     pushed)]
        return [Dual(dm.value_of(b), v * t.eps) for b, v in zip(x, vel)]

    def covector_path(t):
        xt = split.point(t)
        x_end = parallel_transport(conn, bp, xt, 0.0, t, step=step)
        cols = _transport_differential(conn, bp, x_end, t, 0.0, step)
        a_t = split.covector(t)
        return matvec(cols, a_t)

    return AlgebroidPath(geom, bp, fiber_path, covector_path,
                         name=f"unsplit({split.name})")


def inverse_split(split, step=DEFAULT_RK4_STEP):
    """Split-space inverse: push the data through the full transport of the
    base path, then invert in path space."""
    geom = split.geom
    conn = geom.connection
    bp = split.base_path

    def point_fn(t):
        return parallel_transport(conn, bp, split.point(1.0 - t), 0.0, 1.0,
                                  step=step)

    def covector_fn(t):
        y = point_fn(t)
        cols = _transport_differential(conn, bp, y, 1.0, 0.0, step)
        a = split.covector(1.0 - t)
        return [-dot(cols[k], a) for k in range(len(cols))]

    def rate_fn(t):
        x_from = split.point(1.0 - t)
        cols = _transport_differential(conn, bp, x_from, 0.0, 1.0, step)
        return [-c for c in _push_vector(cols, split.rate(1.0 - t))]

    return SplitPath(geom, bp.reversed(), point_fn, covector_fn, rate_fn,
                     name=f"{split.name}~")


def reparameterized(apath, s_fn=smoothstep):
    """Orientation-preserving reparameterization: points compose with s,
    covectors pick up the factor s′ (they scale like velocities)."""

    def s_and_rate(u):
        val = s_fn(Dual(u, 1.0))
        return dm.value_of(val), dm.tangent(val)

    def cov(u):
        s, rate = s_and_rate(u)
        return [rate * c for c in apath.covector_path(s)]

    return AlgebroidPath(
        apath.geom,
        BasePath(lambda u: apath.base_path(s_fn(u)),
                 name=f"{apath.base_path.name}@s"),
        lambda u: apath.fiber_path(s_fn(u)),
        cov,
        name=f"{apath.name}@s")


def _half_curves(fn_point, fn_cov, fn_rate, half):
    """Reparameterize (point, covector, rate) curves onto a half interval
    with smoothstep flattening (covector and rate scale by s′)."""

    def warp(t):
        u = 2.0 * t - (0.0 if half == 0 else 1.0)
        s = smoothstep(Dual(u, 1.0))
        return dm.value_of(s), 2.0 * dm.tangent(s)

    def pt(t):
        return fn_point(warp(t)[0])

    def cov(t):
        s, rate = warp(t)
        return [rate * c for c in fn_cov(s)]

    def rt(t):
        s, rate = warp(t)
        return [rate * c for c in fn_rate(s)]

    return pt, cov, rt


def concat_base(first, second):
    """Base-path concatenation (first on [0,½], second on [½,1]), with
    smoothstep flattening so the velocity vanishes at the junction."""

    def fn(t):
        tv = dm.value_of(t)
        if tv <= 0.5:
            return first(smoothstep(2.0 * t))
        return second(smoothstep(2.0 * t - 1.0))

    return BasePath(fn, name=f"{second.name}*{first.name}")


def concat_split(second, first, step=DEFAULT_RK4_STEP):
    """Concatenate split paths (first, then second; result written
    second·first).  The second path's fiber data is pulled back through the
    first base path's full transport so everything lives over the common
    start fiber."""
    geom = first.geom
    conn = geom.connection
    bp1 = first.base_path

    def pulled_point(t):
        return parallel_transport(conn, bp1, second.point(t), 1.0, 0.0,
                                  step=step)

    def pulled_cov(t):
        x_back = pulled_point(t)
        cols = _transport_differential(conn, bp1, x_back, 0.0, 1.0, step)
        a = second.covector(t)
        return matvec(cols, a)

    def pulled_rate(t):
        cols = _transport_differential(conn, bp1, second.point(t), 1.0, 0.0,
                                       step)
        return _push_vector(cols, second.rate(t))

    p1, c1, r1 = _half_curves(first.point_fn, first.covector_fn,
                              first.rate, 0)
    p2, c2, r2 = _half_curves(pulled_point, pulled_cov, pulled_rate, 1)

    def point_fn(t):
        return p1(t) if dm.value_of(t) <= 0.5 else p2(t)

    def covector_fn(t):
        return c1(t) if dm.value_of(t) <= 0.5 else c2(t)

    def rate_fn(t):
        return r1(t) if dm.value_of(t) <= 0.5 else r2(t)

    return SplitPath(geom, concat_base(bp1, second.base_path),
                     point_fn, covector_fn, rate_fn,
                     name=f"{second.name}*{first.name}")


# -- evolution solver ---------------------------------------------------------------

def solve_evolution(alpha, eps, generator=None, beta0=None, t1=1.0,
                    step=DEFAULT_RK4_STEP, times=None):
    """Integrate dβ/dt = G(α^ε(t)) β + ∂_ε α^ε(t) from β(0) = β⁰.

    Supported coefficient classes:
      (a) a finite-dimensional algebra acting linearly — pass `generator`,
          a callable u ↦ matrix of the action of u on β's space;
      (b) abelian coefficients — leave `generator` None (G ≡ 0, so β is
          β⁰ plus the running ∂_ε integral).
    Anything else raises NotImplementedError.

    `alpha(t, eps)` must be dual-compatible in eps (∂_ε is taken by dual
    seeding).  Returns {"times": […], "beta": [vectors]} sampled at `times`
    (default: just t1).
    """
    if generator is not None and not callable(generator):
        raise NotImplementedError(
            "evolution solver supports (a) linear finite-dimensional "
            "generators and (b) abelian coefficients (generator=None)")
    probe = alpha(0.0, eps)
    dim = len(probe)
    beta = list(beta0) if beta0 is not None else [0.0] * dim
    if times is None:
        times = [t1]

    def d_eps_alpha(t):
        return dm.tangent(alpha(t, Dual(eps, 1.0)))

    def rhs(t, b):
        drive = d_eps_alpha(t)
        if generator is None:
            return drive
        g = generator(alpha(t, eps))
        return [x + y for x, y in zip(matvec(g, b), drive)]

    out_times, out_beta = [], []
    t_prev = 0.0
    for t in times:
        beta = rk4_integrate(rhs, beta, t_prev, t, step=step)
        out_times.append(t)
        out_beta.append([dm.value_of(c) for c in beta])
        t_prev = t
    return {"times": out_times, "beta": out_beta}


def flow_commutation_residual(fiber, alpha, x0, eps=0.0, t1=1.0,
                              step=DEFAULT_RK4_STEP,
                              times=(0.25, 0.5, 0.75, 1.0)):
    """Residual of ∂_ε ψ^ε_t(x₀) = ρ(β^t(ε))(ψ^ε_t(x₀)) for the flows of
    the time-dependent fields X^ε(t) = ρ(α^ε(t)).

    Every discretization (the flow, its ε-derivative, and the evolution
    integral) shares the single `step` parameter, so the residual contracts
    at fourth order when the step is halved.
    """
    seeded = Dual(eps, 1.0)

    def rhs(t, x):
        return fiber.action(alpha(t, seeded), x)

    evo = solve_evolution(alpha, eps,
                          generator=lambda u: fiber.action_matrix(u),
                          t1=t1, step=step, times=list(times))
    defects = []
    state = [Dual(c, 0.0) for c in x0]
    t_prev = 0.0
    for t, beta in zip(evo["times"], evo["beta"]):
        state = rk4_integrate(rhs, state, t_prev, t, step=step)
        t_prev = t
        psi = [dm.value_of(c) for c in state]
        lhs = [dm.value_of(c) for c in dm.tangent(state)]
        rhs_vec = [dm.value_of(c) for c in fiber.action(beta, psi)]
        defects += [abs(a - b) for a, b in zip(lhs, rhs_vec)]
    return worst(defects)
