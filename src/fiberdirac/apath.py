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
Split, unsplit, inverse and concatenation all move split data by this one
gauge rule, in `_carried`, each between its own pair of times: a point by
φ, a covector by pullback through dφ⁻¹, a rate by dφ.  Every φ and dφ
comes from a `fibration.Transport` along the base path: one propagator
per base path for a fiber-linear connection (every Yang–Mills–Higgs
coupling; an inverse's reversed base path integrates its own), direct
RK4 transports otherwise.  `build_apath` makes the same split for the
anchor ODE, which is linear when π_V declares a `generator` too, and
integrates it over [0, 1] once, when the path is built.  Every RK4 run
here takes steps of `DEFAULT_RK4_STEP`, apart from the flow-commutation
check's, and reads what depends on time alone (the base path's jet, the
covector curve, α) from one array evaluation over the run's RK4 times
(`_numerics.time_columns`), so base paths, covector curves and α must
accept an array of times.

The evolution solver integrates, for a two-parameter coefficient curve
α^ε(t) in a finite-dimensional algebra acting linearly with generator G,

    dβ/dt = G(α^ε(t)) β + ∂_ε α^ε(t),    β(0) = β⁰(ε),

which is the derivative-of-flow transport law: the ε-derivative of the
time-t flow of the fields ρ(α^ε(t)) equals ρ(β^t(ε)) at the flowed point.
`flow_commutation_residual` measures exactly that identity at t = ¼, ½, ¾
and 1.  Both are linear ODEs, the solver's in (β, 1) and the check's in
(ψ, ∂_ε ψ, β, 1) per quarter, and each RK4 run of them is a product of
step matrices (`_numerics.linear_rk4`) built from the values and tangents
of one dual-seeded evaluation of α at the array of the run's RK4 times,
α(T, Dual(ε, 1)).  The check's only discretization is the single step
parameter: halving the step contracts the residual at the integrator's
fourth order.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import dual as dm
from .dual import Dual
from ._numerics import (DEFAULT_RK4_STEP, dot, halves, linear_rk4,
                        linear_state, matvec, rk4_integrate, rk4_times,
                        smoothstep, stacked_matrix, time_columns, time_table,
                        worst)
from .fibration import BasePath, Transport


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


def build_apath(geom, base_path, x0, covector_path, name=""):
    """Construct an anchor-compatible path by integrating the fiber ODE
    from x0 with the given covector curve: one RK4 run over [0, 1], kept
    at its nodes (every other time of `rk4_times`).  When the connection
    and π_V declare generators K and L, the ODE is x' = M(t)x with
    M = K(γ, γ̇) + L(a_V), one `_numerics.linear_rk4`; other data take one
    `rk4_integrate` run, whose observer keeps the nodes.  A time between
    nodes takes one partial step from the node below, so no answer depends
    on earlier queries.  The base path and `covector_path` are
    evaluated over the run's RK4 times, each partial step's and (linear
    route) a dual time, so both must accept an array of times."""
    n, times = geom.space.n_base, rk4_times(0.0, 1.0, DEFAULT_RK4_STEP)
    if None not in (geom.connection.generator, geom.pi_v.generator):
        def entry(t):   # M = K(γ, γ̇) + L(a_V), one time-only entry
            (b, u), a = base_path.jet(t), covector_path(t)
            return [stacked_matrix(geom.connection.generator(b, u), t)
                    + stacked_matrix(geom.pi_v.generator(b, a), t)]

        matrices = lambda times: time_columns(entry, times)[0]
        run = times[::2], linear_rk4(matrices(times).__getitem__, 0.0, 1.0,
                                     DEFAULT_RK4_STEP) @ np.array(x0, float)

        def state(tv):   # x(t) and a thunk of x'(t) = M(t)x(t)
            x = linear_state(run, matrices, tv)
            return x.tolist(), lambda: (matrices([tv])[0] @ x).tolist()
    else:
        def drive(t):   # γ_B(t), γ̇_B(t), then a_V(t)
            return [c for part in base_path.jet(t) for c in part] + list(
                covector_path(t))

        def anchor_rhs(t0, t1):
            table = time_table(drive, t0, t1, DEFAULT_RK4_STEP)

            def rhs(t, x):
                row = table(t)
                pt = geom.space.join(row[:n], x)
                return [p + q for p, q in
                        zip(matvec(geom.conn_matrix(pt), row[n:2 * n]),
                            matvec(geom.pi_matrix(pt), row[2 * n:]))]

            return rhs

        full, node_times, nodes = anchor_rhs(0.0, 1.0), times[::2], []
        rk4_integrate(full, x0, 0.0, 1.0,
                      observer=lambda _, x: nodes.append(x))

        def state(tv):
            k = max(bisect_right(node_times, tv) - 1, 0)
            rhs, x = full, list(nodes[k])
            if tv != node_times[k]:
                rhs = anchor_rhs(node_times[k], tv)
                x = rk4_integrate(rhs, x, node_times[k], tv)
            return x, lambda: rhs(tv, x)

    def fiber_path(t):
        x, velocity = state(dm.value_of(t))
        return [Dual(b, v * t.eps) for b, v in zip(x, velocity())] \
            if isinstance(t, Dual) else x

    return AlgebroidPath(geom, base_path, fiber_path, covector_path,
                         name=name or "integrated-apath")


# -- split presentation ------------------------------------------------------------

class SplitPath:
    """Split data over the fiber at the base path's start: a point curve
    x̃(t), a covector curve ã(t) in that single fiber, and the exact rate
    dx̃/dt as `rate`, each a function of t.  The split point curve obeys
    its own ODE, x̃˙ = dφ_{0,t}(P a_V), so each constructor in this module
    builds the rate from one transport differential, never from finite
    differences."""

    def __init__(self, geom, base_path, point, covector, rate, name=""):
        self.geom = geom
        self.base_path = base_path
        self.point = point
        self.covector = covector
        self.rate = rate
        self.name = name or "split-path"


def _pull_covector(jac, a):
    """Pullback of a fiber covector through a transport differential."""
    return [dot(col, a) for col in zip(*jac)]


def _carried(tr, ends, point, covector, rate):
    """The gauge rule of the split presentation, for every constructor:
    with φ = φ_{t0→t1} of `tr` and (t0, t1) = ends(t), carry a source point
    x = point(t) to φ(x), its covector by pullback through dφ⁻¹ at φ(x),
    and its rate r = rate(t, x) to dφ_x r.  The carried point and rate take
    the source point as an optional `x` when the caller already holds it."""

    def point_fn(t, x=None):
        return tr.map(point(t) if x is None else x, *ends(t))

    def covector_fn(t):
        t0, t1 = ends(t)
        return _pull_covector(tr.jacobian(point_fn(t), t1, t0), covector(t))

    def rate_fn(t, x=None):
        x = point(t) if x is None else x
        return matvec(tr.jacobian(x, *ends(t)), rate(t, x))

    return point_fn, covector_fn, rate_fn


def split_apath(apath):
    """Gauge an algebroid path to the fiber over its base start."""
    geom = apath.geom
    bp = apath.base_path

    def fiber_point(t):
        return [dm.value_of(c) for c in apath.fiber_path(t)]

    def anchor_rate(t, x):
        # x̃˙(t) = dφ_{0,t}(γ̇_F − A γ̇_B) = dφ_{0,t}(P a_V) by the anchor
        # condition, so the rate needs one transport differential.
        pt = geom.space.join(bp(t), x)
        return matvec(geom.pi_matrix(pt), apath.covector_path(t))

    curves = _carried(Transport(geom.connection, bp), lambda t: (t, 0.0),
                      fiber_point, apath.covector_path, anchor_rate)
    return SplitPath(geom, bp, *curves, name=f"split({apath.name})")


def unsplit_apath(split):
    """Inverse of `split_apath`: recover the anchor-compatible path."""
    geom = split.geom
    bp = split.base_path
    point_fn, covector_path, rate_fn = _carried(
        Transport(geom.connection, bp), lambda t: (0.0, t), split.point,
        split.covector, lambda t, _: split.rate(t))

    def fiber_path(t):
        tv = dm.value_of(t)
        xt = split.point(tv)
        x = point_fn(tv, xt)
        if not isinstance(t, Dual):
            return x
        # γ_F(t) = φ_{t,0}(x̃(t)), so γ̇_F = A(γ) γ̇_B + dφ_{t,0}(x̃˙):
        # the family term is the transport generator at the image point.
        pt = geom.space.join(bp(tv), x)
        u = bp.velocity(tv)
        vel = [p + q for p, q in zip(matvec(geom.conn_matrix(pt), u),
                                     rate_fn(tv, xt))]
        return [Dual(dm.value_of(b), v * t.eps) for b, v in zip(x, vel)]

    return AlgebroidPath(geom, bp, fiber_path, covector_path,
                         name=f"unsplit({split.name})")


def inverse_split(split):
    """Split-space inverse: push the data through the full transport of the
    base path, then invert in path space."""
    bp = split.base_path
    point, covector, rate = _carried(
        Transport(split.geom.connection, bp), lambda t: (0.0, 1.0),
        split.point, split.covector, lambda t, _: split.rate(t))
    return SplitPath(split.geom, bp.reversed(), lambda t: point(1.0 - t),
                     lambda t: [-c for c in covector(1.0 - t)],
                     lambda t: [-c for c in rate(1.0 - t)],
                     name=f"{split.name}~")


def _warped(curve, u, speed):
    """curve at the smoothstep warp s(u), scaled by speed·s′(u): a covector
    or rate reparameterized by s, since both scale like velocities."""
    s = smoothstep(Dual(u, 1.0))
    rate = speed * dm.tangent(s)
    return [rate * c for c in curve(dm.value_of(s))]


def _half_curves(point, covector, rate, shift):
    """Reparameterize (point, covector, rate) curves onto a half interval,
    u = 2t − shift, with smoothstep flattening."""
    return (lambda t: point(smoothstep(2.0 * t - shift)),
            lambda t: _warped(covector, 2.0 * t - shift, 2.0),
            lambda t: _warped(rate, 2.0 * t - shift, 2.0))


def _joined(first, second):
    """first on [0, ½], second after; an array of times takes each piece
    at its own entries (`halves`)."""
    return lambda t: halves(first, second, t)


def concat_base(first, second):
    """Base-path concatenation (first on [0,½], second on [½,1]), with
    smoothstep flattening so the velocity vanishes at the junction."""

    return BasePath(_joined(lambda t: first(smoothstep(2.0 * t)),
                            lambda t: second(smoothstep(2.0 * t - 1.0))),
                    name=f"{second.name}*{first.name}")


def concat_split(second, first):
    """Concatenate split paths (first, then second; result written
    second·first).  The second path's fiber data is pulled back through the
    first base path's full transport so everything lives over the common
    start fiber."""
    bp1 = first.base_path
    pulled = _carried(Transport(first.geom.connection, bp1),
                      lambda t: (1.0, 0.0), second.point, second.covector,
                      lambda t, _: second.rate(t))
    halves = zip(_half_curves(first.point, first.covector, first.rate, 0.0),
                 _half_curves(*pulled, 1.0))
    return SplitPath(first.geom, concat_base(bp1, second.base_path),
                     *(_joined(a, b) for a, b in halves),
                     name=f"{second.name}*{first.name}")


# -- evolution solver ---------------------------------------------------------------

def _linear_run(alpha, eps, generator, t0, t1, step, z, n):
    """z = (ψ, ∂_ε ψ, β, 1), ψ of n coordinates (none for the evolution
    solver), carried from t0 to t1 by `_numerics.linear_rk4` of

        ψ' = G(α) ψ,   (∂_ε ψ)' = G(α) ∂_ε ψ + G(∂_ε α) ψ,
        β' = G(α) β + ∂_ε α   (G ≡ 0 when `generator` is None),

    with G(α), G(∂_ε α) and ∂_ε α from the values and tangents of one
    evaluation α(T, Dual(ε, 1)) at the array T of the run's RK4 times; the
    tables live only here.  Entries z lacks at the start are 0, then 1."""
    seeded = Dual(eps, 1.0)

    def columns(t):
        a = alpha(t, seeded)
        tangents = dm.tangent(a)
        out = [stacked_matrix([[c] for c in tangents], t)]
        if generator is not None:
            values = [dm.value_of(c) for c in a]
            out.append(stacked_matrix(generator(values), t))
            if n:   # G(∂_ε α) drives ∂_ε ψ alone
                out.append(stacked_matrix(generator(tangents), t))
        return out

    drive, *g = time_columns(columns, rk4_times(t0, t1, step))
    size = 2 * n + drive.shape[1] + 1
    if len(z) < size:
        z = np.concatenate([z, np.zeros(size - 1 - len(z)), [1.0]])

    def matrices(s):   # M over the entries s of the run's times
        out = np.zeros((len(drive[s]), size, size))
        out[:, 2 * n:-1, -1:] = drive[s]
        if g:
            out[:, 2 * n:-1, 2 * n:-1] = g[0][s]
            if n:
                out[:, :n, :n] = out[:, n:2 * n, n:2 * n] = g[0][s]
                out[:, n:2 * n, :n] = g[1][s]
        return out

    return linear_rk4(matrices, t0, t1, step, z)


def solve_evolution(alpha, eps, generator=None, beta0=None, times=None):
    """Integrate dβ/dt = G(α^ε(t)) β + ∂_ε α^ε(t) from β(0) = β⁰, by RK4
    with `DEFAULT_RK4_STEP`, as the linear system (β, 1) of `_linear_run`.

    Supported coefficient classes:
      (a) a finite-dimensional algebra acting linearly — pass `generator`,
          a callable u ↦ matrix of the action of u on β's space;
      (b) abelian coefficients — leave `generator` None (G ≡ 0, so β is
          β⁰ plus the running ∂_ε integral).
    Anything else raises NotImplementedError.

    `alpha(t, eps)` must be dual-compatible in eps (∂_ε is taken by dual
    seeding) and accept an array of times t, returning per component a
    number or an array over them (or a Dual of these); `generator` must
    then accept components that are arrays.  Returns {"times": […], "beta":
    [vectors]} sampled at `times` (default: just t = 1).
    """
    if generator is not None and not callable(generator):
        raise NotImplementedError(
            "evolution solver supports (a) linear finite-dimensional "
            "generators and (b) abelian coefficients (generator=None)")
    if times is None:
        times = [1.0]
    z = [] if beta0 is None else list(beta0)
    out_beta = []
    t_prev = 0.0
    for t in times:
        z = _linear_run(alpha, eps, generator, t_prev, t, DEFAULT_RK4_STEP,
                        z, 0)
        out_beta.append(z[:-1].tolist())
        t_prev = t
    return {"times": list(times), "beta": out_beta}


def flow_commutation_residual(fiber, alpha, x0, eps=0.0,
                              step=DEFAULT_RK4_STEP):
    """Residual of ∂_ε ψ^ε_t(x₀) = ρ(β^t(ε))(ψ^ε_t(x₀)) for the flows of
    the time-dependent fields X^ε(t) = ρ(α^ε(t)).

    The flow ψ, its ε-derivative ∂_ε ψ and the evolution β of
    `solve_evolution`, with G the fiber's `action_matrix`, are integrated
    as one linear system per quarter (`_linear_run`), from one evaluation
    of α at the array of the quarter's RK4 times (α must accept one, as in
    `solve_evolution`).  RK4 commutes with linearisation, so the ∂_ε ψ
    block is the ε-derivative of the discrete flow.  The single `step` is
    the only discretization, so the residual contracts at fourth order
    when the step is halved.
    """
    n = len(x0)
    z, defects, t_prev = list(x0), [], 0.0
    for t in (0.25, 0.5, 0.75, 1.0):
        z = _linear_run(alpha, eps, fiber.action_matrix, t_prev, t, step, z,
                        n)
        t_prev = t
        psi, lhs, beta = (z[:n].tolist(), z[n:2 * n].tolist(),
                          z[2 * n:-1].tolist())
        defects += [abs(a - b) for a, b in zip(lhs, fiber.action(beta, psi))]
    return worst(defects)
