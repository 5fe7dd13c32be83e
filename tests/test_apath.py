"""Path calculus: anchored paths, the transport splitting and its
inverses/concatenations, the coefficient-evolution solver, and the
flow-commutation identity."""

import math
import random
import warnings

import numpy as np
import pytest

from fiberdirac import _numerics
from fiberdirac import apath as apath_module
from fiberdirac import dual as dm
from fiberdirac import fibration
from fiberdirac._numerics import (matvec, rk4_integrate, rk4_times,
                                  smoothstep, worst)
from fiberdirac.apath import (build_apath, concat_base, concat_split,
                              flow_commutation_residual, inverse_split,
                              solve_evolution, split_apath, unsplit_apath)
from fiberdirac.charts import CoordinateDomain
from fiberdirac.fibration import (DEFAULT_RK4_STEP, BasePath, Connection,
                                  FiberedSpace,
                                  IncompleteTransportError, Transport,
                                  parallel_transport)
from fiberdirac.cli import compile_expression
from fiberdirac.yangmills import HamiltonianFiber, so3_coadjoint_example
from reference import reparameterized

ANCHOR_TOL = 1e-9          # analytic-rate pipeline sits at transport noise
CONCAT_TOL = 1e-6

GRID = (0.0, 0.25, 0.3, 0.7, 0.75, 1.0)


@pytest.fixture(scope="module")
def geom():
    return so3_coadjoint_example()


def loop_apath(geom):
    bp = BasePath(lambda t: [0.4 * dm.sin(2 * math.pi * t) * t,
                             0.3 * (1 - dm.cos(2 * math.pi * t))],
                  name="loopish")
    cov = lambda t: [0.2 + 0.1 * t, -0.3 * t * t, 0.15 * dm.sin(3 * t)]
    return build_apath(geom, bp, [0.5, -0.2, 0.8], cov, name="ap")


@pytest.fixture(scope="module")
def apath(geom):
    return loop_apath(geom)


@pytest.fixture(scope="module")
def second_apath(geom, apath):
    bp = BasePath(lambda t: [0.4 * dm.sin(2 * math.pi * t), 0.6 * t],
                  name="tail")
    cov = lambda t: [-0.1, 0.2 * t, 0.05]
    x1 = [dm.value_of(c) for c in apath.fiber_path(1.0)]
    return build_apath(geom, bp, x1, cov, name="ap-tail")


def max_diff(fn_a, fn_b, times=GRID):
    return max(max(abs(dm.value_of(a) - dm.value_of(b))
                   for a, b in zip(fn_a(t), fn_b(t)))
               for t in times)


def test_built_path_satisfies_the_anchor_condition(apath):
    assert apath.anchor_residual() < ANCHOR_TOL


def test_point_joins_base_and_fiber(apath):
    pt = apath.point(0.4)
    assert pt[:2] == pytest.approx(apath.base_path(0.4))
    assert pt[2:] == pytest.approx(
        [dm.value_of(c) for c in apath.fiber_path(0.4)])


def test_split_then_unsplit_round_trips(apath):
    sp = split_apath(apath)
    back = unsplit_apath(sp)
    assert max_diff(apath.fiber_path, back.fiber_path) < 1e-9
    assert max_diff(apath.covector_path, back.covector_path) < 1e-9
    assert back.anchor_residual(9) < ANCHOR_TOL


def test_split_base_point_is_stationary(apath):
    # the split curve lives in the fixed fiber over γ_B(0)
    sp = split_apath(apath)
    x_start = [dm.value_of(c) for c in apath.fiber_path(0.0)]
    assert sp.point(0.0) == pytest.approx(x_start)
    rate = sp.rate(0.5)
    assert len(rate) == 3        # analytic rate, fiber-dimensional


def test_unsplit_second_path_anchor(second_apath):
    sp = split_apath(second_apath)
    assert unsplit_apath(sp).anchor_residual(9) < ANCHOR_TOL


def test_inverse_split_matches_path_inverse(apath):
    u_inv = unsplit_apath(inverse_split(split_apath(apath)))
    ap_inv = apath.inverse()
    assert max_diff(ap_inv.fiber_path, u_inv.fiber_path,
                    (0.0, 0.25, 0.75, 1.0)) < 1e-9
    assert max_diff(ap_inv.covector_path, u_inv.covector_path,
                    (0.0, 0.25, 0.75, 1.0)) < 1e-9
    assert u_inv.anchor_residual(9) < ANCHOR_TOL


def test_concat_split_is_split_of_concatenation(geom, apath, second_apath):
    cc = concat_split(split_apath(second_apath), split_apath(apath))
    ucc = unsplit_apath(cc)
    assert ucc.anchor_residual(9) < CONCAT_TOL

    base_cc = concat_base(apath.base_path, second_apath.base_path)
    assert max_diff(lambda t: ucc.base_path(t), lambda t: base_cc(t)) < 1e-12
    # halves traverse the original curves up to the smoothstep warp
    for t, ref in ((0.0, apath.fiber_path(0.0)),
                   (0.25, apath.fiber_path(smoothstep(0.5))),
                   (0.5, second_apath.fiber_path(0.0)),
                   (1.0, second_apath.fiber_path(1.0))):
        got = ucc.fiber_path(t)
        assert max(abs(dm.value_of(a) - dm.value_of(b))
                   for a, b in zip(got, ref)) < CONCAT_TOL


def test_reparameterized_path_keeps_anchor_and_endpoints(apath):
    rp = reparameterized(apath)
    assert rp.anchor_residual(9) < ANCHOR_TOL
    for t in (0.0, 1.0):
        assert max(abs(dm.value_of(a) - dm.value_of(b)) for a, b in
                   zip(rp.fiber_path(t), apath.fiber_path(t))) < 1e-12


def test_abelian_evolution_is_the_running_integral():
    alpha = lambda t, e: [dm.sin(t) * (1.0 + e), e * t]
    out = solve_evolution(alpha, eps=0.2, beta0=[0.1, 0.0])
    beta = out["beta"][-1]
    # ∂_ε α = (sin t, t): integrals are 1 − cos 1 and ½
    assert beta[0] == pytest.approx(0.1 + 1.0 - math.cos(1.0), rel=1e-8)
    assert beta[1] == pytest.approx(0.5, rel=1e-8)


def test_evolution_with_linear_generator_stays_consistent():
    fib = HamiltonianFiber.coadjoint_so3()
    alpha = lambda t, e: [0.3 + e, -0.2 * t, 0.1]
    out = solve_evolution(alpha, eps=0.0,
                          generator=lambda u: fib.action_matrix(u),
                          times=[0.0, 0.5, 1.0])
    assert len(out["beta"]) == 3
    assert out["beta"][0] == pytest.approx([0.0, 0.0, 0.0])
    assert any(abs(c) > 1e-3 for c in out["beta"][-1])


def test_unsupported_generator_class_is_refused():
    with pytest.raises(NotImplementedError):
        solve_evolution(lambda t, e: [t], eps=0.0, generator="matrix")


def test_flow_commutation_residual_and_halving_gain():
    fib = HamiltonianFiber.coadjoint_so3()
    alpha = lambda t, e: [(3 + e) * dm.sin(2 * math.pi * t),
                          2.5 * dm.cos(3 * math.pi * t) - e * t,
                          1.5 * dm.sin(5 * t + e)]
    r1 = flow_commutation_residual(fib, alpha, [0.6, 0.0, 0.8], eps=0.3,
                                   step=1e-3)
    assert r1 < 1e-6
    r2 = flow_commutation_residual(fib, alpha, [0.6, 0.0, 0.8], eps=0.3,
                                   step=5e-4)
    assert r2 < r1 / 8.0          # the discretization is at least cubic


FLOW_TIMES = (0.25, 0.5, 0.75, 1.0)


def two_system_residual(fiber, alpha, x0, eps, step):
    """The flow-commutation residual as two separate integrations: β by
    its own RK4, evaluating α at the plain ε for G and at the seeded ε for
    ∂_ε α at every stage, and the dual-seeded flow ψ by another.  Returns
    the residual and β at `FLOW_TIMES`."""
    seeded = dm.Dual(eps, 1.0)

    def beta_rhs(t, b):
        drive = dm.tangent(alpha(t, seeded))
        g = fiber.action_matrix(alpha(t, eps))
        return [x + y for x, y in zip(matvec(g, b), drive)]

    def flow_rhs(t, x):
        return fiber.action(alpha(t, seeded), x)

    beta = [0.0] * len(alpha(0.0, eps))
    state = [dm.Dual(c, 0.0) for c in x0]
    defects, betas, t_prev = [], [], 0.0
    for t in FLOW_TIMES:
        beta = rk4_integrate(beta_rhs, beta, t_prev, t, step=step)
        state = rk4_integrate(flow_rhs, state, t_prev, t, step=step)
        t_prev = t
        betas.append(beta)
        psi = [dm.value_of(c) for c in state]
        lhs = [dm.value_of(c) for c in dm.tangent(state)]
        rhs_vec = [dm.value_of(c) for c in fiber.action(beta, psi)]
        defects += [abs(a - b) for a, b in zip(lhs, rhs_vec)]
    return worst(defects), betas


def seeded_alpha_exprs(seed):
    """A coefficient curve of the benchmark's flow-commutation op family."""
    rng = random.Random(seed)
    c = [f"{rng.uniform(lo, hi):.4f}" for lo, hi in
         ((2.0, 4.0), (1.5, 2.5), (1.5, 3.0), (2.0, 3.5), (1.0, 2.0),
          (3.0, 6.0))]
    return [f"({c[0]}+e)*sin({c[1]}*pi*t)", f"{c[2]}*cos({c[3]}*pi*t)-e*t",
            f"{c[4]}*sin({c[5]}*t+e)"]


BUNDLED_ALPHA = ["(3+e)*sin(2*pi*t)", "2.5*cos(3*pi*t)-e*t",
                 "1.5*sin(5*t+e)"]


@pytest.mark.parametrize("exprs,step", [
    (BUNDLED_ALPHA, 1e-3), (BUNDLED_ALPHA, 5e-4),
    (seeded_alpha_exprs(11), 1e-3), (seeded_alpha_exprs(12), 1e-3)],
    ids=["bundled", "bundled-half-step", "seeded-11", "seeded-12"])
def test_one_system_flow_commutation_equals_two_integrations(exprs, step):
    # the (ψ, β) system takes the same RK4 arithmetic entry by entry, and
    # the value parts of the seeded α are the plain α
    fns = [compile_expression(e, ["t", "e"]) for e in exprs]
    alpha = lambda t, e: [f([t, e]) for f in fns]
    fib = HamiltonianFiber.coadjoint_so3()
    x0, eps = [0.6, 0.0, 0.8], 0.3
    want, betas = two_system_residual(fib, alpha, x0, eps, step)
    assert flow_commutation_residual(fib, alpha, x0, eps=eps,
                                     step=step) == want
    if step == DEFAULT_RK4_STEP:
        got = solve_evolution(alpha, eps, generator=fib.action_matrix,
                              times=list(FLOW_TIMES))
        assert got["beta"] == betas


# -- the transport engine -----------------------------------------------------------

ENGINE_TOL = 1e-12
X_START = [0.5, -0.2, 0.8]
# grid intervals both ways, and smoothstep-warped times as concat_split
# queries them (off the RK4 grid), paired with both ends of [0, 1]
GRID_INTERVALS = ((0.0, 0.25), (0.25, 0.75), (0.75, 0.3), (1.0, 0.0),
                  (0.0, 1.0))
WARPED = [float(smoothstep(u)) for u in (0.1, 0.37, 0.61, 0.93)]
OFF_GRID_INTERVALS = tuple(pair for s in WARPED
                           for pair in ((0.0, s), (s, 0.0), (1.0, s),
                                        (s, 1.0)))


def max_entry_diff(a, b):
    return max(abs(p - q) for p, q in zip(a, b))


@pytest.mark.parametrize("t0,t1", GRID_INTERVALS + OFF_GRID_INTERVALS)
def test_engine_transport_matches_direct_transport(geom, apath, t0, t1):
    bp = apath.base_path
    direct = parallel_transport(geom.connection, bp, X_START, t0, t1)
    got = Transport(geom.connection, bp).map(X_START, t0, t1)
    assert max_entry_diff(got, direct) < ENGINE_TOL


@pytest.mark.parametrize("t0,t1", ((0.75, 0.3), (0.0, WARPED[1]),
                                   (1.0, WARPED[2])))
def test_engine_differential_matches_dual_seeded_transport(geom, apath, t0,
                                                           t1):
    bp = apath.base_path
    jac = dm.jacobian(lambda y: parallel_transport(geom.connection, bp, y,
                                                   t0, t1), X_START)
    got = Transport(geom.connection, bp).jacobian(X_START, t0, t1)
    assert max(max_entry_diff(r, q) for r, q in zip(got, jac)) < ENGINE_TOL


def test_engine_escapes_where_direct_transport_does(geom, apath):
    # |x| = 2.76 is conserved by the so(3) rotation, and the fiber chart is
    # the box [-2, 2]^3, so the point leaves it early on
    x = [1.95, 1.95, 0.0]
    bp = apath.base_path
    with pytest.raises(IncompleteTransportError) as direct:
        parallel_transport(geom.connection, bp, x)
    with pytest.raises(IncompleteTransportError) as engine:
        Transport(geom.connection, bp).map(x, 0.0, 1.0)
    assert direct.value.t_escape == pytest.approx(0.082, abs=1e-9)
    assert engine.value.t_escape == direct.value.t_escape
    assert max_entry_diff(engine.value.point, direct.value.point) < ENGINE_TOL


@pytest.mark.parametrize("t0,on_grid", ((0.7, True), (0.70037, False)))
def test_engine_escapes_backwards_where_direct_transport_does(geom, apath, t0,
                                                              on_grid):
    # this point's orbit leaves the chart near t = 0.524 on the way back to
    # 0.  From a grid node both routes check the same nodes; from a time
    # between nodes the direct route checks its own grid, one step apart
    x = [1.822, 1.542, 1.381]
    bp = apath.base_path
    with pytest.raises(IncompleteTransportError) as direct:
        parallel_transport(geom.connection, bp, x, t0, 0.0)
    with pytest.raises(IncompleteTransportError) as engine:
        Transport(geom.connection, bp).map(x, t0, 0.0)
    got, want = engine.value, direct.value
    assert want.t_escape == pytest.approx(0.524, abs=1e-3)
    if on_grid:
        assert got.t_escape == pytest.approx(want.t_escape, abs=1e-12)
        assert max_entry_diff(got.point, want.point) < ENGINE_TOL
    else:
        assert abs(got.t_escape - want.t_escape) <= DEFAULT_RK4_STEP
        assert not geom.space.fiber.contains(got.point)


@pytest.mark.parametrize("t0,t1", GRID_INTERVALS + OFF_GRID_INTERVALS)
def test_reversed_path_reads_the_original_propagator(geom, apath, t0, t1):
    bp = apath.base_path
    rev = bp.reversed()
    direct = parallel_transport(geom.connection, rev, X_START, t0, t1)
    got = Transport(geom.connection, rev).map(X_START, t0, t1)
    assert max_entry_diff(got, direct) < ENGINE_TOL
    assert rev._propagators == {}
    assert list(bp._propagators) == [geom.connection]


@pytest.mark.parametrize("t0,t1", ((0.75, 0.3), (0.0, WARPED[1]),
                                   (1.0, WARPED[2])))
def test_reversed_path_differential_matches_dual_seeded_transport(
        geom, apath, t0, t1):
    rev = apath.base_path.reversed()
    jac = dm.jacobian(lambda y: parallel_transport(geom.connection, rev, y,
                                                   t0, t1), X_START)
    got = Transport(geom.connection, rev).jacobian(X_START, t0, t1)
    assert max(max_entry_diff(r, q) for r, q in zip(got, jac)) < ENGINE_TOL


@pytest.mark.parametrize("x,t0,t1", (([1.95, 1.95, 0.0], 0.0, 1.0),
                                     ([1.95, 1.95, 0.0], 1.0, 0.0),
                                     ([1.822, 1.542, 1.381], 0.3, 1.0)))
def test_reversed_path_escapes_in_its_own_time(geom, apath, x, t0, t1):
    rev = apath.base_path.reversed()
    with pytest.raises(IncompleteTransportError) as direct:
        parallel_transport(geom.connection, rev, x, t0, t1)
    with pytest.raises(IncompleteTransportError) as engine:
        Transport(geom.connection, rev).map(x, t0, t1)
    got, want = engine.value, direct.value
    assert got.t_escape == pytest.approx(want.t_escape, abs=1e-12)
    assert max_entry_diff(got.point, want.point) < ENGINE_TOL


def test_affine_connection_keeps_the_direct_route(geom, apath):
    # a constant term makes the coefficient affine in the fiber point, so no
    # propagator matrix represents its transport
    linear = geom.connection

    def coeff(b, x):
        rows = linear.coeff(b, x)
        return [[c + 0.3 for c in row] for row in rows]

    affine = Connection(geom.space, coeff, name="affine")
    bp = apath.base_path
    tr = Transport(affine, bp)
    direct = parallel_transport(affine, bp, X_START, 0.0, 0.7)
    assert max_entry_diff(direct, parallel_transport(
        linear, bp, X_START, 0.0, 0.7)) > 1e-2
    assert tr.map(X_START, 0.0, 0.7) == direct
    assert tr.jacobian(X_START, 0.7, 0.2) == dm.jacobian(
        lambda y: parallel_transport(affine, bp, y, 0.7, 0.2), X_START)


# -- work counters ------------------------------------------------------------------

def test_round_trip_queries_build_each_propagator_once(monkeypatch, geom):
    """The query sequence of the benchmark's round-trip op makes no
    dual-state transport, and integrates one propagator: the path's, which
    its reverse reads backwards."""
    apath = loop_apath(geom)    # the fixture's path has its propagator
    transport, build = fibration._transport, Transport._build
    dual_states, builds = [], []

    def counted_transport(connection, path, x0, *args):
        if any(isinstance(c, dm.Dual) for c in x0):
            dual_states.append(path)
        return transport(connection, path, x0, *args)

    def counted_build(self):
        builds.append((self.connection, self.path))
        return build(self)

    monkeypatch.setattr(fibration, "_transport", counted_transport)
    monkeypatch.setattr(Transport, "_build", counted_build)
    back = unsplit_apath(split_apath(apath))
    for t in (0.125, 0.425):
        back.fiber_path(t)
        back.covector_path(t)
    inv = unsplit_apath(inverse_split(split_apath(apath)))
    inv.fiber_path(dm.Dual(0.225, 1.0))
    assert dual_states == []
    assert len(builds) == 1   # the reversed path reads the original's


def count_rk4_steps(monkeypatch):
    """A list that grows by one entry per RK4 step taken."""
    step, steps = _numerics.rk4_step, []

    def counted(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(_numerics, "rk4_step", counted)
    return steps


def test_flow_commutation_evaluates_alpha_once_per_segment(monkeypatch):
    # one seeded evaluation at the array of a quarter's RK4 times drives ψ
    # and β through that quarter
    steps, calls = count_rk4_steps(monkeypatch), []

    def alpha(t, e):
        calls.append(len(t))
        return [(3 + e) * dm.sin(2 * math.pi * t), -e * t, 1.5]

    flow_commutation_residual(HamiltonianFiber.coadjoint_so3(), alpha,
                              [0.6, 0.0, 0.8], eps=0.3, step=1e-2)
    assert len(steps) == 100
    assert calls == [51] * len(FLOW_TIMES)


def counted_path(path, calls):
    """`path`, recording the shape of every time it is evaluated at."""
    return BasePath(lambda t: calls.append(np.shape(dm.value_of(t)))
                    or path.fn(t), name=path.name)


def test_curved_transport_evaluates_its_path_once(monkeypatch, geom,
                                                  apath):
    steps, calls, velocities = count_rk4_steps(monkeypatch), [], []
    velocity = BasePath.velocity

    def counted(self, t):
        velocities.append(t)
        return velocity(self, t)

    monkeypatch.setattr(BasePath, "velocity", counted)
    path = counted_path(apath.base_path, calls)
    parallel_transport(geom.connection, path, X_START, 0.0, 0.7)
    assert len(steps) == 700
    assert calls == [(1401,)]
    fibration.transport_samples(geom.connection, path, X_START,
                                [0.0, 0.25, 0.5])
    assert calls[1:] == [(501,), (501,)]     # one per `_transport`
    assert velocities == []


def test_built_path_evaluates_its_drive_once_per_integration(geom, apath):
    # building the path evaluates the drive once, at the 2001 RK4 times of
    # the run over [0, 1]; a time between nodes evaluates it once more, on
    # the three times of its short run, and a node time not at all
    calls, covectors = [], []
    cov = lambda t: covectors.append(np.shape(t)) or [0.2 + 0.1 * t,
                                                      -0.3 * t * t, 0.05]
    built = build_apath(geom, counted_path(apath.base_path, calls),
                        X_START, cov)
    built.fiber_path(0.0)      # node 0: x0 itself
    assert calls == covectors == [(2001,)]
    built.fiber_path(0.4004)   # between nodes 400 and 401
    built.fiber_path(rk4_times(0.0, 1.0, DEFAULT_RK4_STEP)[2 * 300])
    built.fiber_path(0.4004)
    assert calls == covectors == [(2001,), (3,), (3,)]


def test_a_built_path_answers_independently_of_query_order(geom):
    # every answer is read off the nodes of the one run over [0, 1], so a
    # time gives the same bits whatever was asked before it
    def hexes(path, t):
        return [v.hex() for c in path.fiber_path(t)
                for v in ((c.re, c.eps) if isinstance(c, dm.Dual) else (c,))]

    for t in (0.7, dm.Dual(0.7, 1.0)):
        fresh = hexes(loop_apath(geom), t)
        for earlier in ((0.3,), (0.9,), (0.3, dm.Dual(0.5, 1.0), 0.69)):
            path = loop_apath(geom)
            for s in earlier:
                path.fiber_path(s)
            assert hexes(path, t) == fresh, earlier


# -- the time tables against the per-time route they replace -------------------------

def memo_table(fn, t0, t1, step):
    """The per-time route the time tables replace: fn at one scalar time,
    once per distinct time in a row (RK4 asks each midpoint twice, and a
    step's end again as the next start).  A drop-in for
    `_numerics.time_table`."""
    last = []

    def row(t):
        if not last or last[0] != t:
            last[:] = [t, list(fn(t))]
        return last[1]

    return row


def per_time_route(monkeypatch):
    for module in (fibration, apath_module):
        monkeypatch.setattr(module, "time_table", memo_table)


#: inputs of arithmetic, sin and cos, where numpy equals math to the bit,
#: and inputs through tan, exp and log, where numpy may move by an ulp
TRIG_INPUTS = (
    lambda t: [0.4 * dm.sin(2 * math.pi * t) * t,
               0.3 * (1 - dm.cos(2 * math.pi * t))],
    lambda t: [0.2 + 0.1 * t, -0.3 * t * t, 0.15 * dm.sin(3 * t)],
    lambda t, e: [(3 + e) * dm.sin(2 * math.pi * t), 2.5 * dm.cos(
        3 * math.pi * t) - e * t, 1.5 * dm.sqrt(2.0 + dm.sin(5 * t + e))])
TRANSCENDENTAL_INPUTS = (
    lambda t: [0.4 * dm.tan(0.9 * t) * t, 0.3 * (1 - dm.exp(-t))],
    lambda t: [0.2 + 0.1 * dm.log(1 + t), -0.3 * t * t, 0.15 * dm.exp(-t)],
    lambda t, e: [(3 + e) * dm.exp(0.3 * t), dm.log(2 + t) - e * t,
                  1.5 * dm.tan(0.5 * t + e)])


def round_trip_numbers(geom, inputs):
    """Round trip, dual-time inverse query, propagator grid and a direct
    transport of the so(3)* model along fresh paths, as one float list."""
    bp = BasePath(inputs[0], name="loop")
    ap = build_apath(geom, bp, X_START, inputs[1])
    back = unsplit_apath(split_apath(ap))
    out = []
    for t in (0.125, 0.3, 0.425, 0.7, 1.0):
        out += [dm.value_of(c) for c in back.fiber_path(t)]
        out += [dm.value_of(c) for c in back.covector_path(t)]
    inv = unsplit_apath(inverse_split(split_apath(ap)))
    out += [c for d in inv.fiber_path(dm.Dual(0.225, 1.0)) for c in
            (d.re, d.eps)]
    out += Transport(geom.connection, bp)._grid()[1].ravel().tolist()
    out += parallel_transport(geom.connection, bp, X_START, 0.0, 0.7)
    return [float(c) for c in out]


def flow_numbers(inputs):
    fib = HamiltonianFiber.coadjoint_so3()
    residual = flow_commutation_residual(fib, inputs[2], [0.6, 0.0, 0.8],
                                         eps=0.3, step=1e-3)
    betas = solve_evolution(inputs[2], 0.3, generator=fib.action_matrix,
                            times=list(FLOW_TIMES))["beta"]
    return residual, [c for b in betas for c in b]


def test_tables_match_the_per_time_route_to_the_bit(monkeypatch, geom):
    table = round_trip_numbers(geom, TRIG_INPUTS), flow_numbers(TRIG_INPUTS)
    per_time_route(monkeypatch)
    want = round_trip_numbers(geom, TRIG_INPUTS), flow_numbers(TRIG_INPUTS)
    assert [c.hex() for c in table[0]] == [c.hex() for c in want[0]]
    assert table[1][0].hex() == want[1][0].hex()
    assert [c.hex() for c in table[1][1]] == [c.hex() for c in want[1][1]]


def test_tables_match_the_per_time_route_through_tan_exp_and_log(
        monkeypatch, geom):
    table = (round_trip_numbers(geom, TRANSCENDENTAL_INPUTS),
             flow_numbers(TRANSCENDENTAL_INPUTS))
    per_time_route(monkeypatch)
    want = (round_trip_numbers(geom, TRANSCENDENTAL_INPUTS),
            flow_numbers(TRANSCENDENTAL_INPUTS))
    for got, ref in zip(table[0] + table[1][1], want[0] + want[1][1]):
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-300)
    # the residual is a difference of O(1) terms at the roundoff floor
    assert abs(table[1][0] - want[1][0]) < 1e-14


def test_a_path_undefined_past_its_escape_escapes_as_before(monkeypatch,
                                                             geom):
    # log(0.6 − t) is undefined after t = 0.6; the transport leaves the
    # chart |x| ≤ 2 near t = 0.52, before the per-time route asks a later
    # time, while the table evaluates the whole grid at once
    space = FiberedSpace(geom.space.base,
                         CoordinateDomain.box([(-2.0, 2.0)], name="line"))
    conn = Connection(space, lambda b, x: [[1.0, 0.0]])
    path = BasePath(lambda t: [dm.log(0.6 - t), 0.0], name="log")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompleteTransportError) as table:
            parallel_transport(conn, path, [0.0])
    per_time_route(monkeypatch)
    with pytest.raises(IncompleteTransportError) as want:
        parallel_transport(conn, path, [0.0])
    assert table.value.t_escape == want.value.t_escape
    assert 0.51 < want.value.t_escape < 0.53
    assert table.value.point == pytest.approx(want.value.point, rel=1e-13)


def test_flow_commutation_takes_no_seeded_pass(monkeypatch):
    # the coadjoint fiber holds its generators, so action_matrix sums them
    # instead of taking a three-pass Jacobian at every RK4 stage
    seeded_pass, calls = dm._seeded_pass, []

    def counted(*args):
        calls.append(args)
        return seeded_pass(*args)

    monkeypatch.setattr(dm, "_seeded_pass", counted)
    fib = HamiltonianFiber.coadjoint_so3()
    alpha = lambda t, e: [(3 + e) * dm.sin(2 * math.pi * t), -e * t, 1.5]
    flow_commutation_residual(fib, alpha, [0.6, 0.0, 0.8], eps=0.3,
                              step=1e-2)
    assert calls == []
