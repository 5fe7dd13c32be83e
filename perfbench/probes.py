"""Layer probes: the rows of ROADMAP's baseline table, timed by this
benchmark instead of by hand.  Each probe reports the median of a few
repeats, untraced."""

from __future__ import annotations

import math
import statistics
import timeit

from fiberdirac import coupling, fibration, monodromy
from fiberdirac import dual as dm
from fiberdirac.yangmills import hopf_example, so3_coadjoint_example

REPEATS = 5


def _median_time(fn, repeats=REPEATS):
    out = []
    for _ in range(repeats):
        start = timeit.default_timer()
        fn()
        out.append(timeit.default_timer() - start)
    return statistics.median(out)


def dual_mul_ns(number=100_000):
    a, b = dm.Dual(1.3, 0.7), dm.Dual(0.4, 1.1)
    times = timeit.repeat("a * b", globals={"a": a, "b": b}, number=number,
                          repeat=REPEATS)
    return statistics.median(times) / number * 1e9


def rk4_step_us(dual_state, steps=200):
    """One so(3)* transport step (RK4 plus the chart guard), float or
    dual-seeded state, over the loop used by test_apath.py."""
    geom = so3_coadjoint_example()
    path = fibration.BasePath(
        lambda t: [0.4 * dm.sin(2 * math.pi * t) * t,
                   0.3 * (1 - dm.cos(2 * math.pi * t))], name="loopish")
    x0 = [0.5, -0.2, 0.8]
    if dual_state:
        x0 = [dm.Dual(c, 1.0 if i == 0 else 0.0) for i, c in enumerate(x0)]
    h = 1e-3
    run = lambda: fibration.parallel_transport(geom.connection, path, x0,
                                               0.0, steps * h, step=h)
    return _median_time(run) / steps * 1e6


def conditions_ms_per_pt(geom, count):
    run = lambda: coupling.check_coupling_conditions(geom, count=count)
    return _median_time(run, 3) / count * 1e3


def oracle_ms_per_pt(geom, count):
    run = lambda: coupling.dirac_closure_residual(geom, count=count)
    return _median_time(run, 3) / count * 1e3


def node_us(side=9):
    """One sphere-family node: the point and its two dual-seeded partials."""
    fam = monodromy.round_sphere(65, 65)
    grid = [(k / (side + 1), j / (side + 1)) for k in range(1, side + 1)
            for j in range(1, side + 1)]

    def run():
        for t, e in grid:
            fam.point(t, e)
            fam.d_t(t, e)
            fam.d_eps(t, e)
    return _median_time(run) / len(grid) * 1e6


def run_probes():
    hopf = hopf_example(lambda x: 2.0 * x + 1.0)
    so3 = so3_coadjoint_example()
    return {
        "dual.mul_ns": dual_mul_ns(),
        "numerics.rk4_step_float_us": rk4_step_us(False),
        "numerics.rk4_step_dual_us": rk4_step_us(True),
        "probe.conditions_hopf_ms_per_pt": conditions_ms_per_pt(hopf, 32),
        "probe.conditions_so3_ms_per_pt": conditions_ms_per_pt(so3, 8),
        "probe.oracle_hopf_ms_per_pt": oracle_ms_per_pt(hopf, 8),
        "probe.oracle_so3_ms_per_pt": oracle_ms_per_pt(so3, 8),
        "monodromy.node_us": node_us(),
    }
