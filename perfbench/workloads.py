"""Seeded workload generators and the op runner with its correctness gate.

A workload is a stream of passes.  A pass is a fixed schedule of op
templates in a seeded order, with seeded parameters, so every pass of every
seed does the same amount of work of each kind and the timing statistics of
whole passes are comparable across seeds.  Every op carries the outcome it
must produce, derived from how the op was built (a slope class, a triple
broken on purpose, a stated tolerance), never from running the program.

Ops reach the package only through public entry points:
`fiberdirac.cli.run_scenario` (what `fiberdirac check` runs after loading
the JSON) and the `apath` / `monodromy` APIs.  Module attributes are looked
up at call time so the tracer's patches apply to these calls too.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import nullcontext
from pathlib import Path

from fiberdirac import apath, cli, monodromy
from fiberdirac import dual as dm
from fiberdirac.charts import CoordinateDomain
from fiberdirac.coupling import GeometricData
from fiberdirac.fibration import (BasePath, Connection, FiberedSpace,
                                  HorizontalForm, VerticalBivector)
from fiberdirac.yangmills import so3_coadjoint_example

WORKLOADS = ("lattice-sweep", "pointwise-verify", "transport-paths")

SCENARIO_DIR = Path(cli.__file__).parent / "scenarios"

# bundled scenarios that pointwise-verify replays with a seeded `seed`;
# each is shipped as a passing example (README acceptance table)
BUNDLED_POINTWISE = ("hopf-coupling", "oracle-so3", "oracle-broken",
                     "splitting-hopf", "splitting-so3", "ymh-hopf", "ymh-so3",
                     "groupoid-split", "groupoid-twisted")

ROUNDTRIP_TOL = 1e-9        # test_apath.py's round-trip tolerance
CONSISTENCY_TOL = 1e-6      # curved transgression, transport_consistency
RESIDUAL_FLOOR = 1e-16      # tol_headroom_decades treats smaller residuals as this
ANY_FAIL = "any-fail"       # expectation: some check fails, whichever it is


class Op:
    """One unit of work: a kind, its inputs and its expected outcome.

    `scenario` ops go through `cli.run_scenario`; `api` ops call `runner`
    with `params`.  `expect` has the overall "verdict", optionally a list
    of [check-name prefix, verdict or None] in report order ("checks"),
    and report extras that must match exactly ("extras").  With no check
    list every check must PASS; with ANY_FAIL at least one must FAIL.
    """

    __slots__ = ("kind", "scenario", "runner", "params", "expect")

    def __init__(self, kind, expect, scenario=None, runner=None, params=None):
        self.kind = kind
        self.scenario = scenario
        self.runner = runner
        self.params = params
        self.expect = expect

    def describe(self):
        if self.scenario is not None:
            return json.dumps(self.scenario, sort_keys=True)
        return json.dumps(self.params, sort_keys=True)


def _fmt(x):
    return f"{x:.4g}"


def _pick(rng, lo, hi):
    """A seeded coefficient, rounded so the expression text and the value
    the expectation is derived from are the same number."""
    return float(_fmt(rng.uniform(lo, hi)))


def _poly(terms):
    """Render [(coefficient, monomial), ...] as an expression string."""
    out = []
    for c, mono in terms:
        out.append(_fmt(c) if mono == "1" else f"{_fmt(c)}*{mono}")
    return " + ".join(out)


def _pass_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# -- lattice-sweep --------------------------------------------------------------------
# Flat transgression only: dual scalar arithmetic, sphere-family nodes,
# Simpson and HorizontalForm.value; no RK4 step and no coupling code.
# With k radii an op repeats (k-1)/k of its family-node evaluations.

_LATTICE_RADII = (2, 3, 4, 5, 3, 4)      # radius counts of the 64x64 ops
_LATTICE_CLASSES = ("linear", "quadratic", "irrational") * 2
_IRRATIONAL = ("pi", "sqrt(2)", "exp(1)", "sqrt(3)", "pi/3", "log(3)")


def _radii(rng, k):
    return [n / 10.0 for n in sorted(rng.sample(range(2, 23), k))]


def _lattice_op(rng, f_class, k, grid):
    radii = _radii(rng, k)
    scen = {"name": f"lattice-{f_class}", "kind": "so3-integrability",
            "radii": radii, "include_origin": False, "grid": [grid, grid]}
    b = _pick(rng, 0.0, 2.0)
    if f_class == "linear":
        p, q = rng.randint(1, 9), rng.randint(1, 5)
        scen["f"] = f"{p}/{q}*r + {_fmt(b)}"
        scen["exact_slope"] = f"{p}/{q}"
        verdict, constancy = "INTEGRABLE-CANDIDATE", "PASS"
    elif f_class == "quadratic":
        # generator 4*pi*(2c r + d) moves by >= 4*pi*c*0.1 across radii at
        # least 0.1 apart, far above the 1e-3 relative constancy tolerance
        c, d = _pick(rng, 0.5, 1.5), _pick(rng, -1.0, 2.0)
        scen["f"] = _poly([(c, "r*r"), (d, "r"), (b, "1")])
        verdict, constancy = "NON-INTEGRABLE", "FAIL"
    else:
        scen["f"] = f"{rng.choice(_IRRATIONAL)}*r + {_fmt(b)}"
        verdict, constancy = "INCONCLUSIVE", "PASS"
    scen["expected_verdict"] = verdict
    expect = {"verdict": constancy,
              "checks": [["generator_constancy", constancy],
                         ["verdict_match", "PASS"]],
              "extras": {"integrability": verdict}}
    return Op(f"so3-integrability-{grid}", expect, scenario=scen)


def _lattice_criterion3_op(rng):
    """The criterion-3 configuration: 128x128, three radii plus the origin,
    a rational linear f whose generator is known in closed form."""
    p, q = rng.randint(1, 9), rng.randint(1, 5)
    scen = {"name": "lattice-128", "kind": "so3-integrability",
            "f": f"{p}/{q}*r + {_fmt(_pick(rng, 0.0, 2.0))}",
            "radii": _radii(rng, 3), "include_origin": True,
            "grid": [128, 128], "exact_slope": f"{p}/{q}",
            "expected_generator": f"4*pi*{p}/{q}",
            "expected_verdict": "INTEGRABLE-CANDIDATE",
            "tolerances": {"generator_constancy": 1e-4,
                           "generator_value": 1e-4,
                           "origin_degenerate": 1e-8}}
    expect = {"verdict": "PASS",
              "checks": [["generator_constancy", "PASS"],
                         ["origin_degenerate", "PASS"],
                         ["generator_value", "PASS"],
                         ["verdict_match", "PASS"]],
              "extras": {"integrability": "INTEGRABLE-CANDIDATE"}}
    return Op("so3-integrability-128", expect, scenario=scen)


def _transgress_op(rng, n_families):
    thetas = sorted(rng.sample(range(40, 260), n_families))
    families = [{"family": "cap", "theta": t / 100.0, "nodes": [65, 65]}
                for t in thetas]
    if rng.random() < 0.5:
        families[0] = {"family": "round-sphere", "nodes": [65, 65]}
    f = _poly([(_pick(rng, 0.5, 3.0), "x"), (_pick(rng, -1.0, 1.0), "1")])
    if rng.random() < 0.5:
        f = _poly([(_pick(rng, 0.2, 1.0), "x*x"), (_pick(rng, -1.0, 1.0), "x"),
                   (_pick(rng, 0.5, 2.0), "1")])
    scen = {"name": "transgress-families", "kind": "transgress", "f": f,
            "x0": [_pick(rng, -1.2, 1.2)], "families": families,
            "tolerances": {"oracle": 1e-4}}
    expect = {"verdict": "PASS",
              "checks": [["oracle_", "PASS"]] * n_families}
    return Op(f"transgress-{n_families}", expect, scenario=scen)


def _sphere_area_op(rng):
    scen = {"name": "sphere-area", "kind": "transgress",
            "f": _poly([(_pick(rng, 0.5, 3.0), "x"), (1.0, "1")]),
            "x0": [_pick(rng, -1.2, 1.2)],
            "area": {"family": "round-sphere", "nodes": [65, 65],
                     "expected": "4*pi"},
            "tolerances": {"sphere_area": 1e-6}}
    return Op("sphere-area", {"verdict": "PASS",
                              "checks": [["sphere_area", "PASS"]]},
              scenario=scen)


def lattice_pass(seed, index):
    rng = _pass_rng("lattice-sweep", seed, index)
    radii = list(_LATTICE_RADII)
    rng.shuffle(radii)
    ops = [_lattice_op(rng, c, k, 64)
           for c, k in zip(_LATTICE_CLASSES, radii)]
    ops.append(_lattice_criterion3_op(rng))
    ops += [_sphere_area_op(rng)] + [_transgress_op(rng, n) for n in (1, 2, 3)]
    rng.shuffle(ops)
    return ops


# -- pointwise-verify -----------------------------------------------------------------
# Short coupling / YMH / groupoid checks: expression compile, sampling,
# dual jacobians, SVD / lstsq.  No transgression and no curved transport.
# Inline triples come from four families valid by construction; a broken
# variant violates exactly one named condition.

def _bundled(name):
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text("utf-8"))


def _triple_flat_plane(rng, broken):
    """2D base, 2D fiber, flat transport; pi depends on the fiber only and
    omega on the base only, so all four conditions hold.  Broken: pi picks
    up a base term (transport invariance) or omega a fiber term under a
    nowhere-zero pi (curvature match)."""
    pi = [(_pick(rng, 2.0, 3.0), "1"), (_pick(rng, -0.3, 0.3), "x1"),
          (_pick(rng, -0.3, 0.3), "x2*x2"), (_pick(rng, -0.3, 0.3), "x1*x2")]
    omega = [(_pick(rng, 0.5, 2.0), "1"), (_pick(rng, -1.0, 1.0), "b1*b2"),
             (_pick(rng, -1.0, 1.0), "b1*b1")]
    bad = None
    if broken == "transport":
        pi.append((_pick(rng, 0.5, 1.0), "b1"))
        bad = "transport_invariance"
    elif broken == "curvature":
        omega.append((_pick(rng, 0.5, 1.0), "x1"))
        bad = "curvature_match"
    fields = {"name": "flat-plane", "base_bounds": [[-1.0, 1.0]] * 2,
              "fiber_bounds": [[-1.5, 1.5]] * 2,
              "pi": [_poly(pi)], "omega": [_poly(omega)]}
    return fields, bad


def _triple_gradient_transport(rng, broken):
    """2D base, 1D fiber, pi = 0, transport A_a = d_a phi(b) (flat, fiber
    independent), omega arbitrary.  Broken: a fiber-linear shear term makes
    the transport curved while pi = 0 (curvature match)."""
    a1, a2, a3 = (_pick(rng, -0.8, 0.8) for _ in range(3))
    # phi = a1 b1 b2 + a2 b1^2 + a3 b2
    row = [_poly([(a1, "b2"), (2.0 * a2, "b1")]), _poly([(a1, "b1"), (a3, "1")])]
    bad = None
    if broken == "curvature":
        row[0] += f" + {_fmt(_pick(rng, 0.5, 1.0))}*x1*b2"
        bad = "curvature_match"
    omega = _poly([(_pick(rng, 0.5, 2.0), "1"), (_pick(rng, -1.0, 1.0), "x1*b1"),
                   (_pick(rng, -0.5, 0.5), "x1*x1")])
    fields = {"name": "gradient-transport", "base_bounds": [[-1.0, 1.0]] * 2,
              "fiber_bounds": [[-1.5, 1.5]], "connection": [row],
              "omega": [omega]}
    return fields, bad


def _triple_three_base(rng, broken):
    """3D base, 1D fiber, flat, pi = 0; omega_ab depends only on b_a, b_b
    and the fiber, so its base differential vanishes.  Broken: omega_12
    picks up a b3 term (covariant closure)."""
    def comp(u, v):
        return [(_pick(rng, 0.5, 1.5), "1"), (_pick(rng, -0.5, 0.5), f"{u}*{v}"),
                (_pick(rng, -0.5, 0.5), f"x1*{u}")]
    w12, w13, w23 = comp("b1", "b2"), comp("b1", "b3"), comp("b2", "b3")
    bad = None
    if broken == "closure":
        w12.append((_pick(rng, 0.5, 1.0), "b3"))
        bad = "covariant_closure"
    fields = {"name": "three-base", "base_bounds": [[-1.0, 1.0]] * 3,
              "fiber_bounds": [[-1.0, 1.0]],
              "omega": [_poly(w12), _poly(w13), _poly(w23)]}
    return fields, bad


def _triple_so3_rotation(rng, broken):
    """1D base, so(3)* fiber with the linear Poisson structure, transport
    by the rotation x -> x cross xi(b) (a Poisson automorphism).  Broken: a
    radial stretch term (transport invariance)."""
    xi = [_poly([(_pick(rng, -1.0, 1.0), "1"), (_pick(rng, -0.5, 0.5), "b1")])
          for _ in range(3)]
    conn = [[f"x2*({xi[2]}) - x3*({xi[1]})"],
            [f"x3*({xi[0]}) - x1*({xi[2]})"],
            [f"x1*({xi[1]}) - x2*({xi[0]})"]]
    bad = None
    if broken == "transport":
        s = _fmt(_pick(rng, 0.3, 0.6))
        conn = [[f"{row[0]} + {s}*x{i + 1}"] for i, row in enumerate(conn)]
        bad = "transport_invariance"
    fields = {"name": "so3-rotation", "base_bounds": [[-1.0, 1.0]],
              "fiber_bounds": [[-2.0, 2.0]] * 3, "connection": conn,
              "pi": ["-x3", "x2", "-x1"], "omega": []}
    return fields, bad


_CONDITIONS = ("vertical_poisson", "transport_invariance",
               "covariant_closure", "curvature_match")

# (family, broken condition or None): every family twice valid and once
# broken.  All inline ops also run the closure-oracle agreement check,
# which keeps their costs in one band around the workload's median.
_INLINE = tuple((family, broken)
                for family, bad in ((_triple_flat_plane, "curvature"),
                                    (_triple_gradient_transport, "curvature"),
                                    (_triple_three_base, "closure"),
                                    (_triple_so3_rotation, "transport"))
                for broken in (None, None, bad))


def _inline_op(rng, family, broken):
    fields, bad = family(rng, broken)
    scen = {"name": f"inline-{fields['name']}", "kind": "coupling-check",
            "fields": fields, "samples": 16,
            "checks": ["conditions", "oracle-agreement"],
            "seed": rng.randrange(10000)}
    expected = [[c, "PASS" if bad is None else ("FAIL" if c == bad else None)]
                for c in _CONDITIONS]
    # both routes see the same (possibly broken) triple and must agree
    expected.append(["oracle_agreement", "PASS"])
    expect = {"verdict": "PASS" if bad is None else "FAIL", "checks": expected}
    kind = f"inline-{fields['name']}" + ("-broken" if bad else "")
    return Op(kind, expect, scenario=scen)


def pointwise_pass(seed, index):
    rng = _pass_rng("pointwise-verify", seed, index)
    ops = []
    for name in BUNDLED_POINTWISE:
        scen = _bundled(name)
        scen["seed"] = rng.randrange(10000)
        ops.append(Op(f"bundled-{name}", {"verdict": "PASS"}, scenario=scen))
    ops += [_inline_op(rng, fam, broken) for fam, broken in _INLINE]
    rng.shuffle(ops)
    return ops


def defect_probe(seed, index):
    """An inline triple that hits a live input-robustness defect: an
    overflow whose residual is NaN, or `log` of a coordinate that takes
    non-positive values.  Either way the outcome the program owes is a
    classified FAIL (verdict FAIL, exit code 1, no exception)."""
    rng = _pass_rng("defect-probe", seed, index)
    fields, _ = _triple_flat_plane(rng, None)
    if rng.random() < 0.5:
        big = "x1*x2*1e200*1e200"
        fields["pi"] = [f"{fields['pi'][0]} + {big} - {big}"]
        kind = "defect-nan-residual"
    else:
        fields["omega"] = [f"{fields['omega'][0]} + log(x1)"]
        kind = "defect-log-domain"
    scen = {"name": kind, "kind": "coupling-check", "fields": fields,
            "samples": 16, "checks": ["conditions"],
            "seed": rng.randrange(10000)}
    return Op(kind, {"verdict": "FAIL", "checks": ANY_FAIL}, scenario=scen)


# -- transport-paths ------------------------------------------------------------------
# RK4 transport used with dual state (flow commutation, apath round trip)
# and with float state (curved transgression).

def _flow_op(rng):
    alpha = [f"({_fmt(_pick(rng, 2.0, 4.0))}+e)*sin({_fmt(_pick(rng, 1.5, 2.5))}*pi*t)",
             f"{_fmt(_pick(rng, 1.5, 3.0))}*cos({_fmt(_pick(rng, 2.0, 3.5))}*pi*t)-e*t",
             f"{_fmt(_pick(rng, 1.0, 2.0))}*sin({_fmt(_pick(rng, 3.0, 6.0))}*t+e)"]
    v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v)) or 1.0
    x0 = [float(_fmt(c / norm)) for c in v]
    scen = {"name": "flow-commutation", "kind": "apath", "alpha": alpha,
            "x0": x0, "eps": _pick(rng, 0.1, 0.5), "step": 0.001,
            "halving": True,
            "tolerances": {"flow_commutation": 1e-6, "halving_gain": 0.125}}
    expect = {"verdict": "PASS",
              "checks": [["flow_commutation", "PASS"], ["halving_gain", "PASS"]]}
    return Op("apath-flow-commutation", expect, scenario=scen)


def _roundtrip_op(rng):
    params = {"base": [_pick(rng, 0.2, 0.5), _pick(rng, -0.2, 0.2),
                       _pick(rng, 0.15, 0.35)],
              "cov": [_pick(rng, -0.3, 0.3) for _ in range(4)],
              "x0": [_pick(rng, -0.8, 0.8) for _ in range(3)],
              # fixed query times: RK4 work grows with t, so seeded times
              # would make the op's cost depend on the seed
              "times": [0.125, 0.425], "dual_time": 0.225}
    checks = [["roundtrip_fiber", "PASS"], ["roundtrip_covector", "PASS"],
              ["inverse_value", "PASS"], ["inverse_rate", "PASS"]]
    return Op("apath-roundtrip", {"verdict": "PASS", "checks": checks},
              runner=run_roundtrip, params=params)


def _curved_op(rng):
    params = {"conn": [_pick(rng, -0.5, 0.5) for _ in range(5)],
              "omega": [_pick(rng, 0.5, 1.5), _pick(rng, -0.5, 0.5)],
              "x0": _pick(rng, -0.8, 0.8)}
    checks = [["transport_consistency", "PASS"], ["endpoint_finite", "PASS"]]
    return Op("curved-transgress", {"verdict": "PASS", "checks": checks},
              runner=run_curved_transgress, params=params)


def transport_pass(seed, index):
    rng = _pass_rng("transport-paths", seed, index)
    ops = [_flow_op(rng), _roundtrip_op(rng), _curved_op(rng)]
    rng.shuffle(ops)
    return ops


def _check(name, residual, tolerance):
    ok = residual is not None and residual < tolerance
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "verdict": "PASS" if ok else "FAIL"}


def _report(checks):
    verdict = "PASS" if all(c["verdict"] == "PASS" for c in checks) else "FAIL"
    return {"checks": checks, "verdict": verdict}, (0 if verdict == "PASS" else 1)


def _worst(values):
    """max that propagates NaN (the builtin keeps its first argument when a
    comparison with NaN is false, which would hide a NaN residual)."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _max_diff(a, b):
    return _worst(abs(dm.value_of(x) - dm.value_of(y)) for x, y in zip(a, b))


def run_roundtrip(params, tracer=None):
    """unsplit(split(ap)) against ap at float times, and one dual-time
    query of unsplit(inverse_split(split(ap))) against ap.inverse()."""
    a, b, c = params["base"]
    c0, c1, c2, c3 = params["cov"]
    geom = so3_coadjoint_example()
    bp = BasePath(lambda t: [a * dm.sin(2 * math.pi * t) * t + b * t,
                             c * (1 - dm.cos(2 * math.pi * t))], name="seeded")
    cov = lambda t: [c0 + c1 * t, c2 * t * t, c3 * dm.sin(3 * t)]
    ap = apath.build_apath(geom, bp, params["x0"], cov, name="ap")
    back = apath.unsplit_apath(apath.split_apath(ap))
    fib = covec = 0.0
    for t in params["times"]:
        with _query(tracer):
            got_x, got_a = back.fiber_path(t), back.covector_path(t)
        fib = _worst([fib, _max_diff(got_x, ap.fiber_path(t))])
        covec = _worst([covec, _max_diff(got_a, ap.covector_path(t))])
    inv = apath.unsplit_apath(apath.inverse_split(apath.split_apath(ap)))
    td = dm.Dual(params["dual_time"], 1.0)
    with _query(tracer):
        got = inv.fiber_path(td)
    want = ap.inverse().fiber_path(td)
    value = _max_diff(got, want)
    rate = _worst(abs(dm.value_of(x.eps) - dm.value_of(y.eps))
                  for x, y in zip(got, want))
    return _report([_check("roundtrip_fiber", fib, ROUNDTRIP_TOL),
                    _check("roundtrip_covector", covec, ROUNDTRIP_TOL),
                    _check("inverse_value", value, ROUNDTRIP_TOL),
                    _check("inverse_rate", rate, ROUNDTRIP_TOL)])


def _query(tracer):
    return tracer.span("apath.query") if tracer is not None else nullcontext()


def curved_geometry(params):
    """Round-sphere base (stereographic chart), line fiber, a transport
    whose coefficients decay like the round density towards the chart
    pole, and omega = (w0 + w1 x) * round density."""
    k1, k2, k3, k4, k5 = params["conn"]
    w0, w1 = params["omega"]
    space = FiberedSpace(CoordinateDomain.sphere(),
                         CoordinateDomain.box([(-3.0, 3.0)], name="line"))

    def coeff(bb, x):
        s = 1.0 + bb[0] * bb[0] + bb[1] * bb[1]
        d = 1.0 / (s * s)
        return [[(k1 * x[0] + k2) * bb[1] * d + k3 * d,
                 (k4 * x[0] + k5) * bb[0] * d]]

    def omega(p):
        s = 1.0 + p[0] * p[0] + p[1] * p[1]
        return [(w0 + w1 * p[2]) * 4.0 / (s * s)]

    return GeometricData(space, Connection(space, coeff, name="pole-decaying"),
                         VerticalBivector(space, lambda p: [], name="zero"),
                         HorizontalForm(space, 2, omega, name="weighted-round"))


def run_curved_transgress(params, tracer=None):
    geom = curved_geometry(params)
    path = monodromy.transgress(geom, monodromy.round_sphere(17, 17),
                                [params["x0"]], step=2e-3)
    consistency = path.transport_consistency(step=2e-3)
    finite = all(math.isfinite(c) for c in path.endpoint())
    return _report([_check("transport_consistency", consistency,
                           CONSISTENCY_TOL),
                    _check("endpoint_finite", 0.0 if finite else 1.0, 0.5)])


PASSES = {"lattice-sweep": lattice_pass, "pointwise-verify": pointwise_pass,
          "transport-paths": transport_pass}


# -- running and verifying --------------------------------------------------------------

def execute(op, tracer=None):
    """Run one op; returns (report or None, exit code or None, error text)."""
    try:
        if op.scenario is not None:
            report, code = cli.run_scenario(json.loads(json.dumps(op.scenario)))
        else:
            report, code = op.runner(op.params, tracer)
    except Exception as exc:       # an unclassified failure is a wrong op
        return None, None, f"{type(exc).__name__}: {exc}"
    return report, code, None


def verify(op, report, code, error):
    """Compare an outcome with the op's expectation.

    Returns (mismatches, headroom): a list of human-readable differences
    (empty when the op is right) and the smallest log10(tolerance /
    residual) over the checks expected to PASS (None if there are none).
    """
    exp = op.expect
    if error is not None:
        return [f"expected verdict {exp['verdict']}, got exception {error}"], None
    bad = []
    if report["verdict"] != exp["verdict"]:
        bad.append(f"verdict: expected {exp['verdict']}, got {report['verdict']}")
    if code != (0 if exp["verdict"] == "PASS" else 1):
        bad.append(f"exit code {code} for expected verdict {exp['verdict']}")
    checks = report["checks"]
    wanted = exp.get("checks")
    if wanted == ANY_FAIL:
        if all(c["verdict"] == "PASS" for c in checks):
            bad.append("checks: expected a failing check, all passed")
        wanted = []
    elif wanted is None:
        wanted = [[c["name"], "PASS"] for c in checks] if checks else \
            [["<any check>", "PASS"]]
    elif len(wanted) != len(checks):
        bad.append(f"checks: expected {len(wanted)}, got "
                   f"{[c['name'] for c in checks]}")
    headroom = None
    for (prefix, verdict), chk in zip(wanted, checks):
        if not chk["name"].startswith(prefix):
            bad.append(f"check order: expected {prefix}*, got {chk['name']}")
        elif verdict is not None and chk["verdict"] != verdict:
            bad.append(f"{chk['name']}: expected {verdict}, got "
                       f"{chk['verdict']} (residual {chk['residual']})")
        if verdict == "PASS" and chk.get("residual") is not None:
            h = math.log10(chk["tolerance"] / max(chk["residual"],
                                                  RESIDUAL_FLOOR))
            headroom = h if headroom is None else min(headroom, h)
    for key, value in exp.get("extras", {}).items():
        if report.get(key) != value:
            bad.append(f"{key}: expected {value}, got {report.get(key)}")
    return bad, headroom


def run_op(op, tracer=None):
    """Execute and verify one op; returns (seconds, mismatches, headroom)."""
    start = time.perf_counter()
    report, code, error = execute(op, tracer)
    elapsed = time.perf_counter() - start
    bad, headroom = verify(op, report, code, error)
    return elapsed, bad, headroom


# -- set-up ---------------------------------------------------------------------------

def expressions(scenario):
    """(source, variables) for every expression a scenario carries, in the
    variables `cli` compiles it over."""
    kind = scenario["kind"]
    out = []
    if kind == "so3-integrability":
        out.append((scenario["f"], ["r"]))
        if "expected_generator" in scenario:
            out.append((scenario["expected_generator"], []))
    elif kind == "transgress":
        out.append((scenario.get("f", "x"), ["x"]))
        if "area" in scenario:
            out.append((str(scenario["area"].get("expected", "4*pi")), []))
    elif kind == "apath":
        out += [(e, ["t", "e"]) for e in scenario.get("alpha", [])]
    elif "fields" in scenario:
        cfg = scenario["fields"]
        nb = 2 if cfg.get("base_chart") == "sphere" else len(cfg["base_bounds"])
        coords = [f"b{i + 1}" for i in range(nb)] + \
                 [f"x{i + 1}" for i in range(len(cfg["fiber_bounds"]))]
        exprs = list(cfg.get("omega", [])) + list(cfg.get("pi") or [])
        exprs += [e for row in cfg.get("connection") or [] for e in row]
        out += [(e, coords) for e in exprs]
    elif "f" in scenario:
        out.append((scenario["f"], ["x"]))
    return out


def prepare(ops):
    """What a `fiberdirac check` user pays before the run: parse each
    scenario from JSON text and compile its expressions."""
    count = 0
    for op in ops:
        if op.scenario is None:
            continue
        scen = json.loads(json.dumps(op.scenario))
        for src, variables in expressions(scen):
            cli.compile_expression(src, variables)
            count += 1
    return count
