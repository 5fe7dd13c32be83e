"""Batch front end: scenario files in, structured reports out.

A scenario is a JSON object with a `name`, a `kind`, and kind-specific
inputs; inline smooth fields are arithmetic expressions over the chart
coordinates, parsed by a small whitelisted grammar (identifiers, + − × ÷,
integer or float powers, the shared function library, and the constant
pi).  Reports are deterministic for a fixed scenario and seed: identical
runs produce byte-identical JSON apart from the wall-time field.

Exit codes: 0 when every check passes, 1 when any check fails (including
numerical escapes, which appear as a named failing check), 2 on input
errors (parse or validation problems, reported with line/field context).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import time

from . import __version__
from . import dual as dm
from . import fields
from ._numerics import worst
from .charts import CoordinateDomain
from .coupling import (GeometricData, assemble_dirac,
                       check_coupling_conditions, dirac_closure_residual,
                       leaf_two_form, splitting_bracket_residual)
from .fibration import (Connection, FiberedSpace, FlatConnection,
                        HorizontalForm, IncompleteTransportError,
                        VerticalBivector)
from .apath import flow_commutation_residual
from .groupoid import (PairForm, PairGroupoid, coupling_form,
                       integrated_data_check, multiplicativity_residual,
                       pair_form, source_target_orthogonality)
from .monodromy import (FAMILIES, cap, integrability_verdict, round_sphere,
                        so3_lattice, transgress, transgress_flat)
from .yangmills import EXAMPLES, HamiltonianFiber, gauge_transition_check

KINDS = ("coupling-check", "ymh-build", "transgress", "so3-integrability",
         "apath", "groupoid-check")

COUPLING_CHECKS = ("conditions", "closure", "oracle-agreement", "leaf-form",
                   "splitting")

EXAMPLE_NOTES = {
    "hopf": "monopole bundle over a sphere chart; one-dimensional fiber, "
            "horizontal form f(x)·(round area)",
    "hopf-flat": "flat trivialized variant of the sphere model (the "
                 "transgression-oracle setting)",
    "so3-coadjoint": "so(3)* coadjoint fiber over a planar base with a "
                     "nonabelian potential",
    "trivial-torus": "flat abelian model over a square torus chart",
    "round-sphere": "degree-one sphere family with full boundary collapse",
    "cap": "based loop family sweeping a spherical cap of angle theta",
}


class ScenarioError(Exception):
    """Validation problem in a scenario file; `field` names the offender."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


# -- expression grammar ---------------------------------------------------------------

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}

_CONSTANTS = {"pi": math.pi}


def compile_expression(src, variables, field="expression"):
    """Compile an arithmetic expression over named coordinates into a
    callable of a value sequence.  Only the whitelisted grammar passes:
    binary/unary arithmetic, calls into the shared function library,
    coordinate names, `pi`, and numeric literals."""
    if not isinstance(src, str):
        raise ScenarioError(field, f"expected an expression string, got "
                                   f"{type(src).__name__}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(
            field, f"cannot parse {src!r}: {exc.msg} (offset "
                   f"{exc.offset})") from None
    index = {name: i for i, name in enumerate(variables)}

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            op = _BIN_OPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda vals: op(left(vals), right(vals))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                        (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda vals: -inner(vals)
            return inner
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in dm.FUNCTIONS
                    or node.keywords or len(node.args) != 1):
                raise ScenarioError(
                    field, f"only single-argument calls into "
                           f"{sorted(dm.FUNCTIONS)} are allowed")
            fn = dm.FUNCTIONS[node.func.id]
            arg = build(node.args[0])
            return lambda vals: fn(arg(vals))
        if isinstance(node, ast.Name):
            if node.id in index:
                i = index[node.id]
                return lambda vals: vals[i]
            if node.id in _CONSTANTS:
                c = _CONSTANTS[node.id]
                return lambda vals: c
            raise ScenarioError(
                field, f"unknown identifier {node.id!r}; coordinates here "
                       f"are {list(variables)}")
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (int, float)):
            c = float(node.value)
            return lambda vals: c
        raise ScenarioError(field, f"disallowed syntax in {src!r}: "
                                   f"{type(node).__name__}")

    return build(tree)


# -- scenario plumbing ----------------------------------------------------------------

def _check(name, residual, tolerance):
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "verdict": "PASS" if (residual is not None
                              and residual < tolerance) else "FAIL",
    }


def _tol(scenario, name, default):
    tols = scenario.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ScenarioError("tolerances", "must be an object of "
                                          "check-name → tolerance")
    return float(tols.get(name, default))


def _require(scenario, key, kinds, field=None):
    if key not in scenario:
        raise ScenarioError(field or key, "required key is missing")
    val = scenario[key]
    if not isinstance(val, kinds):
        raise ScenarioError(field or key,
                            f"expected {kinds}, got {type(val).__name__}")
    return val


def _example_or_inline(scenario, seed):
    if "fields" in scenario:
        return _inline_geometry(scenario["fields"])
    name = _require(scenario, "example", str)
    if name not in EXAMPLES:
        raise ScenarioError("example", f"unknown example {name!r}; "
                                       f"registry has {sorted(EXAMPLES)}")
    f_fn = None
    if "f" in scenario:
        f_expr = compile_expression(scenario["f"], ["x"], field="f")
        f_fn = lambda x: f_expr([x])
    if name in ("hopf", "hopf-flat"):
        if f_fn is None:
            f_fn = lambda x: 2.0 * x + 1.0
        if name == "hopf":
            return EXAMPLES[name](f_fn, chart=int(scenario.get("chart", 0)))
        return EXAMPLES[name](f_fn)
    if name == "trivial-torus" and f_fn is not None:
        return EXAMPLES[name](f_fn)
    return EXAMPLES[name]()


def _inline_geometry(cfg):
    if not isinstance(cfg, dict):
        raise ScenarioError("fields", "inline fields must be an object")
    base_bounds = cfg.get("base_bounds")
    if cfg.get("base_chart") == "sphere":
        base = CoordinateDomain.sphere()
        nb = 2
    else:
        if not base_bounds:
            raise ScenarioError("fields.base_bounds", "required for box "
                                                      "base charts")
        base = CoordinateDomain.box([tuple(b) for b in base_bounds])
        nb = len(base_bounds)
    fiber_bounds = cfg.get("fiber_bounds")
    if not fiber_bounds:
        raise ScenarioError("fields.fiber_bounds", "required key is missing")
    fiber = CoordinateDomain.box([tuple(b) for b in fiber_bounds],
                                 name="fiber")
    nf = len(fiber_bounds)
    space = FiberedSpace(base, fiber, name=cfg.get("name", "inline"))
    coords = [f"b{i + 1}" for i in range(nb)] + \
             [f"x{i + 1}" for i in range(nf)]

    def compile_list(key, exprs, count):
        if len(exprs) != count:
            raise ScenarioError(f"fields.{key}",
                                f"expected {count} components, got "
                                f"{len(exprs)}")
        return [compile_expression(e, coords, field=f"fields.{key}[{i}]")
                for i, e in enumerate(exprs)]

    omega_exprs = _require(cfg, "omega", list, field="fields.omega")
    n_base_pairs = nb * (nb - 1) // 2
    n_fiber_pairs = nf * (nf - 1) // 2
    om_fns = compile_list("omega", omega_exprs, n_base_pairs)
    omega = HorizontalForm(space, 2, lambda p: [f(p) for f in om_fns],
                           name="inline-omega")

    pi_exprs = cfg.get("pi")
    if pi_exprs is None:
        pi_v = VerticalBivector(space, lambda p: [0.0] * n_fiber_pairs,
                                name="zero")
    else:
        pi_fns = compile_list("pi", pi_exprs, n_fiber_pairs)
        pi_v = VerticalBivector(space, lambda p: [f(p) for f in pi_fns],
                                name="inline-pi")

    conn_exprs = cfg.get("connection")
    if conn_exprs is None:
        conn = FlatConnection(space)
    else:
        if len(conn_exprs) != nf or any(len(r) != nb for r in conn_exprs):
            raise ScenarioError("fields.connection",
                                f"expected a {nf}×{nb} matrix of "
                                f"expressions")
        rows = [[compile_expression(e, coords,
                                    field=f"fields.connection[{i}][{j}]")
                 for j, e in enumerate(row)]
                for i, row in enumerate(conn_exprs)]

        def coeff(b, x):
            p = list(b) + list(x)
            return [[f(p) for f in row] for row in rows]

        conn = Connection(space, coeff, name="inline-connection")
    return GeometricData(space, conn, pi_v, omega,
                         name=cfg.get("name", "inline"))


# -- kind runners ---------------------------------------------------------------------

def _run_coupling_check(scenario, seed):
    geom = _example_or_inline(scenario, seed)
    samples = int(scenario.get("samples", 64))
    wanted = scenario.get("checks", ["conditions"])
    if (not isinstance(wanted, list) or not wanted
            or any(w not in COUPLING_CHECKS for w in wanted)):
        raise ScenarioError("checks", f"expected a non-empty list of check "
                                      f"names from {list(COUPLING_CHECKS)}, "
                                      f"got {wanted!r}")
    checks, extras = [], {}
    cond = None
    if "conditions" in wanted or "oracle-agreement" in wanted:
        cond = check_coupling_conditions(geom, count=samples, seed=seed)
    if "conditions" in wanted:
        for key in ("vertical_poisson", "transport_invariance",
                    "covariant_closure", "curvature_match"):
            checks.append(_check(key, cond[key],
                                 _tol(scenario, key, 1e-8)))
    if "closure" in wanted:
        res = dirac_closure_residual(geom, count=min(samples, 16), seed=seed)
        checks.append(_check("dirac_closure", res,
                             _tol(scenario, "dirac_closure", 1e-6)))
    if "oracle-agreement" in wanted:
        res = dirac_closure_residual(geom, count=min(samples, 16), seed=seed)
        thr = _tol(scenario, "oracle_agreement", 1e-6)
        # a NaN on either route is a disagreement, never a match
        agree = ((cond["max"] < thr) == (res < thr)
                 and not (math.isnan(cond["max"]) or math.isnan(res)))
        checks.append(_check("oracle_agreement", 0.0 if agree else 1.0, 0.5))
        extras["condition_max"] = cond["max"]
        extras["closure_residual"] = res
    if "leaf-form" in wanted:
        checks.append(_check("leaf_form_match",
                             _leaf_residual(geom, scenario, seed),
                             _tol(scenario, "leaf_form_match", 1e-8)))
    if "splitting" in wanted:
        res = splitting_bracket_residual(geom, count=6, seed=seed)
        checks.append(_check("splitting_brackets", res["max"],
                             _tol(scenario, "splitting_brackets", 1e-6)))
    return checks, extras


def _leaf_residual(geom, scenario, seed):
    if geom.space.n_fiber != 1 or geom.space.n_base != 2:
        raise ScenarioError("checks", "the leaf-form check applies to the "
                                      "one-dimensional-fiber sphere models")
    f_expr = scenario.get("f", "2*x+1")
    f_fn = compile_expression(f_expr, ["x"], field="f")

    def defects(pt):
        _, leaf = leaf_two_form(assemble_dirac(geom, pt))
        u, v, x = pt
        s = 1.0 + u * u + v * v
        expected = f_fn([x]) * 4.0 / (s * s)
        for r in range(len(leaf)):
            for c in range(len(leaf)):
                want = expected if (r, c) == (0, 1) else \
                    (-expected if (r, c) == (1, 0) else 0.0)
                yield abs(dm.value_of(leaf[r][c]) - want)

    return worst(d for pt in geom.sample_points(8, seed=seed)
                 for d in defects(pt))


def _run_ymh_build(scenario, seed):
    geom = _example_or_inline(scenario, seed)
    checks, extras = [], {}
    principal = getattr(geom, "principal", None)
    fiber_model = getattr(geom, "fiber_model", None)
    if principal is not None:
        checks.append(_check("structure_jacobi",
                             principal.group.jacobi_residual(),
                             _tol(scenario, "structure_jacobi", 1e-12)))
        bianchi = worst(principal.bianchi_residual(pt[:geom.space.n_base])
                        for pt in geom.sample_points(6, seed=seed))
        checks.append(_check("bianchi", bianchi,
                             _tol(scenario, "bianchi", 1e-10)))
    if fiber_model is not None:
        checks.append(_check("prehamiltonian",
                             fiber_model.prehamiltonian_residual(count=8,
                                                                 seed=seed),
                             _tol(scenario, "prehamiltonian", 1e-10)))
    cond = check_coupling_conditions(geom,
                                     count=int(scenario.get("samples", 32)),
                                     seed=seed)
    checks.append(_check("coupling_conditions", cond["max"],
                         _tol(scenario, "coupling_conditions", 1e-8)))
    if scenario.get("example") == "hopf":
        gauge = gauge_transition_check()
        checks.append(_check("gauge_closedness", gauge["closedness"],
                             _tol(scenario, "gauge_closedness", 1e-8)))
        checks.append(_check("gauge_winding", abs(gauge["winding"] + 2.0),
                             _tol(scenario, "gauge_winding", 1e-6)))
        extras["winding"] = gauge["winding"]
    return checks, extras


def _build_family(cfg, field="families"):
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ScenarioError(field, "each family needs a 'family' key")
    name = cfg["family"]
    nodes = cfg.get("nodes", [65, 65])
    if (len(nodes) != 2 or any(int(n) < 3 or int(n) % 2 == 0
                               for n in nodes)):
        raise ScenarioError(f"{field}.nodes",
                            "node counts must be odd and >= 3")
    if name == "round-sphere":
        return round_sphere(int(nodes[0]), int(nodes[1]))
    if name == "cap":
        theta = cfg.get("theta")
        if theta is None:
            raise ScenarioError(f"{field}.theta",
                                "cap families need an opening angle")
        return cap(float(theta), int(nodes[0]), int(nodes[1]))
    raise ScenarioError(field, f"unknown family {name!r}; registry has "
                               f"{sorted(FAMILIES)}")


def _run_transgress(scenario, seed):
    f_expr = scenario.get("f", "x")
    f_fn0 = compile_expression(f_expr, ["x"], field="f")
    f_fn = lambda x: f_fn0([x])
    geom = EXAMPLES["hopf-flat"](f_fn)
    x0 = [float(c) for c in scenario.get("x0", [0.3])]
    checks, extras = [], {}
    if "area" in scenario:
        area_cfg = scenario["area"]
        fam = _build_family(area_cfg, field="area")
        expected = compile_expression(
            str(area_cfg.get("expected", "4*pi")), [], field="area.expected")([])

        def round_two_form(p, vt, ve):
            s = 1.0 + p[0] * p[0] + p[1] * p[1]
            return 4.0 / (s * s) * (vt[0] * ve[1] - vt[1] * ve[0])

        area = fam.signed_area(round_two_form)
        extras["area"] = area
        checks.append(_check("sphere_area",
                             abs(area - expected) / abs(expected),
                             _tol(scenario, "sphere_area", 1e-6)))
    for i, cfg in enumerate(scenario.get("families", [])):
        fam = _build_family(cfg, field=f"families[{i}]")
        endpoint = transgress(geom, fam, x0).endpoint()[0]
        oracle = transgress_flat(geom, fam, x0)[0]
        scale = max(1.0, abs(oracle))
        checks.append(_check(f"oracle_{fam.name}",
                             abs(endpoint - oracle) / scale,
                             _tol(scenario, "oracle", 1e-4)))
    if not checks:
        raise ScenarioError("checks", "a transgress scenario needs an "
                                      "'area' block or a 'families' list")
    return checks, extras


def _run_so3_integrability(scenario, seed):
    f_expr = _require(scenario, "f", str)
    f_fn0 = compile_expression(f_expr, ["r"], field="f")
    f_fn = lambda r: f_fn0([r])
    radii = [float(r) for r in scenario.get("radii", [0.5, 1.0, 1.5])]
    if not any(r > 0.0 for r in radii):
        raise ScenarioError("radii", "at least one positive radius is "
                                     "required")
    if scenario.get("include_origin", True) and 0.0 not in radii:
        radii = radii + [0.0]
    grid = scenario.get("grid", [64, 64])
    if len(grid) != 2 or any(int(g) <= 0 for g in grid):
        raise ScenarioError("grid", "grid must be two positive interval "
                                    "counts")
    grid = [int(g) + (int(g) % 2) for g in grid]   # Simpson needs even
    report = so3_lattice(f_fn, radii=radii, grid=tuple(grid),
                         constancy_tol=_tol(scenario, "generator_constancy",
                                            1e-3))
    checks, extras = [], {}
    rel_dev = report.constancy_deviation / max(1.0, abs(report.mean_radial()))
    checks.append(_check("generator_constancy", rel_dev,
                         _tol(scenario, "generator_constancy", 1e-3)))
    if report.has_degenerate_origin:
        checks.append(_check("origin_degenerate",
                             worst(abs(c) for c in report.origin_generator),
                             _tol(scenario, "origin_degenerate", 1e-8)))
    if "expected_generator" in scenario:
        expected = compile_expression(str(scenario["expected_generator"]),
                                      [], field="expected_generator")([])
        deviation = worst(abs(c - expected) / max(1.0, abs(expected))
                          for c in report.radial_components)
        checks.append(_check("generator_value", deviation,
                             _tol(scenario, "generator_value", 1e-4)))
    try:
        verdict = integrability_verdict(report, scenario.get("exact_slope"))
    except TypeError as exc:
        raise ScenarioError("exact_slope", str(exc)) from None
    except ValueError as exc:
        checks.append({"name": "slope_consistency", "residual": None,
                       "tolerance": 0.0, "verdict": "FAIL",
                       "error": str(exc)})
        verdict = "INCONCLUSIVE"
    extras["integrability"] = verdict
    extras["generators"] = report.radial_components
    if "expected_verdict" in scenario:
        match = verdict == scenario["expected_verdict"]
        checks.append(_check("verdict_match", 0.0 if match else 1.0, 0.5))
    return checks, extras


def _run_apath(scenario, seed):
    step = float(scenario.get("step", 1e-3))
    eps = float(scenario.get("eps", 0.3))
    x0 = [float(c) for c in scenario.get("x0", [0.6, 0.0, 0.8])]
    alpha_exprs = scenario.get("alpha", [
        "(3+e)*sin(2*pi*t)", "2.5*cos(3*pi*t)-e*t", "1.5*sin(5*t+e)"])
    fns = [compile_expression(e, ["t", "e"], field=f"alpha[{i}]")
           for i, e in enumerate(alpha_exprs)]
    if len(fns) != 3:
        raise ScenarioError("alpha", "the so(3) coefficient curve needs "
                                     "three components")
    alpha = lambda t, e: [f([t, e]) for f in fns]
    fiber = HamiltonianFiber.coadjoint_so3()
    r1 = flow_commutation_residual(fiber, alpha, x0, eps=eps, step=step)
    checks = [_check("flow_commutation", r1,
                     _tol(scenario, "flow_commutation", 1e-6))]
    extras = {"residual_at_step": r1}
    if scenario.get("halving", True):
        r2 = flow_commutation_residual(fiber, alpha, x0, eps=eps,
                                       step=step / 2.0)
        floor = 1e-13   # below this both residuals sit at roundoff
        gain = r2 / r1 if r1 > floor else 0.0
        checks.append(_check("halving_gain", gain,
                             _tol(scenario, "halving_gain", 0.125)))
        extras["residual_at_half_step"] = r2
    return checks, extras


def _groupoid_instance(name):
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="fiber")
    space = FiberedSpace(base, fiber, name=name)
    omega = HorizontalForm(space, 2, lambda p: [1.5], name="const-omega")
    pi_v = VerticalBivector(space, lambda p: [2.0], name="const-pi")
    if name == "split-product":
        conn = FlatConnection(space)
    elif name == "twisted-product":
        conn = Connection(space, lambda b, x: [[0.3, -0.1], [0.2, 0.4]],
                          name="const-mixing")
    else:
        raise ScenarioError("instance", f"unknown groupoid instance "
                                        f"{name!r}; use 'split-product' or "
                                        f"'twisted-product'")
    return GeometricData(space, conn, pi_v, omega, name=name)


def _run_groupoid_check(scenario, seed):
    geom = _groupoid_instance(scenario.get("instance", "split-product"))
    samples = int(scenario.get("samples", 6))
    checks, extras = [], {}
    gpd = PairGroupoid(geom.space.dim)
    checks.append(_check("axioms", gpd.axioms_residual(seed=seed),
                         _tol(scenario, "axioms", 1e-14)))
    form = pair_form(coupling_form(geom))
    checks.append(_check("multiplicativity",
                         multiplicativity_residual(form.value,
                                                   geom.space.dim,
                                                   seed=seed),
                         _tol(scenario, "multiplicativity", 1e-12)))
    report = integrated_data_check(geom, count=samples, seed=seed)
    checks.append(_check("fiber_nondegeneracy",
                         float(report["fiber_nondegeneracy_dim"]), 0.5))
    checks.append(_check("horizontal_identity",
                         report["horizontal_identity"],
                         _tol(scenario, "horizontal_identity", 1e-8)))
    checks.append(_check("hor_projection", report["hor_projection"],
                         _tol(scenario, "hor_projection", 1e-10)))
    checks.append(_check("hor_vertical_orthogonality",
                         report["hor_vertical_orthogonality"],
                         _tol(scenario, "hor_vertical_orthogonality",
                              1e-10)))
    checks.append(_check("source_target_orthogonality",
                         source_target_orthogonality(geom, form, seed=seed),
                         _tol(scenario, "source_target_orthogonality",
                              1e-10)))
    return checks, extras


_RUNNERS = {
    "coupling-check": _run_coupling_check,
    "ymh-build": _run_ymh_build,
    "transgress": _run_transgress,
    "so3-integrability": _run_so3_integrability,
    "apath": _run_apath,
    "groupoid-check": _run_groupoid_check,
}


# -- report assembly ------------------------------------------------------------------

def run_scenario(scenario):
    """Execute a validated scenario dict; returns (report, exit_code)."""
    name = _require(scenario, "name", str)
    kind = _require(scenario, "kind", str)
    if kind not in KINDS:
        raise ScenarioError("kind", f"unknown scenario kind {kind!r}; one "
                                    f"of {list(KINDS)} expected")
    seed = int(scenario.get("seed", 0))
    start = time.perf_counter()
    try:
        checks, extras = _RUNNERS[kind](scenario, seed)
    except IncompleteTransportError as exc:
        checks = [{"name": "numerical-escape", "residual": None,
                   "tolerance": 0.0, "verdict": "FAIL", "error": str(exc)}]
        extras = {}
    wall_ms = int(round(1000.0 * (time.perf_counter() - start)))
    verdict = "PASS" if all(c["verdict"] == "PASS" for c in checks) \
        else "FAIL"
    report = {
        "scenario": name,
        "kind": kind,
        "checks": checks,
        "verdict": verdict,
        "grid": scenario.get("grid"),
        "seed": seed,
        "tool_version": __version__,
        "wall_ms": wall_ms,
    }
    report.update(extras)
    return report, (0 if verdict == "PASS" else 1)


def _load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("file", str(exc)) from None
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "file", f"parse error at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from None
    if not isinstance(scenario, dict):
        raise ScenarioError("file", "a scenario must be a JSON object")
    return scenario


def _cmd_check(args):
    try:
        scenario = _load_scenario(args.scenario)
        report, code = run_scenario(scenario)
    except ScenarioError as exc:
        print(f"error: {args.scenario}: field '{exc.field}': {exc}",
              file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def _cmd_examples(args):
    registry = dict(EXAMPLE_NOTES)
    needle = (args.filter or "").lower()
    for name in sorted(registry):
        if needle and needle not in name.lower():
            continue
        print(f"{name:15s} {registry[name]}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fiberdirac",
        description="verification toolkit for coupling structures on "
                    "fibrations")
    sub = parser.add_subparsers(dest="command")
    p_check = sub.add_parser("check", help="run a scenario file")
    p_check.add_argument("scenario", help="path to a scenario .json")
    p_check.add_argument("-o", "--output", help="also write the report here")
    p_ex = sub.add_parser("examples", help="list the example registry")
    p_ex.add_argument("filter", nargs="?", default="",
                      help="substring filter")
    sub.add_parser("version", help="print the tool version")
    args = parser.parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "examples":
        return _cmd_examples(args)
    if args.command == "version":
        print(__version__)
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
