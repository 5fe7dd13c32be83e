"""Batch front end: scenario files in, structured reports out.

A scenario is a JSON object with a `name`, a `kind`, and kind-specific
inputs; inline smooth fields are arithmetic expressions over the chart
coordinates, parsed by a small whitelisted grammar (identifiers, + − × ÷,
integer or float powers, the shared function library, and the constant
pi).  Reports are deterministic for a fixed scenario and seed: identical
runs produce byte-identical JSON apart from the wall-time field.

Exit codes: 0 when every check passes, 1 when any check fails (including
numerical escapes and evaluator errors — a domain error, a division by
zero, an overflow or a failed factorization — which appear as a named
failing check), 2 on input errors (parse or validation problems, reported
with line/field context).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import time
from collections import namedtuple

import numpy as np

from . import __version__
from . import dual as dm
from ._numerics import MAX_SAMPLE_DIM, worst
from .charts import SPHERE_STEREO, CoordinateDomain
from .coupling import (CONDITION_NAMES, GeometricData, assemble_dirac,
                       check_coupling_conditions, dirac_closure_residual,
                       leaf_two_form, splitting_bracket_residual)
from .fibration import (Connection, FiberedSpace, FlatConnection,
                        HorizontalForm, IncompleteTransportError,
                        VerticalBivector)
from .apath import flow_commutation_residual
from .groupoid import (PairGroupoid, coupling_form, integrated_data_check,
                       multiplicativity_residual, pair_form,
                       source_target_orthogonality)
from .monodromy import (FAMILIES, VERDICT_INCONCLUSIVE, VERDICTS, cap,
                        exact_rational, integrability_verdict, lattice_point,
                        round_sphere, so3_lattice, transgress,
                        transgress_flat)
from .yangmills import EXAMPLES, HamiltonianFiber, gauge_transition_check

COUPLING_CHECKS = ("conditions", "closure", "oracle-agreement", "leaf-form",
                   "splitting")

#: the keys every scenario may set, whatever its kind
COMMON_KEYS = ("name", "kind", "seed", "tolerances")

#: the keys allowed inside a scenario's objects: inline `fields`, the
#: `area` family and each entry of `families`
OBJECT_KEYS = {
    "fields": ("base_bounds", "base_chart", "connection", "fiber_bounds",
               "name", "omega", "pi"),
    "area": ("expected", "family", "nodes", "theta"),
    "families": ("family", "nodes", "theta"),
}

SPHERE_F = "2*x+1"   # the f of the sphere models when a scenario sets none

#: the smallest apath RK4 step: below it the fourth-order residual already
#: sits under the roundoff floor of `halving_gain`, so a smaller step only
#: costs time (1e-9 would run for hours)
MIN_APATH_STEP = 1e-4

#: bounds on counts, since a check holds arrays over all of them at once
#: (2-vCPU Xeon): a groupoid check peaks near 0.1 GB of resident memory at
#: 2**16 samples (0.17 GB at 2**17), a transgression near 0.13 GB at
#: 1025 × 1025 nodes, and a lattice of 1024 × 1024 intervals takes 0.24 s;
#: the last two grow with n_t·n_ε
MAX_SAMPLES = 2 ** 16
MAX_FAMILY_NODES = 1025
MAX_LATTICE_GRID = 1024

MAX_SEED = 2 ** 32 - 1   # the largest seed numpy's RandomState accepts

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
    if residual is not None:
        residual = float(residual)   # numpy reductions give numpy floats
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "verdict": "PASS" if (residual is not None
                              and residual < tolerance) else "FAIL",
    }


def _scored(scenario, name, residual):
    """`_check` against the scenario's tolerance for `name`."""
    return _check(name, residual, _tol(scenario, name))


def _failed(name, exc):
    """The failing check that stands for a run an exception cut short."""
    return {"name": name, "residual": None, "tolerance": 0.0,
            "verdict": "FAIL", "error": str(exc)}


def _tol(scenario, name):
    """The scenario's tolerance for `name` (`_validate_tolerances` has
    checked it), or its kind's default when it sets none."""
    default = KINDS[scenario["kind"]].tolerances[name]
    return float(scenario.get("tolerances", {}).get(name, default))


def _refuse_unread(obj, allowed, prefix):
    """Refuse a key of the scenario object `obj` outside `allowed`: nothing
    reads it, so a misspelled key would leave its default in force."""
    for key in obj:
        if key not in allowed:
            raise ScenarioError(prefix + key, f"no check reads this key; "
                                              f"accepted: {sorted(allowed)}")


def _validate_tolerances(scenario, kind):
    """Refuse a scenario's tolerances before anything runs: each key must
    name a tolerance its kind reads, and each value must be a finite
    positive number, whether or not its check runs."""
    tols = scenario.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ScenarioError("tolerances", "must be an object of "
                                          "check-name → tolerance")
    _refuse_unread(tols, KINDS[kind].tolerances, "tolerances.")
    for key, value in tols.items():
        _real(value, f"tolerances.{key}", positive=True)


def _count(value, field, minimum, maximum):
    """A count, seed or chart number a scenario supplies: an integer in
    [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not minimum <= value <= maximum:
        raise ScenarioError(field, f"expected an integer in [{minimum}, "
                                   f"{maximum}], got {value!r}")
    return value


def _real(value, field, positive=False):
    """A real number a scenario supplies: a finite JSON number, not a bool,
    and above zero when `positive`.  An integer too large for a float is
    not finite."""
    real = None
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            real = float(value)
        except OverflowError:
            pass
    if real is None or not math.isfinite(real) or (positive and real <= 0):
        kind = "a finite positive number" if positive else "a finite number"
        raise ScenarioError(field, f"expected {kind}, got {value!r}")
    return real


def _reals(value, field, count=None):
    """A list of `count` real numbers (of any length when count is None)."""
    if not isinstance(value, list) or count not in (None, len(value)):
        size = "" if count is None else f"{count} "
        raise ScenarioError(field, f"expected a list of {size}number(s), "
                                   f"got {value!r}")
    return [_real(v, field) for v in value]


def _constant(value, field, nonzero=False):
    """A reference constant a scenario supplies: a closed expression whose
    value is finite, and nonzero when a residual is relative to it."""
    try:
        const = compile_expression(str(value), [], field=field)([])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ScenarioError(field, f"cannot evaluate {value!r}: {exc}") \
            from None
    if not isinstance(const, float) or not math.isfinite(const) \
            or (nonzero and const == 0.0):
        kind = "a finite nonzero" if nonzero else "a finite"
        raise ScenarioError(field, f"expected {kind} real constant, got "
                                   f"{value!r} = {const!r}")
    return const


def _flag(scenario, key):
    """A switch a scenario supplies: a JSON boolean, true when absent."""
    value = scenario.get(key, True)
    if not isinstance(value, bool):
        raise ScenarioError(key, f"expected true or false, got {value!r}")
    return value


def _bounds(cfg, key):
    """The box bounds `fields.<key>`: a non-empty list of [lo, hi] pairs
    of finite numbers with lo < hi."""
    field, value = f"fields.{key}", cfg.get(key)
    if not isinstance(value, list) or not value:
        raise ScenarioError(field, f"expected a non-empty list of [lo, hi] "
                                   f"pairs, got {value!r}")
    pairs = [_reals(pair, f"{field}[{i}]", 2) for i, pair in enumerate(value)]
    for i, (lo, hi) in enumerate(pairs):
        if not lo < hi:
            raise ScenarioError(f"{field}[{i}]", f"expected lo < hi, got "
                                                 f"{value[i]!r}")
    return pairs


def _simpson_counts(value, field, minimum, maximum):
    """Two counts in [minimum, maximum] of `minimum`'s parity: composite
    Simpson needs odd node counts (minimum 3) and even interval counts
    (minimum 2)."""
    if not isinstance(value, list) or len(value) != 2 or any(
            (_count(v, field, minimum, maximum) - minimum) % 2 for v in value):
        parity = "odd" if minimum % 2 else "even"
        raise ScenarioError(field, f"expected two {parity} integers, got "
                                   f"{value!r}")
    return value


def _require(scenario, key, kinds, field=None):
    if key not in scenario:
        raise ScenarioError(field or key, "required key is missing")
    val = scenario[key]
    if not isinstance(val, kinds):
        raise ScenarioError(field or key,
                            f"expected {kinds}, got {type(val).__name__}")
    return val


def _fiber_point(scenario, default, fiber):
    """The scenario's `x0`, else `default`: one finite number per coordinate
    of the fiber chart `fiber`, inside it (its edge counts as inside)."""
    x0 = _reals(scenario.get("x0", default), "x0", fiber.dim)
    if not fiber.contains(x0):
        raise ScenarioError("x0", f"the point {x0} lies outside the fiber "
                                  f"chart {fiber.name!r}, the box "
                                  f"{[list(b) for b in fiber.bounds]}")
    return x0


def _scenario_f(scenario, variable, default):
    """The scenario's `f`, else `default`, as a function of `variable`."""
    expr = compile_expression(scenario.get("f", default), [variable], "f")
    return lambda v: expr([v])


def _example_or_inline(scenario):
    """Inline `fields`, or an `example` with its `f` and `hopf`'s `chart`."""
    if "chart" in scenario and scenario.get("example") != "hopf":
        raise ScenarioError("chart", "only the hopf example has charts")
    if "fields" in scenario:
        if "example" in scenario:
            raise ScenarioError("example", "a scenario gives an example or "
                                           "inline fields, not both")
        if "f" in scenario and "leaf-form" not in scenario.get("checks", ()):
            raise ScenarioError("f", "inline fields read no f; only the "
                                     "leaf-form check does")
        return _inline_geometry(scenario["fields"])
    name = _require(scenario, "example", str)
    if name not in EXAMPLES:
        raise ScenarioError("example", f"unknown example {name!r}; "
                                       f"registry has {sorted(EXAMPLES)}")
    if name in ("hopf", "hopf-flat"):
        f_fn = _scenario_f(scenario, "x", SPHERE_F)
        if name == "hopf":
            chart = _count(scenario.get("chart", 0), "chart", 0, 1)
            return EXAMPLES[name](f_fn, chart=chart)
        return EXAMPLES[name](f_fn)
    if "f" not in scenario:
        return EXAMPLES[name]()
    if name != "trivial-torus":
        raise ScenarioError("f", f"the {name} example takes no f")
    return EXAMPLES[name](_scenario_f(scenario, "x", None))


def _inline_geometry(cfg):
    if not isinstance(cfg, dict):
        raise ScenarioError("fields", "inline fields must be an object")
    _refuse_unread(cfg, OBJECT_KEYS["fields"], "fields.")
    chart = cfg.get("base_chart")
    if chart not in (None, "sphere"):
        raise ScenarioError("fields.base_chart", f"the only named base chart "
                                                 f"is 'sphere', got {chart!r}")
    base = CoordinateDomain.sphere() if chart == "sphere" else \
        CoordinateDomain.box(_bounds(cfg, "base_bounds"))
    fiber = CoordinateDomain.box(_bounds(cfg, "fiber_bounds"), name="fiber")
    nb, nf = base.dim, fiber.dim
    if nb + nf > MAX_SAMPLE_DIM:
        raise ScenarioError("fields", f"base and fiber have {nb + nf} "
                                      f"coordinates; sampling supports at "
                                      f"most {MAX_SAMPLE_DIM}")
    space = FiberedSpace(base, fiber, name=cfg.get("name", "inline"))
    coords = [f"b{i + 1}" for i in range(nb)] + \
             [f"x{i + 1}" for i in range(nf)]

    def compile_list(key, exprs, count):
        if not isinstance(exprs, list) or len(exprs) != count:
            raise ScenarioError(f"fields.{key}",
                                f"expected a list of {count} expressions, "
                                f"got {exprs!r}")
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
        if (not isinstance(conn_exprs, list) or len(conn_exprs) != nf
                or any(not isinstance(r, list) or len(r) != nb
                       for r in conn_exprs)):
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
    wanted = scenario.get("checks", ["conditions"])
    if (not isinstance(wanted, list) or not wanted
            or any(w not in COUPLING_CHECKS for w in wanted)):
        raise ScenarioError("checks", f"expected a non-empty list of check "
                                      f"names from {list(COUPLING_CHECKS)}, "
                                      f"got {wanted!r}")
    geom = _example_or_inline(scenario)
    samples = _count(scenario.get("samples", 64), "samples", 1, MAX_SAMPLES)
    checks, extras = [], {}
    cond = res = None
    if "conditions" in wanted or "oracle-agreement" in wanted:
        cond = check_coupling_conditions(geom, count=samples, seed=seed)
    if "closure" in wanted or "oracle-agreement" in wanted:
        res = dirac_closure_residual(geom, count=min(samples, 16), seed=seed)
    if "conditions" in wanted:
        checks += [_scored(scenario, key, cond[key])
                   for key in CONDITION_NAMES]
    if "closure" in wanted:
        checks.append(_scored(scenario, "dirac_closure", res))
    if "oracle-agreement" in wanted:
        thr = _tol(scenario, "oracle_agreement")
        # a NaN on either route is a disagreement, never a match
        agree = ((cond["max"] < thr) == (res < thr)
                 and not (math.isnan(cond["max"]) or math.isnan(res)))
        checks.append(_check("oracle_agreement", 0.0 if agree else 1.0, 0.5))
        extras["condition_max"] = float(cond["max"])
        extras["closure_residual"] = float(res)
    if "leaf-form" in wanted:
        checks.append(_scored(scenario, "leaf_form_match",
                              _leaf_residual(geom, scenario, seed)))
    if "splitting" in wanted:
        res = splitting_bracket_residual(geom, count=6, seed=seed)
        checks.append(_scored(scenario, "splitting_brackets", res["max"]))
    return checks, extras


def _leaf_residual(geom, scenario, seed):
    """Distance of the leaf form to f(x)·(the chart's round area form)."""
    if geom.space.base.kind != SPHERE_STEREO or geom.space.n_fiber != 1:
        raise ScenarioError("checks", "the leaf-form check applies to the "
                                      "one-dimensional-fiber sphere models")
    f_fn = _scenario_f(scenario, "x", SPHERE_F)
    chart1 = scenario.get("example") == "hopf" and scenario.get("chart") == 1
    sign = -1.0 if chart1 else 1.0

    pt = geom.sample_points(8, seed=seed)
    _, leaf = leaf_two_form(assemble_dirac(geom, pt))
    u, v, x = pt
    s = 1.0 + u * u + v * v
    expected = sign * f_fn(x) * 4.0 / (s * s)
    want = {(0, 1): expected, (1, 0): -expected}
    return worst(abs(dm.value_of(entry) - want.get((r, c), 0.0))
                 for r, row in enumerate(leaf) for c, entry in enumerate(row))


def _run_ymh_build(scenario, seed):
    geom = _example_or_inline(scenario)
    checks, extras = [], {}
    principal = getattr(geom, "principal", None)
    fiber_model = getattr(geom, "fiber_model", None)
    if principal is not None:
        checks.append(_scored(scenario, "structure_jacobi",
                              principal.group.jacobi_residual()))
        bianchi = principal.bianchi_residual(
            geom.sample_points(6, seed=seed)[:geom.space.n_base])
        checks.append(_scored(scenario, "bianchi", bianchi))
    if fiber_model is not None:
        checks.append(_scored(scenario, "prehamiltonian",
                              fiber_model.prehamiltonian_residual(count=8,
                                                                  seed=seed)))
    cond = check_coupling_conditions(
        geom, count=_count(scenario.get("samples", 32), "samples", 1,
                           MAX_SAMPLES), seed=seed)
    checks.append(_scored(scenario, "coupling_conditions", cond["max"]))
    if scenario.get("example") == "hopf":
        gauge = gauge_transition_check()
        checks.append(_scored(scenario, "gauge_closedness",
                              gauge["closedness"]))
        checks.append(_scored(scenario, "gauge_winding",
                              abs(gauge["winding"] + 2.0)))
        extras["winding"] = gauge["winding"]
    return checks, extras


def _build_family(cfg, field, keys):
    """The sphere family a scenario object `cfg` with `keys` describes."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ScenarioError(field, "each family needs a 'family' key")
    _refuse_unread(cfg, keys, f"{field}.")
    name = cfg["family"]
    nodes = _simpson_counts(cfg.get("nodes", [65, 65]), f"{field}.nodes", 3,
                            MAX_FAMILY_NODES)
    if name == "round-sphere":
        return round_sphere(*nodes)
    if name == "cap":
        theta = _real(cfg.get("theta"), f"{field}.theta")
        try:
            return cap(theta, *nodes)
        except ValueError as exc:   # an angle outside (0, π) is bad input
            raise ScenarioError(f"{field}.theta", str(exc)) from None
    raise ScenarioError(field, f"unknown family {name!r}; registry has "
                               f"{sorted(FAMILIES)}")


def _run_transgress(scenario, seed):
    geom = EXAMPLES["hopf-flat"](_scenario_f(scenario, "x", "x"))
    x0 = _fiber_point(scenario, [0.3], geom.space.fiber)
    families = scenario.get("families", [])
    if not isinstance(families, list):
        raise ScenarioError("families", f"expected a list of families, got "
                                        f"{families!r}")
    fams = [_build_family(cfg, f"families[{i}]", OBJECT_KEYS["families"])
            for i, cfg in enumerate(families)]
    checks, extras = [], {}
    if "area" in scenario:
        area_cfg = scenario["area"]
        fam = _build_family(area_cfg, "area", OBJECT_KEYS["area"])
        expected = _constant(area_cfg.get("expected", "4*pi"),
                             "area.expected", nonzero=True)

        def round_two_form(p, vt, ve):
            s = 1.0 + p[0] * p[0] + p[1] * p[1]
            return 4.0 / (s * s) * (vt[0] * ve[1] - vt[1] * ve[0])

        area = fam.signed_area(round_two_form)
        extras["area"] = area
        checks.append(_scored(scenario, "sphere_area",
                              abs(area - expected) / abs(expected)))
    for fam in fams:
        endpoint = transgress(geom, fam, x0).endpoint()[0]
        oracle = transgress_flat(geom, fam, x0)[0]
        scale = max(1.0, abs(oracle))
        checks.append(_check(f"oracle_{fam.name}",
                             abs(endpoint - oracle) / scale,
                             _tol(scenario, "oracle")))
    if not checks:
        raise ScenarioError("checks", "a transgress scenario needs an "
                                      "'area' block or a 'families' list")
    return checks, extras


def _run_so3_integrability(scenario, seed):
    _require(scenario, "f", str)
    f_fn = _scenario_f(scenario, "r", None)
    radii = _reals(scenario.get("radii", [0.5, 1.0, 1.5]), "radii")
    for i, r in enumerate(radii):
        try:
            lattice_point(r)
        except ValueError as exc:
            raise ScenarioError(f"radii[{i}]", str(exc)) from None
    if not any(r > 0.0 for r in radii):
        raise ScenarioError("radii", "at least one positive radius is "
                                     "required")
    try:
        slope = scenario.get("exact_slope")
        slope = None if slope is None else exact_rational(slope)
    except TypeError as exc:
        raise ScenarioError("exact_slope", str(exc)) from None
    expected = None
    if "expected_generator" in scenario:
        expected = _constant(scenario["expected_generator"],
                             "expected_generator")
    want = scenario.get("expected_verdict")
    if "expected_verdict" in scenario and want not in VERDICTS:
        raise ScenarioError("expected_verdict", f"expected one of "
                                                f"{list(VERDICTS)}, got "
                                                f"{want!r}")
    if _flag(scenario, "include_origin") and 0.0 not in radii:
        radii = radii + [0.0]
    grid = _simpson_counts(scenario.get("grid", [64, 64]), "grid", 2,
                           MAX_LATTICE_GRID)
    constancy = _tol(scenario, "generator_constancy")
    report = so3_lattice(f_fn, radii=radii, grid=tuple(grid),
                         constancy_tol=constancy)
    checks, extras = [], {}
    checks.append(_check("generator_constancy", report.relative_deviation,
                         constancy))
    if report.has_degenerate_origin:
        checks.append(_scored(scenario, "origin_degenerate",
                              report.origin_pi))
    if expected is not None:
        deviation = worst(abs(c - expected) / max(1.0, abs(expected))
                          for c in report.radial_components)
        checks.append(_scored(scenario, "generator_value", deviation))
    try:
        verdict = integrability_verdict(report, slope)
    except ValueError as exc:
        checks.append(_failed("slope_consistency", exc))
        verdict = VERDICT_INCONCLUSIVE
    extras["integrability"] = verdict
    extras["generators"] = [float(g) for g in report.radial_components]
    if "expected_verdict" in scenario:
        checks.append(_check("verdict_match", 0.0 if verdict == want
                             else 1.0, 0.5))
    return checks, extras


def _run_apath(scenario, seed):
    step = _real(scenario.get("step", 1e-3), "step", positive=True)
    if step < MIN_APATH_STEP:
        raise ScenarioError("step", f"expected a step >= {MIN_APATH_STEP}, "
                                    f"got {step!r}")
    eps = _real(scenario.get("eps", 0.3), "eps")
    fiber = HamiltonianFiber.coadjoint_so3()
    x0 = _fiber_point(scenario, [0.6, 0.0, 0.8], fiber.domain)
    halving = _flag(scenario, "halving")
    alpha_exprs = scenario.get("alpha", [
        "(3+e)*sin(2*pi*t)", "2.5*cos(3*pi*t)-e*t", "1.5*sin(5*t+e)"])
    if not isinstance(alpha_exprs, list) or len(alpha_exprs) != 3:
        raise ScenarioError("alpha", f"the so(3) coefficient curve needs a "
                                     f"list of three expressions, got "
                                     f"{alpha_exprs!r}")
    fns = [compile_expression(e, ["t", "e"], field=f"alpha[{i}]")
           for i, e in enumerate(alpha_exprs)]
    alpha = lambda t, e: [f([t, e]) for f in fns]
    r1 = flow_commutation_residual(fiber, alpha, x0, eps=eps, step=step)
    checks = [_scored(scenario, "flow_commutation", r1)]
    extras = {"residual_at_step": r1}
    if halving:
        r2 = flow_commutation_residual(fiber, alpha, x0, eps=eps,
                                       step=step / 2.0)
        floor = 1e-13   # below this both residuals sit at roundoff
        if not (math.isfinite(r1) and math.isfinite(r2)):
            gain = math.nan
        else:
            gain = r2 / r1 if r1 > floor else 0.0
        checks.append(_scored(scenario, "halving_gain", gain))
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
    samples = _count(scenario.get("samples", 6), "samples", 1, MAX_SAMPLES)
    checks, extras = [], {}
    gpd = PairGroupoid(geom.space.dim)
    checks.append(_scored(scenario, "axioms", gpd.axioms_residual(seed=seed)))
    form = pair_form(coupling_form(geom))
    checks.append(_scored(scenario, "multiplicativity",
                          multiplicativity_residual(form.value,
                                                    geom.space.dim, seed=seed)))
    report = integrated_data_check(geom, count=samples, seed=seed)
    checks.append(_check("fiber_nondegeneracy",
                         float(report["fiber_nondegeneracy_dim"]), 0.5))
    checks += [_scored(scenario, key, report[key])
               for key in ("horizontal_identity", "hor_projection",
                           "hor_vertical_orthogonality")]
    checks.append(_scored(scenario, "source_target_orthogonality",
                          source_target_orthogonality(geom, form, seed=seed)))
    return checks, extras


#: each scenario kind, stated once: its runner, the default of every
#: tolerance its checks score (a scenario may set only these; `oracle`
#: scores each oracle_<family>), and the keys it reads besides COMMON_KEYS
Kind = namedtuple("Kind", "run tolerances keys")
KINDS = {
    "coupling-check": Kind(
        _run_coupling_check,
        {**dict.fromkeys(CONDITION_NAMES, 1e-8), "dirac_closure": 1e-6,
         "oracle_agreement": 1e-6, "leaf_form_match": 1e-8,
         "splitting_brackets": 1e-6},
        ("chart", "checks", "example", "f", "fields", "samples")),
    "ymh-build": Kind(
        _run_ymh_build,
        {"structure_jacobi": 1e-12, "bianchi": 1e-10, "prehamiltonian": 1e-10,
         "coupling_conditions": 1e-8, "gauge_closedness": 1e-8,
         "gauge_winding": 1e-6},
        ("chart", "example", "f", "fields", "samples")),
    "transgress": Kind(
        _run_transgress, {"sphere_area": 1e-6, "oracle": 1e-4},
        ("area", "f", "families", "x0")),
    "so3-integrability": Kind(
        _run_so3_integrability,
        {"generator_constancy": 1e-3, "origin_degenerate": 1e-8,
         "generator_value": 1e-4},
        ("exact_slope", "expected_generator", "expected_verdict", "f",
         "grid", "include_origin", "radii")),
    "apath": Kind(
        _run_apath, {"flow_commutation": 1e-6, "halving_gain": 0.125},
        ("alpha", "eps", "halving", "step", "x0")),
    "groupoid-check": Kind(
        _run_groupoid_check,
        {"axioms": 1e-14, "multiplicativity": 1e-12,
         "horizontal_identity": 1e-8, "hor_projection": 1e-10,
         "hor_vertical_orthogonality": 1e-10,
         "source_target_orthogonality": 1e-10},
        ("instance", "samples")),
}


# -- report assembly ------------------------------------------------------------------

def run_scenario(scenario):
    """Execute a validated scenario dict; returns (report, exit_code)."""
    name = _require(scenario, "name", str)
    kind = _require(scenario, "kind", str)
    if kind not in KINDS:
        raise ScenarioError("kind", f"unknown scenario kind {kind!r}; one "
                                    f"of {list(KINDS)} expected")
    _refuse_unread(scenario, COMMON_KEYS + KINDS[kind].keys, "")
    _validate_tolerances(scenario, kind)
    seed = _count(scenario.get("seed", 0), "seed", 0, MAX_SEED)
    start = time.perf_counter()
    try:
        # on array sample points a domain error is a NaN residual: a FAIL
        with np.errstate(all="ignore"):
            checks, extras = KINDS[kind].run(scenario, seed)
    except IncompleteTransportError as exc:
        checks = [_failed("numerical-escape", exc)]
        extras = {}
    except (ValueError, ZeroDivisionError, OverflowError, MemoryError,
            np.linalg.LinAlgError) as exc:
        checks = [_failed("evaluation-error", exc)]
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
