"""Batch front end: scenario files in, structured reports out.

A scenario is a JSON object with a `name`, a `kind`, and kind-specific
inputs; inline smooth fields are arithmetic expressions over the chart
coordinates, parsed by a small whitelisted grammar (identifiers, + − × ÷,
integer or float powers, the shared function library, and the constant
pi).  `parse` reads a scenario against the declarations in `KINDS`, the
type and default of each key, before any check runs.  Reports are
deterministic for a fixed scenario and seed: identical runs produce
byte-identical JSON apart from the wall-time field.

Exit codes: 0 when every check passes, 1 when any check fails (including
numerical escapes and evaluator errors — a domain error, a division by
zero, an overflow, a failed factorization or an expression nested too
deeply to evaluate — which appear as a named failing check), 2 on input
errors (parse or validation problems, reported with line/field context).
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import math
import operator
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

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
from .monodromy import (FAMILIES, VERDICT_INCONCLUSIVE, VERDICTS,
                        exact_rational, integrability_verdict, lattice_point,
                        so3_lattice, transgress, transgress_flat)
from .yangmills import EXAMPLES, HamiltonianFiber, gauge_transition_check

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

class ScenarioError(Exception):
    """Validation problem in a scenario file; `field` names the offender."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


# -- expression grammar ---------------------------------------------------------------

_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Div: operator.truediv,
            ast.Pow: operator.pow}

_CONSTANTS = {"pi": math.pi}


def compile_expression(src, variables, field="expression"):
    """Compile an arithmetic expression over named coordinates into a
    callable of a value sequence.  Only the whitelisted grammar passes:
    binary/unary arithmetic, calls into the shared function library,
    coordinate names, `pi`, and numeric literals (not `True` or `False`,
    and none too large for a float)."""
    if not isinstance(src, str):
        raise ScenarioError(field, f"expected an expression string, got "
                                   f"{type(src).__name__}")
    index = {name: i for i, name in enumerate(variables)}

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            op = _BIN_OPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda vals: op(left(vals), right(vals))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                        (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            return inner if isinstance(node.op, ast.UAdd) else \
                (lambda vals: -inner(vals))
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
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                c = float(node.value)
            except OverflowError:
                raise ScenarioError(field, f"a literal in {src!r} is too "
                                           f"large for a float") from None
            return lambda vals: c
        raise ScenarioError(field, f"disallowed syntax in {src!r}: "
                                   f"{type(node).__name__}")

    try:
        return build(ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        raise ScenarioError(
            field, f"cannot parse {src!r}: {exc.msg} (offset "
                   f"{exc.offset})") from None
    except RecursionError:
        raise ScenarioError(field, "nested too deeply to compile") from None


# -- declared value types -------------------------------------------------------------
# A type is a function (value, field) -> the parsed value that raises
# ScenarioError naming `field` on anything else (JSON null included); its
# `spec` feeds the tests' fuzz strategy, whose valid draws stay in `fuzz`.

REQUIRED = object()   # the default of a key a scenario must give


def _typed(*spec):
    def mark(parse):
        parse.spec = spec
        return parse
    return mark


def _ok(ok, parsed, field, expected, value):
    """`parsed` when `ok`, else the ScenarioError naming `field`."""
    if not ok:
        raise ScenarioError(field, f"expected {expected}, got {value!r}")
    return parsed


def _float(value):
    """A JSON number as a float (inf if too large), anything else as NaN."""
    try:
        return float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        return math.inf


def _reals(value, field, n):
    """A list of `n` finite numbers, as floats."""
    xs = [_float(x) for x in value] if isinstance(value, list) else []
    return _ok(len(xs) == n and all(map(math.isfinite, xs)), xs, field,
               "a list of finite numbers, one per axis", value)


def real(lo, hi, closed, fuzz):
    """A finite number in [lo, hi], or in (lo, hi) when not `closed`."""
    expected = f"a finite number in [{lo}, {hi}]" if closed else \
        f"a finite number in ({lo}, {hi})"

    def parse(value, field):
        x = _float(value)
        return _ok(math.isfinite(x) and (lo <= x <= hi if closed
                                         else lo < x < hi), x, field,
                   expected, value)
    return _typed("real", lo, hi, closed, fuzz)(parse)


def count(lo, hi, fuzz):
    """An integer in [lo, hi]."""
    expected = f"an integer in [{lo}, {hi}]"
    return _typed("count", lo, hi, fuzz)(lambda value, field: _ok(
        type(value) is int and lo <= value <= hi, value, field, expected,
        value))


def simpson(lo, hi, fuzz):
    """Two integers in [lo, hi] of lo's parity: composite Simpson needs odd
    node counts (lo 3) and even interval counts (lo 2)."""
    expected = f"two {'odd' if lo % 2 else 'even'} integers in [{lo}, {hi}]"
    return _typed("simpson", lo, hi, fuzz)(lambda value, field: _ok(
        isinstance(value, list) and len(value) == 2 and all(
            type(n) is int and lo <= n <= hi and (n - lo) % 2 == 0
            for n in value), list(value) if isinstance(value, list) else None,
        field, expected, value))


def enum(choices):
    """One of `choices`, read at parse time, so a registry may grow."""
    def parse(value, field):
        if not isinstance(value, str) or value not in choices:
            raise ScenarioError(field, f"expected one of {sorted(choices)}, "
                                       f"got {value!r}")
        return value
    return _typed("enum", choices)(parse)


def _of_type(name, cls):
    expected = f"a JSON {cls.__name__}"
    return _typed(name)(lambda value, field: _ok(
        isinstance(value, cls), value, field, expected, value))


flag, text = _of_type("flag", bool), _of_type("text", str)
source = _of_type("source", str)   # an expression `_inline_geometry` compiles


def expression(variables):
    """An expression in `variables`, compiled: unary for one variable."""
    def parse(value, field):
        expr = compile_expression(value, variables, field)
        return (lambda x: expr([x])) if len(variables) == 1 else expr
    return _typed("expression", variables)(parse)


def constant(nonzero):
    """A closed expression or a JSON number of finite value, nonzero when a
    residual is relative to it."""
    expected = "a finite, nonzero constant" if nonzero else "a finite constant"

    def parse(value, field):
        src = str(value) if type(value) in (int, float) else value
        try:
            const = compile_expression(src, [], field)([])
        except (ValueError, ZeroDivisionError, OverflowError,
                RecursionError) as exc:
            raise ScenarioError(field, f"cannot evaluate {value!r}: {exc}") \
                from None
        return _ok(math.isfinite(const) and (const != 0.0 or not nonzero),
                   const, field, expected, value)
    return _typed("constant", nonzero)(parse)


@_typed("rational")
def rational(value, field):
    """An exact slope: an integer or a 'p/q' string, as a Fraction."""
    try:
        return exact_rational(value)
    except TypeError as exc:
        raise ScenarioError(field, str(exc)) from None


def point(chart):
    """A point of `chart`, its edge included: finite, one number per axis."""
    expected = f"a point of the fiber chart {chart.name!r}, {chart.bounds}"

    def parse(value, field):
        x = _reals(value, field, chart.dim)
        return _ok(chart.contains(x), x, field, expected, value)
    return _typed("point", chart)(parse)


@_typed("pair")
def pair(value, field):
    """The bounds [lo, hi] of one box axis, finite, with lo < hi."""
    lo, hi = _reals(value, field, 2)
    return _ok(lo < hi, [lo, hi], field, "lo < hi", value)


@_typed("radius")
def radius(value, field):
    """A radius r ≥ 0 whose point r·(0.6, 0, 0.8) is on the lattice chart."""
    try:
        lattice_point(_float(value))
    except ValueError as exc:
        raise ScenarioError(field, f"{exc} (read from {value!r})") from None
    return _float(value)


def listing(item, lo, hi):
    """A list of lo to hi values of the type `item`."""
    expected = f"a list of {lo} to {hi} entries"

    def parse(value, field):
        _ok(isinstance(value, list) and lo <= len(value) <= hi, None, field,
            expected, value)
        return [item(x, f"{field}[{i}]") for i, x in enumerate(value)]
    return _typed("list", item, lo, hi)(parse)


def _declared(keys):
    """`keys` (key → (type, default)), each default parsed once, here."""
    return {key: (parse, d if d is None or d is REQUIRED else parse(d, key))
            for key, (parse, d) in keys.items()}


def _read(raw, keys, field):
    """`raw` read under `_declared` keys: absent keys take the shared
    default (no runner mutates it), undeclared ones, read by none, refused."""
    _ok(isinstance(raw, dict), None, field, "an object", raw)
    prefix = f"{field}." if field else ""
    for key in raw:
        if key not in keys:
            raise ScenarioError(prefix + key, f"no check reads this key; "
                                              f"accepted: {sorted(keys)}")
    values = {}
    for key, (parse, default) in keys.items():
        if key not in raw and default is REQUIRED:
            raise ScenarioError(prefix + key, "required key is missing")
        values[key] = parse(raw[key], prefix + key) if key in raw else default
    return SimpleNamespace(**values)


def obj(keys):
    """An object with the declared `keys`."""
    parsed = _declared(keys)
    return _typed("object", keys)(lambda value, field:
                                  _read(value, parsed, field))


def union(tag, variants):
    """An object whose declared keys are `variants[its tag's value]` (None:
    the tag absent)."""
    expected = f"one of {sorted(filter(None, variants))}"
    tagged = {name: _declared({tag: (text, None), **keys})
              for name, keys in variants.items()}

    def parse(value, field):
        choice = value.get(tag) if isinstance(value, dict) else None
        # a null tag is a value of no type, not the tag left out
        named = isinstance(choice, str) or not (isinstance(value, dict)
                                                and tag in value)
        _ok(not isinstance(value, dict) or named and choice in tagged, None,
            f"{field}.{tag}", expected, choice)
        return _read(value, tagged.get(choice, {}), field)
    return _typed("union", tag, variants)(parse)


# -- the declarations a kind's keys share ---------------------------------------------

SAMPLES = count(1, MAX_SAMPLES, 4)
BOUNDS, SOURCES = listing(pair, 1, math.inf), listing(source, 0, math.inf)
F_OF_X = expression(("x",))

#: inline `fields`, per base chart: a box from `base_bounds`, or the sphere
_FIELDS = {"connection": (listing(SOURCES, 0, math.inf), None),
           "fiber_bounds": (BOUNDS, REQUIRED), "name": (text, "inline"),
           "omega": (SOURCES, REQUIRED), "pi": (SOURCES, None)}
FIELDS = union("base_chart", {None: {"base_bounds": (BOUNDS, REQUIRED),
                                     **_FIELDS},
                              "sphere": _FIELDS})

#: a sphere family, per family: only a cap has an angle θ ∈ (0, π)
_NODES = (simpson(3, MAX_FAMILY_NODES, 9), [65, 65])
FAMILY_KEYS = {"round-sphere": {"nodes": _NODES},
               "cap": {"nodes": _NODES,
                       "theta": (real(0.0, math.pi, False, (0.0, math.pi)),
                                 REQUIRED)}}

#: the model of a coupling-check or a ymh-build: an example or inline
#: fields (`_model` refuses the keys the choice leaves unread)
_MODEL = {"chart": (count(0, 1, 1), None), "example": (enum(EXAMPLES), None),
          "f": (F_OF_X, None), "fields": (FIELDS, None)}


# -- scenario plumbing ----------------------------------------------------------------

def _check(name, residual, tolerance):
    if residual is not None:
        residual = float(residual)   # numpy reductions give numpy floats
    passed = residual is not None and residual < tolerance
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "verdict": "PASS" if passed else "FAIL"}


def _scored(v, name, residual):
    """`_check` against the scenario's tolerance for `name`."""
    return _check(name, residual, getattr(v.tolerances, name))


def _failed(name, exc):
    """The failing check that stands for a run an exception cut short."""
    return {"name": name, "residual": None, "tolerance": 0.0,
            "verdict": "FAIL", "error": str(exc)}


def _model(v):
    """The coupling triple of inline `fields` or of an `example`, once what
    that choice leaves unread is refused.  An example's builder states what
    it reads in its signature: a scenario's `f` and `chart` reach it only
    if it takes them, and an `f` it requires defaults to SPHERE_F."""
    checks = getattr(v, "checks", ())   # a ymh-build scores no leaf form
    takes = inspect.signature(EXAMPLES[v.example]).parameters \
        if v.example else {}
    if v.chart is not None and "chart" not in takes:
        raise ScenarioError("chart", "only an example whose builder takes "
                                     "a chart has charts")
    if (v.fields is None) == (v.example is None):
        raise ScenarioError("example", "a scenario gives either an example "
                                       "or inline fields")
    if v.f is not None and not ("leaf-form" in checks if v.fields else
                                "f" in takes):
        raise ScenarioError("f", "no check reads f here: only the examples "
                                 "built from an f and inline leaf forms do")
    if v.f is None and "f" in takes and takes["f"].default is takes["f"].empty:
        v.f = F_OF_X(SPHERE_F, "f")
    if v.fields is not None:
        geom = _inline_geometry(v.fields)
    else:
        geom = EXAMPLES[v.example](**{key: getattr(v, key)
                                      for key in ("f", "chart")
                                      if getattr(v, key) is not None})
    if "leaf-form" in checks:
        if geom.space.base.kind != SPHERE_STEREO or geom.space.n_fiber != 1:
            raise ScenarioError("checks", "the leaf-form check applies to the "
                                          "sphere models with a line fiber")
        v.f = v.f or F_OF_X(SPHERE_F, "f")
    return geom


def _inline_geometry(cfg):
    """The coupling triple of parsed inline fields, their component
    expressions compiled over the coordinates b1…bN, x1…xM."""
    base = CoordinateDomain.sphere() if cfg.base_chart else \
        CoordinateDomain.box(cfg.base_bounds)
    fiber = CoordinateDomain.box(cfg.fiber_bounds, name="fiber")
    nb, nf = base.dim, fiber.dim
    _ok(nb + nf <= MAX_SAMPLE_DIM, None, "fields", f"at most "
        f"{MAX_SAMPLE_DIM} coordinates, the sampler's limit", nb + nf)
    space = FiberedSpace(base, fiber, name=cfg.name)
    coords = [f"b{i + 1}" for i in range(nb)] + \
             [f"x{i + 1}" for i in range(nf)]

    def compiled(key, exprs, count):
        _ok(len(exprs) == count, None, f"fields.{key}",
            f"a list of {count} expressions", exprs)
        return [compile_expression(e, coords, f"fields.{key}[{i}]")
                for i, e in enumerate(exprs)]

    om_fns = compiled("omega", cfg.omega, nb * (nb - 1) // 2)
    omega = HorizontalForm(space, 2, lambda p: [f(p) for f in om_fns],
                           name="inline-omega")
    if cfg.pi is None:
        pi_v = VerticalBivector(space, lambda p: [0.0] * (nf * (nf - 1) // 2),
                                name="zero")
    else:
        pi_fns = compiled("pi", cfg.pi, nf * (nf - 1) // 2)
        pi_v = VerticalBivector(space, lambda p: [f(p) for f in pi_fns],
                                name="inline-pi")
    if cfg.connection is None:
        conn = FlatConnection(space)
    else:
        _ok(len(cfg.connection) == nf, None, "fields.connection",
            f"{nf} rows of {nb} expressions", cfg.connection)
        rows = [compiled(f"connection[{i}]", row, nb)
                for i, row in enumerate(cfg.connection)]

        def coeff(b, x):
            p = list(b) + list(x)
            return [[f(p) for f in row] for row in rows]

        conn = Connection(space, coeff, name="inline-connection")
    return GeometricData(space, conn, pi_v, omega, name=cfg.name)


def _sphere_family(cfg):
    """The sphere family a parsed `area` or `families` entry describes: its
    `FAMILIES` builder, given `nodes` as (n_t, n_eps) and the family's other
    declared keys by name."""
    keys = {key: getattr(cfg, key) for key in FAMILY_KEYS[cfg.family]}
    n_t, n_eps = keys.pop("nodes")
    return FAMILIES[cfg.family](n_t=n_t, n_eps=n_eps, **keys)


# -- kind runners ---------------------------------------------------------------------

def _run_coupling_check(v, seed):
    geom, wanted = v.geom, v.checks
    checks, extras = [], {}
    cond = res = None
    if "conditions" in wanted or "oracle-agreement" in wanted:
        cond = check_coupling_conditions(geom, count=v.samples, seed=seed)
    if "closure" in wanted or "oracle-agreement" in wanted:
        res = dirac_closure_residual(geom, count=min(v.samples, 16),
                                     seed=seed)
    if "conditions" in wanted:
        checks += [_scored(v, key, cond[key]) for key in CONDITION_NAMES]
    if "closure" in wanted:
        checks.append(_scored(v, "dirac_closure", res))
    if "oracle-agreement" in wanted:
        thr = v.tolerances.oracle_agreement
        # a NaN on either route is a disagreement, never a match
        agree = ((cond["max"] < thr) == (res < thr)
                 and not (math.isnan(cond["max"]) or math.isnan(res)))
        checks.append(_check("oracle_agreement", 0.0 if agree else 1.0, 0.5))
        extras["condition_max"] = float(cond["max"])
        extras["closure_residual"] = float(res)
    if "leaf-form" in wanted:
        checks.append(_scored(v, "leaf_form_match", _leaf_residual(v, seed)))
    if "splitting" in wanted:
        res = splitting_bracket_residual(geom, count=6, seed=seed)
        checks.append(_scored(v, "splitting_brackets", res["max"]))
    return checks, extras


def _leaf_residual(v, seed):
    """Distance of the leaf form to f(x)·(the chart's round area form)."""
    sign = -1.0 if v.chart == 1 else 1.0   # chart 1's area form is −4/s²
    pt = v.geom.sample_points(8, seed=seed)
    _, leaf = leaf_two_form(assemble_dirac(v.geom, pt))
    u, w, x = pt
    s = 1.0 + u * u + w * w
    expected = sign * v.f(x) * 4.0 / (s * s)
    want = {(0, 1): expected, (1, 0): -expected}
    return worst(abs(dm.value_of(entry) - want.get((r, c), 0.0))
                 for r, row in enumerate(leaf) for c, entry in enumerate(row))


def _run_ymh_build(v, seed):
    geom = v.geom
    checks, extras = [], {}
    principal = getattr(geom, "principal", None)
    fiber_model = getattr(geom, "fiber_model", None)
    if principal is not None:
        checks.append(_scored(v, "structure_jacobi",
                              principal.group.jacobi_residual()))
        bianchi = principal.bianchi_residual(
            geom.sample_points(6, seed=seed)[:geom.space.n_base])
        checks.append(_scored(v, "bianchi", bianchi))
    if fiber_model is not None:
        checks.append(_scored(v, "prehamiltonian",
                              fiber_model.prehamiltonian_residual(count=8,
                                                                  seed=seed)))
    cond = check_coupling_conditions(geom, count=v.samples, seed=seed)
    checks.append(_scored(v, "coupling_conditions", cond["max"]))
    if v.example == "hopf":
        gauge = gauge_transition_check()
        checks += [_scored(v, "gauge_closedness", gauge["closedness"]),
                   _scored(v, "gauge_winding", abs(gauge["winding"] + 2.0))]
        extras["winding"] = gauge["winding"]
    return checks, extras


def _run_transgress(v, seed):
    geom = EXAMPLES["hopf-flat"](v.f)
    checks, extras = [], {}
    if v.area is not None:
        def round_two_form(p, vt, ve):
            s = 1.0 + p[0] * p[0] + p[1] * p[1]
            return 4.0 / (s * s) * (vt[0] * ve[1] - vt[1] * ve[0])

        area = extras["area"] = _sphere_family(v.area).signed_area(
            round_two_form)
        checks.append(_scored(v, "sphere_area", abs(area - v.area.expected)
                              / abs(v.area.expected)))
    for fam in map(_sphere_family, v.families):
        endpoint = transgress(geom, fam, v.x0).endpoint()[0]
        oracle = transgress_flat(geom, fam, v.x0)[0]
        scale = max(1.0, abs(oracle))
        checks.append(_check(f"oracle_{fam.name}",
                             abs(endpoint - oracle) / scale,
                             v.tolerances.oracle))
    return checks, extras


def _run_so3_integrability(v, seed):
    rs = v.radii + [0.0] if v.include_origin and 0.0 not in v.radii \
        else v.radii
    constancy = v.tolerances.generator_constancy
    report = so3_lattice(v.f, radii=rs, grid=tuple(v.grid),
                         constancy_tol=constancy)
    checks, extras = [_check("generator_constancy",
                             report.relative_deviation, constancy)], {}
    if report.has_degenerate_origin:
        checks.append(_scored(v, "origin_degenerate", report.origin_pi))
    if v.expected_generator is not None:
        deviation = worst(abs(c - v.expected_generator)
                          / max(1.0, abs(v.expected_generator))
                          for c in report.radial_components)
        checks.append(_scored(v, "generator_value", deviation))
    try:
        verdict = integrability_verdict(report, v.exact_slope)
    except ValueError as exc:
        checks.append(_failed("slope_consistency", exc))
        verdict = VERDICT_INCONCLUSIVE
    extras["integrability"] = verdict
    extras["generators"] = [float(g) for g in report.radial_components]
    if v.expected_verdict is not None:
        checks.append(_check("verdict_match", 0.0
                             if verdict == v.expected_verdict else 1.0, 0.5))
    return checks, extras


def _run_apath(v, seed):
    fiber = HamiltonianFiber.coadjoint_so3()
    alpha = lambda t, e: [f([t, e]) for f in v.alpha]
    r1 = flow_commutation_residual(fiber, alpha, v.x0, eps=v.eps,
                                   step=v.step)
    checks = [_scored(v, "flow_commutation", r1)]
    extras = {"residual_at_step": r1}
    if v.halving:
        r2 = flow_commutation_residual(fiber, alpha, v.x0, eps=v.eps,
                                       step=v.step / 2.0)
        floor = 1e-13   # below this both residuals sit at roundoff
        if not (math.isfinite(r1) and math.isfinite(r2)):
            gain = math.nan
        else:
            gain = r2 / r1 if r1 > floor else 0.0
        checks.append(_scored(v, "halving_gain", gain))
        extras["residual_at_half_step"] = r2
    return checks, extras


def _groupoid_instance(name):
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="fiber")
    space = FiberedSpace(base, fiber, name=name)
    omega = HorizontalForm(space, 2, lambda p: [1.5], name="const-omega")
    pi_v = VerticalBivector(space, lambda p: [2.0], name="const-pi")
    conn = FlatConnection(space) if name == "split-product" else \
        Connection(space, lambda b, x: [[0.3, -0.1], [0.2, 0.4]],
                   name="const-mixing")
    return GeometricData(space, conn, pi_v, omega, name=name)


def _run_groupoid_check(v, seed):
    geom = _groupoid_instance(v.instance)
    gpd = PairGroupoid(geom.space.dim)
    checks = [_scored(v, "axioms", gpd.axioms_residual(seed=seed))]
    form = pair_form(coupling_form(geom))
    checks.append(_scored(v, "multiplicativity",
                          multiplicativity_residual(form.value,
                                                    geom.space.dim, seed=seed)))
    report = integrated_data_check(geom, count=v.samples, seed=seed)
    checks.append(_check("fiber_nondegeneracy",
                         float(report["fiber_nondegeneracy_dim"]), 0.5))
    checks += [_scored(v, key, report[key])
               for key in ("horizontal_identity", "hor_projection",
                           "hor_vertical_orthogonality")]
    checks.append(_scored(v, "source_target_orthogonality",
                          source_target_orthogonality(geom, form, seed=seed)))
    return checks, {}


# -- the scenario kinds ---------------------------------------------------------------

#: each scenario kind, stated once: its runner, the default of every
#: tolerance its checks score (a scenario may set only these; `oracle`
#: scores each oracle_<family>), and the declaration (type, default) of
#: every key it reads
Kind = namedtuple("Kind", "run tolerances keys")


def _kind(run, tolerances, keys):
    """A kind reading `keys` and those every kind takes."""
    positive = real(0.0, math.inf, False, (0.0, 1.0))
    return Kind(run, tolerances, _declared({
        "name": (text, REQUIRED), "kind": (enum(KINDS), REQUIRED),
        "seed": (count(0, MAX_SEED, MAX_SEED), 0),
        "tolerances": (obj({name: (positive, default)
                            for name, default in tolerances.items()}), {}),
        **keys}))


KINDS = {}   # filled below, where each kind's `kind` key is read against it
KINDS.update({
    "coupling-check": _kind(
        _run_coupling_check,
        {**dict.fromkeys(CONDITION_NAMES, 1e-8), "dirac_closure": 1e-6,
         "oracle_agreement": 1e-6, "leaf_form_match": 1e-8,
         "splitting_brackets": 1e-6},
        {**_MODEL, "samples": (SAMPLES, 64),
         "checks": (listing(enum(("conditions", "closure",
                                  "oracle-agreement", "leaf-form",
                                  "splitting")), 1, math.inf),
                    ["conditions"])}),
    "ymh-build": _kind(
        _run_ymh_build,
        {"structure_jacobi": 1e-12, "bianchi": 1e-10, "prehamiltonian": 1e-10,
         "coupling_conditions": 1e-8, "gauge_closedness": 1e-8,
         "gauge_winding": 1e-6},
        {**_MODEL, "samples": (SAMPLES, 32)}),
    "transgress": _kind(
        _run_transgress, {"sphere_area": 1e-6, "oracle": 1e-4},
        {"area": (union("family", {
            name: {**keys, "expected": (constant(True), "4*pi")}
            for name, keys in FAMILY_KEYS.items()}), None),
         "f": (F_OF_X, "x"),
         "families": (listing(union("family", FAMILY_KEYS), 0, math.inf),
                      []),
         # the fiber chart of the hopf-flat model, |x| <= 1.5
         "x0": (point(HamiltonianFiber.scaled_line(None).domain), [0.3])}),
    "so3-integrability": _kind(
        _run_so3_integrability,
        {"generator_constancy": 1e-3, "origin_degenerate": 1e-8,
         "generator_value": 1e-4},
        {"exact_slope": (rational, None),
         "expected_generator": (constant(False), None),
         "expected_verdict": (enum(VERDICTS), None),
         "f": (expression(("r",)), REQUIRED),
         "grid": (simpson(2, MAX_LATTICE_GRID, 8), [64, 64]),
         "include_origin": (flag, True),
         "radii": (listing(radius, 1, math.inf), [0.5, 1.0, 1.5])}),
    "apath": _kind(
        _run_apath, {"flow_commutation": 1e-6, "halving_gain": 0.125},
        {"alpha": (listing(expression(("t", "e")), 3, 3),
                   ["(3+e)*sin(2*pi*t)", "2.5*cos(3*pi*t)-e*t",
                    "1.5*sin(5*t+e)"]),
         "eps": (real(-math.inf, math.inf, True, (-3.0, 3.0)), 0.3),
         "halving": (flag, True),
         # a run costs one RK4 step per `step` of time: fuzz at >= 0.05
         "step": (real(MIN_APATH_STEP, math.inf, True, (0.05, 1.0)), 1e-3),
         "x0": (point(HamiltonianFiber.coadjoint_so3().domain),
                [0.6, 0.0, 0.8])}),
    "groupoid-check": _kind(
        _run_groupoid_check,
        {"axioms": 1e-14, "multiplicativity": 1e-12,
         "horizontal_identity": 1e-8, "hor_projection": 1e-10,
         "hor_vertical_orthogonality": 1e-10,
         "source_target_orthogonality": 1e-10},
        {"instance": (enum(("split-product", "twisted-product")),
                      "split-product"),
         "samples": (SAMPLES, 6)}),
})


def parse(scenario):
    """The scenario's values, typed by its kind's declarations, defaults
    filled, or the ScenarioError naming the first key that fails them: the
    one place a scenario is read.  It also applies the rules that span
    keys."""
    kind = scenario.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ScenarioError("kind", f"unknown scenario kind {kind!r}; one "
                                    f"of {list(KINDS)} expected")
    v = _read(scenario, KINDS[kind].keys, "")
    if kind == "transgress" and v.area is None and not v.families:
        raise ScenarioError("families", "a transgress scenario needs an "
                                        "'area' or a non-empty 'families'")
    if kind == "so3-integrability" and not any(r > 0.0 for r in v.radii):
        raise ScenarioError("radii", "at least one radius must be positive")
    if "fields" in KINDS[kind].keys:
        v.geom = _model(v)
    return v


# -- report assembly ------------------------------------------------------------------

def run_scenario(scenario):
    """Parse and run a scenario dict; returns (report, exit_code)."""
    v = parse(scenario)
    start, extras = time.perf_counter(), {}
    try:
        # on array sample points a domain error is a NaN residual: a FAIL
        with np.errstate(all="ignore"):
            checks, extras = KINDS[v.kind].run(v, v.seed)
    except IncompleteTransportError as exc:
        checks = [_failed("numerical-escape", exc)]
    except (ValueError, ZeroDivisionError, OverflowError, MemoryError,
            RecursionError, np.linalg.LinAlgError) as exc:
        checks = [_failed("evaluation-error", exc)]
    wall_ms = int(round(1000.0 * (time.perf_counter() - start)))
    verdict = "PASS" if all(c["verdict"] == "PASS" for c in checks) \
        else "FAIL"
    report = {"scenario": v.name, "kind": v.kind, "checks": checks,
              "verdict": verdict, "grid": getattr(v, "grid", None),
              "seed": v.seed, "tool_version": __version__,
              "wall_ms": wall_ms, **extras}
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
    """Each registered builder whose name holds the filter, with its note:
    the first paragraph of its docstring."""
    needle = (args.filter or "").lower()
    for name, builder in sorted({**EXAMPLES, **FAMILIES}.items()):
        if needle in name.lower():
            note = (inspect.getdoc(builder) or "").split("\n\n")[0]
            print(f"{name:15s} {' '.join(note.split())}")
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
