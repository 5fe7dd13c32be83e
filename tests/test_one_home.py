"""The small numerical rules have one home each.

Index tuples come from `_numerics.combos`, unit vectors from `dual.unit`
and complex-step derivatives from `_numerics.complex_partials`; no other
package module calls `itertools.combinations`, builds a unit vector entry
by `1.0 if … == … else 0.0`, spells the step 1e-30 or reads an imaginary
part (`.imag`, `np.imag`).  A pointwise check visits its sample points as
one array axis, so no module calls the per-point map `parallel_map` at
all.  The samplers return that format, one point whose coordinates are
float arrays over the samples, so `_numerics.stack` is left for a
caller's own list of points: no module calls `stack` on the result of
`sample`, `sample_points`, `sample_unit_cube` or `_box_points`.  The RK4
time grid is `_numerics.rk4_times`: no other module computes a step
count (`ceil` of an expression in `step`), and an RK4 input that depends
on time alone comes from a `_numerics.time_table`, so no module defines
a memo of the last time (a function named `…memo…`, or one decorated
`lru_cache` / `cache`).  RK4's weights h/6 are written once, in
`_numerics.rk4_step` and its step matrices: no other module divides by
the literal 6.0.  No other module names `rk4_step` either, so every RK4
run goes through `rk4_integrate` or `linear_rk4` on the `rk4_times`
grid.  A
least-squares distance is `_numerics.lstsq_residual`, one stacked QR
factorization: no other module names `lstsq`, `qr` or numpy's
`_umath_linalg`.  A scenario
is read in one place, `cli.parse`: no other function of `cli` subscripts or
`.get`s the raw scenario or its `fields`, `area` or `families` objects;
the runners read the values `parse` returns.  There
is no linter in the toolchain, so this parses the package with `ast`,
next to the import audit in `test_imports.py`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiberdirac"
MODULES = sorted(PACKAGE.glob("*.py"))

#: rule → the one module allowed to spell it out (None: no module)
HOMES = {"combinations": "_numerics", "unit vector": "dual",
         "complex step": "_numerics", "per-point map": None,
         "rk4 grid": "_numerics", "time memo": None,
         "rk4 weights": "_numerics", "rk4 step": "_numerics",
         "least squares": "_numerics", "re-stacked sample": None}

LSTSQ_NAMES = {"lstsq", "qr", "_umath_linalg"}

MEMO_DECORATORS = {"lru_cache", "cache"}

SAMPLERS = {"sample", "sample_points", "sample_unit_cube", "_box_points"}


def _is_number(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == value)


def _names(node):
    """Every name and attribute name in the tree under `node`."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node)}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def hand_rolled(source):
    """The rules a module spells out itself, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools" \
                and any(a.name == "combinations" for a in node.names):
            found.append("combinations")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                and any(a.name == "imag" for a in node.names):
            found.append("complex step")
        elif isinstance(node, ast.Attribute) and node.attr in LSTSQ_NAMES:
            found.append("least squares")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                set(a.name.split(".")) & LSTSQ_NAMES for a in node.names):
            found.append("least squares")
        elif isinstance(node, ast.Attribute) and node.attr == "imag":
            found.append("complex step")
        elif _is_number(node, 1e-30):
            found.append("complex step")
        elif (isinstance(node, ast.Call) and _decorator_name(node) == "stack"
              and any(isinstance(a, ast.Call)
                      and _decorator_name(a) in SAMPLERS for a in node.args)):
            found.append("re-stacked sample")
        elif isinstance(node, ast.Call) and "parallel_map" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append("per-point map")
        elif (isinstance(node, ast.Attribute) and node.attr == "combinations"
              and isinstance(node.value, ast.Name)
              and node.value.id == "itertools"):
            found.append("combinations")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and _is_number(node.right, 6.0)):
            found.append("rk4 weights")
        elif "rk4_step" in (getattr(node, "id", None),
                            getattr(node, "attr", None),
                            getattr(node, "name", None)):
            found.append("rk4 step")
        elif (isinstance(node, ast.Call) and _decorator_name(node) == "ceil"
              and "step" in set().union(*map(_names, node.args))):
            found.append("rk4 grid")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                "memo" in node.name or any(
                    _decorator_name(d) in MEMO_DECORATORS
                    for d in node.decorator_list)):
            found.append("time memo")
        elif (isinstance(node, ast.IfExp) and _is_number(node.body, 1.0)
              and _is_number(node.orelse, 0.0)
              and isinstance(node.test, ast.Compare)
              and [type(op) for op in node.test.ops] == [ast.Eq]):
            found.append("unit vector")
    return found


def test_the_scan_sees_a_planted_copy():
    planted = ("import itertools\n"
               "from itertools import combinations\n"
               "pairs = list(itertools.combinations(range(3), 2))\n"
               "e = [1.0 if k == i else 0.0 for k in range(3)]\n"
               "sign = 1.0 if k % 2 == 0 else -1.0\n"
               "v = [1.0 if k == 0 else 0.25 for k in range(3)]\n"
               "from numpy import imag, real\n"
               "h = 1e-30\n"
               "d = np.imag(f(x + 1j * h)) / h\n"
               "d = f(x + 1j * h).imag / h\n"
               "r = np.real(z) + z.real + 1e-3\n"
               "rows = parallel_map(check, points)\n"
               "rows = _numerics.parallel_map(check, points)\n"
               "fn = parallel_map\n"
               "n = max(1, int(math.ceil(abs(t1 - t0) / step - 1e-12)))\n"
               "n = ceil(span / self.step)\n"
               "n = math.ceil(span / h)\n"
               "y = x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)\n"
               "w = h / 6 + h / 3.0\n"
               "from ._numerics import rk4_integrate, rk4_step\n"
               "y = _numerics.rk4_step(f, t, y, h)\n"
               "step = rk4_step\n"
               "y = rk4_integrate(f, y, 0.0, 1.0)\n"
               "def last_time_memo(fn):\n    return fn\n"
               "@functools.lru_cache(maxsize=None)\n"
               "def drive(t):\n    return t\n"
               "@cache\n"
               "def k(t):\n    return t\n"
               "@staticmethod\n"
               "def table(t):\n    return t\n"
               "x = np.linalg.lstsq(a, b, rcond=None)[0]\n"
               "from numpy.linalg import _umath_linalg, svd\n"
               "import numpy.linalg._umath_linalg as gufuncs\n"
               "from numpy.linalg import lstsq as solve\n"
               "s = np.linalg.svd(a)\n"
               "q, r = np.linalg.qr(a)\n"
               "lstsq = lstsq_residual(rows, vec)\n"
               "pt = stack(geom.sample_points(8, seed=seed))\n"
               "x = _numerics.stack(self.domain.sample(count=4))\n"
               "u = stack(sample_unit_cube(6, 2))\n"
               "v = stack(_box_points(6, 2))\n"
               "pt = stack(points)\n"
               "pt = stack([sample(p) for p in points])\n")
    assert sorted(hand_rolled(planted)) == [
        "combinations", "combinations", "complex step", "complex step",
        "complex step", "complex step", "least squares", "least squares",
        "least squares", "least squares", "least squares", "per-point map",
        "per-point map",
        "re-stacked sample", "re-stacked sample", "re-stacked sample",
        "re-stacked sample", "rk4 grid", "rk4 grid", "rk4 step",
        "rk4 step", "rk4 step", "rk4 weights",
        "time memo",
        "time memo", "time memo", "unit vector"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_leaves_the_rules_to_their_home(path):
    assert [rule for rule in hand_rolled(path.read_text(encoding="utf-8"))
            if HOMES[rule] != path.stem] == []


#: the objects inside a scenario that only the parser reads
SCENARIO_OBJECTS = {"fields", "area", "families"}


def _reads_scenario(node):
    """Whether `node` reads through a subscript or `.get` the raw scenario,
    named `scenario`, or one of its objects by name (a report's key of the
    same name is written, not read)."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        target, index = node.value, node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get"):
        target, index = node.func.value, (node.args or [None])[0]
    else:
        return False
    return (isinstance(target, ast.Name) and target.id == "scenario") or (
        isinstance(index, ast.Constant) and index.value in SCENARIO_OBJECTS)


def scenario_reads(source):
    """The top-level functions other than `parse` that read a scenario
    themselves, in source order."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name != "parse"
            and any(map(_reads_scenario, ast.walk(node)))]


def test_the_scan_sees_a_scenario_read_outside_the_parser():
    planted = ("def run(scenario, seed):\n    return scenario['samples']\n"
               "def ran(v, seed):\n    return v.samples\n"
               "def parse(scenario):\n    return scenario.get('seed', 0)\n"
               "def build(cfg):\n    return cfg.get('fields')\n"
               "def area(s):\n    return s['area']['expected']\n"
               "def echo(v):\n    return scenario.get('grid')\n"
               "def tol(v, name):\n    return v.tolerances[name]\n"
               "def report(v, extras):\n    extras['area'] = v.area\n"
               "def nested(v):\n    def inner(scenario):\n"
               "        return scenario['f']\n    return inner\n")
    assert scenario_reads(planted) == ["run", "build", "area", "echo",
                                       "nested"]


def test_only_the_parser_reads_a_scenario():
    assert scenario_reads((PACKAGE / "cli.py").read_text(
        encoding="utf-8")) == []
