"""The small numerical rules have one home each.

Index tuples come from `_numerics.combos`, unit vectors from `dual.unit`
and complex-step derivatives from `_numerics.complex_partials`; no other
package module calls `itertools.combinations`, builds a unit vector entry
by `1.0 if … == … else 0.0`, spells the step 1e-30 or reads an imaginary
part (`.imag`, `np.imag`).  A pointwise check visits its sample points as
one array axis (`_numerics.stack`), so no module calls the per-point map
`parallel_map` at all.  There is no linter in the toolchain, so this
parses the package with `ast`, next to the import audit in
`test_imports.py`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiberdirac"
MODULES = sorted(PACKAGE.glob("*.py"))

#: rule → the one module allowed to spell it out (None: no module)
HOMES = {"combinations": "_numerics", "unit vector": "dual",
         "complex step": "_numerics", "per-point map": None}


def _is_number(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == value)


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
        elif isinstance(node, ast.Attribute) and node.attr == "imag":
            found.append("complex step")
        elif _is_number(node, 1e-30):
            found.append("complex step")
        elif isinstance(node, ast.Call) and "parallel_map" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append("per-point map")
        elif (isinstance(node, ast.Attribute) and node.attr == "combinations"
              and isinstance(node.value, ast.Name)
              and node.value.id == "itertools"):
            found.append("combinations")
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
               "fn = parallel_map\n")
    assert sorted(hand_rolled(planted)) == [
        "combinations", "combinations", "complex step", "complex step",
        "complex step", "complex step", "per-point map", "per-point map",
        "unit vector"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_leaves_the_rules_to_their_home(path):
    assert [rule for rule in hand_rolled(path.read_text(encoding="utf-8"))
            if HOMES[rule] != path.stem] == []
