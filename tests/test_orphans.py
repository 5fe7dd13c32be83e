"""Every function and method of the package is used somewhere.

A function or method defined under `src/fiberdirac` that nothing in
`src/`, `perfbench/` or `tests/` refers to is dead code: it can drift
from the code around it unseen.  There is no linter in the toolchain, so
this parses the sources with `ast`, next to the knob audit in
`test_knobs.py`.

References are matched by name alone: a name `f`, an attribute `obj.f`,
or a string that names it (the perfbench tracer patches `"Class.f"` by
string) all refer to every function or method named `f`.  A reference
inside the function's own definition (recursion) does not count.
Dunder methods are called by the language and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberdirac"
CALLERS = sorted(p for d in ("src", "perfbench", "tests")
                 for p in (ROOT / d).rglob("*.py"))


def _references(tree):
    """How often each name is referred to in a tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def orphans(package_sources, caller_sources):
    """Names of the package's functions and methods that no caller source
    refers to outside their own definition, in definition order."""
    total = Counter()
    for source in caller_sources:
        total.update(_references(ast.parse(source)))
    out = []
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and total[node.name] <= _references(node)[node.name]):
                out.append(node.name)
    return out


def test_the_check_sees_an_orphan():
    package = ("def used(): pass\n"
               "def recursive(n): return recursive(n - 1)\n"
               "class C:\n"
               "    def __init__(self): pass\n"
               "    def m(self): pass\n"
               "    def patched(self): pass\n"
               "    def lost(self): return self.lost()\n")
    callers = "used()\nC().m()\nPATCH = 'C.patched'\n"
    assert orphans([package], [package, callers]) == ["recursive", "lost"]


def test_every_function_is_referred_to():
    read = [p.read_text(encoding="utf-8")
            for p in sorted(PACKAGE.glob("*.py"))]
    assert orphans(read, [p.read_text(encoding="utf-8")
                          for p in CALLERS]) == []
