"""Every function and method of the package is used somewhere, and the
package keeps only what a caller reaches.

A function or method defined under `src/fiberdirac` that nothing in
`src/`, `perfbench/` or `tests/` refers to is dead code: it can drift
from the code around it unseen.  A module-level function that only
`tests/` refers to is a test's tool, not the package's: it belongs in
`tests/reference.py`, unless the package exports it in `__all__`.  There
is no linter in the toolchain, so this parses the sources with `ast`,
next to the knob audit in `test_knobs.py`.

References are matched by name alone: a name `f`, an attribute `obj.f`,
or a string that names it (the perfbench tracer patches `"Class.f"` by
string) all refer to every function or method named `f`.  A reference
inside the function's own definition (recursion) does not count.
Dunder methods are called by the language and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import fiberdirac

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberdirac"
RUNTIME = sorted(p for d in ("src", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
CALLERS = RUNTIME + TESTS


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


def reached_only_by_tests(package_sources, runtime_sources, test_sources,
                          exported):
    """Names of the package's module-level functions that no runtime source
    refers to outside their own definition but a test source does, and
    that `exported` does not name, in definition order."""
    runtime, tests = Counter(), Counter()
    for source in runtime_sources:
        runtime.update(_references(ast.parse(source)))
    for source in test_sources:
        tests.update(_references(ast.parse(source)))
    return [node.name for source in package_sources
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and runtime[node.name] <= _references(node)[node.name]
            and tests[node.name] and node.name not in exported]


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


def test_the_check_sees_a_function_only_tests_use():
    package = ("def api(): pass\n"
               "def helper(): pass\n"
               "def used(): return helper()\n"
               "def reference(n): return reference(n - 1)\n"
               "class C:\n"
               "    def m(self): pass\n")
    runtime = [package, "used()\n"]
    tests = "api()\nused()\nreference(3)\nC().m()\n"
    assert reached_only_by_tests([package], runtime, [tests], {"api"}) == \
        ["reference"]
    assert reached_only_by_tests([package], runtime, [tests], set()) == \
        ["api", "reference"]


def test_every_function_only_tests_use_is_exported():
    read = [p.read_text(encoding="utf-8")
            for p in sorted(PACKAGE.glob("*.py"))]
    runtime = [p.read_text(encoding="utf-8") for p in RUNTIME]
    tests = [p.read_text(encoding="utf-8") for p in TESTS]
    assert reached_only_by_tests(read, runtime, tests,
                                 set(fiberdirac.__all__)) == []
