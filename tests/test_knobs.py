"""Every defaulted parameter of a package function is set by some call.

A default that no call in `src/`, `perfbench/` or `tests/` ever overrides
is a knob that changes nothing: it belongs inline, as a constant.  There
is no linter in the toolchain, so this parses the sources with `ast`.

Calls are matched to definitions by name alone: `f(…)` and `obj.f(…)`
call every function or method named `f`, and `C(…)` or `….__init__(…)`
calls `__init__`.  A call sets a parameter when it names it as a keyword
or passes enough positional arguments to reach it, with an argument that
is not the default's own literal (`t1=1.0` against `t1=1.0` sets
nothing); a call that spreads `*args` or `**kwargs` sets them all.
`EXAMPLES[key](…)` calls every function the `EXAMPLES` registry lists.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberdirac"
CALLERS = sorted(p for d in ("src", "perfbench", "tests")
                 for p in (ROOT / d).rglob("*.py"))

#: parameters that stay unset on purpose: display labels, and the sample
#: points of the two checks whose `points` the perfbench tracer binds by
#: name
ALLOWED = {"name", "check_coupling_conditions.points",
           "dirac_closure_residual.points"}


def _registry(trees):
    """Names of the functions a module-level `EXAMPLES = {…}` lists."""
    names = set()
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "EXAMPLES"
                            for t in node.targets)
                    and isinstance(node.value, ast.Dict)):
                names |= {v.id for v in node.value.values
                          if isinstance(v, ast.Name)}
    return names


def _literal(node):
    """`(type, value)` of a literal expression, else the expression's
    tree: what a default and an argument are compared by."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return ast.dump(node)
    return type(value), value


def _knobs(tree):
    """(function name, parameter, positional index or None, default) of
    every defaulted parameter; a method's index counts `self` / `cls`."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                shift = 1 if in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list) else 0
                out.extend((child.name, p.arg, i - shift,
                            _literal(a.defaults[i - first]))
                           for i, p in enumerate(positional) if i >= first)
                out.extend((child.name, p.arg, None, _literal(d))
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _callee_names(func, classes, registered):
    if isinstance(func, ast.Name):
        return {"__init__"} if func.id in classes else {func.id}
    if isinstance(func, ast.Attribute):
        return {"__init__"} if func.attr in classes else {func.attr}
    if (isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name)
            and func.value.id == "EXAMPLES"):
        return set(registered)
    return set()


def unset_knobs(package_sources, caller_sources):
    """`function.parameter` for every defaulted parameter of the package
    sources that no call in the caller sources sets, minus `ALLOWED`."""
    package = [ast.parse(s) for s in package_sources]
    callers = [ast.parse(s) for s in caller_sources]
    classes = {n.name for t in package for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    registered = _registry(package)
    by_position, by_keyword, spread = {}, {}, set()
    for tree in callers:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            for fn in _callee_names(call.func, classes, registered):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    spread.add(fn)
                for i, arg in enumerate(call.args):
                    by_position.setdefault((fn, i), []).append(_literal(arg))
                for k in call.keywords:
                    by_keyword.setdefault((fn, k.arg), []).append(
                        _literal(k.value))
    unset = []
    for tree in package:
        for fn, param, index, default in _knobs(tree):
            passed = by_keyword.get((fn, param), []) + by_position.get(
                (fn, index), [])
            if fn in spread or any(arg != default for arg in passed):
                continue
            if param not in ALLOWED and f"{fn}.{param}" not in ALLOWED:
                unset.append(f"{fn}.{param}")
    return unset


def test_the_check_sees_an_unset_parameter():
    package = ("def f(a, b=1, c=2, *, d=3): pass\n"
               "class C:\n"
               "    def __init__(self, x, y=0): pass\n"
               "    def m(self, u=1, v=2): pass\n"
               "def g(k=0): pass\n"
               "EXAMPLES = {'g': g}\n")
    callers = ("f(1, c=5)\nf(1, 1, d=3)\nC(1)\nC(1).m(4)\n"
               "EXAMPLES['g'](1)\n")
    assert unset_knobs([package], [package, callers]) == [
        "f.b", "f.d", "__init__.y", "m.v"]


def test_every_defaulted_parameter_is_set_by_some_call():
    read = [p.read_text(encoding="utf-8")
            for p in sorted(PACKAGE.glob("*.py"))]
    assert unset_knobs(read, [p.read_text(encoding="utf-8")
                              for p in CALLERS]) == []
