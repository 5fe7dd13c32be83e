"""In-memory span tracer that instruments fiberdirac from the outside.

Entering a `Tracer` patches the public functions and methods listed in
`SPANS` and `COUNTERS` in every `fiberdirac` module namespace that binds
them (a function imported with `from … import` is bound in several
modules), and leaving it restores every original object.

* A span records (name, start_ns, end_ns, parent index, op id).  Spans sit
  on coarse calls only: scenario runs, transgressions, transports, RK4
  integrations, linear-algebra helpers, checker entry points.
* A counter counts calls (and, if timed, the nanoseconds inside them)
  without a span.  Counters sit on hot calls: family nodes, form and field
  evaluations, RK4 steps, chart guards, dual-seeded passes and compiled
  expressions.  Individual Dual operations are not instrumented; the
  layer probes time them.

Spans stay in memory; `dump` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from fiberdirac import dual as dm

# (module, qualified name, span name, hook); functions sharing a span name
# form one layer, and nested spans of one name count once.
SPANS = (
    ("fiberdirac.cli", "run_scenario", "cli.run_scenario", None),
    ("fiberdirac.monodromy", "transgress", "monodromy.transgress", "slices"),
    ("fiberdirac.monodromy", "transgress_flat", "monodromy.transgress_flat",
     None),
    ("fiberdirac.monodromy", "so3_lattice", "monodromy.so3_lattice", None),
    ("fiberdirac.monodromy", "SphereFamily.signed_area",
     "monodromy.signed_area", None),
    ("fiberdirac.monodromy", "VerStarPath.transport_consistency",
     "monodromy.transport_consistency", None),
    ("fiberdirac.fibration", "parallel_transport",
     "fibration.parallel_transport", "transport"),
    ("fiberdirac.fibration", "curvature", "fibration.curvature", None),
    ("fiberdirac._numerics", "rk4_integrate", "numerics.rk4_integrate", None),
    ("fiberdirac._numerics", "orthonormal_basis", "numerics.linalg", None),
    ("fiberdirac._numerics", "principal_angles", "numerics.linalg", None),
    ("fiberdirac._numerics", "intersection_dimension", "numerics.linalg", None),
    ("fiberdirac._numerics", "nullspace", "numerics.linalg", None),
    ("fiberdirac._numerics", "lstsq_residual", "numerics.linalg", None),
    ("fiberdirac._numerics", "parallel_map", "numerics.parallel_map", None),
    ("fiberdirac.apath", "flow_commutation_residual",
     "apath.flow_commutation", None),
    ("fiberdirac.apath", "solve_evolution", "apath.solve_evolution", None),
    ("fiberdirac.coupling", "check_coupling_conditions",
     "coupling.conditions", "points"),
    ("fiberdirac.coupling", "dirac_closure_residual", "coupling.oracle",
     "points"),
    ("fiberdirac.coupling", "splitting_bracket_residual",
     "coupling.splitting", None),
    ("fiberdirac.fields", "courant_bracket", "fields.courant_bracket", None),
    ("fiberdirac.yangmills", "HamiltonianFiber.prehamiltonian_residual",
     "yangmills.prehamiltonian", None),
    ("fiberdirac.groupoid", "integrated_data_check",
     "groupoid.integrated_data", None),
    ("fiberdirac.groupoid", "multiplicativity_residual",
     "groupoid.multiplicativity", None),
)

# (module, qualified name, counter name, timed, hook)
COUNTERS = (
    ("fiberdirac.dual", "partial", "dual.seeded_passes", False, None),
    ("fiberdirac.dual", "directional", "dual.seeded_passes", False, None),
    ("fiberdirac.dual", "second_partial", "dual.seeded_passes", False, None),
    ("fiberdirac.dual", "jacobian", "dual.seeded_passes", False, "columns"),
    ("fiberdirac.monodromy", "SphereFamily.point", "monodromy.family_evals",
     False, "node"),
    ("fiberdirac.monodromy", "SphereFamily.d_t", "monodromy.family_evals",
     False, "node"),
    ("fiberdirac.monodromy", "SphereFamily.d_eps", "monodromy.family_evals",
     False, "node"),
    ("fiberdirac.fibration", "HorizontalForm.value", "fibration.omega_evals",
     False, None),
    ("fiberdirac.fields", "SmoothField.__call__", "fields.evals", False, None),
    ("fiberdirac.charts", "CoordinateDomain.contains", "charts.contains",
     True, None),
    ("fiberdirac._numerics", "rk4_step", "numerics.rk4_steps", False, None),
    ("fiberdirac.yangmills", "HamiltonianFiber.action_matrix",
     "yangmills.action_matrix", False, None),
)


def _state_key(x):
    """Hashable image of a float / Dual / nested-Dual state entry."""
    if isinstance(x, dm.Dual):
        return (_state_key(x.re), _state_key(x.eps))
    return float(x)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op]


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover
    (children of one span never overlap: the traced run is single
    threaded and spans nest)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Collects spans, counters and per-op distinctness sets.

    Use as a context manager around the traced ops; call `begin_op` before
    each op so its spans share an id and distinct-key sets reset.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()          # open spans per name
        self.counts = Counter()
        self.busy_ns = Counter()         # timed counters
        self.hook_counts = Counter()     # points, slices, distinct keys …
        self.op = None
        self._seen = {}
        self._patches = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (an op, an apath query)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter_ns(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        self.active[name] += 1

    def _close(self):
        span = self.spans[self.stack.pop()]
        span.end = perf_counter_ns()
        self.active[span.name] -= 1

    def begin_op(self, op_id):
        self.op = op_id
        self._seen = {}

    def _distinct(self, kind, key):
        """Count one call and whether its key is new within the op.  Keys
        hold objects, not ids, so an id cannot be reused within the op."""
        seen = self._seen.setdefault(kind, set())
        self.hook_counts[f"{kind}.calls"] += 1
        if key not in seen:
            seen.add(key)
            self.hook_counts[f"{kind}.distinct"] += 1

    # -- hooks (run before the wrapped call) --------------------------------

    def _hook(self, kind, name, sig, args, kwargs, method_name):
        if kind == "node":
            if self.active["monodromy.transgress"]:
                family, t, eps = args[0], args[1], args[2]
                self._distinct("family_node",
                               (family, method_name, _state_key(t),
                                _state_key(eps)))
            return
        if kind == "columns":
            self.counts["dual.seeded_passes"] += len(args[1]) - 1
            return
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if kind == "slices":
            self.hook_counts["transgress.slices"] += a["family"].n_eps
        elif kind == "points":
            n = len(a["points"]) if a["points"] is not None else a["count"]
            self.hook_counts[f"{name}.points"] += n
        elif kind == "transport":
            path = a["path"]
            self._distinct("transport",
                           (a["connection"], path.name or path,
                            tuple(_state_key(c) for c in a["x0"]),
                            _state_key(a["t0"]), _state_key(a["t1"])))

    # -- patching -----------------------------------------------------------

    def _span_wrapper(self, fn, name, hook, method_name):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                self._hook(hook, name, sig, args, kwargs, method_name)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _counter_wrapper(self, fn, name, timed, hook, method_name):
        counts = self.counts
        if timed:
            busy = self.busy_ns

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy[name] += perf_counter_ns() - t0
        elif hook:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                self._hook(hook, name, None, args, kwargs, method_name)
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _compile_wrapper(self, fn):
        """compile_expression: a span around compiling, and a timed counter
        on every evaluation of the callable it returns."""
        counts, busy = self.counts, self.busy_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open("cli.compile_expression")
            try:
                compiled = fn(*args, **kwargs)
            finally:
                self._close()

            def evaluate(vals):
                counts["cli.expr_evals"] += 1
                t0 = perf_counter_ns()
                try:
                    return compiled(vals)
                finally:
                    busy["cli.expr_evals"] += perf_counter_ns() - t0
            return evaluate
        return wrapper

    def _patch(self, module_name, qualname, make):
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original, attr))
            return
        original = getattr(module, qualname)
        wrapper = make(original, qualname)
        for name, mod in list(sys.modules.items()):
            if name != "fiberdirac" and not name.startswith("fiberdirac."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        for module, qualname, name, hook in SPANS:
            self._patch(module, qualname,
                        lambda fn, m, n=name, h=hook:
                        self._span_wrapper(fn, n, h, m))
        for module, qualname, name, timed, hook in COUNTERS:
            self._patch(module, qualname,
                        lambda fn, m, n=name, t=timed, h=hook:
                        self._counter_wrapper(fn, n, t, h, m))
        self._patch("fiberdirac.cli", "compile_expression",
                    lambda fn, m: self._compile_wrapper(fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        return False

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": [s.as_list() for s in self.spans]}, fh)

