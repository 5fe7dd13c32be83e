"""fiberdirac benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory, never from an installed copy.  Everything runs in this
process as a closed loop with a single caller and WORKER_THREADS=1.

--trace 0 times whole passes of seeded ops for --seconds and prints the
end-to-end metrics; --trace 1 runs the layer probes and a fixed number of
passes untraced and then traced, and prints the per-layer metrics.  Every
op is checked against the outcome it was built to produce.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["WORKER_THREADS"] = "1"
# one BLAS thread as well: the package's matrices are tiny, and starting
# OpenBLAS's thread pool adds about 70 ms of host-dependent time to every
# `import numpy`
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# passes per traced run: fixed, so its counts repeat exactly for a seed
TRACE_PASSES = {"lattice-sweep": 1, "pointwise-verify": 6,
                "transport-paths": 2}
# tol_headroom_decades is the minimum over the first passes only: a faster
# program runs more passes, and more seeded parameter sets would only lower
# the minimum, so a speed-up would read as lost accuracy
HEADROOM_PASSES = TRACE_PASSES
P90_MIN_SAMPLES = 100       # at least ten latencies lie beyond the p90
MAX_REPORTED_WRONG = 10

UNITS = {"setup_s": "s", "ops_per_kref": "1/kref", "op_p50_ref": "ref",
         "peak_rss_mb": "MB", "tol_headroom_decades": "decades"}
REFERENCE_ITERATIONS = 2000     # about 1.5 ms of dual-style arithmetic


def import_package():
    """Import fiberdirac from this checkout's src/ or exit with code 2."""
    if not (SRC / "fiberdirac" / "__init__.py").is_file():
        print(f"error: no fiberdirac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fiberdirac
    if Path(fiberdirac.__file__).resolve().parent != SRC / "fiberdirac":
        print(f"error: fiberdirac imported from {fiberdirac.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return fiberdirac


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="lattice-sweep, pointwise-verify, transport-paths "
                        "or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: import and prepare one pass, print the "
                        "seconds that took, then exit")
    return p.parse_args(argv)


# -- set-up time --------------------------------------------------------------------
# Set-up is mostly loading compiled extensions and bytecode.  On a shared
# host that slows when the neighbours are busy; the reference loop below
# does not follow it, but a bare `import numpy` does, and it is about half
# of the set-up.  So each set-up is divided by a bare `import numpy` timed
# in another fresh interpreter just before it; no change to the package
# can change that reference.

NUMPY_IMPORT = ("import time; t = time.perf_counter(); import numpy; "
                "print(time.perf_counter() - t)")
# a bare `import numpy` with one BLAS thread on the box the benchmark was
# written on (median of 75 runs); it turns set-up in reference units back
# into seconds
NOMINAL_NUMPY_IMPORT_S = 0.085


def setup_only(name, seed):
    """In a fresh interpreter: import the package, prepare the workload's
    first pass (parse and compile), and print the seconds that took."""
    start = time.perf_counter()
    import_package()
    import workloads
    workloads.prepare(workloads.PASSES[name](seed, 0))
    print(time.perf_counter() - start)


def timed_child(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup(name, seed):
    """Set-up seconds at the nominal numpy import time: the median, over
    fresh interpreters, of import-and-prepare time divided by the bare
    numpy import timed just before it.  Also returns the raw times."""
    setup_cmd = [sys.executable, str(Path(__file__).resolve()),
                 "--setup-only", "--workload", name, "--seed", str(seed)]
    numpy_cmd = [sys.executable, "-c", NUMPY_IMPORT]
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(timed_child(numpy_cmd))
        setups.append(timed_child(setup_cmd))
    ratio = statistics.median(s / r for s, r in zip(setups, refs))
    return NOMINAL_NUMPY_IMPORT_S * ratio, setups, refs


# -- the reference loop -------------------------------------------------------------
# The shared host this benchmark was written on runs the same Python code
# about 1.65 times slower in some minutes than in others.  Timing a fixed
# loop next to every op and dividing by it cancels that; the loop is
# defined here, so no change to the package can change it.

class _RefNumber:
    """Value and tangent: the shape of the work a Dual does."""

    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __add__(self, other):
        return _RefNumber(self.re + other.re, self.eps + other.eps)

    def __mul__(self, other):
        return _RefNumber(self.re * other.re,
                          self.re * other.eps + self.eps * other.re)


def reference_s():
    """Seconds one reference loop takes right now.  The collector is off
    while it runs, so the heap the program has built cannot set off a
    collection inside the loop and change the denominator."""
    x, acc = _RefNumber(0.999, 1.0), _RefNumber(0.0, 0.0)
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_ITERATIONS):
            acc = acc + x * x
        return time.perf_counter() - start
    finally:
        gc.enable()


# -- running passes -----------------------------------------------------------------

class Tally:
    """Latencies, wrong ops and tolerance headroom of a series of ops.

    `in_refs` holds each latency divided by the mean of the reference
    loops timed just before and just after the op."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.latencies = []
        self.in_refs = []
        self.refs = []
        self.wrong = []
        self.headroom = None

    def add(self, op, index, seconds, bad, headroom):
        self.latencies.append(seconds)
        if bad:
            self.wrong.append(describe_wrong(self.name, self.seed, index, op,
                                             bad))
        if headroom is not None and index < HEADROOM_PASSES[self.name]:
            self.headroom = headroom if self.headroom is None else \
                min(self.headroom, headroom)


def describe_wrong(name, seed, index, op, bad):
    return {"workload": name, "seed": seed, "pass": index, "kind": op.kind,
            "mismatches": bad, "input": op.describe()}


def run_passes(workloads, name, seed, tally, probes_tally, seconds=None,
               passes=None, tracer=None, reference=False):
    """Run whole passes: a fixed number, or while another pass of the mean
    length fits in `seconds` (always at least one).  With `reference`,
    time the reference loop between ops."""
    started = time.perf_counter()
    pass_times = []
    index = 0
    op_id = 0
    ref = reference_s() if reference else None
    while True:
        t0 = time.perf_counter()
        for op in workloads.PASSES[name](seed, index):
            if tracer is not None:
                tracer.begin_op(op_id)
                with tracer.span("op"):
                    result = workloads.run_op(op, tracer)
            else:
                result = workloads.run_op(op)
            if reference:
                after = reference_s()
                tally.in_refs.append(result[0] / (0.5 * (ref + after)))
                tally.refs.append(after)
                ref = after
            tally.add(op, index, *result)
            op_id += 1
        pass_times.append(time.perf_counter() - t0)
        if name == "pointwise-verify":
            probe = workloads.defect_probe(seed, index)
            probes_tally.add(probe, index, *workloads.run_op(probe))
        index += 1
        if passes is not None:
            if index >= passes:
                break
        elif (time.perf_counter() - started
              + statistics.mean(pass_times) > seconds):
            break
    return pass_times


def ops_per_s(tally):
    return len(tally.latencies) / sum(tally.latencies)


# -- per-layer metrics --------------------------------------------------------------

def layer_metrics(tracer_mod, tracer):
    spans = tracer.spans
    same_name_ancestor = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        while p is not None:
            if spans[p].name == s.name:
                same_name_ancestor[i] = True
                break
            p = spans[p].parent
    busy, calls = {}, {}
    for i, s in enumerate(spans):
        if not same_name_ancestor[i]:
            busy[s.name] = busy.get(s.name, 0) + (s.end - s.start)
            calls[s.name] = calls.get(s.name, 0) + 1
    selfs = tracer_mod.self_times(spans)
    rk4_self = sum(t for t, s in zip(selfs, spans)
                   if s.name == "numerics.rk4_integrate")

    def b(name):
        return busy.get(name, 0) / 1e9

    def c(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    query_spans = {i for i, s in enumerate(spans) if s.name == "apath.query"}
    in_query = 0
    for s in spans:
        if s.name != "fibration.parallel_transport":
            continue
        p = s.parent
        while p is not None and p not in query_spans:
            p = spans[p].parent
        in_query += p is not None

    hc, cnt, busy_ns = tracer.hook_counts, tracer.counts, tracer.busy_ns
    cond_pts = hc["coupling.conditions.points"]
    oracle_pts = hc["coupling.oracle.points"]
    return {
        "dual.seeded_passes": cnt["dual.seeded_passes"],
        "monodromy.transgress.busy_s": b("monodromy.transgress"),
        "monodromy.slice_ms": ratio(1e3 * b("monodromy.transgress"),
                                    hc["transgress.slices"]),
        "monodromy.family_evals": cnt["monodromy.family_evals"],
        "monodromy.family_node_distinct_ratio": ratio(
            hc["family_node.distinct"], hc["family_node.calls"]),
        "monodromy.transgress_flat.busy_s": b("monodromy.transgress_flat"),
        "fibration.omega_evals": cnt["fibration.omega_evals"],
        "fibration.parallel_transport.calls": c("fibration.parallel_transport"),
        "fibration.parallel_transport.busy_s":
            b("fibration.parallel_transport"),
        "fibration.transport_distinct_ratio": ratio(
            hc["transport.distinct"], hc["transport.calls"]),
        "fibration.curvature.calls": c("fibration.curvature"),
        "numerics.rk4_steps": cnt["numerics.rk4_steps"],
        "numerics.rk4_integrate.self_s": rk4_self / 1e9,
        "numerics.linalg.calls": c("numerics.linalg"),
        "numerics.linalg.busy_s": b("numerics.linalg"),
        "numerics.parallel_map.calls": c("numerics.parallel_map"),
        "apath.query_ms": ratio(1e3 * b("apath.query"), c("apath.query")),
        "apath.transports_per_query": ratio(in_query, c("apath.query")),
        "apath.flow_commutation.busy_s": b("apath.flow_commutation"),
        "coupling.points": cond_pts + oracle_pts,
        "coupling.conditions_ms_per_pt": ratio(1e3 * b("coupling.conditions"),
                                               cond_pts),
        "coupling.oracle_ms_per_pt": ratio(1e3 * b("coupling.oracle"),
                                           oracle_pts),
        "coupling.splitting.busy_s": b("coupling.splitting"),
        "fields.evals": cnt["fields.evals"],
        "fields.courant_bracket.calls": c("fields.courant_bracket"),
        "yangmills.action_matrix.calls": cnt["yangmills.action_matrix"],
        "yangmills.prehamiltonian.busy_s": b("yangmills.prehamiltonian"),
        "groupoid.integrated_data.busy_s": b("groupoid.integrated_data"),
        "groupoid.multiplicativity.busy_s": b("groupoid.multiplicativity"),
        "charts.contains.calls": cnt["charts.contains"],
        "charts.contains.busy_s": busy_ns["charts.contains"] / 1e9,
        "cli.compile_expression.busy_s": b("cli.compile_expression"),
        "cli.expr_evals": cnt["cli.expr_evals"],
        "cli.expr_eval_ns": ratio(busy_ns["cli.expr_evals"],
                                  cnt["cli.expr_evals"]),
        "cli.run_scenario.busy_s": b("cli.run_scenario"),
        "trace.spans": len(spans),
    }


# -- metadata -----------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(name, seed, args):
    import numpy
    return {"workload": name, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "WORKER_THREADS": os.environ["WORKER_THREADS"],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "load_model": "closed loop, one caller, one process"}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_wrong(tally, label):
    for w in tally.wrong[:MAX_REPORTED_WRONG]:
        print(f"{label}: workload {w['workload']} seed {w['seed']} pass "
              f"{w['pass']} kind {w['kind']}: {'; '.join(w['mismatches'])}",
              file=sys.stderr)
    if len(tally.wrong) > MAX_REPORTED_WRONG:
        print(f"{label}: … {len(tally.wrong) - MAX_REPORTED_WRONG} more",
              file=sys.stderr)


def defect_summary(probes):
    return {"run": len(probes.latencies), "wrong": len(probes.wrong),
            "wrong_kinds": sorted({w["kind"] for w in probes.wrong})}


# -- the two run modes --------------------------------------------------------------

def run_untraced(workloads, name, seed, args, meta):
    setup_s, setup_times, numpy_times = measure_setup(name, seed)
    tally, probes = Tally(name, seed), Tally(name, seed)
    pass_times = run_passes(workloads, name, seed, tally, probes,
                            seconds=args.seconds, reference=True)
    lat_ms = [1e3 * t for t in tally.latencies]
    n = len(lat_ms)
    meta.update({
        "passes": len(pass_times), "ops": n,
        "samples": {"setup_s": len(setup_times), "op_latency": n,
                    "reference_loop": len(tally.refs) + 1},
        "setup_runs_s": setup_times,
        "numpy_import_runs_s": numpy_times,
        "measured_s": sum(pass_times),
        "ops_per_s": ops_per_s(tally),
        "op_p50_ms": statistics.median(lat_ms),
        "reference_loop_ms": 1e3 * statistics.median(tally.refs),
    })
    if n >= P90_MIN_SAMPLES:
        meta["op_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
        meta["op_p90_ref"] = statistics.quantiles(tally.in_refs, n=10)[-1]
    metrics = {
        "setup_s": setup_s,
        "ops_per_kref": 1e3 * n / sum(tally.in_refs),
        "op_p50_ref": statistics.median(tally.in_refs),
        "peak_rss_mb": peak_rss_mb(),
        "tol_headroom_decades": tally.headroom,
    }
    return tally, probes, metrics


def run_traced(workloads, name, seed, args, meta):
    import probes as layer_probes
    import tracer as tracer_mod
    probe_values = layer_probes.run_probes()
    passes = TRACE_PASSES[name]
    plain, probes = Tally(name, seed), Tally(name, seed)
    run_passes(workloads, name, seed, plain, probes, passes=passes)
    traced = Tally(name, seed)
    tracer = tracer_mod.Tracer()
    with tracer:
        run_passes(workloads, name, seed, traced, Tally(name, seed),
                   passes=passes, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-{seed}.json")
    slowdown = ops_per_s(plain) / ops_per_s(traced)
    metrics = layer_metrics(tracer_mod, tracer)
    metrics.update(probe_values)
    metrics["trace.slowdown"] = slowdown
    metrics["verify.defect_probes_wrong"] = len(probes.wrong)
    meta.update({"passes": passes, "ops": len(traced.latencies),
                 "untraced_ops_per_s": ops_per_s(plain),
                 "traced_ops_per_s": ops_per_s(traced),
                 "tracing_overhead": slowdown - 1.0,
                 "samples": {"probes": layer_probes.REPEATS,
                             "op_latency": len(traced.latencies)}})
    plain.latencies += traced.latencies
    plain.wrong += traced.wrong
    return plain, probes, metrics


def run_all(args, names):
    """Each workload in its own process (peak RSS is per process); prints
    every metric by name with its unit, then all results as one line."""
    results, ok = {}, True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        res = results[name] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    import_package()
    import workloads
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    meta = metadata(args.workload, args.seed, args)
    run = run_traced if args.trace else run_untraced
    tally, probes, metrics = run(workloads, args.workload, args.seed, args,
                                 meta)
    report_wrong(tally, "wrong op")
    report_wrong(probes, "defect probe (open ROADMAP item 1)")
    if args.workload == "pointwise-verify":
        meta["defect_probes"] = defect_summary(probes)
    meta["wrong_ops"] = tally.wrong[:MAX_REPORTED_WRONG]
    units = UNITS if not args.trace else {}
    out = {name: {"value": value, "unit": units.get(name, _layer_unit(name))}
           for name, value in metrics.items()}
    if any(v["value"] is None or not math.isfinite(v["value"])
           for v in out.values()):
        print("error: a metric has no finite value", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    attempted = len(tally.latencies)
    print(json.dumps({"correct": not tally.wrong, "attempted": attempted,
                      "failed": len(tally.wrong), "metrics": out}))
    return 0


def _layer_unit(name):
    for suffix, unit in (("_ms_per_pt", "ms/pt"), ("_ns", "ns"),
                         ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_ratio", "ratio"), ("slowdown", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
