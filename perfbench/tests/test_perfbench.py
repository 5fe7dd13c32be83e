"""The benchmark's own tests: deterministic op lists, one validated op per
workload, the tracer's self-time arithmetic, a traced run that leaves
nothing patched behind, and a tolerance headroom that more passes cannot
lower.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from fiberdirac import cli  # noqa: E402


def op_list(name, seed, passes=2):
    return [(op.kind, op.describe(), repr(op.expect))
            for index in range(passes)
            for op in workloads.PASSES[name](seed, index)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_ops(name):
    assert op_list(name, 7) == op_list(name, 7)
    assert op_list(name, 7) != op_list(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pass_has_the_same_schedule(name):
    kinds = [sorted(op.kind for op in workloads.PASSES[name](seed, index))
             for seed, index in ((1, 0), (1, 1), (9, 4))]
    assert kinds[0] == kinds[1] == kinds[2]


SMALL_OP = {"lattice-sweep": "sphere-area",
            "pointwise-verify": "bundled-hopf-coupling",
            "transport-paths": "apath-flow-commutation"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_small_op_validates(name):
    op = next(op for op in workloads.PASSES[name](3, 0)
              if op.kind == SMALL_OP[name])
    seconds, bad, headroom = workloads.run_op(op)
    assert bad == []
    assert headroom is not None and headroom > 0.0


def test_the_gate_rejects_a_wrong_outcome():
    op = next(op for op in workloads.lattice_pass(3, 0)
              if op.kind == "sphere-area")
    report, code, error = workloads.execute(op)
    assert workloads.verify(op, report, code, error)[0] == []
    flipped = dict(report, verdict="FAIL")
    assert workloads.verify(op, flipped, 1, None)[0]
    assert workloads.verify(op, None, None, "ValueError: boom")[0]


def test_headroom_ignores_passes_past_the_fixed_count():
    op = next(op for op in workloads.lattice_pass(3, 0)
              if op.kind == "sphere-area")
    tally = run.Tally("lattice-sweep", 3)
    tally.add(op, 0, 1.0, [], 2.0)
    tally.add(op, run.HEADROOM_PASSES["lattice-sweep"], 1.0, [], 0.5)
    assert tally.headroom == 2.0


def span(name, start, end, parent):
    s = tracer_mod.Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_subtracts_child_spans():
    spans = [span("root", 0, 100, None),
             span("child", 10, 30, 0),
             span("child", 40, 70, 0),
             span("grandchild", 45, 50, 2),
             span("other-root", 100, 110, None)]
    assert tracer_mod.self_times(spans) == [50, 20, 25, 5, 10]


def bindings():
    """Every attribute of the package's modules and of their classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "fiberdirac" and not name.startswith("fiberdirac."):
            continue
        for attr, value in list(vars(mod).items()):
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cval in list(vars(value).items()):
                    snap[(name, f"{attr}.{cattr}")] = cval
    return snap


def test_traced_run_restores_every_patched_name():
    before = bindings()
    original = cli.run_scenario
    op = next(op for op in workloads.lattice_pass(3, 0)
              if op.kind == "sphere-area")
    tr = tracer_mod.Tracer()
    with tr:
        assert cli.run_scenario is not original
        tr.begin_op(0)
        with tr.span("op"):
            assert workloads.run_op(op, tr)[1] == []
    assert cli.run_scenario is original
    assert bindings() == before
    names = {s.name for s in tr.spans}
    assert {"op", "cli.run_scenario", "monodromy.signed_area",
            "cli.compile_expression"} <= names
    assert tr.counts["monodromy.family_evals"] == 3 * 65 * 65
    assert all(s.end is not None and s.op == 0 for s in tr.spans)
