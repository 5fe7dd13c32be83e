"""Expression compiler, scenario runner, exit codes, and report shape."""

import json
import math
from pathlib import Path

import pytest

from fiberdirac import __version__, cli
from fiberdirac.cli import ScenarioError, compile_expression, run_scenario
from fiberdirac.dual import Dual
from fiberdirac.fibration import IncompleteTransportError

SCENARIOS = Path(cli.__file__).parent / "scenarios"

REQUIRED_KEYS = {"scenario", "kind", "checks", "verdict", "grid", "seed",
                 "tool_version", "wall_ms"}

BROKEN_COUPLING = {
    "name": "broken-inline",
    "kind": "coupling-check",
    "fields": {
        "base_bounds": [[-1.0, 1.0]],
        "fiber_bounds": [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]],
        "connection": [["0.4*x1"], ["0.4*x2"], ["0.4*x3"]],
        "pi": ["-x3", "x2", "-x1"],
        "omega": [],
    },
    "checks": ["conditions"],
    "samples": 16,
}


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- expression compiler --------------------------------------------------------------

def test_compiles_arithmetic_and_library_calls():
    f = compile_expression("2*x+1", ["x"])
    assert f([0.5]) == 2.0
    seeded = f([Dual(0.5, 1.0)])
    assert seeded.re == 2.0 and seeded.eps == 2.0

    g = compile_expression("pi*r**2/2 - (-r)", ["r"])
    assert g([2.0]) == pytest.approx(2.0 * math.pi + 2.0)

    h = compile_expression("sin(t) + exp(e)*t", ["t", "e"])
    assert h([0.7, 0.2]) == pytest.approx(math.sin(0.7)
                                          + math.exp(0.2) * 0.7)


@pytest.mark.parametrize("src", [
    "q + 1",            # unknown coordinate
    "2*",               # syntax error
    "foo(x)",           # unknown function
    "sin(x, 1)",        # wrong arity
    "x if x else 0",    # node type outside the grammar
    "__import__('os')",
])
def test_rejects_sources_outside_the_grammar(src):
    with pytest.raises(ScenarioError):
        compile_expression(src, ["x"])


def test_rejects_non_string_source():
    with pytest.raises(ScenarioError) as err:
        compile_expression(3.0, ["x"], field="f")
    assert err.value.field == "f"


# -- run_scenario ---------------------------------------------------------------------

def test_report_shape_and_pass_exit():
    scenario = json.loads((SCENARIOS / "groupoid-split.json").read_text())
    report, code = run_scenario(scenario)
    assert code == 0 and report["verdict"] == "PASS"
    assert REQUIRED_KEYS <= set(report)
    assert report["tool_version"] == __version__
    assert isinstance(report["wall_ms"], int)
    for check in report["checks"]:
        assert {"name", "residual", "tolerance", "verdict"} <= set(check)


def test_failing_check_exits_one():
    report, code = run_scenario(dict(BROKEN_COUPLING))
    assert code == 1 and report["verdict"] == "FAIL"
    named = {c["name"]: c["verdict"] for c in report["checks"]}
    assert named["transport_invariance"] == "FAIL"   # the stretch breaks it
    assert named["vertical_poisson"] == "PASS"


def test_unknown_kind_and_missing_name_raise():
    with pytest.raises(ScenarioError) as err:
        run_scenario({"name": "x", "kind": "frobnicate"})
    assert err.value.field == "kind"
    with pytest.raises(ScenarioError):
        run_scenario({"kind": "apath"})


def test_escaped_transport_maps_to_failing_check(monkeypatch):
    def boom(scenario, seed):
        raise IncompleteTransportError(0.415, point=[2.1, 0.0, 0.4])

    monkeypatch.setitem(cli._RUNNERS, "apath", boom)
    report, code = run_scenario({"name": "esc", "kind": "apath"})
    assert code == 1 and report["verdict"] == "FAIL"
    (check,) = report["checks"]
    assert check["name"] == "numerical-escape"
    assert check["verdict"] == "FAIL"
    assert "0.415" in check["error"]


# -- command-line front end -----------------------------------------------------------

def test_check_command_passes_and_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_main(capsys, [
        "check", str(SCENARIOS / "ymh-hopf.json"), "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text() == out
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["winding"] == pytest.approx(-2.0, abs=1e-6)


def test_reports_are_deterministic_up_to_wall_time(capsys):
    path = str(SCENARIOS / "ymh-hopf.json")
    _, first, _ = run_main(capsys, ["check", path])
    _, second, _ = run_main(capsys, ["check", path])
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_ms"), b.pop("wall_ms")
    assert a == b
    assert first.index('"checks"') < first.index('"verdict"')  # sorted keys


def test_failing_scenario_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_COUPLING))
    code, out, _ = run_main(capsys, ["check", str(path)])
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


def test_nan_residual_fails(capsys, tmp_path):
    # inf − inf makes the connection coefficient NaN wherever x1·b2 ≠ 0
    scenario = {
        "name": "nan-inline",
        "kind": "coupling-check",
        "fields": {
            "base_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            "fiber_bounds": [[-1.0, 1.0]],
            "connection": [["x1*b2*1e200*1e200 - x1*b2*1e200*1e200", "0"]],
            "omega": ["0"],
        },
        "samples": 8,
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_main(capsys, ["check", str(path)])
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "FAIL"
    named = {c["name"]: c for c in report["checks"]}
    assert math.isnan(named["curvature_match"]["residual"])
    assert named["curvature_match"]["verdict"] == "FAIL"


def test_nan_condition_residual_never_agrees_with_the_oracle(monkeypatch):
    monkeypatch.setattr(cli, "check_coupling_conditions",
                        lambda geom, count, seed: {"max": float("nan")})
    monkeypatch.setattr(cli, "dirac_closure_residual",
                        lambda geom, count, seed: 1.0)
    report, code = run_scenario({"name": "n", "kind": "coupling-check",
                                 "example": "hopf",
                                 "checks": ["oracle-agreement"]})
    assert code == 1
    (check,) = report["checks"]
    assert check["name"] == "oracle_agreement"
    assert check["verdict"] == "FAIL"


def test_malformed_json_exits_two_with_location(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  "kind": }\n')
    code, out, err = run_main(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert "parse error at line 2" in err and str(path) in err


def test_validation_errors_exit_two(capsys, tmp_path):
    cases = [
        {"name": "k", "kind": "frobnicate"},
        {"name": "e", "kind": "coupling-check", "example": "moebius"},
        {"name": "s", "kind": "so3-integrability", "f": "2*r+1",
         "radii": [0.5], "grid": [8, 8], "exact_slope": 2.0},
        {"name": "x", "kind": "coupling-check", "example": "hopf",
         "f": "2*q+1"},
        {"name": "c", "kind": "coupling-check", "example": "hopf",
         "checks": ["conditons"]},
        {"name": "c", "kind": "coupling-check", "example": "hopf",
         "checks": []},
    ]
    for k, scenario in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, ["check", str(path)])
        assert code == 2, scenario
        assert out == "" and err.startswith("error: "), scenario
        assert "field '" in err, scenario


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_main(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 2 and "field 'file'" in err


def test_examples_listing_and_filter(capsys):
    code, out, _ = run_main(capsys, ["examples"])
    assert code == 0
    for name in ("hopf", "hopf-flat", "so3-coadjoint", "trivial-torus",
                 "round-sphere", "cap"):
        assert name in out

    code, out, _ = run_main(capsys, ["examples", "cap"])
    assert code == 0
    assert "cap" in out and "torus" not in out

    code, out, _ = run_main(capsys, ["examples", "zzz"])
    assert code == 0 and out == ""


def test_version_and_bare_invocation(capsys):
    code, out, _ = run_main(capsys, ["version"])
    assert code == 0 and out.strip() == __version__

    code, out, _ = run_main(capsys, [])
    assert code == 2 and "usage" in out.lower()


def test_packaged_scenarios_are_well_formed():
    names = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert len(names) >= 16
    for p in SCENARIOS.glob("*.json"):
        scenario = json.loads(p.read_text())
        assert scenario["kind"] in cli.KINDS, p.name
        assert scenario["name"], p.name
