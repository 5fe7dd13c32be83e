"""Expression compiler, scenario runner, exit codes, and report shape."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberdirac import __version__, cli, monodromy
from fiberdirac.cli import ScenarioError, compile_expression, run_scenario
from fiberdirac.dual import Dual
from fiberdirac.fibration import IncompleteTransportError
from fiberdirac.monodromy import lattice_model_data
from test_coupling import undefined_at_one_sampled_point

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

    monkeypatch.setitem(cli.KINDS, "apath",
                        cli.KINDS["apath"]._replace(run=boom))
    report, code = run_scenario({"name": "esc", "kind": "apath"})
    assert code == 1 and report["verdict"] == "FAIL"
    (check,) = report["checks"]
    assert check["name"] == "numerical-escape"
    assert check["verdict"] == "FAIL"
    assert "0.415" in check["error"]


@pytest.mark.parametrize("exc", [
    ValueError("math domain error"), ZeroDivisionError("float division by zero"),
    OverflowError("math range error"),
    np.linalg.LinAlgError("SVD did not converge"),
    MemoryError("Unable to allocate 7.28 TiB for an array")])
def test_evaluator_errors_map_to_failing_check(monkeypatch, exc):
    def boom(scenario, seed):
        raise exc

    monkeypatch.setitem(cli.KINDS, "apath",
                        cli.KINDS["apath"]._replace(run=boom))
    report, code = run_scenario({"name": "err", "kind": "apath"})
    assert code == 1 and report["verdict"] == "FAIL"
    (check,) = report["checks"]
    assert check["name"] == "evaluation-error"
    assert check["verdict"] == "FAIL" and check["residual"] is None
    assert check["error"] == str(exc)


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


# inf − inf makes the connection coefficient NaN wherever x1·b2 ≠ 0
NAN_CONNECTION_FIELDS = {
    "base_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
    "fiber_bounds": [[-1.0, 1.0]],
    "connection": [["x1*b2*1e200*1e200 - x1*b2*1e200*1e200", "0"]],
    "omega": ["0"],
}


def test_nan_residual_fails(capsys, tmp_path):
    scenario = {"name": "nan-inline", "kind": "coupling-check",
                "fields": NAN_CONNECTION_FIELDS, "samples": 8}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_main(capsys, ["check", str(path)])
    # Python floats overflow to inf without numpy's RuntimeWarning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "FAIL"
    named = {c["name"]: c for c in report["checks"]}
    assert math.isnan(named["curvature_match"]["residual"])
    assert named["curvature_match"]["verdict"] == "FAIL"


def test_nan_flow_residual_fails_the_halving_gain(capsys, tmp_path):
    # inf − inf makes α NaN, so both residuals are NaN: their ratio must
    # not read as the roundoff floor's 0.0
    scenario = {"name": "nan-apath", "kind": "apath", "step": 0.05,
                "halving": True,
                "alpha": ["1e200*1e200*t - 1e200*1e200*t", "1.0", "e"]}
    path = tmp_path / "nan-apath.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_main(capsys, ["check", str(path)])
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "FAIL"
    named = {c["name"]: c for c in report["checks"]}
    for name in ("flow_commutation", "halving_gain"):
        assert math.isnan(named[name]["residual"])
        assert named[name]["verdict"] == "FAIL"


def test_a_domain_error_in_alpha_fails_without_traceback(capfd, tmp_path):
    # α runs at the array of a quarter's RK4 times, where numpy's log is
    # NaN past t = ½, so the flow residual is NaN rather than an error
    scenario = {"name": "log-alpha", "kind": "apath", "step": 0.01,
                "alpha": ["log(t - 0.5)", "1.0", "e"]}
    path = tmp_path / "log-alpha.json"
    path.write_text(json.dumps(scenario))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capfd, ["check", str(path)])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == ["flow_commutation",
                                                      "halving_gain"]
    assert all(math.isnan(c["residual"]) and c["verdict"] == "FAIL"
               for c in report["checks"])


@pytest.mark.parametrize("fields,checks,failing", [
    # log of the negative half of the fiber: the checks evaluate their
    # points as arrays, where numpy's log is NaN and so is its derivative
    ({"base_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
      "fiber_bounds": [[-1.0, 1.0]], "omega": ["log(x1)"]}, ["conditions"],
     "curvature_match"),
    # the NaN connection makes the closure oracle's distances NaN, and
    # NaN never reaches LAPACK, whose complaint would land on the stream
    (NAN_CONNECTION_FIELDS, ["oracle-agreement"], "oracle_agreement"),
], ids=["log-domain", "nan-oracle"])
def test_evaluator_errors_fail_without_traceback(capfd, tmp_path, fields,
                                                 checks, failing):
    scenario = {"name": "err-inline", "kind": "coupling-check",
                "fields": fields, "checks": checks, "samples": 8}
    path = tmp_path / "err.json"
    path.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(capfd, ["check", str(path)])  # no raise
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == ""
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    named = {c["name"]: c for c in report["checks"]}
    assert [c["name"] for c in report["checks"]
            if c["verdict"] == "FAIL"] == [failing]
    if failing == "oracle_agreement":
        # the closure oracle reads NaN, which never agrees with anything
        assert math.isnan(report["closure_residual"])
    else:
        assert math.isnan(named[failing]["residual"])


def test_a_form_undefined_at_one_oracle_point_fails_without_traceback(
        capfd, monkeypatch, tmp_path):
    # ω_H is NaN at one of the oracle's 16 points: its bracket rows hold
    # NaN there, every other point brackets cleanly, and the one array
    # pass over all pairs still reads NaN, a FAIL with exit code 1
    monkeypatch.setitem(cli.EXAMPLES, "nan-once",
                        lambda: undefined_at_one_sampled_point(16, 3, 5))
    scenario = {"name": "nan-once", "kind": "coupling-check",
                "example": "nan-once", "checks": ["closure"],
                "samples": 16, "seed": 3}
    path = tmp_path / "nan-once.json"
    path.write_text(json.dumps(scenario))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capfd, ["check", str(path)])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    [check] = report["checks"]
    assert check["name"] == "dirac_closure" and check["verdict"] == "FAIL"
    assert math.isnan(check["residual"])


def test_a_domain_error_in_the_flat_oracle_fails_without_traceback(
        capsys, tmp_path):
    # log of a negative fiber coordinate: NaN on both routes, not a
    # finite complex-step value on the oracle's
    scenario = {"name": "log-oracle", "kind": "transgress", "f": "log(x)",
                "x0": [-0.3],
                "families": [{"family": "round-sphere", "nodes": [17, 17]}]}
    path = tmp_path / "log.json"
    path.write_text(json.dumps(scenario))
    with np.errstate(invalid="ignore"):
        code, out, _ = run_main(capsys, ["check", str(path)])
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "oracle_round-sphere"
    assert check["verdict"] == "FAIL" and math.isnan(check["residual"])


def test_a_tolerance_the_kind_never_reads_exits_two(capsys, tmp_path):
    # a misspelled key would leave curvature_match at its default 1e-8,
    # and a key of another kind would be read by nothing
    for key in ("curvatur_match", "oracle"):
        scenario = {"name": "h", "kind": "coupling-check", "example": "hopf",
                    "tolerances": {key: 1e-30}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, ["check", str(path)])
        assert code == 2 and out == ""
        assert f"field 'tolerances.{key}'" in err


def test_a_bad_tolerance_exits_two_when_its_check_does_not_run(
        monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a malformed scenario reached a check")

    monkeypatch.setattr(cli, "check_coupling_conditions", refuse)
    scenario = {"name": "h", "kind": "coupling-check", "example": "hopf",
                "checks": ["conditions"], "tolerances": {"dirac_closure": -1}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_main(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert "field 'tolerances.dirac_closure'" in err


# the tolerance keys the bundled scenarios, these tests and the perfbench
# workloads set
KEYS_IN_USE = {
    "coupling-check": ("vertical_poisson", "transport_invariance",
                       "covariant_closure", "curvature_match",
                       "leaf_form_match", "splitting_brackets"),
    "ymh-build": ("structure_jacobi", "bianchi", "prehamiltonian",
                  "coupling_conditions", "gauge_closedness", "gauge_winding"),
    "transgress": ("oracle", "sphere_area"),
    "so3-integrability": ("generator_constancy", "generator_value",
                          "origin_degenerate"),
    "apath": ("flow_commutation", "halving_gain"),
    "groupoid-check": ("axioms", "multiplicativity", "horizontal_identity",
                       "hor_projection", "hor_vertical_orthogonality",
                       "source_target_orthogonality"),
}


def test_every_tolerance_key_in_use_is_accepted():
    for p in SCENARIOS.glob("*.json"):
        scenario = json.loads(p.read_text())
        assert set(scenario.get("tolerances", {})) <= set(
            KEYS_IN_USE[scenario["kind"]]), p.name
    for kind, keys in KEYS_IN_USE.items():
        cli._validate_tolerances(
            {"tolerances": {key: 1e-6 for key in keys}}, kind)


def test_the_tolerance_table_is_what_each_runner_reads(monkeypatch):
    # the bundled scenarios reach every scored check of every kind: each
    # kind reads exactly the tolerances it declares, and a name it does not
    # declare has no default, so `_tol` raises KeyError on it
    read = {kind: set() for kind in cli.KINDS}
    tol = cli._tol

    def recording(scenario, name):
        read[scenario["kind"]].add(name)
        return tol(scenario, name)

    monkeypatch.setattr(cli, "_tol", recording)
    for p in SCENARIOS.glob("*.json"):
        run_scenario(json.loads(p.read_text()))
    assert read == {kind: set(declared.tolerances)
                    for kind, declared in cli.KINDS.items()}


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


# π_V varies along the base while the connection is flat
PI_ONLY_COUPLING = {
    "name": "pi-only",
    "kind": "coupling-check",
    "fields": {"base_bounds": [[-1.0, 1.0]],
               "fiber_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
               "pi": ["2.0 + b1"], "omega": []},
}


def inline(**fields):
    """A one-sample coupling check on inline fields over a 2 + 1 box."""
    cfg = {"base_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
           "fiber_bounds": [[-1.0, 1.0]], "omega": ["1.0"]}
    cfg.update(fields)
    return {"name": "i", "kind": "coupling-check", "fields": cfg,
            "samples": 1}


LATTICE = {"name": "s", "kind": "so3-integrability", "f": "2*r+1",
           "radii": [0.5], "grid": [2, 2]}


def sphere_area(expected):
    """A sphere-area scenario whose reference area is `expected`."""
    return {"name": "a", "kind": "transgress",
            "area": {"family": "round-sphere", "nodes": [9, 9],
                     "expected": expected}}


# (scenario, the field its error names)
NAMED_INPUT_ERRORS = [
    # inline bounds are lists of [lo, hi] number pairs with lo < hi
    (inline(base_bounds=[1, 2]), "fields.base_bounds[0]"),
    (inline(base_bounds=[["a", "b"], [0, 1]]), "fields.base_bounds[0]"),
    (inline(base_bounds="ab"), "fields.base_bounds"),
    (inline(base_bounds=[[1], [2]]), "fields.base_bounds[0]"),
    (inline(base_bounds=[[1, -1], [0, 1]]), "fields.base_bounds[0]"),
    (inline(fiber_bounds=[[-1.0, math.nan]]), "fields.fiber_bounds[0]"),
    (inline(base_chart="torus"), "fields.base_chart"),
    (inline(base_bounds=[[0, 1]] * 5, fiber_bounds=[[0, 1]] * 5,
            omega=["1"] * 10), "fields"),
    # an exact slope is an integer or a readable 'p/q' string
    (dict(LATTICE, exact_slope="abc"), "exact_slope"),
    # a tolerance is a finite positive number: JSON reads NaN and
    # Infinity, and a report must not echo them back
    (dict(PI_ONLY_COUPLING, tolerances={"curvature_match": math.inf}),
     "tolerances.curvature_match"),
    (dict(PI_ONLY_COUPLING, tolerances={"curvature_match": math.nan}),
     "tolerances.curvature_match"),
    (dict(PI_ONLY_COUPLING, tolerances={"curvature_match": 0}),
     "tolerances.curvature_match"),
    (dict(PI_ONLY_COUPLING, tolerances={"curvature_match": -1e-8}),
     "tolerances.curvature_match"),
    (dict(LATTICE, tolerances={"generator_constancy": 0}),
     "tolerances.generator_constancy"),
    (dict(LATTICE, exact_slope="1/0"), "exact_slope"),
    (dict(LATTICE, exact_slope="1e400"), "exact_slope"),
    (dict(LATTICE, exact_slope=10 ** 400), "exact_slope"),
    # angles are numbers and switches are JSON booleans
    ({"name": "t", "kind": "transgress",
      "families": [{"family": "cap", "theta": True, "nodes": [9, 9]}]},
     "families[0].theta"),
    ({"name": "a", "kind": "apath", "halving": "no"}, "halving"),
    # a step below the one whose residual reaches roundoff shows nothing
    ({"name": "a", "kind": "apath", "step": 1e-9}, "step"),
    ({"name": "a", "kind": "apath", "step": 5e-5}, "step"),
    (dict(LATTICE, include_origin="no"), "include_origin"),
    # a radius is >= 0, and its sample point r·(0.6, 0, 0.8) lies in the
    # model's fiber box |x_i| <= 2.5
    (dict(LATTICE, radii=[-1.0, 0.5, 1.0]), "radii[0]"),
    (dict(LATTICE, radii=[4.0, 5.0]), "radii[0]"),
    (dict(LATTICE, radii=[0.5, 3.2]), "radii[1]"),
    # a family list and a coefficient curve are JSON lists
    ({"name": "t", "kind": "transgress", "families": 5}, "families"),
    ({"name": "a", "kind": "apath", "alpha": 5}, "alpha"),
    # a reference constant evaluates to a finite real, and an area that a
    # residual is relative to is nonzero
    (dict(LATTICE, expected_generator="1/0"), "expected_generator"),
    (dict(LATTICE, expected_generator="sqrt(-1)"), "expected_generator"),
    (dict(LATTICE, expected_generator="1e200*1e200"), "expected_generator"),
    (sphere_area("0"), "area.expected"),
    (sphere_area("1/0"), "area.expected"),
    (sphere_area("sqrt(-1)"), "area.expected"),
    (sphere_area("1e200*1e200"), "area.expected"),
    # an expected verdict is one of the three the lattice can reach
    (dict(LATTICE, expected_verdict="INTEGRABLE"), "expected_verdict"),
    # a key no check reads is refused, since a misspelled one would run
    # the defaults and could PASS: `sampels` would leave 64 samples and
    # `fields.connexion` the flat connection, under which BROKEN_COUPLING
    # passes every condition
    ({"name": "h", "kind": "coupling-check", "example": "hopf",
      "sampels": 3, "chekcs": ["closure"], "seeed": 5}, "sampels"),
    ({"name": "h", "kind": "coupling-check", "example": "hopf",
      "chekcs": ["closure"]}, "chekcs"),
    ({"name": "h", "kind": "coupling-check", "example": "hopf",
      "seeed": 5}, "seeed"),
    (dict(BROKEN_COUPLING, fields={
        ("connexion" if k == "connection" else k): v
        for k, v in BROKEN_COUPLING["fields"].items()}), "fields.connexion"),
    ({"name": "t", "kind": "transgress",
      "families": [{"family": "round-sphere", "node": [9, 9]}]},
     "families[0].node"),
    ({"name": "a", "kind": "transgress",
      "area": {"family": "round-sphere", "nodes": [9, 9],
               "expeted": "4*pi"}}, "area.expeted"),
    ({"name": "y", "kind": "ymh-build", "example": "hopf", "sample": 8},
     "sample"),
    ({"name": "t", "kind": "transgress", "x_0": [0.3],
      "families": [{"family": "round-sphere", "nodes": [9, 9]}]}, "x_0"),
    (dict(LATTICE, radius=[1.0]), "radius"),
    ({"name": "a", "kind": "apath", "halfing": False}, "halfing"),
    ({"name": "g", "kind": "groupoid-check", "instanse": "twisted-product"},
     "instanse"),
    # only a lattice has a grid, only hopf has charts, and an example that
    # takes no f, or inline fields beside an example, would drop one
    ({"name": "a", "kind": "apath", "grid": [64, 64]}, "grid"),
    ({"name": "c", "kind": "coupling-check", "example": "hopf-flat",
      "chart": 1}, "chart"),
    ({"name": "c", "kind": "coupling-check", "example": "so3-coadjoint",
      "f": "3*x"}, "f"),
    (dict(PI_ONLY_COUPLING, example="hopf"), "example"),
    # with inline fields only the leaf-form check reads f, so an f beside
    # them and no leaf-form check would be dropped
    ({"name": "y", "kind": "ymh-build", "fields": inline()["fields"],
      "f": "1/0"}, "f"),
    (dict(inline(), f="1/0"), "f"),
    (dict(inline(), checks=["conditions", "closure"], f="2*x+1"), "f"),
    # a start point lies in the model's fiber chart: |x| <= 1.5 for
    # transgress (hopf-flat), |x_i| <= 2 for apath (so(3)*)
    ({"name": "t", "kind": "transgress", "x0": [5.0],
      "families": [{"family": "round-sphere", "nodes": [9, 9]}]}, "x0"),
    ({"name": "t", "kind": "transgress", "x0": [-1.6],
      "area": {"family": "round-sphere", "nodes": [9, 9]}}, "x0"),
    ({"name": "a", "kind": "apath", "x0": [3.0, 0.0, 4.0]}, "x0"),
    ({"name": "a", "kind": "apath", "x0": [0.6, 0.0, 2.1]}, "x0"),
    # Simpson needs an even lattice grid, which is refused when odd rather
    # than rounded up behind the echoed grid
    (dict(LATTICE, grid=[15, 15]), "grid"),
    (dict(LATTICE, grid=[16, 3]), "grid"),
    # counts are bounded, so an oversized one is refused before any array
    # over it is allocated
    (dict(PI_ONLY_COUPLING, samples=10 ** 13), "samples"),
    ({"name": "y", "kind": "ymh-build", "example": "hopf",
      "samples": cli.MAX_SAMPLES + 1}, "samples"),
    ({"name": "g", "kind": "groupoid-check", "samples": 10 ** 13}, "samples"),
    # a seed numpy cannot take is bad input, not an evaluation error
    ({"name": "g", "kind": "groupoid-check", "seed": 2 ** 32}, "seed"),
    (dict(LATTICE, grid=[cli.MAX_LATTICE_GRID + 2, 2]), "grid"),
    (dict(LATTICE, grid=[2, 10 ** 13]), "grid"),
    ({"name": "t", "kind": "transgress",
      "families": [{"family": "round-sphere", "nodes": [9, 9]},
                   {"family": "round-sphere", "nodes": [10 ** 13 + 1, 9]}]},
     "families[1].nodes"),
    ({"name": "a", "kind": "transgress",
      "area": {"family": "round-sphere",
               "nodes": [9, cli.MAX_FAMILY_NODES + 2]}}, "area.nodes"),
]


def test_validation_errors_exit_two(monkeypatch, capsys, tmp_path):
    # a malformed apath scenario must be refused before it integrates:
    # with no bound on `step`, 1e-9 would run for hours instead of failing
    def refuse(*args, **kwargs):
        raise AssertionError("a malformed scenario reached the integrator")

    for name in ("flow_commutation_residual", "so3_lattice",
                 "check_coupling_conditions", "dirac_closure_residual",
                 "transgress", "transgress_flat", "integrated_data_check"):
        monkeypatch.setattr(cli, name, refuse)
    for k, (scenario, field) in enumerate(NAMED_INPUT_ERRORS):
        path = tmp_path / f"named{k}.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, ["check", str(path)])
        assert code == 2 and out == "", scenario
        assert f"field '{field}'" in err, (scenario, err)
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
        {"name": "t", "kind": "transgress",
         "families": [{"family": "cap", "theta": 4.0, "nodes": [9, 9]}]},
        {"name": "t", "kind": "transgress",
         "families": [{"family": "cap", "theta": 0.8, "nodes": [9.0, 9]}]},
        {"name": "s", "kind": "so3-integrability", "f": "2*r+1",
         "grid": [8, "8"]},
        # counts, seeds and tolerances must be numbers in range, not
        # strings or values that would sample no points
        dict(PI_ONLY_COUPLING, samples=0),
        dict(PI_ONLY_COUPLING, samples=-3),
        dict(PI_ONLY_COUPLING, samples="abc"),
        dict(PI_ONLY_COUPLING, seed="abc"),
        dict(PI_ONLY_COUPLING, seed=-1),
        dict(PI_ONLY_COUPLING, tolerances={"transport_invariance": "abc"}),
        # a hopf chart is the JSON integer 0 or 1
        {"name": "h", "kind": "coupling-check", "example": "hopf",
         "chart": 7},
        {"name": "h", "kind": "coupling-check", "example": "hopf",
         "chart": "abc"},
        # steps, parameters and points are finite numbers, steps positive
        {"name": "a", "kind": "apath", "step": 0},
        {"name": "a", "kind": "apath", "step": "abc"},
        {"name": "a", "kind": "apath", "step": -0.01},
        {"name": "a", "kind": "apath", "eps": "nan"},
        {"name": "a", "kind": "apath", "x0": ["abc"]},
        {"name": "a", "kind": "apath", "x0": ["abc", 0.0, 0.8]},
        # an integer too large for a float is not finite
        {"name": "a", "kind": "apath", "step": 10**400},
        {"name": "a", "kind": "apath", "eps": 10**400},
        {"name": "a", "kind": "apath", "x0": [10**400, 0, 0]},
        {"name": "t", "kind": "transgress", "x0": ["abc"],
         "families": [{"family": "cap", "theta": 0.8, "nodes": [9, 9]}]},
        {"name": "s", "kind": "so3-integrability", "f": "2*r+1",
         "radii": ["abc"], "grid": [8, 8]},
        {"name": "s", "kind": "so3-integrability", "f": "2*r+1",
         "radii": [0.5, math.nan], "grid": [8, 8]},
    ]
    for k, scenario in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, ["check", str(path)])
        assert code == 2, scenario
        assert out == "" and err.startswith("error: "), scenario
        assert "field '" in err, scenario


def test_leaf_form_reads_the_chart_orientation():
    # chart 1 orients the round area form oppositely, so its leaf form is
    # −f·4/(1+ρ²)²; chart 0's sign there misses by twice the form
    report, code = run_scenario({"name": "h1", "kind": "coupling-check",
                                 "example": "hopf", "chart": 1,
                                 "checks": ["conditions", "leaf-form"]})
    assert code == 0, report
    leaf = [c for c in report["checks"] if c["name"] == "leaf_form_match"]
    assert leaf[0]["verdict"] == "PASS" and leaf[0]["residual"] < 1e-12


@pytest.mark.parametrize("scenario", [
    {"name": "t", "kind": "coupling-check", "example": "trivial-torus",
     "checks": ["leaf-form"]},
    dict(inline(), checks=["leaf-form"]),
], ids=["trivial-torus", "inline-box"])
def test_leaf_form_refuses_a_base_that_is_no_sphere_chart(scenario):
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario)
    assert err.value.field == "checks"


def test_leaf_form_on_inline_sphere_fields_reads_f():
    # ω_H = (2x + 1)·(round area form) is the leaf form f·(round form) for
    # the f that is also the default, and not for 3x + 1
    area = "(2*x1+1)*4/((1+b1*b1+b2*b2)*(1+b1*b1+b2*b2))"
    scenario = {"name": "s", "kind": "coupling-check",
                "fields": {"base_chart": "sphere",
                           "fiber_bounds": [[-1.5, 1.5]], "omega": [area]},
                "checks": ["leaf-form"]}
    codes = [run_scenario(dict(scenario, **f))[1]
             for f in ({}, {"f": "2*x+1"}, {"f": "3*x+1"})]
    assert codes == [0, 0, 1]


@pytest.mark.parametrize("scenario", [
    {"name": "t", "kind": "transgress", "x0": [-1.5],
     "families": [{"family": "round-sphere", "nodes": [9, 9]}]},
    {"name": "a", "kind": "apath", "x0": [2.0, 0.0, -2.0],
     "halving": False},
], ids=["transgress", "apath"])
def test_a_start_point_on_the_fiber_chart_edge_runs(scenario):
    report, code = run_scenario(scenario)
    assert code == 0, report


def test_origin_check_measures_the_vertical_structure(monkeypatch):
    # a constant added to π_V leaves the transgression alone but makes
    # the leaf through the fiber origin a surface, not a point
    def shifted(f):
        geom = lattice_model_data(f)
        comps = geom.pi_v.comps
        geom.pi_v.comps = lambda p: [c + 0.5 for c in comps(p)]
        return geom

    monkeypatch.setattr(monodromy, "lattice_model_data", shifted)
    report, code = run_scenario(dict(LATTICE, include_origin=True,
                                     grid=[8, 8]))
    origin = [c for c in report["checks"] if c["name"] == "origin_degenerate"]
    assert code == 1
    assert origin[0]["verdict"] == "FAIL" and origin[0]["residual"] == 0.5


# f = 2r + 1 transgresses to the generator 8π, slope 2; on this grid each
# claim below holds, so a wrong one is what makes its check fail
TRUE_LATTICE = dict(LATTICE, radii=[0.5, 1.5], grid=[32, 32],
                    expected_generator="8*pi", exact_slope="2",
                    expected_verdict="INTEGRABLE-CANDIDATE")


@pytest.mark.parametrize("claim,check", [
    ({}, None),
    ({"expected_generator": "9*pi"}, "generator_value"),
    ({"exact_slope": "3"}, "slope_consistency"),
    ({"expected_verdict": "NON-INTEGRABLE"}, "verdict_match"),
], ids=["true-claims", "generator_value", "slope_consistency",
        "verdict_match"])
def test_a_wrong_lattice_claim_fails_its_check(claim, check):
    report, code = run_scenario(dict(TRUE_LATTICE, **claim))
    failed = {c["name"]: c for c in report["checks"]
              if c["verdict"] == "FAIL"}
    if check is None:
        assert code == 0 and failed == {}, report
        return
    assert code == 1 and check in failed, report
    if check == "slope_consistency":
        assert "exact slope 3 predicts" in failed[check]["error"]


def test_a_radius_on_the_fiber_chart_edge_runs():
    # 3.125 · 0.8 = 2.5 lies on a face of the fiber box, which counts as
    # inside
    report, code = run_scenario(dict(LATTICE, radii=[0.5, 3.125],
                                     grid=[8, 8], include_origin=False))
    assert code == 0, report
    assert len(report["generators"]) == 2


@pytest.mark.parametrize("radii", [[0.5, 1.5], [0.5]], ids=["two", "one"])
def test_a_generator_that_is_not_finite_is_inconclusive(radii):
    # log(r − 1) is NaN at r = 0.5: the lattice says nothing about
    # integrability there, so a claimed NON-INTEGRABLE must not match
    scenario = {"name": "n", "kind": "so3-integrability", "f": "log(r-1)",
                "radii": radii, "grid": [16, 16],
                "expected_verdict": "NON-INTEGRABLE"}
    with np.errstate(invalid="ignore"):
        report, code = run_scenario(scenario)
    checks = {c["name"]: c["verdict"] for c in report["checks"]}
    assert code == 1 and report["integrability"] == "INCONCLUSIVE"
    assert checks["generator_constancy"] == "FAIL"
    assert checks["verdict_match"] == "FAIL"


# bounds and their entries of every JSON kind, nested up to two lists
# deep, and valid boxes of one and two axes
BOUND = st.one_of(st.integers(-3, 3), st.floats(), st.booleans(),
                  st.text(max_size=3), st.none())
BOUNDS = st.one_of(
    st.sampled_from([[[-1.0, 1.0]], [[-1.0, 1.0], [0, 2]]]), BOUND,
    st.lists(st.one_of(BOUND, st.lists(BOUND, max_size=3)), max_size=3))
# steps stay at or above 0.05: an RK4 run costs one step per `step` of time
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.floats(0.05, 3.0), st.sampled_from(
                       [0.0, -1.0, math.nan, math.inf, "2", "1/3", "1/0",
                        "abc", "", [], [1.0]]))


@st.composite
def fuzzed_scenarios(draw):
    def put(cfg, key, value):
        if value is not None:
            cfg[key] = value
        return cfg

    kind = draw(st.sampled_from(["fields", "lattice", "cap", "apath"]))
    if kind == "fields":
        cfg = put({"omega": ["1.0"] * draw(st.integers(0, 3))},
                  "base_chart", draw(st.sampled_from([None, "sphere",
                                                      "torus", 2])))
        put(cfg, "base_bounds", draw(BOUNDS))
        put(cfg, "fiber_bounds", draw(BOUNDS))
        return {"name": "f", "kind": "coupling-check", "fields": cfg,
                "samples": 1}
    if kind == "lattice":
        scenario = put(dict(LATTICE), "exact_slope", draw(SCALAR))
        return put(scenario, "include_origin", draw(SCALAR))
    if kind == "cap":
        family = put({"family": "cap", "nodes": [3, 3]}, "theta",
                     draw(SCALAR))
        return {"name": "t", "kind": "transgress", "families": [family]}
    scenario = put({"name": "a", "kind": "apath"}, "step", draw(SCALAR))
    return put(scenario, "halving", draw(SCALAR))


@given(fuzzed_scenarios())
@settings(max_examples=60, deadline=None)
def test_fuzzed_scenario_inputs_exit_cleanly(scenario):
    # a scenario either runs to an exit code or is refused as input
    try:
        _, code = run_scenario(scenario)
    except ScenarioError:
        return
    assert code in (0, 1)


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


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _numbers(item)
    elif node is not None and not isinstance(node, (str, bool)):
        yield node


def _report_text(entry):
    return json.dumps(entry, sort_keys=True, indent=2)


def test_bundled_reports_hold_only_python_numbers():
    # run_scenario callers get plain numbers, never numpy scalars, and
    # every report matches its snapshot to the byte apart from wall_ms
    snapshot = json.loads((Path(__file__).parent
                           / "bundled_reports.json").read_text())
    names = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert names == sorted(snapshot)
    for name in names:
        report, code = run_scenario(json.loads((SCENARIOS / name).read_text()))
        for x in _numbers(report):
            assert type(x) in (int, float), (name, x)
        report.pop("wall_ms")
        assert _report_text({"exit_code": code, "report": report}) == \
            _report_text(snapshot[name]), name


def test_numpy_residuals_are_reported_as_python_floats(monkeypatch):
    monkeypatch.setattr(cli, "check_coupling_conditions",
                        lambda geom, count, seed: {"max": np.float64(1e-9)})
    monkeypatch.setattr(cli, "dirac_closure_residual",
                        lambda geom, count, seed: np.float64(2e-9))
    report, code = run_scenario({"name": "n", "kind": "coupling-check",
                                 "example": "hopf",
                                 "checks": ["oracle-agreement", "closure"]})
    assert code == 0
    assert report["closure_residual"] == 2e-9
    assert all(type(x) in (int, float) for x in _numbers(report))


def test_packaged_scenarios_are_well_formed():
    names = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert len(names) >= 16
    for p in SCENARIOS.glob("*.json"):
        scenario = json.loads(p.read_text())
        assert scenario["kind"] in cli.KINDS, p.name
        assert scenario["name"], p.name
