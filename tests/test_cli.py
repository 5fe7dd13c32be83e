"""Expression compiler, scenario runner, exit codes, and report shape."""

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, Phase, given, settings,
                        strategies as st)

from fiberdirac import __version__, cli, monodromy
from fiberdirac.cli import ScenarioError, compile_expression, run_scenario
from fiberdirac.dual import Dual
from fiberdirac.fibration import IncompleteTransportError
from fiberdirac.monodromy import FAMILIES, lattice_model_data
from fiberdirac.yangmills import EXAMPLES, hopf_example
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
    "True",             # a bool is no numeric literal
    "False*x",
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
    MemoryError("Unable to allocate 7.28 TiB for an array"),
    RecursionError("maximum recursion depth exceeded")])
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


def test_an_expression_too_deep_to_evaluate_fails_its_run():
    # the deepest f that still compiles overflows the stack when the checks
    # evaluate it a few frames further down: a classified evaluation error,
    # not a traceback; one term more exits 2 naming f
    def scenario(terms):
        return {"name": "deep", "kind": "coupling-check", "example": "hopf",
                "f": "+".join(["x"] * terms), "samples": 1}

    lo, hi = 1, 4000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run_scenario(scenario(mid))
            lo = mid
        except ScenarioError as err:
            assert err.field == "f" and "nested too deeply" in str(err)
            hi = mid
    report, code = run_scenario(scenario(lo))
    assert code == 1
    assert [c["name"] for c in report["checks"]] == ["evaluation-error"]


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


def test_a_singular_inline_pi_fails_the_groupoid_check_without_traceback(
        capfd, tmp_path):
    # π_V = 0 has no inverse, so the coupling form of the twisted product
    # cannot be built: the run ends as one failing check that names the
    # refusal, not a traceback
    scenario = json.loads((SCENARIOS / "groupoid-twisted.json").read_text())
    scenario["fields"]["pi"] = ["0"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_main(capfd, ["check", str(path)])
    assert code == 1 and err == ""
    [check] = json.loads(out)["checks"]
    assert check["name"] == "evaluation-error" and check["verdict"] == "FAIL"
    assert "the coupling form needs invertible π_V" in check["error"]


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


def test_a_registered_builder_is_listed_and_given_its_keys(monkeypatch,
                                                           capsys):
    # a builder added to EXAMPLES is listed with its note and receives the
    # f and chart its signature takes, and never the scenario's name; an f
    # it requires defaults to the sphere models' 2x + 1
    calls = []

    def charted(f, chart=0, name=""):
        """a model on two charts

        Only the first paragraph is the note."""
        calls.append((f(0.5), chart, name))
        return hopf_example(f, chart=chart)

    monkeypatch.setitem(cli.EXAMPLES, "charted", charted)
    code, out, _ = run_main(capsys, ["examples", "charted"])
    assert code == 0 and out == "charted         a model on two charts\n"
    scenario = {"name": "s", "kind": "coupling-check", "example": "charted",
                "samples": 1}
    run_scenario(scenario)
    assert calls.pop() == (2.0, 0, "")
    # on chart 1 the leaf form is −f·(round area): its sign follows `chart`
    report, code = run_scenario(dict(scenario, f="3*x", chart=1,
                                     checks=["leaf-form"]))
    assert calls.pop() == (1.5, 1, "") and code == 0
    assert report["checks"][0]["name"] == "leaf_form_match"


def test_a_registered_family_is_given_its_declared_keys(monkeypatch, capsys):
    # a family added to FAMILIES, its parameter declared on the builder,
    # is listed, and a transgress scenario reads that parameter in its
    # interval, for an area and in `families`
    calls = []

    def lens(width, n_t=65, n_eps=65):
        """cap of half the width

        Only the first paragraph is the note."""
        calls.append((width, n_t, n_eps))
        return monodromy.cap(0.5 * width, n_t=n_t, n_eps=n_eps)

    lens.parameters = {"width": (0.0, 2.0 * math.pi)}
    monkeypatch.setitem(monodromy.FAMILIES, "lens", lens)
    code, out, _ = run_main(capsys, ["examples", "lens"])
    assert code == 0 and out == "lens            cap of half the width\n"
    scenario = {"name": "lens", "kind": "transgress",
                "area": {"family": "lens", "width": 2.0,
                         "expected": "2*pi*(1-cos(1))"},
                "families": [{"family": "lens", "width": 1.6,
                              "nodes": [9, 9]}]}
    report, code = run_scenario(scenario)
    assert calls == [(2.0, 65, 65), (1.6, 9, 9)]
    assert code == 0, report
    assert [c["name"] for c in report["checks"]] == ["sphere_area",
                                                     "oracle_cap(0.8)"]
    for family, field in (({"width": 7.0}, "families[0].width"),
                          ({"width": None}, "families[0].width"),
                          ({}, "families[0].width"),
                          ({"width": 1.0, "theta": 0.5}, "families[0].theta")):
        entry = {"family": "lens", "nodes": [9, 9], **family}
        with pytest.raises(ScenarioError) as err:
            run_scenario(dict(scenario, families=[entry]))
        assert err.value.field == field


def refused_cap(capsys, tmp_path, theta):
    """Both the `cap` builder and a `transgress` scenario refuse `theta`."""
    with pytest.raises(ValueError):
        monodromy.cap(theta)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({
        "name": "t", "kind": "transgress",
        "families": [{"family": "cap", "theta": theta, "nodes": [9, 9]}]}))
    code, out, err = run_main(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert "field 'families[0].theta'" in err


@pytest.mark.parametrize("theta", [0.0, math.pi, 3.2])
def test_the_cap_builder_and_the_parser_read_one_interval(capsys, tmp_path,
                                                          theta):
    refused_cap(capsys, tmp_path, theta)


def test_a_narrowed_cap_interval_moves_both_refusals(monkeypatch, capsys,
                                                     tmp_path):
    # `cap.parameters` states the interval of θ once, so narrowing it in a
    # session moves the builder's refusal and the parser's together
    monkeypatch.setitem(monodromy.cap.parameters, "theta", (1.0, 2.0))
    refused_cap(capsys, tmp_path, 0.8)
    assert monodromy.cap(1.5).name == "cap(1.5)"


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


def bundled(kind):
    """The first bundled scenario of `kind`."""
    return next(json.loads(p.read_text())
                for p in sorted(SCENARIOS.glob("*.json"))
                if json.loads(p.read_text())["kind"] == kind)


def test_defaults_are_parsed_once_when_the_kinds_are_built(monkeypatch):
    # a key left out costs a run no parse: every run shares the value its
    # default was parsed to when `KINDS` was built (here the apath
    # coefficient curve, and a transgression's f and reference area)
    compiled, compile_ = [], cli.compile_expression
    monkeypatch.setattr(cli, "compile_expression",
                        lambda *args: compiled.append(args) or compile_(*args))
    first = cli.parse({"name": "a", "kind": "apath"})
    again = cli.parse({"name": "a", "kind": "apath", "eps": 0.1})
    area = cli.parse({"name": "t", "kind": "transgress",
                      "area": {"family": "round-sphere"}})
    assert compiled == []
    assert first.alpha is again.alpha and first.tolerances is again.tolerances
    assert area.area.expected == 4 * math.pi and area.f(0.5) == 0.5


def test_every_tolerance_key_in_use_is_accepted():
    for p in SCENARIOS.glob("*.json"):
        scenario = json.loads(p.read_text())
        assert set(scenario.get("tolerances", {})) <= set(
            KEYS_IN_USE[scenario["kind"]]), p.name
    for kind, keys in KEYS_IN_USE.items():
        tolerances = {key: 1e-6 + k for k, key in enumerate(keys)}
        parsed = cli.parse(dict(bundled(kind), tolerances=tolerances))
        assert {key: getattr(parsed.tolerances, key)
                for key in keys} == tolerances


class ReadTolerances:
    """Parsed tolerances that record each name a runner reads."""

    def __init__(self, parsed, read):
        self.parsed, self.read = parsed, read

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.parsed, name)


def test_the_tolerance_table_is_what_each_runner_reads(monkeypatch):
    # the bundled scenarios reach every scored check of every kind: each
    # kind reads exactly the tolerances it declares, and the parsed
    # tolerances hold no name it does not declare
    read = {kind: set() for kind in cli.KINDS}
    parse = cli.parse

    def recording(scenario):
        parsed = parse(scenario)
        assert set(vars(parsed.tolerances)) == set(
            cli.KINDS[parsed.kind].tolerances)
        parsed.tolerances = ReadTolerances(parsed.tolerances,
                                           read[parsed.kind])
        return parsed

    monkeypatch.setattr(cli, "parse", recording)
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


def deep(term):
    """A sum of 3,000 copies of `term`: an expression nested too deeply to
    compile."""
    return "+".join([term] * 3000)


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
    # a transgress scenario with neither an area nor a family checks nothing
    ({"name": "t", "kind": "transgress", "families": []}, "families"),
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
    # a JSON boolean is no constant, though Python reads True as 1
    (sphere_area(True), "area.expected"),
    (dict(LATTICE, expected_generator=True), "expected_generator"),
    # a key the other keys leave unread: a round sphere has no angle, and
    # a sphere base no bounds
    ({"name": "t", "kind": "transgress",
      "families": [{"family": "round-sphere", "theta": 0.5}]},
     "families[0].theta"),
    ({"name": "a", "kind": "transgress",
      "area": {"family": "round-sphere", "theta": "abc", "nodes": [9, 9]}},
     "area.theta"),
    (dict(inline(base_chart="sphere", base_bounds="junk"),
          checks=["leaf-form"]), "fields.base_bounds"),
    # a key that is present holds a value of its type, and null is none
    (dict(LATTICE, exact_slope=None), "exact_slope"),
    (inline(pi=None), "fields.pi"),
    # a groupoid check reads its triple from `fields` alone
    ({"name": "g", "kind": "groupoid-check", "instance": "split-product"},
     "instance"),
    # an expression nested too deeply for the compiler's recursion
    ({"name": "h", "kind": "coupling-check", "example": "hopf",
      "f": deep("x")}, "f"),
    (inline(omega=[deep("b1")]), "fields.omega[0]"),
    (sphere_area(deep("1")), "area.expected"),
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


# -- fuzzing every declared key -------------------------------------------------------
# The strategy is built from `cli.KINDS`: each key path a kind admits is set,
# in a cheap valid scenario that holds it, to a value drawn from its
# declared type, valid (at and inside its bounds, within its `fuzz` range)
# or invalid (another JSON type, NaN, ±inf, out of bounds, an expression
# outside the grammar).


def key_paths(keys, prefix=""):
    """(key path, type) for every key the declarations `keys` admit,
    those inside their objects too; a list stands for its entries by
    index 0."""
    for key, (typ, _) in keys.items():
        yield prefix + key, typ
        yield from inner_paths(typ, prefix + key)


def inner_paths(typ, path):
    name, *args = typ.spec
    if name == "object":
        yield from key_paths(args[0], path + ".")
    elif name == "union":
        tag, variants = args
        yield f"{path}.{tag}", cli.enum([k for k in variants if k])
        for keys in variants.values():
            yield from key_paths(keys, path + ".")
    elif name == "list":
        yield from inner_paths(args[0], path + "[0]")


DECLARED = sorted({(kind, path): typ for kind, declared in cli.KINDS.items()
                   for path, typ in key_paths(declared.keys)}.items(),
                  key=lambda pair: pair[0])

INLINE_BOX = {"name": "box", "base_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
              "fiber_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
              "connection": [["0", "0.1*x1"], ["0", "0"]],
              "pi": ["2.0"], "omega": ["1.0 + b1*x1"]}
INLINE_SPHERE = {"base_chart": "sphere", "fiber_bounds": [[-1.5, 1.5]],
                 "omega": ["1.0"]}
ROUND, CAP = {"family": "round-sphere", "nodes": [3, 3]}, \
    {"family": "cap", "theta": 0.8, "nodes": [3, 3]}

def fuzz_bases(*bases):
    """The bases named, the first of each kind with a seed and every
    tolerance that kind declares."""
    kinds = set()
    for base in bases:
        out = dict(base, name="fuzz")
        if base["kind"] not in kinds:
            kinds.add(base["kind"])
            out.update(seed=1, tolerances=dict(
                cli.KINDS[base["kind"]].tolerances))
        yield out


#: cheap valid scenarios that together hold every declared key path
FUZZ_BASES = list(fuzz_bases(
    {"kind": "coupling-check", "example": "hopf", "samples": 1},
    {"kind": "coupling-check", "example": "hopf", "chart": 1, "f": "2*x+1",
     "checks": ["conditions", "leaf-form"], "samples": 1},
    {"kind": "coupling-check", "fields": INLINE_BOX, "samples": 1},
    {"kind": "coupling-check", "fields": INLINE_SPHERE, "samples": 1},
    {"kind": "ymh-build", "example": "hopf", "samples": 1},
    {"kind": "ymh-build", "example": "hopf", "chart": 1, "f": "2*x+1",
     "samples": 1},
    {"kind": "ymh-build", "fields": INLINE_BOX, "samples": 1},
    {"kind": "ymh-build", "fields": INLINE_SPHERE, "samples": 1},
    {"kind": "transgress", "f": "2*x+1", "x0": [0.3],
     "area": dict(ROUND, expected="4*pi"), "families": [ROUND]},
    {"kind": "transgress", "area": dict(CAP, theta=1.0), "families": [CAP]},
    {"kind": "so3-integrability", "f": "2*r+1", "radii": [0.5],
     "grid": [2, 2], "include_origin": True, "exact_slope": "2",
     "expected_generator": "8*pi",
     "expected_verdict": "INTEGRABLE-CANDIDATE"},
    {"kind": "apath", "alpha": ["sin(t)+e", "t", "e*t"], "eps": 0.3,
     "step": 0.1, "halving": True, "x0": [0.6, 0.0, 0.8]},
    {"kind": "groupoid-check", "fields": INLINE_BOX, "samples": 1},
    {"kind": "groupoid-check", "fields": INLINE_SPHERE, "samples": 1}))


def steps(path):
    return [int(step) if step.isdigit() else step
            for step in path.replace("[0]", ".0").split(".")]


def lookup(scenario, path):
    """The value at `path`, or KeyError when the scenario holds none."""
    node = scenario
    for step in steps(path):
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            raise KeyError(path) from None
    return node


def with_value(scenario, path, value):
    out = copy.deepcopy(scenario)
    *head, last = steps(path)
    node = out
    for step in head:
        node = node[step]
    node[last] = value
    return out


def holds(scenario, path):
    try:
        lookup(scenario, path)
    except KeyError:
        return False
    return True


NOT_NUMBERS = [None, True, False, "1", [], {}, math.nan, math.inf,
               -math.inf, 10 ** 400]
NOT_OBJECTS = [None, 5, "abc", [], True]
NOT_LISTS = [None, 5, "abc", {}, True]


def expressions(v, w):
    """Sources in the variables v and w within the grammar, some undefined
    or overflowing somewhere or raising, and sources outside it."""
    return ([f"2*{v}+1", v, f"sin({v})*{w}", f"log({v})", f"1/({v}-0.3)",
             f"exp(1000*{v})", "1/0", "pi",
             f"1e200*1e200*{v} - 1e200*1e200*{w}"],
            ["q + 1", "2*", "", "True", f"False*{v}", f"{v} if {v} else 0",
             "__import__('os')", f"sin({v}, 1)", 3.0, None, [], deep(v)])


def draws(typ, base):
    """(valid, invalid): strategies for the value of a key of type `typ`
    whose fuzz base holds `base` there."""
    name, *args = typ.spec
    one_of = st.sampled_from
    if name == "real":
        lo, hi, closed, (flo, fhi) = args

        def inside(x):
            return lo <= x <= hi if closed else lo < x < hi
        ends = [x for x in (lo, hi) if flo <= x <= fhi and inside(x)]
        valid = st.floats(flo, fhi).filter(inside)
        return (valid | one_of(ends) if ends else valid,
                one_of([x for x in (lo, hi, lo - 1, hi + 1, lo / 2)
                        if math.isfinite(x) and not inside(x)] + NOT_NUMBERS))
    if name == "count":
        lo, hi, fuzz = args
        return (st.integers(lo, min(hi, fuzz)),
                one_of([lo - 1, hi + 1, float(lo)] + NOT_NUMBERS))
    if name == "simpson":
        lo, hi, fuzz = args
        count = st.integers(0, (fuzz - lo) // 2).map(lambda k: lo + 2 * k)
        return (st.lists(count, min_size=2, max_size=2),
                one_of([[lo + 1, lo], [lo], [lo] * 3, [float(lo), lo],
                        [lo - 2, lo], [hi + 2, lo], [lo, True]]
                       + NOT_NUMBERS))
    if name == "enum":
        return one_of(sorted(args[0])), one_of(["zzz", "", 5, None, True, []])
    if name == "flag":
        return st.booleans(), one_of([None, 1, 0, "true", []])
    if name == "text":
        return one_of(["", "a", "fuzz name"]), one_of([None, 5, True, [], {}])
    if name in ("source", "expression"):
        variables = args[0] if args else ("b1", "x1")
        return tuple(map(one_of, expressions(variables[0], variables[-1])))
    if name == "constant":
        zero = ["0", 0, "0*pi"]
        return (one_of(["4*pi", "1", 2.5, 3, "-2", "sqrt(2)"]
                       + zero * (not args[0])),
                one_of(["1/0", "sqrt(-1)", "1e200*1e200", "abc", True, None,
                        [], math.nan, math.inf, 10 ** 400, deep("1")]
                       + zero * args[0]))
    if name == "rational":
        return (one_of(["2", 2, "5/2", "-1/3", 0]),
                one_of([2.0, "abc", "1/0", "1e400", 10 ** 400, True, None,
                        []]))
    if name == "point":
        (lo, hi), dim = args[0].bounds[0], args[0].dim
        coordinate = st.floats(lo, hi) | one_of([lo, hi])
        return (st.lists(coordinate, min_size=dim, max_size=dim),
                one_of([[hi + 0.5] * dim, [lo - 0.5] * dim, [math.nan] * dim,
                        [0.0] * (dim + 1), ["abc"] * dim, [True] * dim,
                        [10 ** 400] * dim, None, 5]))
    if name == "pair":
        return (st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2,
                         unique=True).map(sorted),
                one_of([[1.0, -1.0], [1.0, 1.0], [1.0], "ab", [math.nan, 1.0],
                        ["a", "b"], [True, 2.0], None]))
    if name == "radius":
        return (st.floats(0.0, 3.125) | one_of([0.0, 3.125]),
                one_of([-1.0, 3.2, math.nan, math.inf, "abc", None, True]))
    if name == "list":
        item, lo, hi = args
        if item.spec[0] in ("object", "union"):
            return (one_of([base] + [[]] * (lo == 0)),
                    one_of([[5], [None], ["abc"]] + NOT_LISTS))
        valid, invalid = draws(item, base[0])
        # lengths the scenario's other keys fix (a list of expressions per
        # coordinate pair, say) stay those of the base
        sizes = [lo - 1, hi + 1] if lo == hi else [lo - 1] if lo else []
        return (st.lists(valid, min_size=len(base), max_size=len(base)),
                invalid.map(lambda x: [x] + base[1:]) | one_of(
                    [[base[0]] * n for n in sizes] + NOT_LISTS))
    assert name in ("object", "union"), name
    return st.just(base), one_of([dict(base, junk=1)] + NOT_OBJECTS)


@given(st.data())
@settings(max_examples=8, deadline=None, phases=[Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_scenario_inputs_exit_cleanly(data):
    # every (kind, key path) the declarations admit gets one drawn value:
    # an invalid one exits 2 naming that key (or a place inside it), and a
    # valid one runs to 0 or 1, with every NaN residual a FAIL, or exits 2
    # the same way when the scenario's other keys rule it out.  A failure
    # names its key and value, and an example is a hundred runs, so it is
    # not shrunk
    drawn = set()
    for (kind, path), typ in DECLARED:
        bases = [b for b in FUZZ_BASES if b["kind"] == kind
                 and holds(b, path)]
        if not bases:
            continue
        valid = data.draw(st.booleans(), label=f"{kind} {path} valid")
        value = data.draw(draws(typ, lookup(bases[0], path))[not valid],
                          label=f"{kind} {path}")
        if valid and path == "kind":
            bases = [b for b in FUZZ_BASES if b["kind"] == value]
        elif valid and typ.spec[0] == "enum":
            # a value that selects other keys is tried where they are set
            bases = [b for b in bases if lookup(b, path) == value] or bases
        scenario = with_value(bases[0], path, value)
        drawn.add((kind, path))
        try:
            report, code = run_scenario(scenario)
        except ScenarioError as err:
            assert err.field == path or err.field.startswith(
                (path + ".", path + "[")), (kind, path, value, err.field,
                                            str(err))
            continue
        assert valid, (kind, path, value, "an invalid value ran")
        assert code == (0 if {c["verdict"] for c in report["checks"]}
                        == {"PASS"} else 1), report
        assert all(c["verdict"] == "FAIL" for c in report["checks"]
                   if c["residual"] is not None
                   and math.isnan(c["residual"])), report
    assert drawn == {pair for pair, _ in DECLARED}, \
        {pair for pair, _ in DECLARED} - drawn


def declared_rows():
    """README's table rows for the declarations: each kind's own keys, and
    the keys of each object per value of the key that selects them."""
    def names(keys):
        return ", ".join(f"`{key}`" for key in sorted(keys))

    common = set.intersection(*(set(k.keys) for k in cli.KINDS.values()))
    rows = set()
    for kind, declared in cli.KINDS.items():
        rows.add(f"| `{kind}` | {names(set(declared.keys) - common)} |")
        for key, (typ, _) in declared.keys.items():
            name, *args = typ.spec
            if name == "list":
                key, (name, *args) = f"{key}[i]", args[0].spec
            if name == "union":
                tag, variants = args
                rows |= {f"| `{key}` | "
                         + (f'`"{tag}": "{value}"` | {names([tag, *keys])}'
                            if value else f"no `{tag}` | {names(keys)}")
                         + " |" for value, keys in variants.items()}
    return rows


def test_the_readme_key_tables_are_the_declarations():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Scenario files")[1].split("\n## ")[0]
    assert {line for line in section.splitlines()
            if line.startswith("| `")} == declared_rows()


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_main(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 2 and "field 'file'" in err


@pytest.mark.parametrize("document", ["[]", '"x"', "5"])
def test_a_scenario_that_is_no_json_object_exits_two(capsys, tmp_path,
                                                     document):
    path = tmp_path / "scenario.json"
    path.write_text(document)
    code, out, err = run_main(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert "field 'file'" in err and "JSON object" in err


def test_examples_listing_and_filter(capsys):
    # one line per registered builder, its note beside its name, so that a
    # builder added to a registry cannot go unlisted
    code, out, _ = run_main(capsys, ["examples"])
    assert code == 0
    builders = sorted({**EXAMPLES, **FAMILIES})
    lines = out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == builders
    assert all(line.split(" ", 1)[1].strip() for line in lines)

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
