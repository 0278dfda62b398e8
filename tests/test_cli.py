"""CLI exit codes, artifact layout, determinism, config round trips."""

import functools
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barrier_lab
from barrier_lab import (
    ConfigError,
    build_clf,
    build_controller,
    build_model,
    build_pairs,
    builtin_scenario,
    compare_pairs,
    comparison_config,
    field_grid,
    integrate_batch,
    main,
    parse_config_text,
    roa_grid,
    validate_config,
)
from barrier_lab.artifacts import json_dumps
from barrier_lab.cli import ScenarioRun, run_scenario
from barrier_lab.config import BUILTIN_SCENARIOS, _Source
from conftest import ALL_KINDS, all_kinds, reference_csv


def write_config(path: Path, data: dict) -> str:
    path.write_text(json_dumps(data))
    return str(path)


class TestExitCodes:
    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "nope"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_invalid_json_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_invalid_value_names_the_field(self, tmp_path, capsys):
        data = builtin_scenario("fig3").to_json_dict()
        data["cbfs"][0]["radius"] = -1.0
        assert main(["run", "--config", write_config(tmp_path / "bad.json", data)]) == 2
        assert "radius" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "fig3", "--out", "somewhere"])
        assert excinfo.value.code == 2


FIG2, FIG3 = (functools.partial(builtin_scenario, name) for name in ("fig2", "fig3"))
FIG3_COMPARE = functools.partial(comparison_config, "fig3")
NOT_SPD = "must be symmetric positive definite (%s)"
# one bad value per section: (config, keys to the edited entry, its new value,
# path, message, line of the value in the document written by json.dumps(indent=2))
REJECTIONS = [
    (FIG3, ("system", "K"), [[-1, 0]], "system.K", "expected a 2x2 matrix, got 1x2", 6),
    (FIG3_COMPARE, ("cbfs", 2, "radius"), -1, "cbfs[2].radius", "must be positive, got -1", 55),
    (FIG2, ("clf", "Q"), [[1, 2], [3, 4]], "clf.Q", NOT_SPD % "Q must be symmetric", 33),
    (FIG2, ("clf", "Q"), [[1, 0], [0, -1]], "clf.Q",
     NOT_SPD % "Q must be positive definite (min eigenvalue -1)", 33),
    (FIG3, ("controller", "weight"), {"kind": "matrix", "value": [[1, 0], [0, -1]]},
     "controller.weight.value", NOT_SPD % "weight matrix is not positive definite", 36),
    (FIG3, ("tasks", 1), {"kind": "roa", "bounds": [[0, 1], [1, 0]], "resolution": [3, 3]},
     "tasks[1].bounds", "axis 1 bounds must satisfy low < high", 45),
    (FIG3_COMPARE, ("tasks", 1), {"kind": "equivalence", "pairs": [[0, 1], [2, 2]]},
     "tasks[1].pairs[1]", "indices must differ", 99),
]


DELETE = object()   # the edit that removes the key or entry


class Twice:
    """The edit that writes its key twice, first with value first, then with value.

    json.loads keeps the last member of a duplicated key, so an error in value
    names the line of the second member.
    """

    def __init__(self, first, value):
        self.first, self.value = first, value

    def write_first(self, text: str, keys) -> str:
        member = '\n%s"%s": ' % ("  " * len(keys), keys[-1])
        return text.replace(member, "%s%s,%s" % (member, json.dumps(self.first), member), 1)


# one bad value per distinct validator message not pinned above, in the same
# form; a None line is a complaint about the document as a whole
MESSAGES = {
    "not-an-object": (FIG3, ("system",), [], "system", "expected an object, got an array", 4),
    "not-an-array": (FIG3, ("cbfs",), {}, "cbfs", "expected an array, got an object", 17),
    "too-few-entries": (FIG3, ("tasks",), [], "tasks", "needs at least 1 entries, got 0", 39),
    "missing-key": (FIG3, ("cbfs", 0, "radius"), DELETE, "cbfs[0]",
                    "missing required key 'radius'", 18),
    "missing-top-level-key": (FIG3, ("tasks",), DELETE, "config",
                              "missing required key 'tasks'", None),
    "missing-kind": (FIG3_COMPARE, ("cbfs", 1, "eta", "kind"), DELETE, "cbfs[1].eta",
                     "missing required key 'kind'", 36),
    "unknown-key": (FIG3, ("controller", "gain"), 1, "controller.gain",
                    "unknown key 'gain' (allowed: cbf, kind, p, weight)", 38),
    "not-a-number": (FIG3, ("cbfs", 0, "radius"), "1", "cbfs[0].radius",
                     "expected a number, got a string", 24),
    "not-finite": (FIG3, ("cbfs", 0, "center", 1), math.inf, "cbfs[0].center[1]",
                   "must be finite", 22),
    "below-number-minimum": (all_kinds, ("cbfs", 3, "a"), -1, "cbfs[3].a",
                             "must be >= 0, got -1", 59),
    "not-an-integer": (FIG3, ("controller", "cbf"), 0.5, "controller.cbf",
                       "expected an integer, got a number", 37),
    "below-integer-minimum": (all_kinds, ("tasks", 0, "sweep"), 4, "tasks[0].sweep",
                              "must be >= 8, got 4", 140),
    "not-a-string": (FIG3, ("name",), 3, "name", "expected a string, got a number", 3),
    "not-a-choice": (FIG3, ("cbfs", 0, "form"), "quarter", "cbfs[0].form",
                     "must be one of {full, half}, got 'quarter'", 25),
    "not-a-kind": (all_kinds, ("cbfs", 4, "gamma", "kind"), "cubic", "cbfs[4].gamma.kind",
                   "must be one of {identity, linear, quadratic}, got 'cubic'", 76),
    "not-a-boolean": (all_kinds, ("tasks", 5, "unfiltered"), "yes", "tasks[5].unfiltered",
                      "expected true or false, got a string", 200),
    "vector-length": (FIG3, ("cbfs", 0, "center"), [2, 0, 0], "cbfs[0].center",
                      "expected 2 entries, got 3", 20),
    "unequal-rows": (FIG3, ("system", "K"), [[-1, 0], [0]], "system.K",
                     "rows have unequal lengths", 6),
    "weight-asymmetric": (FIG3, ("controller", "weight"),
                          {"kind": "matrix", "value": [[1, 1], [0, 1]]},
                          "controller.weight.value",
                          NOT_SPD % "weight matrix is not symmetric within 1e-12", 36),
    # within np.allclose's default rtol, but V's gradient would not be Q d
    "clf-asymmetric-by-1e-6": (FIG2, ("clf", "Q"), [[6, 1 + 1e-6], [1, 2]], "clf.Q",
                               NOT_SPD % "Q must be symmetric", 33),
    "builtin-and-linear": (FIG3, ("system", "linear"),
                           {"A": [[0, 0], [0, 0]], "B": [[1, 0], [0, 1]]}, "system",
                           "give exactly one of 'builtin' or 'linear'", 4),
    "a-not-square": (FIG3, ("system",), {"linear": {"A": [[0, 1, 0], [0, 0, 1]], "B": [[1], [1]]}},
                     "system.linear.A", "A must be square", 6),
    "b-rows": (FIG3, ("system",), {"linear": {"A": [[0, 1], [0, 0]], "B": [[1]]}},
               "system.linear.B", "B must have 2 rows to match A", 16),
    "ball-not-planar": (FIG3, ("system",),
                        {"linear": {"A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                                    "B": [[1], [0], [0]]}, "K": [[-1, 0, 0]]},
                        "cbfs[0]", "ball barriers need a planar system (n = 2), got n = 3", 44),
    "base-not-earlier": (FIG3_COMPARE, ("cbfs", 1, "base"), 1, "cbfs[1].base",
                         "must reference an earlier cbf entry (got 1 at index 1)", 33),
    "transform-a-b-zero": (FIG3_COMPARE, ("cbfs", 1, "b"), 0, "cbfs[1]",
                           "transform needs a + b > 0 (got a = 0, b = 0)", 31),
    "controller-kind": (FIG3, ("controller", "kind"), "mpc", "controller.kind",
                        "must be one of {safety-filter, clf-cbf-qp}, got 'mpc'", 33),
    # one spelling per kind: the underscore form is not rewritten
    "controller-kind-underscore": (FIG3, ("controller", "kind"), "safety_filter",
                                   "controller.kind", "must be one of {safety-filter, clf-cbf-qp},"
                                   " got 'safety_filter'", 33),
    "controller-cbf-range": (FIG3, ("controller", "cbf"), 1, "controller.cbf",
                             "index 1 out of range (have 1 cbfs)", 37),
    "clf-cbf-qp-needs-clf": (FIG3, ("controller", "kind"), "clf-cbf-qp", "controller.kind",
                             "clf-cbf-qp needs a 'clf' section", 33),
    "filter-takes-no-p": (FIG3, ("controller", "p"), 1, "controller.p",
                          "the safety filter takes no relaxation penalty", 38),
    "filter-needs-gain": (FIG3, ("system", "K"), DELETE, "controller.kind",
                          "the safety filter needs system.K as the nominal controller", 23),
    "equivalence-one-cbf": (FIG3, ("tasks", 1), {"kind": "equivalence"}, "tasks[1]",
                            "equivalence needs at least two cbfs", 43),
    "pair-not-a-pair": (FIG3_COMPARE, ("tasks", 1),
                        {"kind": "equivalence", "pairs": [[0, 1, 2]]}, "tasks[1].pairs[0]",
                        "expected [base, other] index pair", 95),
    "pair-out-of-range": (FIG3_COMPARE, ("tasks", 1),
                          {"kind": "equivalence", "pairs": [[0, 4]]}, "tasks[1].pairs[0]",
                          "index 4 out of range (have 4 cbfs)", 95),
    "resolution-length": (FIG3, ("tasks", 1),
                          {"kind": "field", "bounds": [[0, 1], [0, 1]], "resolution": [3]},
                          "tasks[1].resolution", "expected [nx, ny]", 55),
    "x0-and-x0s": (all_kinds, ("tasks", 4, "x0s"), [[0, 2]], "tasks[4]",
                   "give exactly one of 'x0' or 'x0s'", 177),
    "schema-version": (FIG3, ("schema_version",), 2, "schema_version",
                       "unsupported version 2 (this build reads 1)", 2),
    "duplicated-key": (FIG3, ("system",),
                       Twice(1, {"builtin": "bogus", "K": [[-1, 0], [0, -5]]}), "system.builtin",
                       "must be one of {integrator-2d}, got 'bogus'", 6),
}


def value_at(doc, path: str):
    for index, key in re.findall(r"\[(\d+)\]|([^.\[\]]+)", path):
        doc = doc[int(index)] if index else doc[key]
    return doc


class TestValidatorRejections:
    @pytest.mark.parametrize("config, keys, value, path, message, line", REJECTIONS,
                             ids=["system", "cbfs", "clf-asymmetric", "clf-indefinite",
                                  "controller", "tasks", "tasks-pairs"])
    def test_error_names_path_message_and_line(self, tmp_path, capsys, config, keys, value,
                                               path, message, line):
        doc = config().to_json_dict()
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        text = json.dumps(doc, indent=2)
        assert text.splitlines()[line - 1].strip().startswith(
            "[" if path.endswith("]") else '"%s"' % path.rsplit(".", 1)[-1])
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert (excinfo.value.path, excinfo.value.args[0], excinfo.value.line) == (
            path, message, line)
        config = tmp_path / "bad.json"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: line %d: %s: %s\n" % (
            line, path, message)

    @pytest.mark.parametrize("case", MESSAGES)
    def test_each_message_names_path_and_line(self, tmp_path, capsys, case):
        config, keys, value, path, message, line = MESSAGES[case]
        doc = config()
        doc = json.loads(json.dumps(doc if isinstance(doc, dict) else doc.to_json_dict()))
        holder = functools.reduce(operator.getitem, keys[:-1], doc)
        if value is DELETE:
            del holder[keys[-1]]
        else:
            holder[keys[-1]] = value.value if isinstance(value, Twice) else value
        text = json.dumps(doc, indent=2)
        if isinstance(value, Twice):
            text = value.write_first(text, keys)
        if line is not None:
            # the line holds the value at path, after its key when path ends in one
            found = text.splitlines()[line - 1].strip().rstrip(",")
            if not path.endswith("]"):
                found = found[len('"%s": ' % path.rsplit(".", 1)[-1]):]
            assert found == json.dumps(value_at(doc, path), indent=2).splitlines()[0]
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert (excinfo.value.path, excinfo.value.args[0], excinfo.value.line) == (
            path, message, line)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 2
        where = "" if line is None else "line %d: " % line
        assert capsys.readouterr().err == "config error: %s%s: %s\n" % (where, path, message)

    def test_a_value_of_no_json_type_is_named_by_its_type(self):
        data = builtin_scenario("fig3").to_json_dict()
        data["cbfs"] = tuple(data["cbfs"])
        with pytest.raises(ConfigError) as excinfo:
            validate_config(data)
        assert (excinfo.value.path, excinfo.value.args[0], excinfo.value.line) == (
            "cbfs", "expected an array, got tuple", None)

    def test_entries_are_found_by_index(self):
        # the third cbf's key, not the first cbf's, and a member of the entry itself
        text = json.dumps(comparison_config("fig3").to_json_dict(), indent=2)
        lines = text.splitlines()
        source = _Source(text)
        assert lines[source.line_of("cbfs[2]") - 1].strip() == "{"
        assert source.line_of("cbfs[0].radius") < source.line_of("cbfs[2].radius")
        assert '"radius"' in lines[source.line_of("cbfs[2].radius") - 1]
        # a missing part gives the line of the deepest part found
        assert source.line_of("cbfs[9].radius") == source.line_of("cbfs")
        assert source.line_of("config.nope") is None
        assert _Source("{not json").line_of("cbfs") is None


class TestScenarioRun:
    def test_builtin_run_writes_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "fig3"]) == 0
        out = tmp_path / "fig3-artifacts"
        assert sorted(p.name for p in out.iterdir()) == [
            "equilibria.json", "spectra.json", "summary.txt"]
        data = json.loads((out / "equilibria.json").read_text())
        assert data["scenario"] == "fig3"
        assert data["controller"] == "safety-filter"
        reports = data["reports"]
        assert len(reports) == 4
        assert [r["kind"] for r in reports] == ["interior", "boundary", "boundary", "boundary"]
        assert sum(r["desirability"] == "undesirable" for r in reports) == 3
        spectra = json.loads((out / "spectra.json").read_text())["spectra"]
        for entry in spectra:
            if entry["desirability"] == "undesirable":
                assert entry["known_factor_root"] == -1.0
                assert abs(entry["identity_residual"]) < 1e-6
                assert len(entry["reduced_eigenvalues"]) == 1
        text = (out / "summary.txt").read_text()
        assert "equilibria (4)" in text
        assert "task log" in text
        summary_stdout = capsys.readouterr().out
        assert "equilibria (4)" in summary_stdout

    def test_jacobians_classify_each_equilibrium_once(self, tmp_path, monkeypatch):
        # fig2 mixes closed-form (boundary) and finite-difference (interior) spectra
        from barrier_lab import spectral
        calls = []
        original = spectral.eigen_and_classify

        def counted(jacobian, alpha_prime0=None, grad_h=None):
            calls.append(alpha_prime0)
            return original(jacobian, alpha_prime0, grad_h)

        # every alias in the package counts, not only the spectral module's
        for name, module in list(sys.modules.items()):
            aliased = getattr(module, "eigen_and_classify", None) is original
            if name.split(".")[0] == "barrier_lab" and aliased:
                monkeypatch.setattr(module, "eigen_and_classify", counted)
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "fig2"]) == 0
        out = tmp_path / "fig2-artifacts"
        reports = json.loads((out / "equilibria.json").read_text())["reports"]
        spectra = json.loads((out / "spectra.json").read_text())["spectra"]
        assert len(reports) == 4
        assert len(calls) == len(reports) == len(spectra)
        for report, entry, known in zip(reports, spectra, calls):
            assert entry["stability"] == report["stability"]
            assert entry["eigenvalues"] == report["eigenvalues"]
            undesirable = report["desirability"] == "undesirable"
            assert (known is not None) == undesirable
            assert (entry["known_factor_root"] is not None) == undesirable

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_undesirable_spectra_are_real(self, tmp_path, monkeypatch, name):
        # the boundary Jacobians of the builtins have real eigenvalues, and
        # spectra.json writes their imaginary parts as exact zeros
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", name]) == 0
        spectra = json.loads((tmp_path / ("%s-artifacts" % name) / "spectra.json").read_text())
        undesirable = [e for e in spectra["spectra"] if e["desirability"] == "undesirable"]
        assert len(undesirable) == 3
        for entry in undesirable:
            assert [z["im"] for z in entry["eigenvalues"]] == [0, 0]
            assert [z["im"] for z in entry["reduced_eigenvalues"]] == [0]

    def test_simulate_reads_the_configured_barrier(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = builtin_scenario("fig3").to_json_dict()
        data["cbfs"].append({"kind": "ball", "center": [-2.0, 1.0], "radius": 0.5,
                             "form": "half", "alpha": {"kind": "linear", "slope": 2.0}})
        data["controller"]["cbf"] = 1
        data["tasks"] = [{"kind": "simulate", "x0": [3.0, 1.0], "t_final": 0.05}]
        data["output_dir"] = "out"
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", data)]) == 0
        table = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
        assert table.shape == (51, 6)
        states, h = table[:, 1:3], table[:, 5]
        pairs = build_pairs(parse_config_text(json_dumps(data)))
        assert h.tolist() == np.asarray(pairs[1].h(states), dtype=float).tolist()
        assert np.min(np.abs(h - np.asarray(pairs[0].h(states), dtype=float))) > 1.0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "(min h %.6g)" % np.min(h) in text

    def test_task_error_keeps_partial_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = builtin_scenario("fig3").to_json_dict()
        data["tasks"] = [{"kind": "equilibria"},
                         {"kind": "simulate", "x0": [2.0, 0.0], "t_final": 0.01}]
        data["output_dir"] = "out"
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", data)]) == 1
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["equilibria.json", "summary.txt"]
        assert "failed" in capsys.readouterr().err
        assert "error" in (tmp_path / "out" / "summary.txt").read_text()

    def test_arithmetic_error_is_a_task_error(self, tmp_path, monkeypatch):
        run = ScenarioRun(builtin_scenario("fig3"), out_dir=str(tmp_path / "out"))

        def divide(params):
            return 1.0 / 0.0

        monkeypatch.setattr(run, "run_equilibria", divide)
        assert run.run() == 1
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "task 0 (equilibria) failed: float division by zero" in text

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        run = ScenarioRun(builtin_scenario("fig3"), out_dir=str(tmp_path / "out"))

        def broken(params):
            return len(None)

        monkeypatch.setattr(run, "run_equilibria", broken)
        with pytest.raises(TypeError):
            run.run()
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_warnings_logged_during_a_run_are_listed(self, tmp_path, monkeypatch):
        from barrier_lab import cli
        search = cli.find_interior_equilibria

        def warning_search(controller, **kwargs):
            logging.getLogger("barrier_lab.equilibria").warning("seed %s: %s", 7, "slow")
            return search(controller, **kwargs)

        monkeypatch.setattr(cli, "find_interior_equilibria", warning_search)
        run = ScenarioRun(builtin_scenario("fig3"), out_dir=str(tmp_path / "out"))
        assert run.run() == 0
        assert run.warnings == ["seed 7: slow"]
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "\n\nwarnings\n  - seed 7: slow\n\nartifacts in out\n" in text

    def test_summary_counts_the_equilibrium_polish(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "fig2"]) == 0
        text = (tmp_path / "fig2-artifacts" / "summary.txt").read_text()
        assert ("  - equilibria: 3 boundary (3 undesirable), 1 interior; polished 24 candidates"
                " in 2300 iterations (max-iterations x23, step-stalled x1), 2 dropped\n") in text

    def test_roa_horizon_off_the_step_grid_fails_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = builtin_scenario("fig3").to_json_dict()
        data["tasks"] = [{"kind": "roa", "bounds": [[3.5, 4.0], [-0.5, 0.5]],
                          "resolution": [2, 2], "t_final": 0.0105}]
        data["output_dir"] = "out"
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", data)]) == 1
        capsys.readouterr()
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert ("task 0 (roa) failed: t_final 0.0105 is not a whole number of steps "
                "dt 0.001; the nearest reachable horizon is 0.01") in text
        assert not (tmp_path / "out" / "roa.csv").exists()

    def test_barrier_that_is_not_a_cbf_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # at x = (2, -1) on the boundary g^T grad_h = 0 and eta = -6: no input
        # meets the barrier row, and the boundary search says so
        monkeypatch.chdir(tmp_path)
        data = builtin_scenario("fig3").to_json_dict()
        data["system"] = {"linear": {"A": [[0.0, 0.0], [1.0, -1.0]], "B": [[1.0], [0.0]]},
                          "K": [[-1.0, 0.0]]}
        data["tasks"] = [{"kind": "equilibria"}]
        data["output_dir"] = "out"
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", data)]) == 1
        assert "not a CBF" in capsys.readouterr().err
        text = (tmp_path / "out" / "summary.txt").read_text()
        error = text.split("\nerror\n", 1)[1]
        assert error.startswith("  - task 0 (equilibria) failed: closed-loop field not finite"
                                " at the boundary point theta = 4.7123889803846897, x = [")
        assert "no input meets the barrier row (eta = -6, ||g^T grad_h|| = " in error

    def test_out_flag_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = builtin_scenario("fig3").to_json_dict()
        data["tasks"] = [{"kind": "field", "bounds": [[2.5, 4.0], [-1.0, 1.0]],
                          "resolution": [2, 3]}]
        path = write_config(tmp_path / "cfg.json", data)
        assert main(["run", "--config", path, "--out", "custom"]) == 0
        assert (tmp_path / "custom" / "field.csv").exists()
        assert not (tmp_path / "fig3-artifacts").exists()
        rows = (tmp_path / "custom" / "field.csv").read_text().strip().splitlines()
        assert rows[0] == "x1,x2,v1,v2,h,active_code,masked"
        assert len(rows) == 7

    def test_summary_does_not_depend_on_the_output_path(self, tmp_path):
        data = builtin_scenario("fig3").to_json_dict()
        data["tasks"] = [{"kind": "field", "bounds": [[2.5, 4.0], [-1.0, 1.0]],
                          "resolution": [2, 3]}]
        path = write_config(tmp_path / "cfg.json", data)
        summaries = []
        for parent in ("a", "a-longer-parent"):
            out = tmp_path / parent / "out"
            assert main(["run", "--config", path, "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_bytes())
        assert summaries[0] == summaries[1]
        assert b"\nartifacts in out\n" in summaries[0]

    def test_summary_file_is_what_the_run_printed(self, tmp_path, capsys):
        # the file lists itself among the artifacts, as the printed copy does
        assert run_scenario(builtin_scenario("fig2"), out_dir=str(tmp_path / "out")) == 0
        text = (tmp_path / "out" / "summary.txt").read_bytes()
        assert text == capsys.readouterr().out.encode()
        assert text.endswith(b"  - summary.txt\n")

    @pytest.mark.parametrize("name", [*BUILTIN_SCENARIOS, "all-kinds"])
    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch, name):
        # the builtins write JSON only; the all-kinds document writes every CSV
        argv = (["run", "--config", str(ALL_KINDS)] if name == "all-kinds"
                else ["scenario", name])
        outputs = []
        for sub in ("a", "b"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(argv) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in (workdir / ("%s-artifacts" % name)).iterdir()})
        assert outputs[0] == outputs[1]
        assert name != "all-kinds" or "roa.csv" in outputs[0]


class TestEmitConfig:
    def test_module_entry_point(self, tmp_path):
        # python -m barrier_lab runs the same command line as barrier-lab
        src = str(Path(barrier_lab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "barrier_lab", "scenario", "fig3",
             "--emit-config"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        parsed = parse_config_text(done.stdout)
        assert parsed.to_json_dict() == builtin_scenario("fig3").to_json_dict()
        assert list(tmp_path.iterdir()) == []

    def test_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "fig2", "--emit-config"]) == 0
        emitted = capsys.readouterr().out
        parsed = parse_config_text(emitted)
        assert parsed.to_json_dict() == builtin_scenario("fig2").to_json_dict()
        assert list(tmp_path.iterdir()) == []


class TestAppliedDefaults:
    def test_every_injected_default_is_listed(self):
        data = builtin_scenario("fig3-h2a1").to_json_dict()
        del data["cbfs"][1]["a"]
        data["cbfs"].append({"kind": "transform", "base": 0, "a": 1,
                             "alpha": {"kind": "linear", "slope": 1}})
        data["cbfs"].append({"kind": "transform", "base": 0, "b": 2,
                             "alpha": {"kind": "linear", "slope": 1}})
        del data["controller"]["weight"], data["controller"]["cbf"]
        config = validate_config(data)
        assert config.applied_defaults == (
            "cbfs[1].a defaulted to 0",
            "cbfs[2].b defaulted to 0",
            "cbfs[2].gamma defaulted to the identity",
            "cbfs[3].a defaulted to 0",
            "cbfs[3].eta defaulted to the constant 1",
            "controller.weight defaulted to the identity matrix G = I",
            "controller.cbf defaulted to 0",
        )
        assert (config.cbfs[1]["a"], config.cbfs[2]["b"], config.controller["cbf"]) == (0, 0, 0)
        assert config.cbfs[2]["gamma"] == {"kind": "identity"}
        assert config.cbfs[3]["eta"] == {"kind": "constant", "value": 1}
        # gamma is never read when a = 0, nor eta when b = 0
        assert "eta" not in config.cbfs[2] and "gamma" not in config.cbfs[3]
        for name in BUILTIN_SCENARIOS:
            assert builtin_scenario(name).applied_defaults == ()


    def test_defaults_no_other_case_reaches(self):
        data = builtin_scenario("fig2").to_json_dict()
        del data["cbfs"][0]["form"], data["cbfs"][0]["alpha"]["slope"]
        del data["clf"]["xstar"], data["clf"]["beta"], data["controller"]["p"]
        config = validate_config(data)
        assert config.applied_defaults == (
            "cbfs[0].form defaulted to 'full'",
            "cbfs[0].alpha.slope defaulted to 1",
            "clf.xstar defaulted to the origin",
            "clf.beta defaulted to the identity class-K function",
            "controller.p defaulted to 1",
        )
        assert (config.cbfs[0]["form"], config.cbfs[0]["alpha"], config.controller["p"]) == (
            "full", {"kind": "linear", "slope": 1}, 1)
        assert (config.clf["xstar"], config.clf["beta"]) == ([0, 0], {"kind": "identity"})


class TestAllKindsRun:
    def test_every_task_kind_writes_its_artifacts(self, tmp_path, capsys):
        # the document every kind is in, also run by CI through the console script
        out = tmp_path / "out"
        assert main(["run", "--config", str(ALL_KINDS), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        csv_rows = {  # header, data rows
            "field.csv": ("x1,x2,v1,v2,h,active_code,masked", 4 * 3),
            "trajectory-0.csv": ("t,x1,x2,u1,u2,h", 51),
            "trajectory-1.csv": ("t,x1,x2,u1,u2,h", 51),
            "trajectory-2.csv": ("t,x1,x2,u1,u2,h", 51),
            "roa.csv": ("x1,x2,label", 3 * 3),
        }
        for name, (header, rows) in csv_rows.items():
            lines = (out / name).read_text().splitlines()
            assert (lines[0], len(lines) - 1) == (header, rows), name
        equilibria = json.loads((out / "equilibria.json").read_text())
        spectra = json.loads((out / "spectra.json").read_text())
        equivalence = json.loads((out / "equivalence.json").read_text())
        assert (equilibria["scenario"], equilibria["controller"]) == ("all-kinds", "safety-filter")
        assert len(equilibria["reports"]) == len(spectra["spectra"]) == 2
        # with no pairs given, each barrier is checked against the first
        assert [(c["base"], c["other"], c["samples"], c["verdict"])
                for c in equivalence["checks"]] == [
            (0, j, 16, "equivalent-within-tol") for j in range(1, 7)]
        summary = (out / "summary.txt").read_text()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["equilibria.json", "spectra.json", "equivalence.json", "summary.txt", *csv_rows])
        assert ("\ndefaults applied\n  - cbfs[2].b defaulted to 0\n"
                "  - cbfs[5].a defaulted to 0\n") in summary
        log = summary.split("\ntask log\n")[1].split("\n\n")[0].splitlines()
        assert log[2:8] == ["  - equivalence cbf[0] ~ cbf[%d]: equivalent-within-tol" % j
                            for j in range(1, 7)]
        assert [line.split(": ")[0] for line in log[9:12]] == [
            "  - simulate from (0, 2)", "  - unfiltered simulate from (4, 1)",
            "  - unfiltered simulate from (5, -2)"]
        assert log[12:] == ["  - roa: 3x3 grid; converged-to(0;0) x8, unsafe-start x1"]
        # the unfiltered loop leaves the safe set, the filtered one does not
        h = [np.loadtxt(out / ("trajectory-%d.csv" % j), delimiter=",", skiprows=1)[:, -1]
             for j in range(3)]
        assert min(h[0]) > 0.0 > min(h[1])
        # each CSV is the cell-by-cell rendering of its task, rerun with the
        # document's parameters (the first simulate task writes trajectory-0)
        config = validate_config(all_kinds())
        model = build_model(config)
        controller = build_controller(config, model, build_pairs(config), build_clf(config))
        field_task, simulate_task, _, roa_task = config.tasks[3:]
        attractors = [np.array(report["x_star"]) for report in equilibria["reports"]]
        field = field_grid(controller, field_task["bounds"], field_task["resolution"])
        roa = roa_grid(controller, roa_task["bounds"], roa_task["resolution"], attractors,
                       t_final=roa_task["t_final"], dt=roa_task["dt"])
        traj, = integrate_batch(controller, [simulate_task["x0"]],
                                t_final=simulate_task["t_final"], dt=simulate_task["dt"],
                                attractors=attractors)
        expected = {
            "field.csv": reference_csv(
                ["x1", "x2", "v1", "v2", "h", "active_code", "masked"],
                [*field.states.T, *field.velocity.T, field.h, field.active_code, field.masked]),
            "roa.csv": reference_csv(["x1", "x2", "label"], [*roa.points.T, roa.labels]),
            "trajectory-0.csv": reference_csv(
                ["t", "x1", "x2", "u1", "u2", "h"],
                [traj.times, *traj.states.T, *traj.inputs.T, controller.pair.h(traj.states)]),
        }
        for name, text in expected.items():
            assert (out / name).read_text() == text, name


class TestComparison:
    def test_two_barrier_invariance(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = comparison_config("fig2").to_json_dict()
        assert main(["compare", "--config", write_config(tmp_path / "cmp.json", data)]) == 0
        report = json.loads(
            (tmp_path / "fig2-compare-artifacts" / "invariance_report.json").read_text())
        assert report["passed"] is True
        for check in report["checks"].values():
            assert check["passed"] is True
        assert [p["alpha_slope"] for p in report["pairs"]] == [1.0, 10.0]
        assert all(len(p["equilibria"]) == 3 for p in report["pairs"])
        out = capsys.readouterr().out
        # the name column is as wide as the longest check name, reduced_spectrum
        lines = out.splitlines()[:len(report["checks"])]
        assert [line.index(" max ") for line in lines] == [16] * len(lines)
        assert "overall          pass" in out

    def test_failed_check_exits_1(self, tmp_path, monkeypatch, capsys):
        from barrier_lab import cli
        failing = {"checks": {"reduced_spectrum": {
            "tolerance": 1e-7, "max_relative_difference": 0.5,
            "max_identity_residual": 0.0, "passed": False}}, "passed": False}
        monkeypatch.setattr(cli, "compare_pairs", lambda config: failing)
        data = comparison_config("fig2").to_json_dict()
        assert main(["compare", "--config", write_config(tmp_path / "cmp.json", data)]) == 1
        out = capsys.readouterr().out
        assert "reduced_spectrum max 0.5" in out
        assert "overall          FAIL" in out

    def test_unmatched_equilibrium_fails_the_spectrum_check(self, tmp_path, monkeypatch):
        # the base barrier loses one undesirable equilibrium, so the other
        # barriers each report one that has no partner to compare spectra with
        from barrier_lab import cli
        searches = []
        search = cli.find_boundary_equilibria

        def dropping(controller, **kwargs):
            reports = search(controller, **kwargs)
            searches.append(controller)
            if len(searches) == 1:
                undesirable = [r for r in reports if r.desirability == "undesirable"]
                reports = [r for r in reports if r is not undesirable[-1]]
            return reports

        monkeypatch.setattr(cli, "find_boundary_equilibria", dropping)
        config = comparison_config("fig3")
        report = compare_pairs(config, out_dir=str(tmp_path))
        assert len(searches) == len(config.cbfs) == 4
        assert [len(p["equilibria"]) for p in report["pairs"]] == [2, 3, 3, 3]
        assert report["checks"]["reduced_spectrum"]["passed"] is False
        assert report["checks"]["hausdorff"]["passed"] is False
        assert report["checks"]["boundary_field"]["passed"] is True
        assert report["passed"] is False

    def test_single_barrier_config_is_rejected(self, tmp_path, capsys):
        data = builtin_scenario("fig3").to_json_dict()
        assert main(["compare", "--config", write_config(tmp_path / "one.json", data)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_mismatched_zero_sets_fail_as_task_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = comparison_config("fig2").to_json_dict()
        data["cbfs"][1] = {"kind": "ball", "center": [0.0, 3.0], "radius": 1.6,
                          "form": "half", "alpha": {"kind": "linear", "slope": 1.0}}
        assert main(["compare", "--config", write_config(tmp_path / "mm.json", data)]) == 1
        assert "error:" in capsys.readouterr().err

