"""Command-line front end: scenario runner and cross-barrier comparison.

`barrier-lab run --config <path>` executes the task list of a scenario
document and writes JSON/CSV artifacts plus a plain-text summary.
`barrier-lab scenario <name>` does the same for a builtin config, and
`barrier-lab compare --config <path>` checks equilibrium/spectrum/field
invariance across every barrier listed in the config.

Exit codes: 0 success, 1 task error (partial artifacts retained) or a
failed comparison check, 2 config parse or validation error. A task error
is a BarrierLabError, a numpy LinAlgError, a ValueError or an
ArithmeticError (ZeroDivisionError, OverflowError, FloatingPointError)
raised by a task; any other exception is a programming error and
propagates.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .artifacts import json_dumps, table, write_csv, write_json, write_text
from .config import (BUILTIN_SCENARIOS, ScenarioConfig, build_clf,
                     build_controller, build_model, build_pairs,
                     builtin_scenario, parse_config, unfiltered_controller)
from .equilibria import (PolishCounts, find_boundary_equilibria, find_interior_equilibria,
                         state_sort_key)
from .equivalence import (boundary_field_difference, default_boundary_samples,
                          gradient_ratio, hausdorff_distance, hessian_equivalence)
from .errors import BarrierLabError, ConfigError
from .sim import DT_DEFAULT, T_DEFAULT, field_grid, integrate_batch, roa_grid
from .spectral import INVARIANCE_TOL, attach_spectra, spectral_invariance_check

HAUSDORFF_TOL = 1e-6
BOUNDARY_FIELD_TOL = 1e-9
BOUNDARY_FIELD_SAMPLES = 512
PRECHECK_SAMPLES = 256
MATCH_TOL = 1e-3           # cross-pair equilibrium identification radius
EQUIVALENCE_SAMPLES = 256


def _vec(x) -> list:
    return [float(v) for v in np.asarray(x, dtype=float).ravel()]


def _mat(x) -> list:
    return [[float(v) for v in row] for row in np.asarray(x, dtype=float)]


def _point_str(x) -> str:
    return "(" + ", ".join("%.9g" % float(v) for v in np.asarray(x).ravel()) + ")"


def _report_json(report) -> dict:
    return {
        "x_star": _vec(report.x_star),
        "kind": report.kind,
        "desirability": report.desirability,
        "controller": report.controller,
        "multipliers": [float(m) for m in report.multipliers],
        "residual": float(report.residual),
        "stability": report.stability,
        "eigenvalues": (None if report.eigenvalues is None
                        else [complex(z) for z in report.eigenvalues]),
        "jacobian": None if report.jacobian is None else _mat(report.jacobian),
    }


def _describe_cbf(index: int, d: dict) -> str:
    alpha = "alpha slope %g" % d["alpha"]["slope"]
    if d["kind"] == "ball":
        return "cbf[%d]  ball center %s radius %g form %s; %s" % (
            index, _point_str(d["center"]), d["radius"], d["form"], alpha)
    parts = ["transform of cbf[%d]" % d["base"], "a %g" % d["a"], "b %g" % d["b"]]
    if "gamma" in d:
        parts.append("gamma %s" % d["gamma"]["kind"])
    if "eta" in d:
        eta = d["eta"]
        if eta["kind"] == "constant":
            parts.append("eta constant %g" % eta["value"])
        else:
            parts.append("eta %s center %s offset %g"
                         % (eta["kind"], _point_str(eta["center"]), eta["offset"]))
    return "cbf[%d]  %s; %s" % (index, ", ".join(parts), alpha)


class _ListHandler(logging.Handler):
    """Collects warning-and-above log lines for the run summary."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.lines: List[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


class ScenarioRun:
    """Executes the task list of one validated config and writes artifacts."""

    def __init__(self, config: ScenarioConfig, out_dir: Optional[str] = None):
        self.config = config
        self.out_dir = out_dir if out_dir is not None else config.output_dir
        self.model = build_model(config)
        self.pairs = build_pairs(config)
        self.clf = build_clf(config)
        self.controller = build_controller(config, self.model, self.pairs, self.clf)
        self.reports = None
        self.artifacts: List[str] = []
        self.task_lines: List[str] = []
        self.warnings: List[str] = []
        self.error: Optional[str] = None
        self._trajectory_index = 0

    # ---- artifact plumbing ------------------------------------------------

    def _write(self, writer, name: str, *content) -> None:
        """writer(path, *content) into the output directory; lists name once."""
        writer(os.path.join(self.out_dir, name), *content)
        if name not in self.artifacts:
            self.artifacts.append(name)

    def _write_equilibria_json(self) -> None:
        self._write(write_json, "equilibria.json", {
            "scenario": self.config.name,
            "controller": self.controller.kind,
            "reports": [_report_json(r) for r in self.reports],
        })

    # ---- tasks ------------------------------------------------------------

    def ensure_equilibria(self) -> None:
        if self.reports is None:
            self.run_equilibria({"kind": "equilibria"})

    def run_equilibria(self, params: dict) -> None:
        counts = PolishCounts()
        # the searches' own defaults hold for every key the task leaves out
        boundary = find_boundary_equilibria(
            self.controller, counts=counts, **{k: v for k, v in params.items() if k == "sweep"})
        interior = find_interior_equilibria(
            self.controller, counts=counts,
            **{k: v for k, v in params.items() if k in ("box", "per_axis")})
        self.reports = sorted(boundary + interior, key=lambda r: state_sort_key(r.x_star))
        self._write_equilibria_json()
        stops = ", ".join("%s x%d" % (reason, counts.stops[reason])
                          for reason in sorted(counts.stops))
        self.task_lines.append("equilibria: %d boundary (%d undesirable), %d interior;"
                               " polished %d candidates in %d iterations (%s), %d dropped"
                               % (len(boundary),
                                  sum(r.desirability == "undesirable" for r in boundary),
                                  len(interior), counts.polished, counts.iterations,
                                  stops or "none", counts.dropped))

    def run_jacobians(self, params: dict) -> None:
        self.ensure_equilibria()
        self.reports = attach_spectra(self.reports, self.controller)
        entries = []
        for report in self.reports:
            result = report.spectrum
            entries.append({
                "x_star": _vec(report.x_star),
                "kind": report.kind,
                "desirability": report.desirability,
                "stability": result.stability,
                "char_poly": [float(c) for c in result.char_poly],
                "eigenvalues": [complex(z) for z in result.eigenvalues],
                "known_factor_root": result.known_factor_root,
                "reduced_eigenvalues": (None if result.reduced_eigenvalues is None
                                        else list(result.reduced_eigenvalues)),
                "identity_residual": result.identity_residual,
            })
        self._write_equilibria_json()
        self._write(write_json, "spectra.json", {"scenario": self.config.name,
                                                "spectra": entries})
        self.task_lines.append("jacobians: spectra attached to %d equilibria"
                               % len(self.reports))

    def run_equivalence(self, params: dict) -> None:
        count = params.get("samples", EQUIVALENCE_SAMPLES)
        index_pairs = params.get("pairs")
        if index_pairs is None:
            index_pairs = [[0, j] for j in range(1, len(self.pairs))]
        entries = []
        for i, j in index_pairs:
            samples = default_boundary_samples(self.pairs[i], count)
            report = hessian_equivalence(self.pairs[i], self.pairs[j], samples=samples)
            entries.append({
                "base": int(i),
                "other": int(j),
                "samples": int(count),
                "zeta_min": float(np.min(report.zeta)),
                "zeta_max": float(np.max(report.zeta)),
                "max_gradient_residual": float(report.max_gradient_residual),
                "max_hessian_residual": float(report.max_hessian_residual),
                "verdict": report.verdict,
            })
            self.task_lines.append("equivalence cbf[%d] ~ cbf[%d]: %s"
                                   % (i, j, report.verdict))
        self._write(write_json, "equivalence.json", {"scenario": self.config.name,
                                                    "checks": entries})

    def run_field(self, params: dict) -> None:
        grid = field_grid(self.controller, params["bounds"], params["resolution"])
        self._write(write_csv, "field.csv",
                    ["x1", "x2", "v1", "v2", "h", "active_code", "masked"],
                    [*grid.states.T, *grid.velocity.T, grid.h, grid.active_code, grid.masked])
        self.task_lines.append("field: %dx%d grid sampled" % grid.shape)

    def run_simulate(self, params: dict) -> None:
        self.ensure_equilibria()
        if params.get("unfiltered", False):
            controller = unfiltered_controller(self.config, self.model, self.clf)
            tag = "unfiltered "
        else:
            controller = self.controller
            tag = ""
        x0s = [params["x0"]] if "x0" in params else list(params["x0s"])
        attractors = [r.x_star for r in self.reports]
        trajectories = integrate_batch(controller, x0s,
                                       t_final=params.get("t_final", T_DEFAULT),
                                       dt=params.get("dt", DT_DEFAULT),
                                       attractors=attractors)
        # count across every simulate task so names never collide
        total = sum(len(t.get("x0s", [0])) for t in self.config.tasks
                    if t["kind"] == "simulate")
        pair = self.controller.pair
        for traj in trajectories:
            name = ("trajectory.csv" if total == 1
                    else "trajectory-%d.csv" % self._trajectory_index)
            self._trajectory_index += 1
            n = traj.states.shape[1]
            m = traj.inputs.shape[1]
            h = np.asarray(pair.h(traj.states), dtype=float)
            header = (["t"] + ["x%d" % (i + 1) for i in range(n)]
                      + ["u%d" % (i + 1) for i in range(m)] + ["h"])
            self._write(write_csv, name, header,
                        [traj.times, *traj.states.T, *traj.inputs.T, h])
            self.task_lines.append("%ssimulate from %s: %s (min h %.6g)"
                                   % (tag, _point_str(traj.states[0]),
                                      traj.terminal_label, float(np.min(h))))

    def run_roa(self, params: dict) -> None:
        self.ensure_equilibria()
        attractors = [r.x_star for r in self.reports]
        grid = roa_grid(self.controller, params["bounds"], params["resolution"],
                        attractors,
                        t_final=params.get("t_final", T_DEFAULT),
                        dt=params.get("dt", DT_DEFAULT))
        self._write(write_csv, "roa.csv", ["x1", "x2", "label"], [*grid.points.T, grid.labels])
        counts = {}
        for label in grid.labels:
            counts[label] = counts.get(label, 0) + 1
        histogram = ", ".join("%s x%d" % (label, counts[label])
                              for label in sorted(counts))
        self.task_lines.append("roa: %dx%d grid; %s" % (grid.shape + (histogram,)))

    # ---- driver -----------------------------------------------------------

    def run(self) -> int:
        handler = _ListHandler()
        logger = logging.getLogger("barrier_lab")
        logger.addHandler(handler)
        try:
            for index, task in enumerate(self.config.tasks):
                kind = task["kind"]
                try:
                    getattr(self, "run_" + kind)(task)
                except (BarrierLabError, np.linalg.LinAlgError, ValueError,
                        ArithmeticError) as exc:
                    self.error = "task %d (%s) failed: %s" % (index, kind, exc)
                    break
        finally:
            logger.removeHandler(handler)
            self.warnings = list(handler.lines)
            self.write_summary()
        return 1 if self.error else 0

    # ---- summary ----------------------------------------------------------

    def summary_text(self) -> str:
        config = self.config
        lines = ["scenario    %s" % config.name]
        if "builtin" in config.system:
            system = config.system["builtin"]
        else:
            system = "linear (n = %d)" % self.model.n
        if "K" in config.system:
            system += ", nominal gain K"
        lines.append("system      %s" % system)
        cd = config.controller
        desc = cd["kind"]
        desc += ", G %s" % cd["weight"]["kind"]
        if "p" in cd:
            desc += ", p %g" % cd["p"]
        desc += ", barrier %d" % cd["cbf"]
        lines.append("controller  %s" % desc)
        for i, d in enumerate(config.cbfs):
            lines.append(_describe_cbf(i, d))
        if config.clf is not None:
            beta = config.clf["beta"]
            beta_desc = beta["kind"] if beta["kind"] == "identity" \
                else "linear slope %g" % beta["slope"]
            lines.append("clf     quadratic Q %s, xstar %s, beta %s"
                         % (_mat(config.clf["Q"]), _point_str(config.clf["xstar"]),
                            beta_desc))
        lines.append("seed        %d" % config.seed)

        def section(title, entries):
            if entries:
                lines.append("")
                lines.append(title)
                lines.extend("  - %s" % entry for entry in entries)

        section("notes", config.notes)
        section("defaults applied", config.applied_defaults)
        if self.reports is not None:
            lines.append("")
            lines.append("equilibria (%d)" % len(self.reports))
            grid = [["x", "kind", "desirability", "stability", "multipliers", "residual"]]
            for r in self.reports:
                grid.append([_point_str(r.x_star), r.kind, r.desirability,
                             r.stability if r.stability else "-",
                             "(" + ", ".join("%.9g" % m for m in r.multipliers) + ")",
                             "%.3g" % r.residual])
            lines.extend("  " + row for row in table(grid).splitlines())
        section("task log", self.task_lines)
        section("warnings", self.warnings)
        # the directory's own name only, so the summary does not depend on
        # where the output tree sits
        section("artifacts in %s" % os.path.basename(os.path.normpath(self.out_dir)),
                self.artifacts)
        section("error", [self.error] if self.error else [])
        return "\n".join(lines) + "\n"

    def write_summary(self) -> None:
        if "summary.txt" not in self.artifacts:   # listed before rendering: the file lists itself
            self.artifacts.append("summary.txt")
        self._write(write_text, "summary.txt", self.summary_text())


def run_scenario(config, out_dir: Optional[str] = None) -> int:
    """Execute a scenario given a config path or ScenarioConfig; exit code."""
    if isinstance(config, (str, os.PathLike)):
        try:
            config = parse_config(os.fspath(config))
        except ConfigError as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 2
    run = ScenarioRun(config, out_dir=out_dir)
    code = run.run()
    sys.stdout.write(run.summary_text())
    if run.error:
        print(run.error, file=sys.stderr)
    return code


# ---- cross-barrier comparison ---------------------------------------------


def compare_pairs(config: ScenarioConfig, out_dir: Optional[str] = None) -> dict:
    """Invariance of equilibria, reduced spectra, and boundary fields.

    Every barrier in the config is run through the configured controller;
    undesirable boundary equilibria, their reduced spectra (the eigenvalues
    on the tangent space of the boundary), and the closed-loop field on
    boundary samples are compared against the first barrier. Writes
    invariance_report.json and returns the report.
    """
    if len(config.cbfs) < 2:
        raise ConfigError("comparison needs at least two cbfs (got %d)"
                          % len(config.cbfs), path="cbfs")
    out = out_dir if out_dir is not None else config.output_dir
    model = build_model(config)
    pairs = build_pairs(config)
    clf = build_clf(config)

    # All barriers must carve out the same safe set: gradient_ratio rejects
    # samples off either zero level set.
    precheck = default_boundary_samples(pairs[0], PRECHECK_SAMPLES)
    for j in range(1, len(pairs)):
        gradient_ratio(pairs[0], pairs[j], precheck)

    controllers = [build_controller(config, model, pairs, clf, cbf_index=i)
                   for i in range(len(pairs))]
    per_pair = []
    for controller in controllers:
        reports = [r for r in find_boundary_equilibria(controller)
                   if r.desirability == "undesirable"]
        per_pair.append(attach_spectra(reports, controller))

    field_samples = default_boundary_samples(pairs[0], BOUNDARY_FIELD_SAMPLES)
    hausdorff_max = difference_max = residual_max = field_max = 0.0
    spectra_ok = True
    for i in range(1, len(per_pair)):
        hausdorff_max = max(hausdorff_max, hausdorff_distance(
            [r.x_star for r in per_pair[0]], [r.x_star for r in per_pair[i]]))
        for report in per_pair[i]:
            distances = [float(np.linalg.norm(report.x_star - r.x_star))
                         for r in per_pair[0]]
            if not distances or min(distances) > MATCH_TOL:
                spectra_ok = False
                continue
            match = per_pair[0][int(np.argmin(distances))]
            verdict = spectral_invariance_check(match.spectrum, report.spectrum)
            difference_max = max(difference_max, verdict.max_relative_difference)
            residual_max = max(residual_max, *verdict.identity_residuals)
            spectra_ok = spectra_ok and verdict.passed
        field_max = max(field_max, float(boundary_field_difference(
            controllers[0], controllers[i], field_samples)))

    checks = {
        "hausdorff": {"tolerance": HAUSDORFF_TOL, "max": hausdorff_max,
                      "passed": bool(hausdorff_max <= HAUSDORFF_TOL)},
        "reduced_spectrum": {"tolerance": INVARIANCE_TOL,
                             "max_relative_difference": difference_max,
                             "max_identity_residual": residual_max,
                             "passed": bool(spectra_ok)},
        "boundary_field": {"tolerance": BOUNDARY_FIELD_TOL,
                           "samples": BOUNDARY_FIELD_SAMPLES,
                           "max_difference": field_max,
                           "passed": bool(field_max <= BOUNDARY_FIELD_TOL)},
    }
    report = {
        "scenario": config.name,
        "controller": config.controller["kind"],
        "pairs": [{
            "index": i,
            "alpha_slope": float(pairs[i].alpha.deriv(0.0)),
            "equilibria": [_vec(r.x_star) for r in per_pair[i]],
            "stability": [r.stability for r in per_pair[i]],
        } for i in range(len(per_pair))],
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks.values())),
    }
    write_json(os.path.join(out, "invariance_report.json"), report)
    return report


# ---- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrier-lab",
        description="Analysis toolkit for safety-filtered and CLF-CBF "
                    "closed loops: equilibria, spectra, equivalence, "
                    "simulation, and invariance comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config file")
    run_p.add_argument("--config", required=True, metavar="PATH",
                       help="scenario JSON document")
    run_p.add_argument("--out", metavar="DIR", default=None,
                       help="override the config output_dir")
    sc_p = sub.add_parser("scenario", help="run a builtin scenario")
    sc_p.add_argument("name", help="one of: %s" % ", ".join(BUILTIN_SCENARIOS))
    sc_p.add_argument("--emit-config", action="store_true",
                      help="print the scenario config JSON instead of running")
    cmp_p = sub.add_parser("compare",
                           help="cross-barrier invariance comparison")
    cmp_p.add_argument("--config", required=True, metavar="PATH",
                       help="scenario JSON document with at least two cbfs")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.config, out_dir=args.out)
        if args.command == "scenario":
            config = builtin_scenario(args.name)
            if args.emit_config:
                sys.stdout.write(json_dumps(config.to_json_dict()))
                return 0
            return run_scenario(config)
        # compare
        config = parse_config(args.config)
        report = compare_pairs(config)
        width = max(len(name) for name in ("overall", *report["checks"]))
        for name, check in report["checks"].items():
            bound = check.get("max", check.get("max_relative_difference",
                                               check.get("max_difference")))
            print("%-*s max %-12.6g tol %-8g %s"
                  % (width, name, bound, check["tolerance"],
                     "pass" if check["passed"] else "FAIL"))
        print("%-*s %s" % (width, "overall", "pass" if report["passed"] else "FAIL"))
        print("wrote %s" % os.path.join(config.output_dir, "invariance_report.json"))
        return 0 if report["passed"] else 1
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except BarrierLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
