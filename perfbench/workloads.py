"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop: one caller waits for each result before it
asks for the next. Each reuses the inputs of an acceptance test in
``tests/test_acceptance.py``; the default seed reproduces them exactly and any
other seed draws fresh inputs of the same size and kind.

A workload has three steps, called once per pass by ``run.py``:

* ``prepare(out_dir)`` - config validation, model / barrier / controller
  building and input generation (timed as set-up);
* ``execute(prepared, out_dir)`` - the timed pass;
* ``verify(raw, out_dir)`` - output checks, sub-timings and an artifact hash,
  outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from barrier_lab import cli, config, qp, sim

DEFAULT_SEED = 2026    # TestClosedLoopSafety's sampler seed; reproduces the acceptance inputs
HOLDOUT_SEED = 9091    # kept back for checking a claim on inputs not used while writing it

BUILTINS = ("fig3", "fig3-h2a1", "fig3-h1a2", "fig3-h2a2", "fig2")
FIG3_FAMILY = BUILTINS[:4]

# sampling boxes of the acceptance tests' safe-state sampler (tests/conftest.py)
SAMPLE_BOX = {
    "fig3": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h2a1": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h1a2": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h2a2": ((-1.0, -3.0), (5.0, 3.0)),
    "fig2": ((-3.0, 0.0), (3.0, 6.0)),
}

# TestSolverAgreement samples with the builtin config's seed + 1
CERTIFY_ACCEPTANCE_SEED = 1

DT = 1e-3                    # both acceptance tests integrate with this step
SAFETY_TOL = 1e-6            # filtered loops keep min h above -SAFETY_TOL
NOMINAL_MAX_MIN_H = -0.5     # the nominal fig3 loop must dip below this
NOMINAL_X0 = (2.5, 0.01)
GOLDEN_TOL = 1e-6
LAW_TOL = 1e-10              # closed-form law vs solve_small_qp
CERTIFICATE_TOL = 1e-9

SQ3 = math.sqrt(3.0)
ROOT_189 = math.sqrt(1.89)
GOLDEN = {
    "fig3": (((2.5, -SQ3 / 2.0), "saddle"), ((2.5, SQ3 / 2.0), "saddle"),
             ((3.0, 0.0), "asymptotically-stable")),
    "fig2": (((-ROOT_189, 3.6), "saddle"), ((0.0, 4.5), "asymptotically-stable"),
             ((ROOT_189, 3.6), "saddle")),
}

ROA_BOUNDS = ((0.5, 4.5), (-2.0, 2.0))     # TestBasinShift grid
FIELD_BOUNDS = ((-5.0, 5.0), (-5.0, 5.0))
ORIGIN_LABEL = "converged-to(0;0)"
OBSTACLE_LABEL = "converged-to(3;0)"

MAX_MESSAGES = 20            # failure messages kept per pass; all failures are counted


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, smaller ones serve the smoke test."""

    safety_ics: int = 100          # TestClosedLoopSafety: 100 ICs per builtin
    safety_horizon: float = 2.0    # the test's 20 s cut to 2 s: same per-step mix
    roa_resolution: int = 13       # TestBasinShift: 13 x 13, 20 s horizon
    roa_horizon: float = 20.0
    field_resolution: int = 300
    certify_states: int = 1000     # TestSolverAgreement: 1000 states per builtin


@dataclass
class Verdict:
    """What one pass produced, judged outside the timed region."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)   # the first MAX_MESSAGES, formatted
    digest: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)   # e.g. traj_steps_per_s

    def expect(self, ok: bool, message: str, *args) -> None:
        """Count one checked operation; format the message only when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_MESSAGES:
                self.failures.append(message % args if args else message)


def _build(cfg):
    model = config.build_model(cfg)
    pairs = config.build_pairs(cfg)
    clf = config.build_clf(cfg)
    return model, clf, config.build_controller(cfg, model, pairs, clf)


def safe_states(controller, name: str, count: int, seed: int) -> np.ndarray:
    """Uniform rejection samples with h >= 0 for every carried barrier.

    Same draws as ScenarioBundle.safe_states in tests/conftest.py, so equal
    seeds give the acceptance tests' states.
    """
    (x1_lo, x2_lo), (x1_hi, x2_hi) = SAMPLE_BOX[name]
    rng = np.random.default_rng(seed)
    out: list = []
    while len(out) < count:
        x = rng.uniform((x1_lo, x2_lo), (x1_hi, x2_hi), size=(4 * count, 2))
        keep = np.ones(x.shape[0], dtype=bool)
        for pair in controller.cbf_pairs:
            keep &= np.asarray(pair.h(x), dtype=float) >= 0.0
        out.extend(x[keep])
    return np.asarray(out[:count])


def hash_tree(out_dir: str, extra: bytes = b"") -> str:
    """sha256 over every file below out_dir (sorted), with the out_dir path masked."""
    digest = hashlib.sha256(extra)
    marker = os.path.abspath(out_dir).encode("utf-8")
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as handle:
                body = handle.read()
            if name == "summary.txt":
                body = body.replace(marker, b"<out>")
            digest.update(rel.encode("utf-8") + b"\0" + body + b"\0")
    return digest.hexdigest()


# ---- safety-batch ------------------------------------------------------------------


class SafetyBatch:
    """integrate_batch on all five builtins, then invariance audits."""

    name = "safety-batch"
    figures = (("traj_steps_per_s", "1/s"),)     # (name, unit) set by verify()

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def prepare(self, out_dir: str):
        loops = []
        for name in BUILTINS:
            cfg = config.builtin_scenario(name)
            model, clf, controller = _build(cfg)
            ics = safe_states(controller, name, self.sizes.safety_ics, self.seed)
            loops.append((name, controller, ics))
            if name == "fig3":
                nominal = config.unfiltered_controller(cfg, model, clf)
                nominal_pair = controller.pair
        return loops, nominal, nominal_pair

    def execute(self, prepared, out_dir: str) -> dict:
        loops, nominal, nominal_pair = prepared
        horizon = self.sizes.safety_horizon
        filtered = []
        for name, controller, ics in loops:
            trajectories = sim.integrate_batch(controller, ics, t_final=horizon, dt=DT)
            audits = [sim.invariance_audit(t, controller.pair) for t in trajectories]
            filtered.append((name, trajectories, audits))
        open_loop = sim.integrate(nominal, np.array(NOMINAL_X0), t_final=horizon, dt=DT)
        return {"filtered": filtered, "nominal": open_loop,
                "nominal_audit": sim.invariance_audit(open_loop, nominal_pair)}

    def verify(self, raw: dict, out_dir: str, wall_s: float) -> Verdict:
        verdict = Verdict()
        digest = hashlib.sha256()
        steps = 0
        trajectories = [(name, t, a) for name, ts, audits in raw["filtered"]
                        for t, a in zip(ts, audits)]
        trajectories.append(("fig3 nominal", raw["nominal"], raw["nominal_audit"]))
        for name, traj, (min_h, label) in trajectories:
            steps += len(traj.times) - 1
            for arr in (traj.states, traj.inputs, traj.multiplier_trace, traj.h_values):
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(("%s|%r|%s\n" % (traj.terminal_label, min_h, label)).encode())
        for name, traj, (min_h, _) in trajectories[:-1]:
            verdict.expect(min_h >= -SAFETY_TOL, "%s trajectory from %s dipped to h = %g",
                           name, traj.states[0], min_h)
        min_h, label = raw["nominal_audit"]
        verdict.expect(label == "fail" and min_h < NOMINAL_MAX_MIN_H,
                       "nominal fig3 loop audit %s with min h %g (expected fail below %g)",
                       label, min_h, NOMINAL_MAX_MIN_H)
        verdict.digest = digest.hexdigest()
        verdict.metrics["traj_steps_per_s"] = steps / wall_s
        return verdict


# ---- basin-grid --------------------------------------------------------------------


class _TaskClockRun(cli.ScenarioRun):
    """ScenarioRun that notes the wall time of its roa and field tasks.

    Two clock reads per task; the run path is otherwise ScenarioRun's own.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.task_seconds: Dict[str, float] = {}

    def _clocked(self, kind: str, method, params):
        start = time.perf_counter()
        try:
            return method(params)
        finally:
            self.task_seconds[kind] = time.perf_counter() - start

    def run_roa(self, params):
        return self._clocked("roa", super().run_roa, params)

    def run_field(self, params):
        return self._clocked("field", super().run_field, params)


class BasinGrid:
    """The CLI run path on fig3 and fig3-h2a1: a roa grid, then a large field grid."""

    name = "basin-grid"
    figures = (("roa_cells_per_s", "1/s"), ("field_nodes_per_s", "1/s"))
    scenarios = ("fig3", "fig3-h2a1")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.roa_bounds, self.field_bounds = self._grids(seed)

    def _grids(self, seed: int):
        """The TestBasinShift grid at the default seed; otherwise a sub-cell shift of it."""
        if seed == DEFAULT_SEED:
            return ROA_BOUNDS, FIELD_BOUNDS
        rng = np.random.default_rng(seed)
        roa_cell = (ROA_BOUNDS[0][1] - ROA_BOUNDS[0][0]) / (self.sizes.roa_resolution - 1)
        field_cell = (FIELD_BOUNDS[0][1] - FIELD_BOUNDS[0][0]) / (self.sizes.field_resolution - 1)
        roa_shift = rng.uniform(-0.01, 0.01, size=2) * roa_cell
        field_shift = rng.uniform(-0.5, 0.5, size=2) * field_cell

        def shifted(bounds, shift):
            return tuple((lo + float(s), hi + float(s)) for (lo, hi), s in zip(bounds, shift))

        return shifted(ROA_BOUNDS, roa_shift), shifted(FIELD_BOUNDS, field_shift)

    def document(self, name: str) -> str:
        """The scenario JSON a user would hand to `barrier-lab run --config`."""
        raw = config.builtin_scenario(name).to_json_dict()
        n_roa, n_field = self.sizes.roa_resolution, self.sizes.field_resolution
        raw["tasks"] = [
            {"kind": "roa", "bounds": [list(b) for b in self.roa_bounds],
             "resolution": [n_roa, n_roa], "t_final": self.sizes.roa_horizon,
             "dt": DT},
            {"kind": "field", "bounds": [list(b) for b in self.field_bounds],
             "resolution": [n_field, n_field]},
        ]
        return json.dumps(raw, indent=2)

    def prepare(self, out_dir: str):
        runs = []
        for name in self.scenarios:
            cfg = config.parse_config_text(self.document(name))
            runs.append((name, _TaskClockRun(cfg, out_dir=os.path.join(out_dir, name))))
        return runs

    def execute(self, prepared, out_dir: str) -> dict:
        return {"runs": [(name, run, run.run()) for name, run in prepared]}

    def verify(self, raw: dict, out_dir: str, wall_s: float) -> Verdict:
        verdict = Verdict()
        tallies = {}
        safe_cells = nodes = 0
        roa_s = field_s = 0.0
        for name, run, code in raw["runs"]:
            verdict.expect(code == 0, "%s run exited %d: %s", name, code, run.error)
            roa_s += run.task_seconds.get("roa", 0.0)
            field_s += run.task_seconds.get("field", 0.0)
            base = os.path.join(out_dir, name)
            tally: Dict[str, int] = {}
            for row in _read_csv(os.path.join(base, "roa.csv")):
                label = row["label"]
                tally[label] = tally.get(label, 0) + 1
                verdict.expect(not (label.startswith("error:")
                                    or label in ("left-domain", "max-time")),
                               "%s roa cell (%s, %s) labelled %s",
                               name, row["x1"], row["x2"], label)
            safe_cells += sum(c for label, c in tally.items() if label != "unsafe-start")
            tallies[name] = tally
            for row in _read_csv(os.path.join(base, "field.csv")):
                nodes += 1
                verdict.expect(row["masked"] == "1" or "nan" not in row.values(),
                               "%s field.csv has nan at unmasked node (%s, %s)",
                               name, row["x1"], row["x2"])
        base, moved = (tallies[n] for n in self.scenarios)
        verdict.expect(base.get("unsafe-start") == moved.get("unsafe-start"),
                       "unsafe-start counts differ: %s vs %s",
                       base.get("unsafe-start"), moved.get("unsafe-start"))
        verdict.expect(moved.get(ORIGIN_LABEL, 0) > base.get(ORIGIN_LABEL, 0),
                       "fig3-h2a1 has no more cells at %s than fig3 (%s vs %s)",
                       ORIGIN_LABEL, moved.get(ORIGIN_LABEL), base.get(ORIGIN_LABEL))
        verdict.expect(moved.get(OBSTACLE_LABEL, 0) < base.get(OBSTACLE_LABEL, 0),
                       "fig3-h2a1 has no fewer cells at %s than fig3 (%s vs %s)",
                       OBSTACLE_LABEL, moved.get(OBSTACLE_LABEL), base.get(OBSTACLE_LABEL))
        verdict.digest = hash_tree(out_dir)
        verdict.metrics["roa_cells_per_s"] = safe_cells / roa_s if roa_s else 0.0
        verdict.metrics["field_nodes_per_s"] = nodes / field_s if field_s else 0.0
        return verdict


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.DictReader(handle)


# ---- scenario-analysis -------------------------------------------------------------


class ScenarioAnalysis:
    """In-process `barrier-lab scenario` for every builtin, compares, certification."""

    name = "scenario-analysis"
    figures = (("scenario_s.fig2", "s"), ("scenario_s.fig3", "s"), ("compare_s", "s"),
               ("certify_states_per_s", "1/s"))
    compares = ("fig3", "fig2")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.certify_seed = CERTIFY_ACCEPTANCE_SEED if seed == DEFAULT_SEED else seed

    def prepare(self, out_dir: str):
        compare_configs = [(name, config.comparison_config(name)) for name in self.compares]
        certify = []
        for name in BUILTINS:
            _, _, controller = _build(config.builtin_scenario(name))
            states = safe_states(controller, name, self.sizes.certify_states,
                                 self.certify_seed)
            certify.append((name, controller, controller.problem(), states))
        return compare_configs, certify

    def execute(self, prepared, out_dir: str) -> dict:
        compare_configs, certify = prepared
        scenario_s: Dict[str, float] = {}
        codes: Dict[str, int] = {}
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(out_dir)     # `barrier-lab scenario` writes <name>-artifacts/ under the cwd
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                for name in BUILTINS:
                    start = time.perf_counter()
                    codes[name] = cli.main(["scenario", name])
                    scenario_s[name] = time.perf_counter() - start
        finally:
            os.chdir(cwd)

        reports = {}
        start = time.perf_counter()
        for name, cfg in compare_configs:
            reports[name] = cli.compare_pairs(cfg, out_dir=os.path.join(out_dir,
                                                                       "compare-" + name))
        compare_s = time.perf_counter() - start

        points = []
        start = time.perf_counter()
        for name, controller, problem, states in certify:
            for x in states:
                points.append((name, problem, x, controller.point(x),
                               qp.solve_small_qp(problem, x)))
        certify_s = time.perf_counter() - start
        return {"codes": codes, "scenario_s": scenario_s, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(), "reports": reports, "compare_s": compare_s,
                "points": points, "certify_s": certify_s}

    def verify(self, raw: dict, out_dir: str, wall_s: float) -> Verdict:
        verdict = Verdict()
        for name in BUILTINS:
            code = raw["codes"][name]
            verdict.expect(code == 0, "scenario %s exited %d: %s",
                           name, code, raw["stderr"].strip())
            verdict.expect(*self._golden(name, out_dir))
        for name, report in raw["reports"].items():
            verdict.expect(bool(report["passed"]), "compare %s failed: %s",
                           name, {k: c["passed"] for k, c in report["checks"].items()})
        extra = hashlib.sha256(raw["stdout"].encode("utf-8"))
        for name, problem, x, mine, ref in raw["points"]:
            law = float(np.max(np.abs(mine.u - ref.u)))
            if problem.relaxed:
                law = max(law, abs(mine.delta - ref.delta))
            certificate = max(abs(float(v)) for point in (mine, ref)
                              for v in qp.certificate_errors(problem, x, point).values())
            verdict.expect(law < LAW_TOL and certificate < CERTIFICATE_TOL,
                           "%s at %s: law gap %.3g, certificate error %.3g",
                           name, x, law, certificate)
            extra.update(np.asarray(mine.u, dtype=float).tobytes()
                         + np.asarray(ref.u, dtype=float).tobytes())
        verdict.digest = hash_tree(out_dir, extra.digest())
        scenario_s = raw["scenario_s"]
        verdict.metrics.update({
            "scenario_s.fig2": scenario_s["fig2"],
            "scenario_s.fig3": sum(scenario_s[n] for n in FIG3_FAMILY),
            "compare_s": raw["compare_s"],
            "certify_states_per_s": len(raw["points"]) / raw["certify_s"],
        })
        return verdict

    @staticmethod
    def _golden(name: str, out_dir: str) -> Tuple[bool, str]:
        path = os.path.join(out_dir, "%s-artifacts" % name, "equilibria.json")
        try:
            with open(path, encoding="utf-8") as handle:
                reports = json.load(handle)["reports"]
        except (OSError, ValueError, KeyError) as exc:
            return False, "%s: cannot read equilibria.json: %s" % (name, exc)
        bad = [(np.asarray(r["x_star"], dtype=float), r["stability"]) for r in reports
               if r["desirability"] == "undesirable"]
        golden = GOLDEN["fig2" if name == "fig2" else "fig3"]
        if len(bad) != len(golden):
            return False, "%s: %d undesirable equilibria, expected %d" % (name, len(bad),
                                                                         len(golden))
        for point, stability in golden:
            gaps = [float(np.linalg.norm(x - np.asarray(point))) for x, _ in bad]
            nearest = int(np.argmin(gaps))
            if gaps[nearest] >= GOLDEN_TOL or bad[nearest][1] != stability:
                return False, ("%s: golden %s (%s) matched by %s (%s) at distance %.3g"
                               % (name, point, stability, bad[nearest][0],
                                  bad[nearest][1], gaps[nearest]))
        return True, ""


WORKLOADS = {w.name: w for w in (SafetyBatch, BasinGrid, ScenarioAnalysis)}

def make(name: str, seed: int, sizes: Optional[Sizes] = None):
    return WORKLOADS[name](seed, sizes or Sizes())
