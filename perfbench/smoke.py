#!/usr/bin/env python3
"""Fast smoke test of the benchmark harness at tiny input sizes.

Run from the repository root (well under a minute):

    python3 perfbench/smoke.py

It checks that every workload emits exactly the metrics BENCHMARK.json names
(end-to-end untraced, per-layer traced), that tracing leaves the artifact
hash unchanged, that each workload's output checks fire on broken outputs,
and that the command fails without printing a result when the package
sources are missing. Exits nonzero on the first failed expectation.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

run._import_package()

import workloads            # noqa: E402

TINY = workloads.Sizes(safety_ics=3, safety_horizon=0.3, roa_resolution=3, roa_horizon=0.05,
                       field_resolution=4, certify_states=3)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit("smoke: FAILED: " + message)
    print("smoke: ok: " + message)


def benchmark_names(section: str):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


def check_metrics(result: dict, section: str, what: str) -> None:
    names = benchmark_names(section)
    emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expect(sorted(emitted) == sorted(names), "%s emits every %s metric with its unit"
           % (what, section))
    expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values()), "%s metric values are finite" % what)


def main() -> int:
    scratch = run.OUT / ("smoke-%d" % os.getpid())
    run.OUT.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, workloads.HOLDOUT_SEED, TINY)
            plain = run.measure(workload, 0.0, False, scratch)["result"]
            check_metrics(plain, "end_to_end", name)
            traced = run.measure(workload, 0.0, True, scratch)
            check_metrics(traced["result"], "per_layer", name + " traced")
            expect(not any("differs" in m for m in traced["report"]["failures"]),
                   "%s traced and untraced passes hash alike" % name)
            if name != "basin-grid":
                expect(plain["correct"] and traced["result"]["correct"],
                       "%s passes its output checks at tiny sizes" % name)
        check_safety_batch(scratch)
        check_basin_grid(scratch)
        check_scenario_analysis(scratch)
        check_missing_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


def _one_pass(workload, scratch: Path):
    out_dir = scratch / ("%s-pass" % workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    raw = workload.execute(workload.prepare(str(out_dir)), str(out_dir))
    return raw, out_dir


def check_safety_batch(scratch: Path) -> None:
    workload = workloads.make("safety-batch", workloads.DEFAULT_SEED, TINY)
    raw, out_dir = _one_pass(workload, scratch)
    expect(workload.verify(raw, str(out_dir), 1.0).failed == 0, "safety-batch checks pass")
    audits = raw["filtered"][0][2]
    audits[0] = (-1.0, "fail")
    raw["nominal_audit"] = (0.5, "pass")
    verdict = workload.verify(raw, str(out_dir), 1.0)
    expect(verdict.failed == 2, "safety-batch flags an unsafe filtered loop and a safe nominal one")


def check_basin_grid(scratch: Path) -> None:
    # a 0.05 s horizon decides no cell, so every safe cell ends at max-time
    workload = workloads.make("basin-grid", workloads.DEFAULT_SEED, TINY)
    raw, out_dir = _one_pass(workload, scratch)
    verdict = workload.verify(raw, str(out_dir), 1.0)
    expect(any("max-time" in m for m in verdict.failures), "basin-grid flags max-time cells")
    field_csv = out_dir / "fig3" / "field.csv"
    lines = field_csv.read_text().splitlines()
    row = lines[1].split(",")
    row[2], row[-1] = "nan", "0"
    lines[1] = ",".join(row)
    field_csv.write_text("\n".join(lines) + "\n")
    verdict = workload.verify(raw, str(out_dir), 1.0)
    expect(any("nan at unmasked node" in m for m in verdict.failures),
           "basin-grid flags nan in an unmasked field row")


def check_scenario_analysis(scratch: Path) -> None:
    workload = workloads.make("scenario-analysis", workloads.DEFAULT_SEED, TINY)
    raw, out_dir = _one_pass(workload, scratch)
    expect(workload.verify(raw, str(out_dir), 1.0).failed == 0, "scenario-analysis checks pass")
    path = out_dir / "fig2-artifacts" / "equilibria.json"
    doc = json.loads(path.read_text())
    for report in doc["reports"]:
        if report["stability"] == "saddle":
            report["stability"] = "asymptotically-stable"
    path.write_text(json.dumps(doc))
    raw["reports"]["fig3"]["passed"] = False
    raw["codes"]["fig3"] = 1
    name, problem, x, mine, ref = raw["points"][0]
    raw["points"][0] = (name, problem, x, dataclasses.replace(mine, u=mine.u + 1e-6), ref)
    verdict = workload.verify(raw, str(out_dir), 1.0)
    expect(verdict.failed == 4, "scenario-analysis flags golden stability, compare, exit "
           "code and law mismatch")


def check_missing_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "safety-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without sources the command exits %d and prints no result" % proc.returncode)


if __name__ == "__main__":
    sys.exit(main())
