#!/usr/bin/env python3
"""barrier-lab benchmark: three workloads, outputs checked on every pass.

Run from the repository root:

    python3 perfbench/run.py --workload safety-batch --seed 2026 --seconds 30 --trace 0

Workloads: safety-batch, basin-grid, scenario-analysis, or ``all`` to run the
three in turn in one process (see workloads.py and README.md). With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it makes untraced passes, then traced passes, and
reports the per-layer metrics plus the tracing overhead, after checking that
both kinds of pass wrote identical artifacts. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it repeat every figure by name with its unit. The exit code is 0
only when every output check passed.
"""

import os

# One Python thread and one BLAS thread (never more than nproc); set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse          # noqa: E402
import contextlib        # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import sys               # noqa: E402
import threading         # noqa: E402
import time              # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLE_S = 0.2     # one set-up sample repeats the set-up for at least this long
SETUP_SAMPLES = 9        # the reported set-up time is the median of this many samples

# (name, unit): the metrics of an untraced run, as listed in BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _import_package():
    """Put the checkout's sources first on the path; fail when they are absent."""
    if not (SRC / "barrier_lab" / "__init__.py").is_file():
        raise SystemExit("perfbench: no barrier_lab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


@dataclass
class Pass:
    wall_s: float
    total_s: float
    verdict: object
    tracer: object = None


def setup_samples(workload, scratch: Path) -> List[float]:
    """SETUP_SAMPLES set-up times, each the mean over repeats lasting SETUP_SAMPLE_S."""
    out_dir = scratch / "setup"
    out_dir.mkdir(parents=True)
    workload.prepare(str(out_dir))          # untimed warm-up
    samples = []
    for _ in range(SETUP_SAMPLES):
        repeats = 0
        start = time.perf_counter()
        while True:
            workload.prepare(str(out_dir))
            repeats += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_SAMPLE_S:
                break
        samples.append(elapsed / repeats)
    shutil.rmtree(out_dir)
    return samples


def run_passes(workload, budget_s: float, scratch: Path, trace: bool) -> List[Pass]:
    """Set up and run passes while at least half a pass fits the budget; always one."""
    import tracing

    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        out_dir = scratch / ("pass-%d" % len(passes))
        out_dir.mkdir(parents=True)
        tracer = tracing.Tracer() if trace else None
        instruments = tracing.Instrumentation(tracer) if trace else contextlib.nullcontext()
        t0 = time.perf_counter()
        with instruments:
            prepared = workload.prepare(str(out_dir))
            if trace:
                tracer.end_setup()
            t1 = time.perf_counter()
            raw = workload.execute(prepared, str(out_dir))
            t2 = time.perf_counter()
        verdict = workload.verify(raw, str(out_dir), t2 - t1)
        del raw, prepared
        shutil.rmtree(out_dir)
        passes.append(Pass(wall_s=t2 - t1, total_s=time.perf_counter() - t0,
                           verdict=verdict, tracer=tracer))
        typical = statistics.median(p.total_s for p in passes)
        if time.perf_counter() - start + typical / 2.0 > budget_s:
            return passes


class Tally:
    """Checked operations and failures over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add_verdicts(self, passes: List[Pass]) -> None:
        for p in passes:
            self.attempted += p.verdict.attempted
            self.failed += p.verdict.failed
            self.messages.extend(p.verdict.failures)

    def same_digest(self, reference: str, passes: List[Pass], what: str) -> None:
        for k, p in enumerate(passes):
            self.attempted += 1
            if p.verdict.digest != reference:
                self.failed += 1
                self.messages.append("artifact hash of %s pass %d differs: %s vs %s"
                                     % (what, k, p.verdict.digest, reference))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import workloads

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python_threads": threading.active_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "holdout_seed": workloads.HOLDOUT_SEED,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _figure_medians(workload, passes: List[Pass]) -> dict:
    """The workload's own figures (printed, not in BENCHMARK.json), median over passes."""
    return {name: {"value": _median(p.verdict.metrics[name] for p in passes), "unit": unit}
            for name, unit in workload.figures}


def measure(workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """One benchmark run; returns the result object and the figures around it."""
    import tracing

    tally = Tally()
    report: dict = {}
    if not trace:
        start = time.perf_counter()
        setups = setup_samples(workload, scratch)
        passes = run_passes(workload, seconds - (time.perf_counter() - start), scratch,
                            trace=False)
        tally.add_verdicts(passes)
        tally.same_digest(passes[0].verdict.digest, passes[1:], "untraced")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": _median(p.wall_s for p in passes),
                  "setup_s": _median(setups), "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["workload_metrics"] = _figure_medians(workload, passes)
        report["passes"] = [{"wall_s": p.wall_s} for p in passes]
        report["setup_samples_s"] = setups
        report["digest"] = passes[0].verdict.digest
    else:
        plain = run_passes(workload, seconds / 2.0, scratch, trace=False)
        traced = run_passes(workload, seconds / 2.0, scratch, trace=True)
        tally.add_verdicts(plain + traced)
        tally.same_digest(plain[0].verdict.digest, plain[1:], "untraced")
        tally.same_digest(plain[0].verdict.digest, traced, "traced")
        per_pass = [tracing.layer_metrics(p.tracer) for p in traced]
        values = {name: _median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_ratio"] = (_median(p.wall_s for p in traced)
                                          / _median(p.wall_s for p in plain) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        spans_path = OUT / ("%s-seed%d-spans.npz" % (workload.name, workload.seed))
        tracing.save_spans(str(spans_path), [p.tracer for p in traced])
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["passes"] = ([{"traced": False, "wall_s": p.wall_s} for p in plain]
                            + [{"traced": True, "wall_s": p.wall_s} for p in traced])
        report["digest"] = plain[0].verdict.digest
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    report["failed_ratio"] = tally.failed / tally.attempted if tally.attempted else 0.0
    report["failures"] = tally.messages[:50]
    return {"result": result, "report": report}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names + ("all",),
                        help="one workload, or all three in turn in this process")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; the default reproduces the acceptance tests' inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget per workload; a run makes at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, write its report file and print its figures."""
    import workloads

    workload = workloads.make(name, seed)
    scratch = OUT / ("tmp-%d" % os.getpid())
    try:
        outcome = measure(workload, seconds, bool(trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result, report = outcome["result"], outcome["report"]
    report.update(environment=environment(seed), workload=name, trace=trace, result=result)
    with open(OUT / ("%s-seed%d-trace%d.json" % (name, seed, trace)), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    env = report["environment"]
    print("# %s seed %d trace %d: %d passes, commit %s" % (
        name, seed, trace, len(report["passes"]), env["git_commit"]))
    print("# nproc %s, %s, python %s, numpy %s, blas threads %s, python threads %d" % (
        env["nproc"], env["cpu_model"], env["python"], env["numpy"],
        ",".join("%s=%s" % kv for kv in env["blas_threads"].items()), env["python_threads"]))
    shown = dict(result["metrics"])
    shown.update(report.get("workload_metrics", {}))
    shown["failed_ratio"] = {"value": report["failed_ratio"], "unit": "ratio"}
    for metric, entry in shown.items():
        print("%-34s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    for message in report["failures"]:
        print("FAILED: %s" % message)
    return result


def main(argv=None) -> int:
    _import_package()
    import workloads

    names = tuple(workloads.WORKLOADS)
    args = parse_args(argv, names)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        names = (args.workload,)
    results = {name: run_workload(name, seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        # one process ran every workload: prefix each metric with its workload
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (name, metric): entry for name, r in results.items()
                             for metric, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
