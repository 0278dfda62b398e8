"""Span recording around the calls into each barrier_lab layer.

Every span comes from this file: nothing under ``src/`` changes. Three kinds
of wrapper produce them:

* ``Timed`` wraps a module function or method that one module imports from
  another (``cli.find_boundary_equilibria``, ``cli.write_csv``, ...), and
  ``qp.solve_small_qp``, which the benchmark calls. The wrapper replaces
  every alias of the function in the loaded barrier_lab modules, so calls
  inside the package and from the benchmark both pass through it.
* ``ControllerProxy`` forwards every attribute of a controller and times
  each public method call (including methods a later version adds).
* ``wrap_callables`` rebuilds a SystemModel / BarrierPair / LyapunovPair with
  each callable field wrapped, so the model layer is timed per call.

All wrappers forward attribute access to the wrapped object, so a marker a
later version puts on a callable stays visible. Spans live in flat arrays
(name, start, end, parent, layers open at entry, items) and are written once
when the run ends.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
import os
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("config", "model", "qp", "sim", "equilibria", "spectral",
          "equivalence", "artifacts", "cli")
LAYER_BIT = {name: 1 << i for i, name in enumerate(LAYERS)}

_now = time.perf_counter_ns


def state_count(x) -> int:
    """States in a batch argument: product of all but the last axis, at least 1."""
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    if len(shape) <= 1:
        return 1
    count = 1
    for dim in shape[:-1]:
        count *= dim
    return count


def value_count(x) -> int:
    """Entries of a scalar-per-state argument such as alpha(h)."""
    size = getattr(x, "size", None)
    return int(size) if size is not None else int(np.size(x))


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.context = array("i")   # bit mask of the layers open when the span began
        self.items = array("q")
        self._stack: List[Tuple[int, int]] = []
        self._mask = 0
        self.dropped_log_records = 0
        self.setup_end: Optional[int] = None   # spans before this index were opened in set-up

    def end_setup(self) -> None:
        """Mark the end of set-up: later config spans do not count as set-up work."""
        self.setup_end = len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            layer = name.split(".", 1)[0]
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._name_ids[name]

    def open(self, name_id: int, bit: int, items: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.context.append(self._mask)
        self.items.append(items)
        self.end.append(0)
        stack.append((index, self._mask))
        self._mask |= bit
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        _, self._mask = self._stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "context": np.frombuffer(self.context, dtype=np.int32),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }


class Timed:
    """Callable wrapper recording one span per call.

    ``items`` maps the call arguments to a work count recorded on the span
    (states for the qp and model layers); ``after`` maps (args, result) to a
    count filled in once the call returns (files, bytes, equilibria found).
    ``post`` transforms the result outside the span (used to wrap the objects
    the config builders return).
    """

    __slots__ = ("_fn", "_tracer", "_id", "_bit", "_items", "_after", "_post")

    def __init__(self, fn: Callable, tracer: Tracer, name: str,
                 items: Optional[Callable] = None, after: Optional[Callable] = None,
                 post: Optional[Callable] = None):
        self._fn = fn
        self._tracer = tracer
        self._id = tracer.intern(name)
        self._bit = LAYER_BIT[name.split(".", 1)[0]]
        self._items = items
        self._after = after
        self._post = post

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        count = self._items(args[0]) if (self._items is not None and args) else 0
        index = tracer.open(self._id, self._bit, count)
        try:
            result = self._fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if self._after is not None:
            tracer.items[index] = self._after(args, kwargs, result)
        if self._post is not None:
            result = self._post(result)
        return result

    def __get__(self, obj, objtype=None):
        # behave like a function when stored on a class, so methods bind
        return self if obj is None else types.MethodType(self, obj)

    def __getattr__(self, name):
        return getattr(self._fn, name)


class ControllerProxy:
    """Pass-through proxy timing every public method call of a controller."""

    def __init__(self, target, tracer: Tracer):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name.startswith("_") or not inspect.ismethod(value):
            return value
        wrapped = Timed(value, self._tracer, "qp." + name, items=state_count)
        object.__setattr__(self, name, wrapped)   # cache: later lookups skip __getattr__
        return wrapped

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


_SCALAR_ARGUMENT_FIELDS = ("alpha", "alpha_prime", "beta", "beta_prime")


def wrap_callables(obj, tracer: Tracer):
    """Copy of a frozen model dataclass with every callable field timed."""
    if obj is None or not dataclasses.is_dataclass(obj):
        return obj
    kind = type(obj).__name__
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if callable(value) and not isinstance(value, Timed):
            counter = value_count if f.name in _SCALAR_ARGUMENT_FIELDS else state_count
            changes[f.name] = Timed(value, tracer, "model.%s.%s" % (kind, f.name),
                                    items=counter)
    return dataclasses.replace(obj, **changes) if changes else obj


class _DropCounter(logging.Handler):
    """Counts warning-and-above records of the equilibrium search."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.dropped_log_records += 1


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[0]) if args else 0


def _trajectory_steps(args, kwargs, result) -> int:
    trajectories = result if isinstance(result, list) else [result]
    return sum(len(t.times) - 1 for t in trajectories)


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _dumped_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


class Instrumentation:
    """Installs the wrappers on the loaded barrier_lab modules; undone by restore()."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []
        self._handler: Optional[logging.Handler] = None

    def function(self, module, name: str, layer: str, **hooks) -> None:
        """Wrap module.<name> and every alias of it in the loaded barrier_lab modules."""
        original = getattr(module, name)
        wrapped = Timed(original, self.tracer, "%s.%s" % (layer, name), **hooks)
        for mod_name, mod in list(sys.modules.items()):
            in_package = mod_name == "barrier_lab" or mod_name.startswith("barrier_lab.")
            if in_package and mod is not None and mod.__dict__.get(name) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapped)

    def method(self, cls, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, Timed(original, self.tracer, "%s.%s" % (layer, name)))

    def install(self) -> "Instrumentation":
        from barrier_lab import (artifacts, cli, config, equilibria, equivalence, qp, sim,
                                 spectral)

        tracer = self.tracer
        wrap = lambda obj: wrap_callables(obj, tracer)          # noqa: E731
        proxy = lambda ctl: ControllerProxy(ctl, tracer)         # noqa: E731
        self.function(config, "validate_config", "config")
        self.function(config, "build_model", "config", post=wrap)
        self.function(config, "build_pairs", "config",
                      post=lambda pairs: [wrap(p) for p in pairs])
        self.function(config, "build_clf", "config", post=wrap)
        self.function(config, "build_controller", "config", post=proxy)
        self.function(config, "unfiltered_controller", "config", post=proxy)
        self.function(qp, "solve_small_qp", "qp")

        for name in ("integrate_batch", "integrate"):
            self.function(sim, name, "sim", after=_trajectory_steps)
        for name in ("roa_grid", "field_grid", "invariance_audit"):
            self.function(sim, name, "sim")

        for name in ("find_boundary_equilibria", "find_interior_equilibria"):
            self.function(equilibria, name, "equilibria", after=_result_len)

        self.function(spectral, "attach_spectra", "spectral", after=_first_arg_len)
        for name in ("eigen_and_classify", "spectral_invariance_check"):
            self.function(spectral, name, "spectral")

        for name in ("hessian_equivalence", "gradient_ratio", "boundary_field_difference",
                     "hausdorff_distance", "default_boundary_samples"):
            self.function(equivalence, name, "equivalence")

        for name in ("write_json", "write_csv", "write_text"):
            self.function(artifacts, name, "artifacts", after=_written_bytes)
        self.function(artifacts, "json_dumps", "artifacts", after=_dumped_bytes)

        self.method(cli.ScenarioRun, "run", "cli")
        for name in sorted(cli.ScenarioRun.__dict__):
            if name.startswith("run_"):
                self.method(cli.ScenarioRun, name, "cli")
        self.function(cli, "compare_pairs", "cli")

        self._handler = _DropCounter(tracer)
        logging.getLogger(equilibria.__name__).addHandler(self._handler)
        return self

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        if self._handler is not None:
            logging.getLogger("barrier_lab.equilibria").removeHandler(self._handler)
            self._handler = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


# ---- per-layer metrics ----------------------------------------------------------

QP_METHODS = ("field", "control", "multipliers", "unfiltered_field", "point", "active_code")
CLI_TASKS = ("equilibria", "jacobians", "roa", "field", "compare")

# (name, unit, better); README.md maps each to the end-to-end metric it should move
PER_LAYER = (
    ("config.validate_s", "s", "lower"), ("config.build_s", "s", "lower"),
    ("model.calls", "count", "lower"), ("model.states", "count", "lower"),
    ("model.busy_s", "s", "lower"), ("model.calls_per_qp_call", "ratio", "lower"),
    ("qp.calls", "count", "lower"), ("qp.states", "count", "lower"),
    ("qp.busy_s", "s", "lower"), ("qp.self_s", "s", "lower"),
) + tuple(("qp.calls." + m, "count", "lower") for m in QP_METHODS) + (
    ("qp.us_per_call.batch1", "us", "lower"), ("qp.us_per_state.batch2-1023", "us", "lower"),
    ("qp.us_per_state.batch1024plus", "us", "lower"), ("qp.solve_small_qp_us", "us", "lower"),
    ("sim.busy_s", "s", "lower"), ("sim.self_s", "s", "lower"),
    ("sim.qp_share", "ratio", "lower"), ("sim.qp_states_per_traj_step", "ratio", "lower"),
    ("equilibria.busy_s", "s", "lower"), ("equilibria.self_s", "s", "lower"),
    ("equilibria.qp_calls", "count", "lower"), ("equilibria.qp_mean_batch", "states", "higher"),
    ("equilibria.found", "count", "higher"), ("equilibria.dropped", "count", "lower"),
    ("equilibria.qp_calls_per_found", "ratio", "lower"),
    ("spectral.busy_s", "s", "lower"), ("spectral.calls", "count", "lower"),
    ("spectral.us_per_equilibrium", "us", "lower"),
    ("equivalence.busy_s", "s", "lower"), ("equivalence.calls", "count", "lower"),
    ("artifacts.busy_s", "s", "lower"), ("artifacts.files", "count", "lower"),
    ("artifacts.bytes", "bytes", "lower"), ("artifacts.mb_per_s", "MB/s", "higher"),
) + tuple(("cli.task_s." + t, "s", "lower") for t in CLI_TASKS) + (
    ("cli.self_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, from one tracer's spans."""
    a = tracer.arrays()
    n = a["start"].size
    names = tracer.names
    layer_idx = np.asarray(tracer.name_layer, dtype=np.int64)[a["name_id"]]
    dur = (a["end"] - a["start"]).astype(float) * 1e-9
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    bits = np.left_shift(1, layer_idx)
    top = (a["context"] & bits) == 0           # no open ancestor in the same layer
    items = a["items"]
    in_setup = np.arange(n) < (n if tracer.setup_end is None else tracer.setup_end)

    def in_layer(layer):
        return layer_idx == LAYERS.index(layer)

    def inside(layer):
        return (a["context"] & LAYER_BIT[layer]) != 0

    def named(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(a["name_id"], ids)

    def busy(layer):
        return float(dur[in_layer(layer) & top].sum())

    def self_s(layer):
        return float(self_time[in_layer(layer)].sum())

    qp_all = in_layer("qp") & top
    solve = named("qp.solve_small_qp")
    proxy = qp_all & ~solve
    qp_in_sim = qp_all & inside("sim")
    qp_in_eq = qp_all & inside("equilibria")
    model = in_layer("model")
    traj_steps = items[named("sim.integrate_batch", "sim.integrate") & top].sum()
    found = items[named("equilibria.find_boundary_equilibria",
                        "equilibria.find_interior_equilibria") & top].sum()
    spectra_in = items[named("spectral.attach_spectra")].sum()
    writes = named("artifacts.write_json", "artifacts.write_csv", "artifacts.write_text")
    batch1 = proxy & (items == 1)
    batch_mid = proxy & (items >= 2) & (items <= 1023)
    batch_big = proxy & (items >= 1024)

    config_setup = in_layer("config") & top & in_setup
    out = {
        "config.validate_s": float(dur[config_setup & named("config.validate_config")].sum()),
        "config.build_s": float(dur[config_setup & ~named("config.validate_config")].sum()),
        "model.calls": int(model.sum()),
        "model.states": int(items[model].sum()),
        "model.busy_s": busy("model"),
        "model.calls_per_qp_call": _ratio((model & inside("qp")).sum(), qp_all.sum()),
        "qp.calls": int(qp_all.sum()),
        "qp.states": int(items[qp_all].sum()),
        "qp.busy_s": busy("qp"),
        "qp.self_s": self_s("qp"),
    }
    for method in QP_METHODS:
        out["qp.calls." + method] = int((proxy & named("qp." + method)).sum())
    art_busy = busy("artifacts")
    art_bytes = int(items[writes & top].sum())
    out.update({
        "qp.us_per_call.batch1": 1e6 * _ratio(dur[batch1].sum(), batch1.sum()),
        "qp.us_per_state.batch2-1023": 1e6 * _ratio(dur[batch_mid].sum(), items[batch_mid].sum()),
        "qp.us_per_state.batch1024plus": 1e6 * _ratio(dur[batch_big].sum(), items[batch_big].sum()),
        "qp.solve_small_qp_us": 1e6 * _ratio(dur[solve].sum(), solve.sum()),
        "sim.busy_s": busy("sim"),
        "sim.self_s": self_s("sim"),
        "sim.qp_share": _ratio(dur[qp_in_sim].sum(), busy("sim")),
        "sim.qp_states_per_traj_step": _ratio(items[qp_in_sim].sum(), traj_steps),
        "equilibria.busy_s": busy("equilibria"),
        "equilibria.self_s": self_s("equilibria"),
        "equilibria.qp_calls": int(qp_in_eq.sum()),
        "equilibria.qp_mean_batch": _ratio(items[qp_in_eq].sum(), qp_in_eq.sum()),
        "equilibria.found": int(found),
        "equilibria.dropped": int(tracer.dropped_log_records),
        "equilibria.qp_calls_per_found": _ratio(qp_in_eq.sum(), found),
        "spectral.busy_s": busy("spectral"),
        "spectral.calls": int(in_layer("spectral").sum()),
        "spectral.us_per_equilibrium": 1e6 * _ratio(busy("spectral"), spectra_in),
        "equivalence.busy_s": busy("equivalence"),
        "equivalence.calls": int(in_layer("equivalence").sum()),
        "artifacts.busy_s": art_busy,
        "artifacts.files": int((writes & top).sum()),
        "artifacts.bytes": art_bytes,
        "artifacts.mb_per_s": _ratio(art_bytes / 1e6, art_busy),
    })
    for task in CLI_TASKS:
        span = "cli.compare_pairs" if task == "compare" else "cli.run_" + task
        out["cli.task_s." + task] = float(dur[named(span)].sum())
    out["cli.self_s"] = self_s("cli")
    return out


def save_spans(path: str, tracers: List[Tracer]) -> None:
    """Write the spans of every traced pass (name, start, end, parent) to one .npz."""
    ids: Dict[str, int] = {}
    columns: Dict[str, List[np.ndarray]] = {k: [] for k in ("name_id", "start_ns", "end_ns",
                                                            "parent", "items", "pass_index")}
    offset = 0
    for k, tracer in enumerate(tracers):
        a = tracer.arrays()
        remap = np.array([ids.setdefault(s, len(ids)) for s in tracer.names] or [0],
                         dtype=np.int32)
        columns["name_id"].append(remap[a["name_id"]])
        columns["start_ns"].append(a["start"])
        columns["end_ns"].append(a["end"])
        columns["parent"].append(np.where(a["parent"] >= 0, a["parent"] + offset, -1))
        columns["items"].append(a["items"])
        columns["pass_index"].append(np.full(a["start"].size, k, dtype=np.int32))
        offset += a["start"].size
    np.savez_compressed(path, names=np.array(list(ids), dtype=str),
                        **{k: np.concatenate(v) for k, v in columns.items()})
