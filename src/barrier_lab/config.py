"""Scenario configs: JSON schema, validation, builders, and builtin catalog.

A scenario document is plain JSON describing one closed loop and the analysis
tasks to run on it. Validation normalizes the document in place (defaults are
materialized so the emitted config records every assumption) and anchors every
complaint to a dotted path plus, when the raw text is available, a line number.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .model import (BarrierPair, LyapunovPair, ScalarMap, StateMap, SystemModel,
                    constant_matrix, constant_state_map, identity_map, linear_map,
                    linear_system, make_ball_cbf, quadratic_clf, quadratic_map,
                    quadratic_offset_map, single_integrator_2d, transform_cbf)
from .qp import (ClfCbfController, ClfController, NominalClosedLoop,
                 SafetyFilterController)

SCHEMA_VERSION = 1
BUILTIN_SCENARIOS = ("fig2", "fig3", "fig3-h2a1", "fig3-h1a2", "fig3-h2a2")
COMPARISON_SCENARIOS = ("fig2", "fig3")
SYSTEM_BUILTINS = ("integrator-2d",)
TASK_KINDS = ("equilibria", "jacobians", "equivalence", "field", "simulate", "roa")
CONTROLLER_KINDS = ("safety-filter", "clf-cbf-qp")
CBF_KINDS = ("ball", "transform")
GAMMA_KINDS = ("identity", "linear", "quadratic")
ETA_KINDS = ("constant", "quadratic-offset")
ALPHA_KINDS = ("linear",)
BETA_KINDS = ("identity", "linear")
WEIGHT_KINDS = ("identity", "matrix")


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario document.

    The stored dicts are the normalized JSON payload (defaults materialized),
    so ``to_json_dict`` round-trips through ``parse_config`` unchanged.
    ``applied_defaults`` lists the assumptions injected during validation; it
    is bookkeeping for the run summary and excluded from equality.
    """

    schema_version: int
    name: str
    system: dict
    cbfs: Tuple[dict, ...]
    clf: Optional[dict]
    controller: dict
    tasks: Tuple[dict, ...]
    output_dir: str
    seed: int
    notes: Tuple[str, ...] = ()
    applied_defaults: Tuple[str, ...] = field(default=(), compare=False)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "name": self.name,
            "system": self.system,
            "cbfs": list(self.cbfs),
        }
        if self.clf is not None:
            out["clf"] = self.clf
        out["controller"] = self.controller
        out["tasks"] = list(self.tasks)
        out["output_dir"] = self.output_dir
        out["seed"] = self.seed
        if self.notes:
            out["notes"] = list(self.notes)
        return out


class _Source:
    """Raw config text with best-effort line lookup for error anchoring."""

    def __init__(self, text: Optional[str]):
        self.lines = text.splitlines() if text else []

    def line_of(self, *keys: str) -> Optional[int]:
        """1-based line of the innermost key, scanning keys left to right."""
        start = 0
        found = None
        for key in keys:
            pattern = re.compile(r'"%s"\s*:' % re.escape(key))
            hit = None
            for i in range(start, len(self.lines)):
                if pattern.search(self.lines[i]):
                    hit = i
                    break
            if hit is None:
                break
            found = hit
            start = hit
        return None if found is None else found + 1


class _Validator:
    """Walks the raw document, normalizing in place and collecting defaults."""

    def __init__(self, source: _Source):
        self.source = source
        self.defaults: List[str] = []

    def fail(self, path: str, message: str):
        keys = [k for k in re.split(r"[.\[\]]+", path) if k and not k.isdigit()]
        raise ConfigError(message, path=path, line=self.source.line_of(*keys))

    # ---- primitive checks -------------------------------------------------

    def dict_at(self, value, path: str) -> dict:
        if not isinstance(value, dict):
            self.fail(path, "expected an object, got %s" % _type_name(value))
        return value

    def list_at(self, value, path: str, min_len: int = 0) -> list:
        if not isinstance(value, list):
            self.fail(path, "expected an array, got %s" % _type_name(value))
        if len(value) < min_len:
            self.fail(path, "needs at least %d entries, got %d" % (min_len, len(value)))
        return value

    def keys(self, d: dict, path: str, required=(), optional=()):
        for key in required:
            if key not in d:
                self.fail(path, "missing required key %r" % key)
        allowed = set(required) | set(optional)
        for key in d:
            if key not in allowed:
                self.fail("%s.%s" % (path, key),
                          "unknown key %r (allowed: %s)" % (key, ", ".join(sorted(allowed))))

    def number(self, value, path: str, minimum=None, positive=False) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, "expected a number, got %s" % _type_name(value))
        value = float(value)
        if not np.isfinite(value):
            self.fail(path, "must be finite")
        if positive and value <= 0.0:
            self.fail(path, "must be positive, got %g" % value)
        if minimum is not None and value < minimum:
            self.fail(path, "must be >= %g, got %g" % (minimum, value))
        return value

    def integer(self, value, path: str, minimum=None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, "expected an integer, got %s" % _type_name(value))
        if minimum is not None and value < minimum:
            self.fail(path, "must be >= %d, got %d" % (minimum, value))
        return value

    def string(self, value, path: str, choices: Optional[Sequence[str]] = None) -> str:
        if not isinstance(value, str):
            self.fail(path, "expected a string, got %s" % _type_name(value))
        if choices is not None and value not in choices:
            self.fail(path, "must be one of {%s}, got %r" % (", ".join(choices), value))
        return value

    def boolean(self, value, path: str) -> bool:
        if not isinstance(value, bool):
            self.fail(path, "expected true or false, got %s" % _type_name(value))
        return value

    def vector(self, value, path: str, length: Optional[int] = None) -> list:
        value = self.list_at(value, path, min_len=1)
        for i, entry in enumerate(value):
            self.number(entry, "%s[%d]" % (path, i))
        if length is not None and len(value) != length:
            self.fail(path, "expected %d entries, got %d" % (length, len(value)))
        return value

    def matrix(self, value, path: str, shape: Optional[Tuple[int, int]] = None) -> list:
        value = self.list_at(value, path, min_len=1)
        width = None
        for i, row in enumerate(value):
            row = self.vector(row, "%s[%d]" % (path, i))
            if width is None:
                width = len(row)
            elif len(row) != width:
                self.fail(path, "rows have unequal lengths")
        if shape is not None and (len(value), width) != shape:
            self.fail(path, "expected a %dx%d matrix, got %dx%d"
                            % (shape[0], shape[1], len(value), width))
        return value

    def note_default(self, path: str, text: str):
        self.defaults.append("%s defaulted to %s" % (path, text))


def _type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    return type(value).__name__


# ---- section validators ---------------------------------------------------


def _valid_system(v: _Validator, data: dict) -> Tuple[dict, int, int]:
    sd = v.dict_at(data.get("system"), "system")
    v.keys(sd, "system", optional=("builtin", "linear", "K"))
    if ("builtin" in sd) == ("linear" in sd):
        v.fail("system", "give exactly one of 'builtin' or 'linear'")
    if "builtin" in sd:
        v.string(sd["builtin"], "system.builtin", choices=SYSTEM_BUILTINS)
        n, m = 2, 2
    else:
        lin = v.dict_at(sd["linear"], "system.linear")
        v.keys(lin, "system.linear", required=("A", "B"))
        a = v.matrix(lin["A"], "system.linear.A")
        n = len(a)
        if len(a[0]) != n:
            v.fail("system.linear.A", "A must be square")
        b = v.matrix(lin["B"], "system.linear.B")
        if len(b) != n:
            v.fail("system.linear.B", "B must have %d rows to match A" % n)
        m = len(b[0])
    if "K" in sd:
        v.matrix(sd["K"], "system.K", shape=(m, n))
    return sd, n, m


def _valid_alpha(v: _Validator, data, path: str) -> dict:
    d = v.dict_at(data, path)
    v.keys(d, path, required=("kind",), optional=("slope",))
    v.string(d["kind"], path + ".kind", choices=ALPHA_KINDS)
    if "slope" not in d:
        d["slope"] = 1
        v.note_default(path + ".slope", "1")
    v.number(d["slope"], path + ".slope", positive=True)
    return d


def _valid_gamma(v: _Validator, data, path: str) -> dict:
    d = v.dict_at(data, path)
    kind = v.string(d.get("kind"), path + ".kind", choices=GAMMA_KINDS) \
        if "kind" in d else v.fail(path, "missing required key 'kind'")
    if kind == "identity":
        v.keys(d, path, required=("kind",))
    elif kind == "linear":
        v.keys(d, path, required=("kind", "slope"))
        v.number(d["slope"], path + ".slope", positive=True)
    else:
        v.keys(d, path, required=("kind", "c1", "c2"))
        v.number(d["c1"], path + ".c1", positive=True)
        v.number(d["c2"], path + ".c2")
    return d


def _valid_eta(v: _Validator, data, path: str, n: int) -> dict:
    d = v.dict_at(data, path)
    kind = v.string(d.get("kind"), path + ".kind", choices=ETA_KINDS) \
        if "kind" in d else v.fail(path, "missing required key 'kind'")
    if kind == "constant":
        v.keys(d, path, required=("kind", "value"))
        v.number(d["value"], path + ".value", positive=True)
    else:
        v.keys(d, path, required=("kind", "center", "offset"))
        v.vector(d["center"], path + ".center", length=n)
        v.number(d["offset"], path + ".offset", positive=True)
    return d


def _valid_cbfs(v: _Validator, data: dict, n: int) -> list:
    entries = v.list_at(data.get("cbfs"), "cbfs", min_len=1)
    for i, entry in enumerate(entries):
        path = "cbfs[%d]" % i
        d = v.dict_at(entry, path)
        kind = v.string(d.get("kind"), path + ".kind", choices=CBF_KINDS) \
            if "kind" in d else v.fail(path, "missing required key 'kind'")
        if kind == "ball":
            v.keys(d, path, required=("kind", "center", "radius", "alpha"),
                   optional=("form",))
            if n != 2:
                v.fail(path, "ball barriers need a planar system (n = 2), got n = %d" % n)
            v.vector(d["center"], path + ".center", length=2)
            v.number(d["radius"], path + ".radius", positive=True)
            if "form" not in d:
                d["form"] = "full"
                v.note_default(path + ".form", "'full'")
            v.string(d["form"], path + ".form", choices=("full", "half"))
        else:
            v.keys(d, path, required=("kind", "base", "alpha"),
                   optional=("a", "b", "gamma", "eta"))
            base = v.integer(d["base"], path + ".base", minimum=0)
            if base >= i:
                v.fail(path + ".base",
                       "must reference an earlier cbf entry (got %d at index %d)" % (base, i))
            a = v.number(d.get("a", 0), path + ".a", minimum=0.0)
            b = v.number(d.get("b", 0), path + ".b", minimum=0.0)
            if "a" not in d:
                d["a"] = 0
            if "b" not in d:
                d["b"] = 0
            if a + b <= 0.0:
                v.fail(path, "transform needs a + b > 0 (got a = %g, b = %g)" % (a, b))
            if "gamma" in d:
                _valid_gamma(v, d["gamma"], path + ".gamma")
            if "eta" in d:
                _valid_eta(v, d["eta"], path + ".eta", n)
        _valid_alpha(v, d["alpha"], path + ".alpha")
    return entries


def _valid_clf(v: _Validator, data: dict, n: int) -> Optional[dict]:
    if "clf" not in data:
        return None
    d = v.dict_at(data["clf"], "clf")
    v.keys(d, "clf", required=("Q",), optional=("xstar", "beta"))
    v.matrix(d["Q"], "clf.Q", shape=(n, n))
    if "xstar" not in d:
        d["xstar"] = [0] * n
        v.note_default("clf.xstar", "the origin")
    v.vector(d["xstar"], "clf.xstar", length=n)
    if "beta" not in d:
        d["beta"] = {"kind": "identity"}
        v.note_default("clf.beta", "the identity class-K function")
    beta = v.dict_at(d["beta"], "clf.beta")
    kind = v.string(beta.get("kind"), "clf.beta.kind", choices=BETA_KINDS) \
        if "kind" in beta else v.fail("clf.beta", "missing required key 'kind'")
    if kind == "identity":
        v.keys(beta, "clf.beta", required=("kind",))
    else:
        v.keys(beta, "clf.beta", required=("kind", "slope"))
        v.number(beta["slope"], "clf.beta.slope", positive=True)
    return d


def _valid_controller(v: _Validator, data: dict, n: int, m: int,
                      n_cbfs: int, has_clf: bool, has_gain: bool) -> dict:
    d = v.dict_at(data.get("controller"), "controller")
    v.keys(d, "controller", required=("kind",), optional=("weight", "p", "cbf"))
    kind = v.string(d["kind"], "controller.kind")
    normalized = kind.replace("_", "-")
    if normalized not in CONTROLLER_KINDS:
        v.fail("controller.kind",
               "must be one of {%s}, got %r" % (", ".join(CONTROLLER_KINDS), kind))
    d["kind"] = normalized
    if "weight" not in d:
        d["weight"] = {"kind": "identity"}
        v.note_default("controller.weight", "the identity matrix G = I")
    w = v.dict_at(d["weight"], "controller.weight")
    wkind = v.string(w.get("kind"), "controller.weight.kind", choices=WEIGHT_KINDS) \
        if "kind" in w else v.fail("controller.weight", "missing required key 'kind'")
    if wkind == "identity":
        v.keys(w, "controller.weight", required=("kind",))
    else:
        v.keys(w, "controller.weight", required=("kind", "value"))
        v.matrix(w["value"], "controller.weight.value", shape=(m, m))
    if "cbf" not in d:
        d["cbf"] = 0
    v.integer(d["cbf"], "controller.cbf", minimum=0)
    if d["cbf"] >= n_cbfs:
        v.fail("controller.cbf", "index %d out of range (have %d cbfs)" % (d["cbf"], n_cbfs))
    if normalized == "clf-cbf-qp":
        if not has_clf:
            v.fail("controller.kind", "clf-cbf-qp needs a 'clf' section")
        if "p" not in d:
            d["p"] = 1
            v.note_default("controller.p", "1")
        v.number(d["p"], "controller.p", positive=True)
    else:
        if "p" in d:
            v.fail("controller.p", "the safety filter takes no relaxation penalty")
        if not has_gain:
            v.fail("controller.kind", "the safety filter needs system.K as the nominal controller")
    return d


def _valid_tasks(v: _Validator, data: dict, n: int, n_cbfs: int) -> list:
    entries = v.list_at(data.get("tasks"), "tasks", min_len=1)
    for i, entry in enumerate(entries):
        path = "tasks[%d]" % i
        d = v.dict_at(entry, path)
        kind = v.string(d.get("kind"), path + ".kind", choices=TASK_KINDS) \
            if "kind" in d else v.fail(path, "missing required key 'kind'")
        if kind == "equilibria":
            v.keys(d, path, required=("kind",), optional=("sweep", "box", "per_axis"))
            if "sweep" in d:
                v.integer(d["sweep"], path + ".sweep", minimum=8)
            if "box" in d:
                v.matrix(d["box"], path + ".box", shape=(2, n))
            if "per_axis" in d:
                v.integer(d["per_axis"], path + ".per_axis", minimum=1)
        elif kind == "jacobians":
            v.keys(d, path, required=("kind",))
        elif kind == "equivalence":
            v.keys(d, path, required=("kind",), optional=("samples", "pairs"))
            if n_cbfs < 2:
                v.fail(path, "equivalence needs at least two cbfs")
            if "samples" in d:
                v.integer(d["samples"], path + ".samples", minimum=1)
            if "pairs" in d:
                plist = v.list_at(d["pairs"], path + ".pairs", min_len=1)
                for j, pair in enumerate(plist):
                    ppath = "%s.pairs[%d]" % (path, j)
                    pair = v.list_at(pair, ppath)
                    if len(pair) != 2:
                        v.fail(ppath, "expected [base, other] index pair")
                    for idx in pair:
                        v.integer(idx, ppath, minimum=0)
                        if idx >= n_cbfs:
                            v.fail(ppath, "index %d out of range (have %d cbfs)" % (idx, n_cbfs))
                    if pair[0] == pair[1]:
                        v.fail(ppath, "indices must differ")
        elif kind in ("field", "roa"):
            v.keys(d, path, required=("kind", "bounds", "resolution"),
                   optional=("t_final", "dt") if kind == "roa" else ())
            if n != 2:
                v.fail(path, "%s grids need a planar system (n = 2), got n = %d" % (kind, n))
            v.matrix(d["bounds"], path + ".bounds", shape=(2, 2))
            for axis in range(2):
                lo, hi = d["bounds"][axis]
                if not lo < hi:
                    v.fail(path + ".bounds", "axis %d bounds must satisfy low < high" % axis)
            res = v.list_at(d["resolution"], path + ".resolution")
            if len(res) != 2:
                v.fail(path + ".resolution", "expected [nx, ny]")
            for r in res:
                v.integer(r, path + ".resolution", minimum=2)
            if "t_final" in d:
                v.number(d["t_final"], path + ".t_final", positive=True)
            if "dt" in d:
                v.number(d["dt"], path + ".dt", positive=True)
        else:  # simulate
            v.keys(d, path, required=("kind",),
                   optional=("x0", "x0s", "t_final", "dt", "unfiltered"))
            if ("x0" in d) == ("x0s" in d):
                v.fail(path, "give exactly one of 'x0' or 'x0s'")
            if "x0" in d:
                v.vector(d["x0"], path + ".x0", length=n)
            else:
                x0s = v.list_at(d["x0s"], path + ".x0s", min_len=1)
                for j, x0 in enumerate(x0s):
                    v.vector(x0, "%s.x0s[%d]" % (path, j), length=n)
            if "t_final" in d:
                v.number(d["t_final"], path + ".t_final", positive=True)
            if "dt" in d:
                v.number(d["dt"], path + ".dt", positive=True)
            if "unfiltered" in d:
                v.boolean(d["unfiltered"], path + ".unfiltered")
    return entries


def validate_config(data: dict, text: Optional[str] = None) -> ScenarioConfig:
    """Validate a raw document and return the normalized ScenarioConfig."""
    v = _Validator(_Source(text))
    data = v.dict_at(data, "config")
    v.keys(data, "config",
           required=("schema_version", "system", "cbfs", "controller", "tasks"),
           optional=("name", "clf", "output_dir", "seed", "notes"))
    version = v.integer(data["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        v.fail("schema_version", "unsupported version %d (this build reads %d)"
                                 % (version, SCHEMA_VERSION))
    name = v.string(data.get("name", "scenario"), "name")
    sd, n, m = _valid_system(v, data)
    cbfs = _valid_cbfs(v, data, n)
    clf = _valid_clf(v, data, n)
    controller = _valid_controller(v, data, n, m, len(cbfs),
                                   clf is not None, "K" in sd)
    tasks = _valid_tasks(v, data, n, len(cbfs))
    output_dir = v.string(data.get("output_dir", "artifacts"), "output_dir")
    seed = v.integer(data.get("seed", 0), "seed")
    notes = tuple(v.string(s, "notes[%d]" % i)
                  for i, s in enumerate(v.list_at(data.get("notes", []), "notes")))
    return ScenarioConfig(schema_version=version, name=name, system=sd,
                          cbfs=tuple(cbfs), clf=clf, controller=controller,
                          tasks=tuple(tasks), output_dir=output_dir, seed=seed,
                          notes=notes, applied_defaults=tuple(v.defaults))


def parse_config(path: str) -> ScenarioConfig:
    """Read, parse, and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    return parse_config_text(text)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from an in-memory JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("not valid JSON: %s" % exc.msg, line=exc.lineno)
    return validate_config(data, text)


# ---- builders -------------------------------------------------------------


def build_model(config: ScenarioConfig) -> SystemModel:
    """Instantiate the plant (and nominal gain, when given) from the config."""
    sd = config.system
    gain = np.array(sd["K"], dtype=float) if "K" in sd else None
    if "builtin" in sd:
        return single_integrator_2d(gain=gain)
    lin = sd["linear"]
    return linear_system(np.array(lin["A"], dtype=float),
                         np.array(lin["B"], dtype=float), gain=gain)


def _scalar_map(d: dict) -> ScalarMap:
    if d["kind"] == "identity":
        return identity_map()
    if d["kind"] == "linear":
        return linear_map(d["slope"])
    return quadratic_map(d["c1"], d["c2"])


def _state_map(d: dict) -> StateMap:
    if d["kind"] == "constant":
        return constant_state_map(d["value"])
    return quadratic_offset_map(d["center"], d["offset"])


def build_pairs(config: ScenarioConfig) -> List[BarrierPair]:
    """Instantiate every barrier pair; transforms reference earlier entries."""
    pairs: List[BarrierPair] = []
    for d in config.cbfs:
        if d["kind"] == "ball":
            pairs.append(make_ball_cbf(d["center"], d["radius"], form=d["form"],
                                       alpha_slope=d["alpha"]["slope"]))
        else:
            pairs.append(transform_cbf(
                pairs[d["base"]], d["a"], d["b"],
                gamma=_scalar_map(d["gamma"]) if "gamma" in d else None,
                eta=_state_map(d["eta"]) if "eta" in d else None,
                alpha=linear_map(d["alpha"]["slope"])))
    return pairs


def build_clf(config: ScenarioConfig) -> Optional[LyapunovPair]:
    if config.clf is None:
        return None
    d = config.clf
    beta = d["beta"]
    slope = 1.0 if beta["kind"] == "identity" else beta["slope"]
    return quadratic_clf(np.array(d["Q"], dtype=float), xstar=d["xstar"],
                         beta_slope=slope)


def _weight_evaluator(config: ScenarioConfig) -> Optional[Callable]:
    w = config.controller["weight"]
    if w["kind"] == "identity":
        return None
    return constant_matrix(np.array(w["value"], dtype=float))


def build_controller(config: ScenarioConfig, model: SystemModel,
                     pairs: Sequence[BarrierPair],
                     clf: Optional[LyapunovPair], cbf_index: Optional[int] = None):
    """The configured closed-loop controller; cbf_index overrides the config."""
    cd = config.controller
    index = cd["cbf"] if cbf_index is None else cbf_index
    weight = _weight_evaluator(config)
    if cd["kind"] == "safety-filter":
        return SafetyFilterController(model, pairs[index], weight=weight)
    return ClfCbfController(model, pairs[index], clf, weight=weight, p=cd["p"])


def unfiltered_controller(config: ScenarioConfig, model: SystemModel,
                          clf: Optional[LyapunovPair]):
    """The configured loop with its barrier constraint removed."""
    cd = config.controller
    if cd["kind"] == "safety-filter":
        return NominalClosedLoop(model)
    return ClfController(model, clf, weight=_weight_evaluator(config), p=cd["p"])


# ---- builtin catalog ------------------------------------------------------

_FIG3_SYSTEM = {"builtin": "integrator-2d", "K": [[-1, 0], [0, -5]]}
_FIG3_BALL = {"kind": "ball", "center": [2, 0], "radius": 1, "form": "full"}
_ETA_OFFSET = {"kind": "quadratic-offset", "center": [5, 1], "offset": 1}


def _fig3_cbf(alpha_slope) -> dict:
    d = dict(_FIG3_BALL)
    d["alpha"] = {"kind": "linear", "slope": alpha_slope}
    return d


def _fig3_transform(base: int, alpha_slope) -> dict:
    return {"kind": "transform", "base": base, "a": 0, "b": 1,
            "eta": dict(_ETA_OFFSET), "alpha": {"kind": "linear", "slope": alpha_slope}}


def _fig3_raw(name: str, cbfs: list, active: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "system": dict(_FIG3_SYSTEM),
        "cbfs": cbfs,
        "controller": {"kind": "safety-filter",
                       "weight": {"kind": "identity"}, "cbf": active},
        "tasks": [{"kind": "equilibria"}, {"kind": "jacobians"}],
        "output_dir": "%s-artifacts" % name,
        "seed": 0,
    }


def _fig2_cbf(alpha_slope) -> dict:
    return {"kind": "ball", "center": [0, 3], "radius": 1.5, "form": "half",
            "alpha": {"kind": "linear", "slope": alpha_slope}}


_FIG2_NOTES = (
    "the source setup leaves p, beta, and G unstated; p = 1, beta = identity, "
    "G = identity are defaults (equilibrium locations are p-independent here "
    "since f = 0, but stability labels may depend on p)",
)


def _fig2_raw(name: str, cbfs: list, active: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "system": {"builtin": "integrator-2d", "K": [[0, 0], [0, 0]]},
        "cbfs": cbfs,
        "clf": {"Q": [[6, 0], [0, 1]], "xstar": [0, 0], "beta": {"kind": "identity"}},
        "controller": {"kind": "clf-cbf-qp",
                       "weight": {"kind": "identity"}, "p": 1, "cbf": active},
        "tasks": [{"kind": "equilibria"}, {"kind": "jacobians"}],
        "output_dir": "%s-artifacts" % name,
        "seed": 0,
        "notes": list(_FIG2_NOTES),
    }


def builtin_scenario(name: str) -> ScenarioConfig:
    """One of the stock scenario configs, keyed by name.

    fig3 family: planar integrator with gain diag(-1, -5) behind a safety
    filter keeping the loop out of the unit ball at (2, 0); the suffix picks
    the barrier pair (h2 multiplies h1 by ||x - (5, 1)||^2 + 1, a2 has slope
    10). fig2: the clf-cbf loop steered to the origin around the radius-1.5
    ball at (0, 3).
    """
    if name == "fig3":
        raw = _fig3_raw(name, [_fig3_cbf(1)], 0)
    elif name == "fig3-h2a1":
        raw = _fig3_raw(name, [_fig3_cbf(1), _fig3_transform(0, 1)], 1)
    elif name == "fig3-h1a2":
        raw = _fig3_raw(name, [_fig3_cbf(10)], 0)
    elif name == "fig3-h2a2":
        raw = _fig3_raw(name, [_fig3_cbf(1), _fig3_transform(0, 10)], 1)
    elif name == "fig2":
        raw = _fig2_raw(name, [_fig2_cbf(1)], 0)
    else:
        raise ConfigError("unknown scenario %r; valid names: %s"
                          % (name, ", ".join(BUILTIN_SCENARIOS)), path="scenario")
    return validate_config(raw)


def _fig2_transform() -> dict:
    return {"kind": "transform", "base": 0, "a": 0, "b": 1,
            "eta": dict(_ETA_OFFSET), "alpha": {"kind": "linear", "slope": 10}}


def comparison_config(name: str) -> ScenarioConfig:
    """A multi-barrier config for cross-pair invariance comparison.

    fig3 carries all four (h, alpha) combinations; fig2 carries the base pair
    plus the transformed barrier with slope-10 alpha.
    """
    if name == "fig3":
        raw = _fig3_raw("fig3-compare",
                        [_fig3_cbf(1), _fig3_transform(0, 1),
                         _fig3_cbf(10), _fig3_transform(0, 10)], 0)
    elif name == "fig2":
        raw = _fig2_raw("fig2-compare", [_fig2_cbf(1), _fig2_transform()], 0)
    else:
        raise ConfigError("unknown comparison %r; valid names: %s"
                          % (name, ", ".join(COMPARISON_SCENARIOS)), path="scenario")
    return validate_config(raw)
