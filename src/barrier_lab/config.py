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

from .errors import ConfigError, DefinitenessError, InvalidParameterError
from .model import (BarrierPair, LyapunovPair, SystemModel, constant_matrix,
                    constant_state_map, identity_map, linear_map, linear_system,
                    make_ball_cbf, quadratic_clf, quadratic_map, quadratic_offset_map,
                    single_integrator_2d, transform_cbf)
from .qp import (ClfCbfController, ClfController, NominalClosedLoop,
                 SafetyFilterController, _checked_matrix)

SCHEMA_VERSION = 1
SYSTEM_BUILTINS = ("integrator-2d",)
CONTROLLER_KINDS = ("safety-filter", "clf-cbf-qp")

# The kinds of each tagged object, in the order messages list them: kind ->
# (required keys besides "kind", optional keys, builder of the validated object);
# a cbf builder also takes the pairs built before it. Tasks have no builder:
# ScenarioRun.run_<kind> runs each one.
_CBFS = {"ball": (("center", "radius", "alpha"), ("form",),
                  lambda d, pairs: make_ball_cbf(d["center"], d["radius"], form=d["form"],
                                                 alpha=_built(_ALPHAS, d["alpha"]))),
         "transform": (("base", "alpha"), ("a", "b", "gamma", "eta"),
                       lambda d, pairs: transform_cbf(
                           pairs[d["base"]], d["a"], d["b"], gamma=_built(_GAMMAS, d.get("gamma")),
                           eta=_built(_ETAS, d.get("eta")), alpha=_built(_ALPHAS, d["alpha"])))}
_ALPHAS = {"linear": ((), ("slope",), lambda d: linear_map(d["slope"]))}
_GAMMAS = {"identity": ((), (), lambda d: identity_map()),
           "linear": (("slope",), (), lambda d: linear_map(d["slope"])),
           "quadratic": (("c1", "c2"), (), lambda d: quadratic_map(d["c1"], d["c2"]))}
_BETAS = {kind: _GAMMAS[kind] for kind in ("identity", "linear")}
_ETAS = {"constant": (("value",), (), lambda d: constant_state_map(d["value"])),
         "quadratic-offset": (("center", "offset"), (),
                              lambda d: quadratic_offset_map(d["center"], d["offset"]))}
_WEIGHTS = {"identity": ((), (), lambda d: None),
            "matrix": (("value",), (), lambda d: constant_matrix(d["value"]))}
_TASKS = {"equilibria": ((), ("sweep", "box", "per_axis")),
          "jacobians": ((), ()),
          "equivalence": ((), ("samples", "pairs")),
          "field": (("bounds", "resolution"), ()),
          "simulate": ((), ("x0", "x0s", "t_final", "dt", "unfiltered")),
          "roa": (("bounds", "resolution"), ("t_final", "dt"))}


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


_SPACE = re.compile(r"\s*")
_PATH_PART = re.compile(r"\[(\d+)\]|([^.\[\]]+)")
_DECODER = json.JSONDecoder()


class _Source:
    """Raw config text with line lookup for error anchoring."""

    def __init__(self, text: Optional[str]):
        self.text = text or ""

    def line_of(self, path: str) -> Optional[int]:
        """1-based line where the value at a dotted path starts.

        The lookup walks the JSON text, so ``cbfs[2]`` is the third entry of
        ``cbfs`` and each key is looked up among its own object's members; a
        leading ``config`` names the document. When part of the path is not
        in the text, the deepest part found gives the line; None when no part is.
        """
        parts = [int(index) if index else key for index, key in _PATH_PART.findall(path)]
        if parts[:1] == ["config"]:
            parts = parts[1:]
        found = None
        try:
            pos = _SPACE.match(self.text).end()
            for part in parts:
                # the last member of a duplicated key: the one json.loads keeps
                pos = max((start for name, start in self._members(pos) if name == part),
                          default=None)
                if pos is None:
                    break
                found = pos
        except (ValueError, IndexError):    # text that is not one JSON document
            pass
        return None if found is None else self.text.count("\n", 0, found) + 1

    def _members(self, pos: int):
        """(key or index, value start) of each member of the container at pos."""
        text = self.text
        opener = text[pos:pos + 1]
        pos = _SPACE.match(text, pos + 1).end()
        index = 0
        while text[pos] not in "}]":
            name = index
            if opener == "{":
                name, pos = _DECODER.raw_decode(text, pos)
                pos = _SPACE.match(text, _SPACE.match(text, pos).end() + 1).end()  # past ':'
            yield name, pos
            pos = _SPACE.match(text, _DECODER.raw_decode(text, pos)[1]).end()
            if text[pos] == ",":
                pos = _SPACE.match(text, pos + 1).end()
            index += 1


class _Validator:
    """Walks the raw document, normalizing in place and collecting defaults."""

    def __init__(self, source: _Source):
        self.source = source
        self.defaults: List[str] = []

    def fail(self, path: str, message: str):
        raise ConfigError(message, path=path, line=self.source.line_of(path))

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

    def tagged(self, value, path: str, kinds: dict) -> dict:
        """An object whose 'kind' is a key of kinds and whose keys are that kind's."""
        d = self.dict_at(value, path)
        if "kind" not in d:
            self.fail(path, "missing required key 'kind'")
        required, optional = kinds[self.string(d["kind"], path + ".kind", choices=kinds)][:2]
        self.keys(d, path, required=("kind",) + required, optional=optional)
        return d

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

    def positive_definite(self, value: list, path: str, check: Callable) -> list:
        """A matrix that check, the builder's own test, accepts as symmetric positive definite."""
        try:
            check(np.array(value, dtype=float))
        except (InvalidParameterError, DefinitenessError) as exc:
            self.fail(path, "must be symmetric positive definite (%s)" % exc)
        return value

    def default(self, d: dict, path: str, key: str, value, note: str):
        """Write a missing d[key] and list it among the applied defaults."""
        if key not in d:
            d[key] = value
            self.defaults.append("%s.%s defaulted to %s" % (path, key, note))


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


def _valid_scalar_map(v: _Validator, data, path: str, kinds: dict) -> dict:
    """An alpha, gamma or beta: a slope, or the coefficients of c1 s + c2 s^2."""
    d = v.tagged(data, path, kinds)
    for key in ("slope", "c1"):
        if key in d:
            v.number(d[key], path + "." + key, positive=True)
    if "c2" in d:
        v.number(d["c2"], path + ".c2")
    return d


def _valid_eta(v: _Validator, data, path: str, n: int) -> dict:
    d = v.tagged(data, path, _ETAS)
    if d["kind"] == "constant":
        v.number(d["value"], path + ".value", positive=True)
    else:
        v.vector(d["center"], path + ".center", length=n)
        v.number(d["offset"], path + ".offset", positive=True)
    return d


def _valid_cbfs(v: _Validator, data: dict, n: int) -> list:
    entries = v.list_at(data.get("cbfs"), "cbfs", min_len=1)
    for i, entry in enumerate(entries):
        path = "cbfs[%d]" % i
        d = v.tagged(entry, path, _CBFS)
        if d["kind"] == "ball":
            if n != 2:
                v.fail(path, "ball barriers need a planar system (n = 2), got n = %d" % n)
            v.vector(d["center"], path + ".center", length=2)
            v.number(d["radius"], path + ".radius", positive=True)
            v.default(d, path, "form", "full", "'full'")
            v.string(d["form"], path + ".form", choices=("full", "half"))
        else:
            base = v.integer(d["base"], path + ".base", minimum=0)
            if base >= i:
                v.fail(path + ".base",
                       "must reference an earlier cbf entry (got %d at index %d)" % (base, i))
            for key in ("a", "b"):
                v.default(d, path, key, 0, "0")
            a = v.number(d["a"], path + ".a", minimum=0.0)
            b = v.number(d["b"], path + ".b", minimum=0.0)
            if a + b <= 0.0:
                v.fail(path, "transform needs a + b > 0 (got a = %g, b = %g)" % (a, b))
            if a > 0.0:
                v.default(d, path, "gamma", {"kind": "identity"}, "the identity")
            if b > 0.0:
                v.default(d, path, "eta", {"kind": "constant", "value": 1}, "the constant 1")
            if "gamma" in d:
                _valid_scalar_map(v, d["gamma"], path + ".gamma", _GAMMAS)
            if "eta" in d:
                _valid_eta(v, d["eta"], path + ".eta", n)
        # an omitted slope defaults to 1, which needs no check
        alpha = _valid_scalar_map(v, d["alpha"], path + ".alpha", _ALPHAS)
        v.default(alpha, path + ".alpha", "slope", 1, "1")
    return entries


def _valid_clf(v: _Validator, data: dict, n: int) -> Optional[dict]:
    if "clf" not in data:
        return None
    d = v.dict_at(data["clf"], "clf")
    v.keys(d, "clf", required=("Q",), optional=("xstar", "beta"))
    v.positive_definite(v.matrix(d["Q"], "clf.Q", shape=(n, n)), "clf.Q", quadratic_clf)
    v.default(d, "clf", "xstar", [0] * n, "the origin")
    v.vector(d["xstar"], "clf.xstar", length=n)
    v.default(d, "clf", "beta", {"kind": "identity"}, "the identity class-K function")
    _valid_scalar_map(v, d["beta"], "clf.beta", _BETAS)
    return d


def _valid_controller(v: _Validator, data: dict, n: int, m: int,
                      n_cbfs: int, has_clf: bool, has_gain: bool) -> dict:
    d = v.dict_at(data.get("controller"), "controller")
    v.keys(d, "controller", required=("kind",), optional=("weight", "p", "cbf"))
    kind = v.string(d["kind"], "controller.kind", choices=CONTROLLER_KINDS)
    v.default(d, "controller", "weight", {"kind": "identity"}, "the identity matrix G = I")
    w = v.tagged(d["weight"], "controller.weight", _WEIGHTS)
    if w["kind"] == "matrix":
        v.positive_definite(v.matrix(w["value"], "controller.weight.value", shape=(m, m)),
                            "controller.weight.value", _checked_matrix)
    v.default(d, "controller", "cbf", 0, "0")
    v.integer(d["cbf"], "controller.cbf", minimum=0)
    if d["cbf"] >= n_cbfs:
        v.fail("controller.cbf", "index %d out of range (have %d cbfs)" % (d["cbf"], n_cbfs))
    if kind == "clf-cbf-qp":
        if not has_clf:
            v.fail("controller.kind", "clf-cbf-qp needs a 'clf' section")
        v.default(d, "controller", "p", 1, "1")
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
        d = v.tagged(entry, path, _TASKS)
        kind = d["kind"]
        if kind == "equivalence":
            if n_cbfs < 2:
                v.fail(path, "equivalence needs at least two cbfs")
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
        elif kind == "simulate":
            if ("x0" in d) == ("x0s" in d):
                v.fail(path, "give exactly one of 'x0' or 'x0s'")
            if "x0" in d:
                v.vector(d["x0"], path + ".x0", length=n)
            else:
                x0s = v.list_at(d["x0s"], path + ".x0s", min_len=1)
                for j, x0 in enumerate(x0s):
                    v.vector(x0, "%s.x0s[%d]" % (path, j), length=n)
            if "unfiltered" in d:
                v.boolean(d["unfiltered"], path + ".unfiltered")
        # the options that several kinds take; the kind's keys say which are allowed
        if "box" in d:
            v.matrix(d["box"], path + ".box", shape=(2, n))
        for key, minimum in (("sweep", 8), ("per_axis", 1), ("samples", 1)):
            if key in d:
                v.integer(d[key], path + "." + key, minimum=minimum)
        for key in ("t_final", "dt"):
            if key in d:
                v.number(d[key], path + "." + key, positive=True)
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


def _built(kinds: dict, d: Optional[dict], *context):
    """The object its kind's row of kinds builds from the validated d; None for no d."""
    return None if d is None else kinds[d["kind"]][2](d, *context)


def build_pairs(config: ScenarioConfig) -> List[BarrierPair]:
    """Instantiate every barrier pair; transforms reference earlier entries."""
    pairs: List[BarrierPair] = []
    for d in config.cbfs:
        pairs.append(_built(_CBFS, d, pairs))
    return pairs


def build_clf(config: ScenarioConfig) -> Optional[LyapunovPair]:
    if config.clf is None:
        return None
    d = config.clf
    return quadratic_clf(np.array(d["Q"], dtype=float), xstar=d["xstar"],
                         beta=_built(_BETAS, d["beta"]))


def build_controller(config: ScenarioConfig, model: SystemModel,
                     pairs: Sequence[BarrierPair],
                     clf: Optional[LyapunovPair], cbf_index: Optional[int] = None):
    """The configured closed-loop controller; cbf_index overrides the config."""
    cd = config.controller
    index = cd["cbf"] if cbf_index is None else cbf_index
    weight = _built(_WEIGHTS, cd["weight"])
    if cd["kind"] == "safety-filter":
        return SafetyFilterController(model, pairs[index], weight=weight)
    return ClfCbfController(model, pairs[index], clf, weight=weight, p=cd["p"])


def unfiltered_controller(config: ScenarioConfig, model: SystemModel,
                          clf: Optional[LyapunovPair]):
    """The configured loop with its barrier constraint removed."""
    cd = config.controller
    if cd["kind"] == "safety-filter":
        return NominalClosedLoop(model)
    return ClfController(model, clf, weight=_built(_WEIGHTS, cd["weight"]), p=cd["p"])


# ---- builtin catalog ------------------------------------------------------

# each builder returns fresh literals: a config holds its documents' lists,
# so one caller's edit must not reach the next call's config


def _fig3_cbf(alpha_slope) -> dict:
    return {"kind": "ball", "center": [2, 0], "radius": 1, "form": "full",
            "alpha": {"kind": "linear", "slope": alpha_slope}}


def _fig2_cbf(alpha_slope) -> dict:
    return {"kind": "ball", "center": [0, 3], "radius": 1.5, "form": "half",
            "alpha": {"kind": "linear", "slope": alpha_slope}}


def _h2(alpha_slope) -> dict:
    """h2 = h1 (||x - (5, 1)||^2 + 1), the transform of cbfs[0]."""
    return {"kind": "transform", "base": 0, "a": 0, "b": 1,
            "eta": {"kind": "quadratic-offset", "center": [5, 1], "offset": 1},
            "alpha": {"kind": "linear", "slope": alpha_slope}}


def _raw(name: str, gain: list, cbfs: list, controller: dict, **extra) -> dict:
    """integrator-2d with gain K, the equilibria and jacobians tasks, and extra keys."""
    return {"schema_version": SCHEMA_VERSION, "name": name,
            "system": {"builtin": "integrator-2d", "K": gain}, "cbfs": cbfs,
            "controller": controller,
            "tasks": [{"kind": "equilibria"}, {"kind": "jacobians"}],
            "output_dir": "%s-artifacts" % name, "seed": 0, **extra}


def _fig3_raw(name: str, cbfs: list, active: int = 0) -> dict:
    return _raw(name, [[-1, 0], [0, -5]], cbfs,
                {"kind": "safety-filter", "weight": {"kind": "identity"}, "cbf": active})


def _fig2_raw(name: str, cbfs: list) -> dict:
    return _raw(name, [[0, 0], [0, 0]], cbfs,
                {"kind": "clf-cbf-qp", "weight": {"kind": "identity"}, "p": 1, "cbf": 0},
                clf={"Q": [[6, 0], [0, 1]], "xstar": [0, 0], "beta": {"kind": "identity"}},
                notes=["the source setup leaves p, beta, and G unstated; p = 1, beta = "
                       "identity, G = identity are defaults (equilibrium locations are "
                       "p-independent here since f = 0, but stability labels may depend on p)"])


# name -> builder of the raw document, which takes the name
_BUILTINS = {
    "fig2": lambda name: _fig2_raw(name, [_fig2_cbf(1)]),
    "fig3": lambda name: _fig3_raw(name, [_fig3_cbf(1)]),
    "fig3-h2a1": lambda name: _fig3_raw(name, [_fig3_cbf(1), _h2(1)], 1),
    "fig3-h1a2": lambda name: _fig3_raw(name, [_fig3_cbf(10)]),
    "fig3-h2a2": lambda name: _fig3_raw(name, [_fig3_cbf(1), _h2(10)], 1),
}
_COMPARISONS = {
    "fig2": lambda name: _fig2_raw(name + "-compare", [_fig2_cbf(1), _h2(10)]),
    "fig3": lambda name: _fig3_raw(name + "-compare",
                                   [_fig3_cbf(1), _h2(1), _fig3_cbf(10), _h2(10)]),
}
BUILTIN_SCENARIOS = tuple(_BUILTINS)
COMPARISON_SCENARIOS = tuple(_COMPARISONS)


def _catalog(table: dict, what: str, name: str) -> ScenarioConfig:
    if name not in table:
        raise ConfigError("unknown %s %r; valid names: %s" % (what, name, ", ".join(table)),
                          path="scenario")
    return validate_config(table[name](name))


def builtin_scenario(name: str) -> ScenarioConfig:
    """One of the stock scenario configs, keyed by a name in BUILTIN_SCENARIOS.

    fig3 family: planar integrator with gain diag(-1, -5) behind a safety
    filter keeping the loop out of the unit ball at (2, 0); the suffix picks
    the barrier pair (h2 multiplies h1 by ||x - (5, 1)||^2 + 1, a2 has slope
    10). fig2: the clf-cbf loop steered to the origin around the radius-1.5
    ball at (0, 3).
    """
    return _catalog(_BUILTINS, "scenario", name)


def comparison_config(name: str) -> ScenarioConfig:
    """A multi-barrier config for cross-pair invariance comparison.

    The names are COMPARISON_SCENARIOS. fig3 carries all four (h, alpha)
    combinations; fig2 carries the base pair plus the transformed barrier
    with slope-10 alpha.
    """
    return _catalog(_COMPARISONS, "comparison", name)
