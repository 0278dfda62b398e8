"""Config kinds built against the library, and single faults in a config."""

import copy
import json
import math

import numpy as np
import pytest

from barrier_lab import (
    ClfCbfController,
    ConfigError,
    SafetyFilterController,
    build_clf,
    build_controller,
    build_model,
    build_pairs,
    builtin_scenario,
    comparison_config,
    make_ball_cbf,
    parse_config_text,
    quadratic_clf,
    transform_cbf,
    validate_config,
)
from barrier_lab.config import (_ALPHAS, _BETAS, _CBFS, _ETAS, _GAMMAS, _TASKS, _WEIGHTS,
                                BUILTIN_SCENARIOS, COMPARISON_SCENARIOS, CONTROLLER_KINDS,
                                SYSTEM_BUILTINS)
from barrier_lab.model import (constant_matrix, constant_state_map, identity_map, linear_map,
                               quadratic_map, quadratic_offset_map)
from conftest import all_kinds, bits

# safe and unsafe states around the ball at (2, 0), and one on its boundary
STATES = np.vstack([np.random.default_rng(7).uniform((-1.0, -3.0), (5.0, 3.0), (24, 2)),
                    [[3.0, 0.0], [2.0, 0.0]]])


def assert_same(built, expected, names):
    """built and expected agree bit for bit on each named evaluator at STATES."""
    for name in names:
        got, want = getattr(built, name)(STATES), getattr(expected, name)(STATES)
        if not isinstance(got, tuple):
            got, want = (got,), (want,)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(bits(a), bits(b)), name


def assert_same_pair(built, expected):
    assert_same(built, expected, ("value_and_grad", "hess_h"))
    s = built.h(STATES)
    assert np.array_equal(bits(built.alpha.fun(s)), bits(expected.alpha.fun(s)))
    assert np.array_equal(bits(built.alpha.deriv(s)), bits(expected.alpha.deriv(s)))


class TestBuiltKinds:
    @pytest.fixture(scope="class")
    def built(self):
        config = validate_config(all_kinds())
        model = build_model(config)
        pairs = build_pairs(config)
        return config, model, pairs, build_controller(config, model, pairs, build_clf(config))

    def test_barriers_match_the_library(self, built):
        pairs = built[2]
        ball = make_ball_cbf((2, 0), 1, form="full", alpha=linear_map(1))
        half = make_ball_cbf((2, 0), 1, form="half", alpha=linear_map(2))
        expected = [
            ball, half,
            transform_cbf(ball, 1, 0, gamma=identity_map(), alpha=linear_map(1)),
            transform_cbf(ball, 1, 0, gamma=linear_map(2), alpha=linear_map(1)),
            transform_cbf(half, 1, 0, gamma=quadratic_map(1, 0.5), alpha=linear_map(1)),
            transform_cbf(ball, 0, 2, eta=constant_state_map(3), alpha=linear_map(1)),
            transform_cbf(ball, 1, 1, gamma=identity_map(),
                          eta=quadratic_offset_map((5, 1), 1), alpha=linear_map(10)),
        ]
        assert len(pairs) == len(expected)
        for pair, want in zip(pairs, expected):
            assert_same_pair(pair, want)

    def test_matrix_weight_matches_the_library(self, built):
        config, model, pairs, controller = built
        assert config.controller["weight"] == {"kind": "matrix", "value": [[2, 0], [0, 1]]}
        expected = SafetyFilterController(model, pairs[6],
                                          weight=constant_matrix(np.diag([2.0, 1.0])))
        for got, want in zip(controller.evaluate(STATES), expected.evaluate(STATES)):
            assert np.array_equal(bits(got), bits(want))

    def test_linear_beta_matches_the_library(self):
        data = builtin_scenario("fig2").to_json_dict()
        data["clf"] = {"Q": [[6, 1], [1, 2]], "xstar": [0.5, -1],
                       "beta": {"kind": "linear", "slope": 3}}
        clf = build_clf(validate_config(data))
        expected = quadratic_clf(np.array([[6.0, 1.0], [1.0, 2.0]]), xstar=(0.5, -1.0),
                                 beta=linear_map(3))
        assert_same(clf, expected, ("value_and_grad", "hess_v"))
        v = clf.v(STATES)
        assert np.array_equal(bits(clf.beta.fun(v)), bits(expected.beta.fun(v)))
        assert np.array_equal(bits(clf.beta.deriv(v)), bits(expected.beta.deriv(v)))

    def test_defaulted_keys_build_the_library_defaults(self):
        # alpha slope, ball form, xstar, beta and p all left out
        data = builtin_scenario("fig2").to_json_dict()
        data["cbfs"] = [{"kind": "ball", "center": [0, 3], "radius": 1.5,
                         "alpha": {"kind": "linear"}}]
        data["clf"] = {"Q": [[6, 0], [0, 1]]}
        data["controller"] = {"kind": "clf-cbf-qp"}
        config = validate_config(data)
        model = build_model(config)
        pairs = build_pairs(config)
        clf = build_clf(config)
        ball = make_ball_cbf((0, 3), 1.5)
        assert_same_pair(pairs[0], ball)
        expected_clf = quadratic_clf(np.diag([6.0, 1.0]))
        assert_same(clf, expected_clf, ("value_and_grad", "hess_v"))
        controller = build_controller(config, model, pairs, clf)
        expected = ClfCbfController(model, ball, expected_clf)
        for got, want in zip(controller.evaluate(STATES), expected.evaluate(STATES)):
            assert np.array_equal(bits(got), bits(want))


# every kind and choice name in the schema, then values of each JSON type and size
KIND_NAMES = ["ball", "transform", "identity", "linear", "quadratic", "constant",
              "quadratic-offset", "matrix", "equilibria", "jacobians", "equivalence", "field",
              "simulate", "roa", "safety-filter", "clf-cbf-qp", "integrator-2d", "full", "half"]
VALUES = [None, True, "x", -1, 0, 0.5, 1, 2, 3, 9, float("inf"), [], [1], [1, 2, 3],
          [[1, 2], [3, 4]], [[1, 0], [0, -1]], {}, {"kind": "identity"}, {"kind": "linear"},
          {"kind": "nope"}] + KIND_NAMES
REPLACEMENTS = 700     # sampled from the 39 values at each place; about 0.5 s in all


def members(node, prefix=()):
    """(keys, value) of every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,), child
        if isinstance(child, (dict, list)):
            yield from members(child, prefix + (key,))


def single_faults(doc: dict, rng):
    """Documents one fault away from doc: every value deleted, an unknown key
    added to every object, and a sample of the values replaced."""
    places = list(members(doc))
    for keys, _ in places:
        yield keys, "delete", None
    for keys in [()] + [keys for keys, value in places if isinstance(value, dict)]:
        yield keys + ("unknown",), "add", 1
    replacements = [(keys, value) for keys, _ in places for value in VALUES]
    for index in sorted(rng.choice(len(replacements), REPLACEMENTS, replace=False)):
        yield replacements[index][0], "replace", replacements[index][1]


def apply_fault(doc: dict, keys, action, value) -> dict:
    doc = copy.deepcopy(doc)
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    if action == "delete":
        del holder[keys[-1]]
    else:
        holder[keys[-1]] = copy.deepcopy(value)
    return doc


class TestSingleFaults:
    def test_replacements_hold_every_kind_name(self):
        # a kind that a table row or a name list adds is sampled as a value too
        tables = (_CBFS, _ALPHAS, _GAMMAS, _BETAS, _ETAS, _WEIGHTS, _TASKS, CONTROLLER_KINDS,
                  SYSTEM_BUILTINS)
        assert {name for table in tables for name in table} <= set(KIND_NAMES)

    def test_each_fault_is_named_or_builds(self):
        base = all_kinds()
        outcomes = {"rejected": 0, "built": 0}
        for keys, action, value in single_faults(base, np.random.default_rng(2026)):
            try:
                config = parse_config_text(json.dumps(apply_fault(base, keys, action, value),
                                                      indent=2))
            except ConfigError as exc:
                assert exc.path and str(exc).endswith("%s: %s" % (exc.path, exc.args[0]))
                outcomes["rejected"] += 1
                continue
            emitted = json.dumps(config.to_json_dict())
            again = parse_config_text(emitted)
            assert again == config and again.applied_defaults == ()
            assert json.dumps(again.to_json_dict()) == emitted
            model = build_model(config)
            pairs = build_pairs(config)
            build_controller(config, model, pairs, build_clf(config))
            outcomes["built"] += 1
        # the sample holds both outcomes, most of them rejections
        assert outcomes["rejected"] > outcomes["built"] > 0


def poison(doc):
    """Overwrite every list entry and dict value reachable from doc, in place."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in list(items):
        if isinstance(value, (dict, list)):
            poison(value)
        elif key != "kind":
            doc[key] = math.inf


class TestBuiltinCatalog:
    def test_editing_one_config_leaves_the_next_call_alone(self):
        makers = [(builtin_scenario, name) for name in BUILTIN_SCENARIOS]
        makers += [(comparison_config, name) for name in COMPARISON_SCENARIOS]
        for make, name in makers:
            fresh = json.dumps(make(name).to_json_dict())
            for other_make, other in makers:
                poison(other_make(other).to_json_dict())
            again = make(name)
            assert json.dumps(again.to_json_dict()) == fresh, name
            assert again == validate_config(json.loads(fresh)), name
