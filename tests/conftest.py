"""Shared fixtures: builtin scenario bundles, safe-state sampling, caches, and
the per-state reference the controllers' one-pass evaluate is checked against."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from barrier_lab import (
    attach_spectra,
    build_clf,
    build_controller,
    build_model,
    build_pairs,
    builtin_scenario,
    find_boundary_equilibria,
    find_interior_equilibria,
    unfiltered_controller,
)
from barrier_lab.qp import _clf_cbf_solution, _filter_law, _unfiltered_solution

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# sampling boxes enclosing the interesting region of each scenario's safe set
SAMPLE_BOX = {
    "fig3": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h2a1": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h1a2": ((-1.0, -3.0), (5.0, 3.0)),
    "fig3-h2a2": ((-1.0, -3.0), (5.0, 3.0)),
    "fig2": ((-3.0, 0.0), (3.0, 6.0)),
}


class ScenarioBundle:
    """Model, barrier pairs, clf, and controllers built from one builtin name."""

    def __init__(self, name: str):
        self.name = name
        self.config = builtin_scenario(name)
        self.model = build_model(self.config)
        self.pairs = build_pairs(self.config)
        self.clf = build_clf(self.config)
        self.controller = build_controller(self.config, self.model, self.pairs, self.clf)
        self.unfiltered = unfiltered_controller(self.config, self.model, self.clf)

    @property
    def pair(self):
        return self.controller.pair

    def safe_states(self, count: int, seed: int) -> np.ndarray:
        """Uniform rejection samples with h >= 0 for every carried barrier."""
        (x1_lo, x2_lo), (x1_hi, x2_hi) = SAMPLE_BOX[self.name]
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            x = rng.uniform((x1_lo, x2_lo), (x1_hi, x2_hi), size=(4 * count, 2))
            keep = np.ones(x.shape[0], dtype=bool)
            for pair in self.controller.cbf_pairs:
                keep &= np.asarray(pair.h(x), dtype=float) >= 0.0
            out.extend(x[keep])
        return np.asarray(out[:count])


@pytest.fixture(scope="session")
def bundles():
    """Factory with a session cache: bundles('fig3') builds each scenario once."""
    cache = {}

    def get(name: str) -> ScenarioBundle:
        if name not in cache:
            cache[name] = ScenarioBundle(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def analyzed(bundles):
    """Cached (boundary, interior) equilibrium reports with spectra attached."""
    cache = {}

    def get(name: str):
        if name not in cache:
            b = bundles(name)
            boundary = attach_spectra(find_boundary_equilibria(b.controller), b.controller)
            interior = attach_spectra(find_interior_equilibria(b.controller), b.controller)
            cache[name] = (boundary, interior)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def fig3(bundles):
    return bundles("fig3")


@pytest.fixture(scope="session")
def fig2(bundles):
    return bundles("fig2")


@pytest.fixture(scope="session")
def fig3_h2a1(bundles):
    return bundles("fig3-h2a1")


@pytest.fixture(scope="session")
def fig3_h1a2(bundles):
    return bundles("fig3-h1a2")


@pytest.fixture(scope="session")
def fig3_h2a2(bundles):
    return bundles("fig3-h2a2")


def reference_evaluation(controller, x):
    """(u, field, multipliers, active_code) of a controller, one state at a time.

    Each state's row normals a and offsets c come from controller.problem()
    and W from controller.weight, all evaluated at that state; qp's law
    helpers turn them into u. Nothing of the model is hoisted, so this is the
    reference for the controllers' evaluate. Degenerate rows give NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        parts = [reference_evaluation(controller, state) for state in x]
        return tuple(np.stack(column) for column in zip(*parts))
    model = controller.model
    if controller.kind == "nominal":
        return model.k(x), model.drift(x), np.zeros(0), np.asarray(0)
    rows = controller.problem().rows
    w = np.asarray(controller.weight(x), dtype=float)
    terms = [row.terms(x) for row in rows]
    a = [np.asarray(normal, dtype=float) for normal, _ in terms]
    c = [np.asarray(float(offset)) for _, offset in terms]
    winv_a = [np.linalg.solve(w, normal) for normal in a]
    if controller.kind == "safety-filter":
        eta = c[0]
        u, den = _filter_law(eta, a[0], winv_a[0], single=False)
        active = eta < 0.0
        lam = np.where(active, -2.0 * eta / np.where(den > 0.0, den, 1.0), 0.0)
        multipliers, code = np.maximum(lam, 0.0)[None], np.where(active, 2, 0)
        drift = model.drift(x)
    else:
        data = {"fv": c[0], "vdv": a[0] @ winv_a[0], "winv_av": winv_a[0]}
        if controller.kind == "clf":
            u, lam1 = _unfiltered_solution(data, controller.p)
            multipliers, code = np.maximum(lam1, 0.0)[None], (lam1 > 0.0).astype(int)
        else:
            data.update(fh=c[1], vdh=a[0] @ winv_a[1], hdh=a[1] @ winv_a[1],
                        winv_ah=winv_a[1])
            u, lam1, lam2, case = _clf_cbf_solution(data, controller.p)
            u = np.where(case < 0, np.nan, u)
            multipliers = np.maximum(np.stack([lam1, lam2]), 0.0)
            code = np.where(case < 0, -1, (lam1 > 0.0).astype(int) + 2 * (lam2 > 0.0).astype(int))
        drift = model.f(x)
    return u, drift + model.g(x) @ u, multipliers, code
