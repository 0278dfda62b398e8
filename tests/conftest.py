"""Shared fixtures: builtin scenario bundles, safe-state sampling, caches, the
per-state reference the controllers' one-pass evaluate is checked against, the
slack of a barrier row, the separatrix oracle of the basins, the boundary
slope oracle of the reduced spectrum, the cell-by-cell CSV reference, and small
helpers several test files use."""

import json
from pathlib import Path

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
    certificate_errors,
    find_boundary_equilibria,
    find_interior_equilibria,
    unfiltered_controller,
)
from barrier_lab.artifacts import fmt_float
from barrier_lab.model import dot
from barrier_lab.qp import DEGENERATE_NORM, _clf_cbf_solution, _filter_law, _unfiltered_solution

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
        """Uniform rejection samples with h >= 0 for the controller's barrier."""
        (x1_lo, x2_lo), (x1_hi, x2_hi) = SAMPLE_BOX[self.name]
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            x = rng.uniform((x1_lo, x2_lo), (x1_hi, x2_hi), size=(4 * count, 2))
            out.extend(x[np.asarray(self.pair.h(x), dtype=float) >= 0.0])
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
        failed = active & (den <= DEGENERATE_NORM ** 2)
        lam = np.where(active, -2.0 * eta / np.where(den > 0.0, den, 1.0), 0.0)
        multipliers = np.where(failed, np.nan, np.maximum(lam, 0.0))[None]
        code = np.where(failed, -1, np.where(active, 2, 0))
        drift = model.drift(x)
    else:
        data = {"fv": c[0], "vdv": a[0] @ winv_a[0], "winv_av": winv_a[0]}
        if controller.kind == "clf":
            u, lam1 = _unfiltered_solution(data, controller.p)
            multipliers, code = np.maximum(lam1, 0.0)[None], (lam1 > 0.0).astype(int)
        else:
            data.update(fh=c[1], vdh=a[0] @ winv_a[1], hdh=a[1] @ winv_a[1],
                        winv_ah=winv_a[1])
            u, lam1, lam2 = _clf_cbf_solution(data, controller.p)
            failed = np.isnan(lam1)
            u = np.where(failed, np.nan, u)
            multipliers = np.maximum(np.stack([lam1, lam2]), 0.0)
            code = np.where(failed, -1, (lam1 > 0.0).astype(int) + 2 * (lam2 > 0.0).astype(int))
        drift = model.f(x)
    return u, drift + model.g(x) @ u, multipliers, code


ALL_KINDS = Path(__file__).parent / "data" / "all-kinds.json"


def all_kinds() -> dict:
    """A fresh copy of the document that carries every config kind."""
    return json.loads(ALL_KINDS.read_text())


def bits(value) -> np.ndarray:
    """The float64 bit patterns of value: tells -0.0 from 0.0 and NaNs apart."""
    return np.ascontiguousarray(np.asarray(value, dtype=float)).view(np.uint64)


def boundary_slope(controller, x_star, eps=1e-5) -> float:
    """d/ds [t(s)^T F(x(s))] at the boundary point x_star.

    s is arc length along controller.pair.geometry.boundary_at, t(s) the unit
    tangent and F the closed-loop field. Where F(x_star) = 0 this is t^T J t,
    the one reduced eigenvalue in the plane, read from the field alone: no
    hess_h and no alpha. A central difference in theta with step eps; the
    tangent dx/dtheta has length r and ds = r dtheta, so both divide by r.
    """
    geometry = controller.pair.geometry
    offset = np.asarray(x_star, dtype=float) - geometry.center
    theta = np.arctan2(offset[1], offset[0]) + np.array([-eps, eps])
    x, tangent = geometry.boundary_at(theta)
    along = np.sum(tangent * np.asarray(controller.field(x), dtype=float), axis=-1)
    return float(along[1] - along[0]) / (2.0 * eps) / geometry.radius ** 2


def reference_cell(value) -> str:
    """The cell rendering the '%.17g' column formats replaced, kept as the reference."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return fmt_float(v)


def reference_csv(header, columns) -> str:
    """The CSV text of columns, rendered cell by cell with reference_cell."""
    rows = zip(*columns)
    return "".join(",".join(map(reference_cell, row)) + "\n" for row in [header, *rows])


def max_certificate_error(problem, x, point) -> float:
    return max(abs(float(v)) for v in certificate_errors(problem, x, point).values())


def barrier_slack(pair, x, drift):
    """eta = grad_h^T drift + alpha(h) at x: the barrier row's slack at that drift.

    With the drift of the loop the row filters (controller.unfiltered_field),
    eta >= 0 exactly where the row is inactive.
    """
    h, grad = pair.value_and_grad(np.asarray(x, dtype=float))
    return np.asarray(dot(grad, drift) + pair.alpha.fun(h), dtype=float)


def separatrix(controller, saddle, offset=1e-6, dt=1e-2, bound=8.0) -> np.ndarray:
    """The safe branch of a boundary saddle's stable manifold, as points (k, 2).

    Starts `offset` from the saddle along the stable eigenvector of its
    closed-form Jacobian (saddle.jacobian, from attach_spectra), on the side
    where h > 0, and integrates -field by RK4 at dt until ||x||_inf > bound.
    In the plane these curves and the safe-set boundary bound the basin of a
    stable boundary equilibrium.
    """
    values, vectors = np.linalg.eig(saddle.jacobian)
    direction = np.real(vectors[:, int(np.argmin(values.real))])
    x = saddle.x_star + offset * direction
    if float(controller.pair.h(x)) <= 0.0:
        x = saddle.x_star - offset * direction
    points = [x]

    def back(state):
        return -np.asarray(controller.field(state), dtype=float)

    while np.max(np.abs(x)) <= bound:
        k1 = back(x)
        k2 = back(x + 0.5 * dt * k1)
        k3 = back(x + 0.5 * dt * k2)
        k4 = back(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points.append(x)
    return np.array(points)


def separatrix_sides(curves, points):
    """(sides, distances) of points (N, 2) against each curve.

    sides[i, k] is the sign of the cross product of curve k's tangent at its
    nearest point to points[i] with the offset from there; distances[i] is
    the distance to the nearest point of any curve.
    """
    points = np.asarray(points, dtype=float)
    sides, distances = [], []
    for curve in curves:
        offsets = points[:, None, :] - curve[None, :, :]
        gaps = np.linalg.norm(offsets, axis=-1)
        nearest = np.argmin(gaps, axis=-1)
        tangents = np.diff(curve, axis=0)[np.minimum(nearest, len(curve) - 2)]
        offset = offsets[np.arange(len(points)), nearest]
        sides.append(np.sign(tangents[:, 0] * offset[:, 1] - tangents[:, 1] * offset[:, 0]))
        distances.append(gaps.min(axis=-1))
    return np.stack(sides, axis=-1), np.min(distances, axis=0)
