"""Equilibrium search, boundary multipliers, desirability classification."""

import logging
import math

import numpy as np
import pytest

from barrier_lab import (
    ClfCbfController,
    EquilibriumReport,
    NotOnBoundaryError,
    PolishCounts,
    PreconditionError,
    SafetyFilterController,
    attach_spectra,
    classify_desirability,
    collinearity_factor,
    constant_matrix,
    find_boundary_equilibria,
    find_interior_equilibria,
    linear_system,
    make_ball_cbf,
    multipliers_on_boundary,
    polish_roots,
    quadratic_clf,
)
from barrier_lab import qp
from barrier_lab.config import (BUILTIN_SCENARIOS, build_clf, build_controller, build_model,
                                build_pairs, builtin_scenario)
from barrier_lab.equilibria import (
    DIVERGE_NORM,
    POLISH_MAX_ITER,
    POLISH_TOL,
    STEP_TOL,
    STOP_REASONS,
    SWEEP_DEFAULT,
    _boundary_system,
    _default_seed_grid,
    _sweep_candidates,
    state_sort_key,
)

SQ3 = math.sqrt(3.0)
COORD_TOL = 1e-9
MULT_TOL = 1e-8


def coords(reports):
    return np.array([r.x_star for r in reports])


class TestObstacleAvoidanceEquilibria:
    # gain diag(-1, -5) toward the origin, unit ball obstacle at (2, 0)

    def test_boundary_set_and_order(self, analyzed):
        boundary, _ = analyzed("fig3")
        expected = np.array([[2.5, -SQ3 / 2.0], [2.5, SQ3 / 2.0], [3.0, 0.0]])
        assert coords(boundary).shape == (3, 2)
        assert np.max(np.abs(coords(boundary) - expected)) < COORD_TOL
        assert all(r.kind == "boundary" for r in boundary)
        assert all(r.controller == "safety-filter" for r in boundary)
        assert all(r.desirability == "undesirable" for r in boundary)
        assert all(r.residual < 1e-9 for r in boundary)

    def test_boundary_multiplier_values(self, analyzed):
        boundary, _ = analyzed("fig3")
        deltas = [r.multipliers[0] for r in boundary]
        assert np.max(np.abs(np.array(deltas) - [-2.5, -2.5, -1.5])) < MULT_TOL

    def test_interior_set(self, analyzed):
        _, interior = analyzed("fig3")
        assert len(interior) == 1
        assert np.max(np.abs(interior[0].x_star)) < COORD_TOL
        assert interior[0].desirability == "desirable"
        assert interior[0].kind == "interior"

    def test_transformed_barrier_scales_collinearity(self, analyzed):
        # h2 = eta h with eta = ||x - (5, 1)||^2 + 1 leaves the equilibrium
        # set fixed and divides each collinearity factor by eta(x*)
        boundary, interior = analyzed("fig3-h2a1")
        base, _ = analyzed("fig3")
        assert np.max(np.abs(coords(boundary) - coords(base))) < 1e-7
        eta = [9.0 + SQ3, 9.0 - SQ3, 6.0]
        expected = [-2.5 / eta[0], -2.5 / eta[1], -1.5 / eta[2]]
        deltas = [r.multipliers[0] for r in boundary]
        assert np.max(np.abs(np.array(deltas) - expected)) < MULT_TOL
        assert all(r.desirability == "undesirable" for r in boundary)
        assert len(interior) == 1

    def test_steeper_alpha_keeps_collinearity(self, analyzed):
        boundary, _ = analyzed("fig3-h1a2")
        deltas = [r.multipliers[0] for r in boundary]
        assert np.max(np.abs(np.array(deltas) - [-2.5, -2.5, -1.5])) < MULT_TOL


class TestTrackingEquilibria:
    # clf-cbf loop: quadratic clf diag(6, 1), half-ball obstacle at (0, 3)

    def test_boundary_set_and_order(self, analyzed):
        boundary, _ = analyzed("fig2")
        root = math.sqrt(1.89)
        expected = np.array([[-root, 3.6], [0.0, 4.5], [root, 3.6]])
        assert coords(boundary).shape == (3, 2)
        assert np.max(np.abs(coords(boundary) - expected)) < COORD_TOL
        assert all(r.desirability == "undesirable" for r in boundary)
        assert all(r.controller == "clf-cbf-qp" for r in boundary)
        assert all(r.residual < 1e-9 for r in boundary)

    def test_boundary_multiplier_values(self, analyzed):
        boundary, _ = analyzed("fig2")
        lam = np.array([r.multipliers for r in boundary])
        expected = np.array([[12.15, 72.9], [10.125, 30.375], [12.15, 72.9]])
        assert np.max(np.abs(lam - expected)) < 1e-6

    def test_near_side_of_obstacle_is_clean(self, analyzed):
        # the boundary point between target and obstacle carries no equilibrium
        boundary, _ = analyzed("fig2")
        gaps = np.linalg.norm(coords(boundary) - np.array([0.0, 1.5]), axis=-1)
        assert np.min(gaps) > 0.5

    def test_interior_set(self, analyzed):
        _, interior = analyzed("fig2")
        assert len(interior) == 1
        assert np.max(np.abs(interior[0].x_star)) < COORD_TOL
        assert interior[0].desirability == "desirable"


class TestMultipliersOnBoundary:
    def test_golden_delta_matrix(self, fig2):
        c = fig2.controller
        lam1, lam2, delta_mat, det = multipliers_on_boundary(c, np.array([0.0, 4.5]))
        assert np.max(np.abs(delta_mat - [[21.25, -6.75], [-6.75, 2.25]])) < 1e-12
        assert abs(det - 2.25) < 1e-12
        assert abs(lam1 - 10.125) < 1e-12
        assert abs(lam2 - 30.375) < 1e-12

    def test_rejects_off_boundary_state(self, fig2):
        c = fig2.controller
        with pytest.raises(NotOnBoundaryError):
            multipliers_on_boundary(c, np.array([0.0, 4.6]))


class TestLoopTermReuse:
    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_analysis_builds_the_loop_terms_once(self, monkeypatch, name):
        # the boundary search, the interior search and the spectra all read
        # the controller's cached loop terms; none builds its own
        builds = []
        init = qp._LoopTerms.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(qp._LoopTerms, "__init__", counted)
        cfg = builtin_scenario(name)
        model = build_model(cfg)
        controller = build_controller(cfg, model, build_pairs(cfg), build_clf(cfg))
        boundary = attach_spectra(find_boundary_equilibria(controller), controller)
        interior = attach_spectra(find_interior_equilibria(controller), controller)
        assert any(r.desirability == "undesirable" for r in boundary)
        assert all(r.spectrum is not None for r in boundary + interior)
        assert len(builds) == 1


class TestCollinearityFactor:
    def test_golden_values(self, fig3):
        c = fig3.controller
        assert collinearity_factor(c, np.array([3.0, 0.0])) == -1.5
        high = collinearity_factor(c, np.array([2.5, SQ3 / 2.0]))
        low = collinearity_factor(c, np.array([2.5, -SQ3 / 2.0]))
        assert abs(high + 2.5) < 1e-13
        assert abs(low + 2.5) < 1e-13

    def test_positive_factor_is_inconclusive_not_undesirable(self, fig3):
        x = np.array([1.0, 0.0])
        delta = collinearity_factor(fig3.controller, x)
        assert delta == 0.5
        report = EquilibriumReport(x_star=x, kind="boundary", desirability="inconclusive",
                                   controller="safety-filter", multipliers=(delta,),
                                   residual=0.0)
        assert classify_desirability(report, fig3.controller) == "inconclusive"

    def test_interior_is_always_desirable(self, fig3):
        report = EquilibriumReport(x_star=np.zeros(2), kind="interior",
                                   desirability="inconclusive", controller="safety-filter",
                                   multipliers=(), residual=0.0)
        assert classify_desirability(report, fig3.controller) == "desirable"


# a plant on which every D-weighted term matters: A != 0, B != I, W != I,
# with a rank-deficient m = 1 case; the references form D = B W^{-1} B^T
# explicitly, so W^{-1} g^T taken as g^T (or D from g alone) shows up
PLANT_A = np.array([[0.3, -1.0], [0.5, -0.2]])
GENERAL_PLANTS = (
    (np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([[2.0, 0.3], [0.3, 1.0]]),
     np.array([[-1.0, 0.2], [0.1, -2.0]])),
    (np.array([[1.0], [0.4]]), np.array([[2.5]]), np.array([[-1.5, 0.3]])),
)
BALL_CENTER = np.array([0.5, 2.0])
BALL_RADIUS = 1.2
BOUNDARY_ANGLES = (0.3, 1.9, 3.4, 5.0)


def boundary_state(theta: float) -> np.ndarray:
    return BALL_CENTER + BALL_RADIUS * np.array([math.cos(theta), math.sin(theta)])


class TestFoldsOnGeneralPlant:
    def test_multipliers_match_an_explicit_two_by_two_solve(self):
        q = np.array([[3.0, 0.5], [0.5, 1.0]])
        p = 2.0
        clf = quadratic_clf(q, beta_slope=1.5)
        cbf = make_ball_cbf(BALL_CENTER, BALL_RADIUS, alpha_slope=2.0)
        for b, w, _ in GENERAL_PLANTS:
            model = linear_system(PLANT_A, b)
            d = b @ np.linalg.inv(w) @ b.T
            for theta in BOUNDARY_ANGLES:
                x = boundary_state(theta)
                grad_v = q @ x
                grad_h = 2.0 * (x - BALL_CENTER)
                fv = grad_v @ PLANT_A @ x + 1.5 * 0.5 * x @ q @ x
                fh = grad_h @ PLANT_A @ x
                a = grad_v @ d @ grad_v + 1.0 / p
                bb = grad_v @ d @ grad_h
                c = grad_h @ d @ grad_h
                ref = np.linalg.solve([[a, -bb], [-bb, c]], [fv, -fh])
                controller = ClfCbfController(model, cbf, clf, constant_matrix(w), p)
                lam1, lam2, delta_mat, det = multipliers_on_boundary(controller, x)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert abs(lam1 - ref[0]) < 1e-12 * scale
                assert abs(lam2 - ref[1]) < 1e-12 * scale
                assert np.max(np.abs(delta_mat - [[a, -bb], [-bb, c]])) < 1e-12 * max(a, c)
                assert abs(det - (a * c - bb * bb)) < 1e-12 * a * c

    def test_collinearity_factor_matches_the_projection_formula(self):
        pair = make_ball_cbf(BALL_CENTER, BALL_RADIUS)
        for b, w, gain in GENERAL_PLANTS:
            model = linear_system(PLANT_A, b, gain=gain)
            d = b @ np.linalg.inv(w) @ b.T
            for theta in BOUNDARY_ANGLES:
                x = boundary_state(theta)
                d_grad = d @ (2.0 * (x - BALL_CENTER))
                ref = d_grad @ ((PLANT_A + b @ gain) @ x) / (d_grad @ d_grad)
                controller = SafetyFilterController(model, pair, constant_matrix(w))
                delta = collinearity_factor(controller, x)
                assert abs(delta - ref) < 1e-12 * max(1.0, abs(ref))


class _DuckLoop:
    """A barrier-free loop whose unfiltered and closed-loop fields are given."""

    kind = "clf"
    cbf_pairs = ()

    def __init__(self, unfiltered, closed):
        self.unfiltered_field = unfiltered
        self.field = closed


class TestInteriorSeedLog:
    def test_failed_polish_is_logged(self, caplog):
        rootless = _DuckLoop(lambda x: x * x + 1.0, lambda x: x * x + 1.0)
        seeds = [np.array([0.5, -1.0]), np.array([2.0, 3.0])]
        with caplog.at_level(logging.WARNING, logger="barrier_lab.equilibria"):
            assert find_interior_equilibria(rootless, seeds=seeds) == []
        records = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert [r.levelno for r in records] == [logging.WARNING] * 2
        for record, seed in zip(records, seeds):
            assert "no convergence" in record.getMessage()
            assert record.args[0] is seed   # the state is formatted only if emitted

    def test_residual_gate_is_logged(self, caplog):
        # the unfiltered root at the origin is not a root of the closed loop,
        # whose field there is offset or NaN
        for closed in (lambda x: x + 1.0, lambda x: np.full(2, np.nan)):
            caplog.clear()
            loop = _DuckLoop(lambda x: x, closed)
            with caplog.at_level(logging.WARNING, logger="barrier_lab.equilibria"):
                assert find_interior_equilibria(loop, seeds=[np.array([1.0, 1.0])]) == []
            [record] = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
            assert record.levelno == logging.WARNING
            assert "residual" in record.getMessage()

    def test_unsafe_seed_is_logged_at_debug_only(self, fig3, caplog):
        seeds = [np.array([2.0, 0.0]), np.array([4.0, 1.0])]
        with caplog.at_level(logging.WARNING, logger="barrier_lab.equilibria"):
            find_interior_equilibria(fig3.controller, seeds=seeds)
        assert not [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="barrier_lab.equilibria"):
            reports = find_interior_equilibria(fig3.controller, seeds=seeds)
        assert len(reports) == 1
        [record] = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert record.levelno == logging.DEBUG
        assert "outside the safe set" in record.getMessage()
        assert record.args[0] is seeds[0]


class TestRootPolish:
    # one-row batches: fun maps states (k, n) to residuals (k, p)

    def test_high_multiplicity_root(self):
        def cubic(x):
            return (x[:, :1] - 2.0) ** 3

        [result] = polish_roots(cubic, [np.array([2.5])])
        assert result.root is not None
        assert abs(result.root[0] - 2.0) < 1e-4

    def test_regular_root_to_tight_residual(self):
        def fun(x):
            return np.stack([x[:, 0] ** 2 - 4.0, x[:, 1] + 1.0], axis=-1)

        [result] = polish_roots(fun, [np.array([1.0, 0.0])])
        assert result.root is not None
        assert np.max(np.abs(result.root - [2.0, -1.0])) < 1e-10

    def test_rootless_function_returns_none(self):
        def fun(x):
            return x[:, :1] ** 2 + 1.0

        [result] = polish_roots(fun, [np.array([3.0])])
        assert result.root is None


# The one-seed polish the batched routine replaced, kept verbatim as the
# slow path (with the per-coordinate central differences it called): the
# batched roots must equal its roots bit for bit.
def _reference_jacobian(fun, x, step=1e-5):
    delta = step * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[i] = delta
        cols.append((np.asarray(fun(x + e), dtype=float) - np.asarray(fun(x - e), dtype=float))
                    / (2.0 * delta))
    return np.stack(cols, axis=-1)


def _reference_root(fun, x0, max_iter=POLISH_MAX_ITER, tol=POLISH_TOL):
    x = np.array(x0, dtype=float)
    value = np.asarray(fun(x), dtype=float)
    for _ in range(max_iter):
        norm = float(np.linalg.norm(value))
        if not np.isfinite(norm) or norm > DIVERGE_NORM:
            return None
        jac = _reference_jacobian(fun, x)
        try:
            step = np.linalg.lstsq(jac, value, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
        if float(np.linalg.norm(step)) <= STEP_TOL * (1.0 + float(np.linalg.norm(x))):
            break
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            trial_value = np.asarray(fun(trial), dtype=float)
            if float(np.linalg.norm(trial_value)) < norm:
                break
            scale *= 0.5
        else:
            break
        x = trial
        value = trial_value
    return x if float(np.linalg.norm(value)) < tol else None


def assert_same_as_reference(results, reference):
    assert len(results) == len(reference)
    for result, root in zip(results, reference):
        assert result.converged == (root is not None)
        if root is not None:
            assert result.x.tobytes() == root.tobytes()
            assert result.root is result.x


def mixed_rows(x):
    # column 1 tags the row's problem and never moves: its residual is 0 at
    # the seed and its Jacobian column is (0, ~1), so each step keeps it
    s, tag = x[:, 0], np.round(x[:, 1])
    g = np.select([tag == 0, tag == 1, tag == 2, tag == 3, tag == 4],
                  [s - 2.0,                                  # converging
                   s * s + 1.0,                              # rootless
                   DIVERGE_NORM * 10.0 + s,                  # diverging at its seed
                   1.0 + np.where(s > 0.0, s, -3.0 * s),     # kink: no descent from 0
                   s + 7.0],                                 # lstsq fails (patched)
                  (s - 1.0) ** 3)                            # triple root: slow
    return np.stack([g, x[:, 1] - tag], axis=-1)


MIXED_SEEDS = np.array([[2.5, 0.0], [3.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0], [1.5, 5.0]])
MIXED_OUTCOMES = [("step-stalled", 1, True), ("no-descent", 10, False), ("diverged", 0, False),
                  ("no-descent", 0, False), ("singular", 0, False),
                  ("max-iterations", POLISH_MAX_ITER, True)]


class TestBatchedPolish:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig3-h2a1"])
    def test_interior_roots_match_the_one_seed_polish(self, bundles, name):
        controller = bundles(name).controller
        seeds = [s for s in _default_seed_grid(((-5.0, -5.0), (5.0, 5.0)), 5)
                 if all(float(pair.h(s)) >= 0.0 for pair in controller.cbf_pairs)]
        results = polish_roots(controller.unfiltered_field, seeds)
        reference = [_reference_root(controller.unfiltered_field, s) for s in seeds]
        assert_same_as_reference(results, reference)
        assert all(result.converged for result in results)

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_boundary_roots_match_the_one_seed_polish(self, bundles, name):
        controller = bundles(name).controller

        def one_state(x):
            return np.concatenate([np.asarray(controller.field(x), dtype=float),
                                   np.atleast_1d(np.asarray(controller.pair.h(x), dtype=float))])

        candidates = _sweep_candidates(controller, SWEEP_DEFAULT)
        assert len(candidates) >= 3
        results = polish_roots(_boundary_system(controller), candidates)
        assert_same_as_reference(results, [_reference_root(one_state, c) for c in candidates])

    def test_mixed_batch_keeps_each_rows_outcome(self, monkeypatch):
        lstsq = np.linalg.lstsq

        def failing_on_seven(a, b, rcond=None):
            if b[0] == 7.0:
                raise np.linalg.LinAlgError("SVD did not converge")
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", failing_on_seven)
        results = polish_roots(mixed_rows, MIXED_SEEDS)
        assert [(r.reason, r.iterations, r.converged) for r in results] == MIXED_OUTCOMES
        assert {r.reason for r in results} == set(STOP_REASONS)
        assert abs(results[0].x[0] - 2.0) < 1e-12 and results[0].x[1] == 0.0
        assert results[0].residual < POLISH_TOL
        assert results[2].residual > DIVERGE_NORM
        assert results[1].root is None and results[1].residual >= 1.0
        for seed, result in zip(MIXED_SEEDS, results):
            [alone] = polish_roots(mixed_rows, seed[None])
            assert (alone.reason, alone.iterations) == (result.reason, result.iterations)
            assert alone.x.tobytes() == result.x.tobytes()
            assert alone.residual == result.residual

    def test_empty_batch(self):
        assert polish_roots(mixed_rows, []) == []

    def test_counts_tally_polishes_and_drops(self, fig3):
        counts = PolishCounts()
        seeds = [np.array([2.0, 0.0]), np.array([4.0, 1.0]), np.array([-1.0, 2.0])]
        reports = find_interior_equilibria(fig3.controller, seeds=seeds, counts=counts)
        assert len(reports) == 1
        assert (counts.polished, counts.dropped) == (2, 1)
        assert counts.stops == {"step-stalled": 2}
        assert counts.iterations == sum(
            r.iterations for r in polish_roots(fig3.controller.unfiltered_field, seeds[1:]))
        find_boundary_equilibria(fig3.controller, counts=counts)
        assert counts.polished == 2 + len(_sweep_candidates(fig3.controller, SWEEP_DEFAULT))

    def test_dropped_seed_log_names_its_stop_reason(self, caplog):
        rootless = _DuckLoop(lambda x: x * x + 1.0, lambda x: x * x + 1.0)
        seed = np.array([0.5, -1.0])
        [result] = polish_roots(rootless.unfiltered_field, [seed])
        with caplog.at_level(logging.WARNING, logger="barrier_lab.equilibria"):
            find_interior_equilibria(rootless, seeds=[seed])
        [record] = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert record.args[0] is seed
        message = record.getMessage()
        assert "no convergence" in message
        assert "(%s after %d iterations" % (result.reason, result.iterations) in message


class TestOrderingAndGuards:
    def test_sort_key_absorbs_polish_noise(self):
        a = state_sort_key(np.array([1.0000000001, 0.0]))
        b = state_sort_key(np.array([1.0, -0.0]))
        assert a == b
        assert state_sort_key(np.array([1.00000001, 0.0])) != b

    def test_sort_key_orders_lexicographically(self):
        pts = [np.array([3.0, 0.0]), np.array([2.5, 0.5]), np.array([2.5, -0.5])]
        ordered = sorted(pts, key=state_sort_key)
        assert [tuple(p) for p in ordered] == [(2.5, -0.5), (2.5, 0.5), (3.0, 0.0)]

    def test_barrier_free_controller_has_no_boundary(self, fig2):
        with pytest.raises(PreconditionError):
            find_boundary_equilibria(fig2.unfiltered)
