"""Equilibrium search, boundary multipliers, desirability classification."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from barrier_lab import (
    ClfCbfController,
    EquilibriumReport,
    NominalClosedLoop,
    NotOnBoundaryError,
    PolishCounts,
    PreconditionError,
    SafeSetGeometry,
    SafetyFilterController,
    StrictFeasibilityError,
    SystemModel,
    attach_spectra,
    classify_desirability,
    collinearity_factor,
    constant_matrix,
    find_boundary_equilibria,
    find_interior_equilibria,
    linear_map,
    linear_system,
    make_ball_cbf,
    multipliers_on_boundary,
    polish_roots,
    quadratic_clf,
)
from barrier_lab import qp
from barrier_lab.config import (build_clf, build_controller, build_model, build_pairs,
                                builtin_scenario, comparison_config)
from barrier_lab.equilibria import (
    DIVERGE_NORM,
    POLISH_MAX_ITER,
    POLISH_TOL,
    STEP_TOL,
    STOP_REASONS,
    SWEEP_DEFAULT,
    RESIDUAL_TOL,
    _default_seed_grid,
    state_sort_key,
)
from barrier_lab.equivalence import hausdorff_distance

SQ3 = math.sqrt(3.0)
COORD_TOL = 1e-9
FIG3_BOUNDARY = np.array([[2.5, -SQ3 / 2.0], [2.5, SQ3 / 2.0], [3.0, 0.0]])
FIG2_BOUNDARY = np.array([[-math.sqrt(1.89), 3.6], [0.0, 4.5], [math.sqrt(1.89), 3.6]])
MULT_TOL = 1e-8


def coords(reports):
    return np.array([r.x_star for r in reports])


class TestObstacleAvoidanceEquilibria:
    # gain diag(-1, -5) toward the origin, unit ball obstacle at (2, 0)

    def test_boundary_set_and_order(self, analyzed):
        boundary, _ = analyzed("fig3")
        assert coords(boundary).shape == (3, 2)
        assert np.max(np.abs(coords(boundary) - FIG3_BOUNDARY)) < COORD_TOL
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
        assert coords(boundary).shape == (3, 2)
        assert np.max(np.abs(coords(boundary) - FIG2_BOUNDARY)) < COORD_TOL
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


DOUBLE_ROOT = np.array([math.cos(0.3), math.sin(0.3)])   # between the samples of any sweep


class _DuckBoundaryLoop:
    """A loop around the unit ball at the origin whose closed-loop field is given."""

    kind = "clf"

    def __init__(self, field):
        self.pair = make_ball_cbf((0.0, 0.0), 1.0)
        self.field = self.unfiltered_field = field


def rotated(scale):
    """field(x) = scale(x) (-x1, x0): on the unit circle, tau^T field = scale."""
    def field(x):
        x = np.asarray(x, dtype=float)
        return scale(x)[..., None] * np.stack([-x[..., 1], x[..., 0]], axis=-1)

    return field


class TestBracketSearch:
    @pytest.mark.parametrize("name, expected", [("fig3", FIG3_BOUNDARY), ("fig2", FIG2_BOUNDARY)])
    def test_coarse_sweep_finds_every_boundary_equilibrium(self, bundles, name, expected):
        reports = find_boundary_equilibria(bundles(name).controller, sweep=8)
        assert coords(reports).shape == (3, 2)
        assert np.max(np.abs(coords(reports) - expected)) < COORD_TOL
        assert all(r.residual < RESIDUAL_TOL for r in reports)

    def test_fig3_barriers_give_the_same_boundary_set(self):
        # the search reads the field on dS only, where every barrier of the
        # safe set gives the same closed loop
        cfg = comparison_config("fig3")
        model, pairs, clf = build_model(cfg), build_pairs(cfg), build_clf(cfg)
        sets = [coords(find_boundary_equilibria(
                    build_controller(cfg, model, pairs, clf, cbf_index=i)))
                for i in range(len(pairs))]
        assert len(sets) == 4 and all(points.shape == (3, 2) for points in sets)
        assert max(hausdorff_distance(sets[0], other) for other in sets[1:]) < 1e-15

    @pytest.mark.parametrize("name, point, residual",
                             [("fig3", (1.0, 0.0), 1.0), ("fig2", (0.0, 1.5), 0.519231)])
    def test_rejected_bracket_is_logged_and_counted(self, bundles, caplog, name, point,
                                                    residual):
        # a sign change where the row is inactive: the field is normal to dS
        counts = PolishCounts()
        with caplog.at_level(logging.DEBUG, logger="barrier_lab.equilibria"):
            reports = find_boundary_equilibria(bundles(name).controller, counts=counts)
        assert len(reports) == 3
        [record] = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert record.levelno == logging.DEBUG
        assert "dropped" in record.getMessage()
        assert np.max(np.abs(record.args[0] - point)) < COORD_TOL
        assert abs(record.args[1] - residual) < 1e-6
        assert counts.dropped == 1

    def test_sample_on_a_zero_is_reported_once(self, fig3):
        # (3, 0) is the sample at theta = 0, the end of two brackets
        controller = fig3.controller
        x, tangent = controller.pair.geometry.boundary_at(np.zeros(1))
        assert np.array_equal(x, [[3.0, 0.0]])
        assert float(np.sum(tangent * controller.field(x))) == 0.0
        reports = find_boundary_equilibria(controller)
        assert [tuple(r.x_star) for r in reports].count((3.0, 0.0)) == 1
        assert len(reports) == 3

    def test_tangential_zero_without_a_sign_change_is_not_found(self, caplog):
        # tau^T field = ||x - p||^2 >= 0 touches 0 where the field vanishes;
        # sin(theta - 0.3) has the same zero as a sign change, and is found
        touching = _DuckBoundaryLoop(rotated(lambda x: np.sum((x - DOUBLE_ROOT) ** 2, axis=-1)))
        assert np.linalg.norm(touching.field(DOUBLE_ROOT)) == 0.0
        counts = PolishCounts()
        with caplog.at_level(logging.DEBUG, logger="barrier_lab.equilibria"):
            assert find_boundary_equilibria(touching, counts=counts) == []
        assert not [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert counts.dropped == 0
        crossing = _DuckBoundaryLoop(rotated(
            lambda x: x[..., 1] * DOUBLE_ROOT[0] - x[..., 0] * DOUBLE_ROOT[1]))
        found = coords(find_boundary_equilibria(crossing))
        assert np.max(np.abs(found - [-DOUBLE_ROOT, DOUBLE_ROOT])) < COORD_TOL


def no_cbf_filter():
    """A filter loop where h is not a CBF: at x = (2, -1), g^T grad_h = 0 and eta = -6."""
    model = linear_system(np.array([[0.0, 0.0], [1.0, -1.0]]), np.array([[1.0], [0.0]]),
                          gain=np.array([[-1.0, 0.0]]))
    return SafetyFilterController(model, make_ball_cbf((2.0, 0.0), 1.0))


def raised_point(controller, sweep):
    """(theta, x, eta, ||g^T grad_h||) named by the search's StrictFeasibilityError."""
    with pytest.raises(StrictFeasibilityError) as excinfo:
        find_boundary_equilibria(controller, sweep=sweep)
    number = r"(-?[\d.e+-]+|nan|inf)"
    match = re.search(r"theta = %s, x = \[%s, %s\].*eta = %s, \|\|g\^T grad_h\|\| = %s"
                      % ((number,) * 5), str(excinfo.value))
    assert match, str(excinfo.value)
    values = [float(v) for v in match.groups()]
    return values[0], np.array(values[1:3]), values[3], values[4]


class TestCbfCondition:
    # the analysis assumes h is a CBF: wherever the row binds some input meets
    # it; a boundary point where none does makes the field NaN, and the search
    # raises there instead of dropping the point without a word

    def test_filter_sample_without_an_input_raises(self):
        # the default sweep samples theta = 3 pi / 2 (sample 1536 of 2048)
        theta, x, eta, normal = raised_point(no_cbf_filter(), SWEEP_DEFAULT)
        assert theta == 1.5 * math.pi
        assert np.max(np.abs(x - [2.0, -1.0])) < 1e-15
        assert eta == -6.0
        assert normal < 1e-15

    def test_refinement_point_without_an_input_raises(self):
        # seven samples miss 3 pi / 2; tau^T field changes sign through a pole
        # there, and regula falsi walks into it
        theta, x, eta, normal = raised_point(no_cbf_filter(), 7)
        assert not np.any(np.isclose(theta, 2.0 * math.pi * np.arange(7) / 7))
        assert abs(theta - 1.5 * math.pi) < 1e-9
        assert np.max(np.abs(x - [2.0, -1.0])) < 1e-9
        assert eta == -6.0
        assert normal < 1e-9

    def test_clf_cbf_sample_without_an_input_raises(self):
        model = linear_system(np.diag([-1.0, 0.0]), np.array([[0.0], [1.0]]))
        controller = ClfCbfController(model, make_ball_cbf((2.0, 0.0), 1.0),
                                      quadratic_clf(np.eye(2)))
        theta, x, eta, normal = raised_point(controller, SWEEP_DEFAULT)
        assert theta == 0.0
        assert np.array_equal(x, [3.0, 0.0])
        assert eta == -6.0
        assert normal == 0.0


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

    def test_rejects_a_boundary_state_where_g_grad_h_vanishes(self, fig2):
        # B = (1, 0)^T: at the top of fig2's ball, grad_h is normal to the input
        plant = linear_system(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
        c = ClfCbfController(plant, fig2.pair, quadratic_clf(np.diag([6.0, 1.0])))
        with pytest.raises(StrictFeasibilityError) as excinfo:
            multipliers_on_boundary(c, np.array([0.0, 4.5]))
        assert excinfo.type is StrictFeasibilityError
        assert str(excinfo.value) == "||g^T grad_h|| vanishes on the boundary"

    def test_law_gives_the_same_bits_at_each_undesirable_equilibrium(self, fig2, analyzed):
        # the law's both-rows case and multipliers_on_boundary read the same
        # floats (qp._both_rows), so at fig2's undesirable boundary equilibria
        # evaluate marks both rows active and returns the same multipliers
        boundary, _ = analyzed("fig2")
        assert len(boundary) == 3
        for report in boundary:
            _, _, multipliers, code = fig2.controller.evaluate(report.x_star)
            assert int(code) == 3
            assert tuple(multipliers.tolist()) == multipliers_on_boundary(
                fig2.controller, report.x_star)[:2]


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

    def test_rejects_a_state_where_d_grad_h_vanishes(self, fig3):
        # B = (1, 0)^T: at the top of fig3's ball, grad_h is normal to the input
        plant = linear_system(np.zeros((2, 2)), np.array([[1.0], [0.0]]),
                              gain=np.array([[-1.0, 0.0]]))
        c = SafetyFilterController(plant, fig3.pair)
        with pytest.raises(StrictFeasibilityError) as excinfo:
            collinearity_factor(c, np.array([2.0, 1.0]))
        assert excinfo.type is StrictFeasibilityError
        assert str(excinfo.value) == "D grad_h vanishes; no collinearity factor"

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
        clf = quadratic_clf(q, beta=linear_map(1.5))
        cbf = make_ball_cbf(BALL_CENTER, BALL_RADIUS, alpha=linear_map(2.0))
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
    pair = None

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

    def test_root_outside_the_safe_set_is_logged_at_debug_and_counted(self, fig3, caplog):
        # fig3's plant behind a unit ball at the origin: the seed (2, 0) is
        # safe, but the unfiltered loop's root, the origin, lies inside the ball
        controller = SafetyFilterController(fig3.model, make_ball_cbf((0.0, 0.0), 1.0))
        seed = np.array([2.0, 0.0])
        counts = PolishCounts()
        with caplog.at_level(logging.DEBUG, logger="barrier_lab.equilibria"):
            assert find_interior_equilibria(controller, seeds=[seed], counts=counts) == []
        [record] = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        assert record.levelno == logging.DEBUG
        assert "is not inside the safe set" in record.getMessage()
        assert record.args[0] is seed
        assert counts.polished == 1 and counts.dropped == 1

    def test_distinct_roots_are_reported_apart(self):
        # f = (x1^2 - 1, -x2) has two roots, (-1, 0) and (1, 0); the field
        # between them is not small, so they are two equilibria, not one
        def f(x):
            return np.stack([x[..., 0] ** 2 - 1.0, -x[..., 1]], axis=-1)

        def jf(x):
            jac = np.zeros(np.shape(x) + (2,))
            jac[..., 0, 0] = 2.0 * x[..., 0]
            jac[..., 1, 1] = -1.0
            return jac

        model = SystemModel(n=2, m=2, f=f, g=constant_matrix(np.eye(2)), jf=jf,
                            k=np.zeros_like)
        seeds = [np.array(s) for s in ((2.0, 1.0), (0.5, -0.3), (-2.0, -1.0), (-0.5, 2.0))]
        reports = find_interior_equilibria(NominalClosedLoop(model), seeds=seeds)
        assert np.max(np.abs(coords(reports) - [[-1.0, 0.0], [1.0, 0.0]])) < COORD_TOL


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
                 if float(controller.pair.h(s)) >= 0.0]
        results = polish_roots(controller.unfiltered_field, seeds)
        reference = [_reference_root(controller.unfiltered_field, s) for s in seeds]
        assert_same_as_reference(results, reference)
        assert all(result.converged for result in results)

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
        # the boundary search polishes nothing; it drops the bracket at (1, 0)
        find_boundary_equilibria(fig3.controller, counts=counts)
        assert (counts.polished, counts.dropped) == (2, 2)

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

    def test_interior_search_needs_seeds(self, fig3):
        with pytest.raises(PreconditionError) as excinfo:
            find_interior_equilibria(fig3.controller, seeds=[])
        assert excinfo.type is PreconditionError
        assert str(excinfo.value) == "interior search needs a nonempty seed set"

    def test_candidate_off_the_barrier_zero_set_is_logged_and_counted(self, fig2, caplog):
        # a geometry that disagrees with h: the unit circle at (0, 1) passes
        # through the origin, where fig2's field vanishes but h = -3.375
        geometry = SafeSetGeometry(kind="ball-complement-2d", center=(0.0, 1.0), radius=1.0)
        pair = dataclasses.replace(fig2.pair, geometry=geometry)
        controller = ClfCbfController(fig2.model, pair, fig2.clf)
        counts = PolishCounts()
        with caplog.at_level(logging.DEBUG, logger="barrier_lab.equilibria"):
            assert find_boundary_equilibria(controller, counts=counts) == []
        records = [r for r in caplog.records if r.name == "barrier_lab.equilibria"]
        [error] = [r for r in records if r.levelno == logging.ERROR]
        assert re.fullmatch(r"boundary candidate at \S.* rejected: \|h\(x\)\| = 3\.375"
                            r" is not below 1e-09", error.getMessage())
        # one line per drop: the rejected candidate and each bracket off a zero
        assert counts.dropped == len(records) > 1
