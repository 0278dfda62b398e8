"""End-to-end checks of the package's headline guarantees.

Each test exercises one guarantee at its stated tolerance: golden equilibrium
sets with stability labels, invariance across barrier reparametrizations,
the controllers' closed-form laws against the reference solver,
equivalence-relation axioms, and closed-loop safety of the filtered scenarios.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from barrier_lab import (
    TransformStep,
    attach_spectra,
    boundary_field_difference,
    build_clf,
    build_controller,
    build_model,
    build_pairs,
    central_difference_jacobian,
    comparison_config,
    compose_transforms,
    default_boundary_samples,
    find_boundary_equilibria,
    find_interior_equilibria,
    hausdorff_distance,
    hessian_equivalence,
    integrate,
    integrate_batch,
    invariance_audit,
    quadratic_map,
    quadratic_offset_map,
    roa_grid,
    solve_small_qp,
    spectral_invariance_check,
)
from barrier_lab.artifacts import write_csv
from conftest import barrier_slack, max_certificate_error, separatrix, separatrix_sides
from roa_label_gate import BASIN_ATTRACTORS, BASIN_BOX, GOLDEN

SQ3 = math.sqrt(3.0)
FIG3_FAMILY = ("fig3", "fig3-h2a1", "fig3-h1a2", "fig3-h2a2")


def undesirable(reports):
    return [r for r in reports if r.desirability == "undesirable"]


def match(reports, target, tol):
    gaps = [float(np.linalg.norm(r.x_star - target)) for r in reports]
    assert min(gaps) < tol
    return reports[int(np.argmin(gaps))]


class TestGoldenEquilibria:
    def test_obstacle_scenario_set_and_stability(self, fig3):
        start = time.monotonic()
        boundary = attach_spectra(find_boundary_equilibria(fig3.controller), fig3.controller)
        interior = attach_spectra(find_interior_equilibria(fig3.controller), fig3.controller)
        elapsed = time.monotonic() - start
        bad = undesirable(boundary)
        expected = [np.array([2.5, -SQ3 / 2.0]), np.array([2.5, SQ3 / 2.0]),
                    np.array([3.0, 0.0])]
        assert len(bad) == 3
        found = sorted(bad, key=lambda r: tuple(r.x_star))
        for r, x in zip(found, expected):
            assert float(np.linalg.norm(r.x_star - x)) < 1e-6
        assert match(found, np.array([3.0, 0.0]), 1e-6).stability == "asymptotically-stable"
        assert match(found, expected[0], 1e-6).stability == "saddle"
        assert match(found, expected[1], 1e-6).stability == "saddle"
        assert len(interior) == 1
        assert float(np.linalg.norm(interior[0].x_star)) < 1e-6
        assert interior[0].desirability == "desirable"
        assert elapsed < 5.0

    def test_tracking_scenario_set_and_stability(self, fig2):
        start = time.monotonic()
        boundary = attach_spectra(find_boundary_equilibria(fig2.controller), fig2.controller)
        elapsed = time.monotonic() - start
        bad = undesirable(boundary)
        root = math.sqrt(1.89)
        expected = [np.array([-root, 3.6]), np.array([0.0, 4.5]), np.array([root, 3.6])]
        assert len(bad) == 3
        for x in expected:
            match(bad, x, 1e-6)
        assert match(bad, np.array([0.0, 4.5]), 1e-6).stability == "asymptotically-stable"
        assert match(bad, expected[0], 1e-6).stability == "saddle"
        assert match(bad, expected[2], 1e-6).stability == "saddle"
        assert elapsed < 5.0


class TestBarrierInvariance:
    def test_equilibrium_sets_agree_pairwise(self, analyzed):
        sets = []
        for name in FIG3_FAMILY:
            boundary, _ = analyzed(name)
            sets.append([r.x_star for r in undesirable(boundary)])
        assert all(len(s) == 3 for s in sets)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert hausdorff_distance(sets[i], sets[j]) < 1e-6

    def test_reduced_spectra_agree(self, bundles, analyzed):
        base_b = bundles("fig3")
        base, _ = analyzed("fig3")
        base_bad = undesirable(base)
        base_alpha = float(base_b.pair.alpha.deriv(0.0))
        for name in FIG3_FAMILY[1:]:
            other_b = bundles(name)
            other, _ = analyzed(name)
            other_alpha = float(other_b.pair.alpha.deriv(0.0))
            assert -base_alpha in (-1.0, -10.0) and -other_alpha in (-1.0, -10.0)
            for r in undesirable(other):
                partner = match(base_bad, r.x_star, 1e-3)
                assert partner.spectrum.known_factor_root == -base_alpha
                assert r.spectrum.known_factor_root == -other_alpha
                verdict = spectral_invariance_check(partner.spectrum, r.spectrum)
                assert verdict.max_relative_difference < 1e-7
                assert verdict.passed
                assert max(verdict.identity_residuals) < 1e-6

        config = comparison_config("fig2")
        model = build_model(config)
        pairs = build_pairs(config)
        clf = build_clf(config)
        controllers = [build_controller(config, model, pairs, clf, cbf_index=i)
                       for i in range(2)]
        reports = [attach_spectra(undesirable(find_boundary_equilibria(c)), c)
                   for c in controllers]
        alphas = [float(c.pair.alpha.deriv(0.0)) for c in controllers]
        assert [-a for a in alphas] == [-1.0, -10.0]
        assert len(reports[0]) == len(reports[1]) == 3
        for r in reports[1]:
            partner = match(reports[0], r.x_star, 1e-3)
            verdict = spectral_invariance_check(partner.spectrum, r.spectrum)
            assert verdict.max_relative_difference < 1e-7
            assert verdict.passed

    def test_boundary_fields_agree(self, bundles):
        samples = default_boundary_samples(bundles("fig3").pair, 512)
        for name in FIG3_FAMILY[1:]:
            diff = boundary_field_difference(bundles(name).controller,
                                             bundles("fig3").controller, samples)
            assert diff < 1e-9
        config = comparison_config("fig2")
        model = build_model(config)
        pairs = build_pairs(config)
        clf = build_clf(config)
        controllers = [build_controller(config, model, pairs, clf, cbf_index=i)
                       for i in range(2)]
        samples2 = default_boundary_samples(pairs[0], 512)
        assert boundary_field_difference(controllers[0], controllers[1], samples2) < 1e-9


class TestJacobianAccuracy:
    def test_closed_form_matches_finite_differences(self, bundles, analyzed):
        for name in FIG3_FAMILY + ("fig2",):
            bundle = bundles(name)
            boundary, _ = analyzed(name)
            slope = float(bundle.pair.alpha.deriv(0.0))
            assert undesirable(boundary)
            for r in undesirable(boundary):
                fd = central_difference_jacobian(
                    lambda s: np.asarray(bundle.controller.field(s), dtype=float),
                    r.x_star, step=1e-5)
                assert np.max(np.abs(fd - r.jacobian)) < 1e-5
                grad = np.asarray(bundle.pair.grad_h(r.x_star), dtype=float)
                assert np.max(np.abs(grad @ r.jacobian + slope * grad)) < 1e-8


class TestSolverAgreement:
    def test_explicit_laws_match_reference_solver(self, bundles):
        for name in FIG3_FAMILY + ("fig2",):
            bundle = bundles(name)
            states = bundle.safe_states(1000, seed=bundle.config.seed + 1)
            controller = bundle.controller
            problem = controller.problem()
            if controller.kind == "safety-filter":
                for x in states:
                    mine = controller.point(x)
                    point = solve_small_qp(problem, x)
                    assert np.max(np.abs(mine.u - point.u)) < 1e-10
                    assert max_certificate_error(problem, x, point) < 1e-9
                    assert max_certificate_error(problem, x, mine) < 1e-9
            else:
                clf_problem_obj = bundle.unfiltered.problem()
                for x in states:
                    point = controller.point(x)
                    other = solve_small_qp(problem, x)
                    assert np.max(np.abs(point.u - other.u)) < 1e-10
                    assert abs(point.delta - other.delta) < 1e-10
                    assert max_certificate_error(problem, x, point) < 1e-9
                    assert max_certificate_error(problem, x, other) < 1e-9
                    mine = bundle.unfiltered.point(x)
                    ref = solve_small_qp(clf_problem_obj, x)
                    assert np.max(np.abs(mine.u - ref.u)) < 1e-10
                    assert max_certificate_error(clf_problem_obj, x, mine) < 1e-9


class TestMinimalIntervention:
    def test_inactive_filter_passes_nominal_through(self, bundles):
        for name in FIG3_FAMILY:
            bundle = bundles(name)
            controller = bundle.controller
            pool = bundle.safe_states(32768, seed=77)
            eta = barrier_slack(controller.pair, pool, controller.unfiltered_field(pool))
            slack = pool[eta > 1e-6][:512]
            assert slack.shape[0] == 512
            filtered = np.asarray(controller.field(slack), dtype=float)
            nominal = np.asarray(controller.unfiltered_field(slack), dtype=float)
            assert np.max(np.abs(filtered - nominal)) < 1e-10

    def test_inactive_cbf_row_leaves_clf_law_alone(self, fig2):
        controller = fig2.controller
        pool = fig2.safe_states(4096, seed=78)
        u_unf, drift, _, _ = fig2.unfiltered.evaluate(pool)
        slack_val = barrier_slack(controller.pair, pool, drift)
        keep = pool[slack_val > 1e-6][:512]
        kept_u = u_unf[slack_val > 1e-6][:512]
        assert keep.shape[0] == 512
        constrained = np.asarray(controller.evaluate(keep)[0], dtype=float)
        assert np.max(np.abs(constrained - kept_u)) < 1e-10


class TestEquivalenceAxioms:
    def test_golden_pair_fit(self, fig3, fig3_h2a1):
        report = hessian_equivalence(fig3.pair, fig3_h2a1.pair)
        assert report.verdict == "equivalent-within-tol"
        assert float(np.max(report.hessian_residual)) < 1e-8
        corner = hessian_equivalence(fig3.pair, fig3_h2a1.pair,
                                     samples=np.array([[3.0, 0.0]]))
        assert abs(float(corner.zeta[0]) - 6.0) < 1e-10
        assert np.max(np.abs(corner.zeta_tilde[0] - [-4.0, -2.0])) < 1e-10

    def test_relation_axioms_over_seeded_chains(self, fig3):
        samples = default_boundary_samples(fig3.pair, 64)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            steps = []
            for _ in range(2):
                steps.append(TransformStep(
                    a=float(rng.uniform(0.5, 3.0)),
                    b=float(rng.uniform(0.0, 2.0)),
                    gamma=quadratic_map(float(rng.uniform(0.5, 2.0)),
                                        float(rng.uniform(-0.5, 0.5))),
                    eta=quadratic_offset_map(rng.uniform(-2.0, 2.0, size=2),
                                             float(rng.uniform(0.5, 2.0))),
                ))
            h1 = fig3.pair
            h2 = compose_transforms(h1, steps[:1])
            h3 = compose_transforms(h1, steps)
            r11 = hessian_equivalence(h1, h1, samples=samples)
            r12 = hessian_equivalence(h1, h2, samples=samples)
            r21 = hessian_equivalence(h2, h1, samples=samples, tol=1e-6)
            r23 = hessian_equivalence(h2, h3, samples=samples, tol=1e-6)
            r13 = hessian_equivalence(h1, h3, samples=samples, tol=1e-6)
            for r in (r11, r12, r21, r23, r13):
                assert r.verdict == "equivalent-within-tol"
            assert np.max(np.abs(r11.zeta - 1.0)) < 1e-10
            assert np.max(np.abs(r12.zeta * r21.zeta - 1.0)) < 1e-8
            scale = np.maximum(1.0, np.abs(r13.zeta))
            assert np.max(np.abs(r12.zeta * r23.zeta - r13.zeta) / scale) < 1e-8


class TestClosedLoopSafety:
    def test_filtered_scenarios_stay_safe_and_nominal_does_not(self, bundles):
        start = time.monotonic()
        lap = start
        elapsed = {}
        for name in FIG3_FAMILY + ("fig2",):
            bundle = bundles(name)
            ics = bundle.safe_states(100, seed=2026)
            trajectories = integrate_batch(bundle.controller, ics, t_final=20.0, dt=1e-3)
            worst = min(t.min_h for t in trajectories)
            assert worst >= -1e-6, "%s dipped to h = %g" % (name, worst)
            now = time.monotonic()
            elapsed[name], lap = now - lap, now
        nominal = integrate(bundles("fig3").unfiltered, np.array([2.5, 0.01]),
                            t_final=20.0, dt=1e-3)
        min_h, verdict = invariance_audit(nominal, bundles("fig3").pair)
        assert verdict == "fail"
        assert min_h < -0.5
        total = time.monotonic() - start
        elapsed["nominal"] = total - sum(elapsed.values())
        assert total < 60.0, "took %.1f s in total: %s" % (
            total, ", ".join("%s %.1f s" % item for item in elapsed.items()))


BASIN_CELL = (BASIN_BOX[0][1] - BASIN_BOX[0][0]) / 12    # spacing of the 13 x 13 grid
NEAR_CURVE = 1e-2   # a node this close to a separatrix is exempt from the side check


@pytest.fixture(scope="module")
def basin_grids(bundles):
    """TestBasinShift's 13 x 13 grids at t_final = 20, integrated once for the module."""
    return {name: roa_grid(bundles(name).controller, BASIN_BOX, 13,
                           [np.array(a) for a in BASIN_ATTRACTORS], t_final=20.0, dt=1e-3)
            for name in ("fig3", "fig3-h2a1")}


@pytest.fixture(scope="module")
def separatrices(bundles, analyzed):
    """Per scenario: its saddles' separatrices and its stable boundary equilibrium."""
    out = {}
    for name in ("fig3", "fig3-h2a1"):
        boundary, _ = analyzed(name)
        saddles = sorted((r for r in boundary if r.stability == "saddle"),
                         key=lambda r: r.x_star[1])
        stable = [r.x_star for r in boundary if r.stability == "asymptotically-stable"]
        assert len(saddles) == 2 and len(stable) == 1
        out[name] = [separatrix(bundles(name).controller, r) for r in saddles], stable[0]
    return out


class TestBasinShift:
    def test_barrier_choice_moves_the_basin_boundary(self, basin_grids, tmp_path):
        counts = {}
        for name in ("fig3", "fig3-h2a1"):
            grid = basin_grids[name]
            path = tmp_path / ("%s-roa.csv" % name)
            write_csv(str(path), ["x1", "x2", "label"], [*grid.points.T, grid.labels])
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 169
            tally = {}
            for row in rows:
                tally[row["label"]] = tally.get(row["label"], 0) + 1
            counts[name] = tally
        base = counts["fig3"]
        moved = counts["fig3-h2a1"]
        assert base["unsafe-start"] == moved["unsafe-start"]
        assert moved["converged-to(0;0)"] > base["converged-to(0;0)"]
        assert moved["converged-to(3;0)"] < base["converged-to(3;0)"]
        assert sum(base.values()) == sum(moved.values()) == 169

    def test_labels_equal_the_golden_labels(self, basin_grids, fig3):
        golden = json.loads(GOLDEN.read_text())["labels"]
        for name, grid in basin_grids.items():
            assert grid.labels == tuple(golden[name + "@20"])
        # at these horizons no row gets within CONV_RADIUS in time: every safe
        # row ends max-time, also those that start inside a certified region
        for t_final in (2.0, 5.0):
            grid = roa_grid(fig3.controller, BASIN_BOX, 13,
                            [np.array(a) for a in BASIN_ATTRACTORS], t_final=t_final, dt=1e-3)
            assert grid.labels == tuple(golden["fig3@%g" % t_final])

    def test_labels_match_the_separatrix_sides(self, basin_grids, separatrices):
        # the basin of the stable boundary equilibrium is the side of both
        # saddles' separatrices it lies on; every other safe node reaches the origin
        for name, grid in basin_grids.items():
            curves, stable = separatrices[name]
            inside = separatrix_sides(curves, [stable])[0][0]
            safe = [i for i, label in enumerate(grid.labels) if label != "unsafe-start"]
            sides, distances = separatrix_sides(curves, grid.points[safe])
            assert int(np.sum(distances < NEAR_CURVE)) == 0
            expected = ["converged-to(3;0)" if np.array_equal(side, inside)
                        else "converged-to(0;0)" for side in sides]
            assert [grid.labels[i] for i in safe] == expected

    def test_barrier_choice_moves_the_separatrix_by_more_than_a_cell(self, separatrices):
        # the upper separatrix leaves ||x||_inf <= 8 at x1 ~ 2.57 (fig3), ~ 4.68 (fig3-h2a1)
        exits = {name: curves[1][-1][0] for name, (curves, _) in separatrices.items()}
        assert exits["fig3-h2a1"] - exits["fig3"] > BASIN_CELL
