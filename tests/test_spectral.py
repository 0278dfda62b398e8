"""Characteristic polynomials, closed-form Jacobians, reduced-spectrum checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from barrier_lab import (
    AssumptionViolationError,
    BarrierPair,
    ClfCbfController,
    PreconditionError,
    SafetyFilterController,
    SystemModel,
    attach_spectra,
    central_difference_jacobian,
    constant_d_matrix,
    constant_matrix,
    eigen_and_classify,
    find_boundary_equilibria,
    jacobian_clf_cbf_boundary,
    jacobian_safety_filter_boundary,
    linear_system,
    make_ball_cbf,
    quadratic_clf,
    spectral_invariance_check,
    stability_label,
)
from barrier_lab import spectral
from barrier_lab.config import (BUILTIN_SCENARIOS, build_clf, build_controller, build_model,
                                build_pairs, builtin_scenario, comparison_config)
from barrier_lab.model import constant_value, linear_map
from conftest import boundary_slope, reference_evaluation

SQ3 = math.sqrt(3.0)


class TestPolynomialUnits:
    def test_char_poly_upper_triangular(self):
        coeffs = eigen_and_classify(np.array([[2.0, 1.0], [0.0, 3.0]])).char_poly
        assert np.max(np.abs(np.array(coeffs) - [1.0, -5.0, 6.0])) < 1e-12

    def test_char_poly_matches_reference_on_random_matrices(self):
        # complex eigenvalues included: the stored polynomial stays real
        rng = np.random.default_rng(7)
        for _ in range(20):
            mat = rng.uniform(-2.0, 2.0, size=(4, 4))
            mine = eigen_and_classify(mat).char_poly
            assert all(type(c) is float for c in mine)
            ref = np.poly(mat)
            assert np.max(np.abs(mine - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_eigenvalues_sort_by_real_then_imaginary_part(self):
        mat = np.zeros((4, 4))
        mat[:2, :2] = [[0.0, -2.0], [2.0, 0.0]]
        mat[2:, 2:] = np.diag([3.0, -1.0])
        eigenvalues = eigen_and_classify(mat).eigenvalues
        assert np.max(np.abs(np.array(eigenvalues) - [-1.0, -2.0j, 2.0j, 3.0])) < 1e-12

    def test_known_factor_divides_exactly(self):
        # e1 is the left eigenvector of eigenvalue 1; the tangent block is diag(2, 3)
        result = eigen_and_classify(np.diag([1.0, 2.0, 3.0]), alpha_prime0=-1.0,
                                    grad_h=np.array([1.0, 0.0, 0.0]))
        assert result.known_factor_root == 1.0
        assert np.max(np.abs(np.array(result.reduced_eigenvalues) - [2.0, 3.0])) < 1e-12
        assert result.identity_residual == 0.0

    def test_known_factor_remainder_is_value_at_root(self):
        # the residual measures how far grad_h is from a left eigenvector of the root
        jac = np.diag([1.0, 2.0, 3.0])
        result = eigen_and_classify(jac, alpha_prime0=-4.0, grad_h=np.array([2.0, 0.0, 0.0]))
        assert abs(result.identity_residual - 3.0) < 1e-12
        # ||(1, 2, 0) - 4 (1, 1, 0)|| / ||(1, 1, 0)|| = sqrt(13 / 2)
        result = eigen_and_classify(jac, alpha_prime0=-4.0, grad_h=np.array([1.0, 1.0, 0.0]))
        assert abs(result.identity_residual - math.sqrt(6.5)) < 1e-12

    def test_known_factor_needs_its_gradient(self):
        with pytest.raises(PreconditionError):
            eigen_and_classify(np.diag([1.0, 2.0]), alpha_prime0=-1.0)
        with pytest.raises(PreconditionError):
            eigen_and_classify(np.diag([1.0, 2.0]), grad_h=np.array([1.0, 0.0]))

    def test_nan_jacobian_raises_at_once(self):
        with pytest.raises(np.linalg.LinAlgError):
            eigen_and_classify(np.array([[np.nan, 0.0], [0.0, -1.0]]), alpha_prime0=1.0,
                               grad_h=np.array([1.0, 0.0]))

    def test_stability_labels(self):
        assert stability_label([-1.0, -2.0]) == "asymptotically-stable"
        assert stability_label([-1.0, 3.0]) == "saddle"
        assert stability_label([1.0, 2.0]) == "unstable"
        assert stability_label([-1.0, 1e-12]) == "inconclusive"
        assert stability_label([]) == "inconclusive"
        assert stability_label([complex(-0.5, 4.0), complex(-0.5, -4.0)]) == "asymptotically-stable"

    def test_eigen_and_classify_with_known_factor(self):
        result = eigen_and_classify(np.diag([-1.0, -2.0]), alpha_prime0=1.0,
                                    grad_h=np.array([1.0, 0.0]))
        assert result.known_factor_root == -1.0
        assert np.max(np.abs(np.array(result.reduced_eigenvalues) - [-2.0])) < 1e-10
        assert abs(result.identity_residual) < 1e-10
        assert result.stability == "asymptotically-stable"
        assert np.max(np.abs(np.array(result.eigenvalues) - [-2.0, -1.0])) < 1e-10

    def test_eigen_and_classify_without_factor(self):
        result = eigen_and_classify(np.diag([-1.0, -2.0]))
        assert result.known_factor_root is None
        assert result.reduced_eigenvalues is None
        assert result.identity_residual is None


class TestGoldenJacobians:
    def test_obstacle_scenario_boundary(self, analyzed):
        boundary, _ = analyzed("fig3")
        expected = [
            np.array([[2.75, SQ3 / 4.0], [5.0 * SQ3 / 4.0, -0.75]]),
            np.array([[2.75, -SQ3 / 4.0], [-5.0 * SQ3 / 4.0, -0.75]]),
            np.diag([-1.0, -2.0]),
        ]
        eigs = [(-1.0, 3.0), (-1.0, 3.0), (-2.0, -1.0)]
        reduced = [(3.0,), (3.0,), (-2.0,)]
        labels = ["saddle", "saddle", "asymptotically-stable"]
        for r, jac, ev, red, label in zip(boundary, expected, eigs, reduced, labels):
            assert np.max(np.abs(r.jacobian - jac)) < 1e-6
            assert np.max(np.abs(np.array(r.eigenvalues) - np.array(ev))) < 1e-8
            assert np.max(np.abs(np.array(r.spectrum.reduced_eigenvalues) - red)) < 1e-8
            assert r.spectrum.identity_residual < 1e-12
            assert r.stability == label

    def test_tracking_scenario_boundary(self, analyzed):
        boundary, _ = analyzed("fig2")
        j_side = np.array([[-0.84, 22.637923933082], [0.366606055596, 50.87]])
        flip = np.diag([1.0, -1.0])
        expected = [j_side, np.diag([-30.375, -1.0]), flip @ j_side @ flip]
        eigs = [(-1.0, 51.03), (-30.375, -1.0), (-1.0, 51.03)]
        labels = ["saddle", "asymptotically-stable", "saddle"]
        for r, jac, ev, label in zip(boundary, expected, eigs, labels):
            assert np.max(np.abs(r.jacobian - jac)) < 1e-6
            assert np.max(np.abs(np.array(r.eigenvalues) - np.array(ev))) < 1e-8
            assert r.stability == label

    def test_three_state_ball_boundary(self):
        # dx/dt = u, k = -diag(1, 5, 9) x, ball of center (2, 0, 0) and radius 1
        center = np.array([2.0, 0.0, 0.0])

        def value_and_grad(x):
            d = np.asarray(x, dtype=float) - center
            return np.sum(d * d, axis=-1) - 1.0, 2.0 * d

        alpha = linear_map(1.0)
        pair = BarrierPair(value_and_grad=value_and_grad, hess_h=lambda x: 2.0 * np.eye(3),
                           alpha=alpha)
        model = linear_system(np.zeros((3, 3)), np.eye(3), -np.diag([1.0, 5.0, 9.0]))
        controller = SafetyFilterController(model, pair)
        s3, s15 = SQ3 / 2.0, math.sqrt(15.0) / 4.0
        golden = [
            ([(3.0, 0.0, 0.0)], (-6.0, -2.0, -1.0), (-6.0, -2.0), "asymptotically-stable"),
            ([(2.5, s3, 0.0), (2.5, -s3, 0.0)], (-4.0, -1.0, 3.0), (-4.0, 3.0), "saddle"),
            ([(2.25, 0.0, s15), (2.25, 0.0, -s15)], (-1.0, 4.0, 7.5), (4.0, 7.5), "saddle"),
        ]
        for points, eigs, reduced, label in golden:
            for x in map(np.array, points):
                assert abs(pair.h(x)) < 1e-12
                assert np.max(np.abs(controller.field(x))) < 1e-12
                jac = jacobian_safety_filter_boundary(controller, x)
                fd = central_difference_jacobian(controller.field, x)
                assert np.max(np.abs(fd - jac)) < 1e-5
                result = eigen_and_classify(jac, 1.0, pair.grad_h(x))
                assert np.max(np.abs(np.array(result.eigenvalues) - eigs)) < 1e-12
                assert np.max(np.abs(np.array(result.reduced_eigenvalues) - reduced)) < 1e-12
                assert abs(result.identity_residual) < 1e-12
                assert result.stability == label

    def test_interior_jacobian_is_nominal_gain(self, analyzed):
        _, interior = analyzed("fig3")
        assert np.max(np.abs(interior[0].jacobian - np.diag([-1.0, -5.0]))) < 1e-10
        assert np.max(np.abs(np.array(interior[0].eigenvalues) - [-5.0, -1.0])) < 1e-8
        assert interior[0].stability == "asymptotically-stable"

    def test_flat_interior_spectrum_is_inconclusive(self, analyzed):
        # the pure clf-qp field is cubic near the target, so its linearization
        # carries no stability information there
        _, interior = analyzed("fig2")
        assert np.max(np.abs(interior[0].jacobian)) < 1e-8
        assert interior[0].stability == "inconclusive"


class TestJacobianCrossChecks:
    def test_finite_differences_agree(self, bundles, analyzed):
        for name in ("fig3", "fig2"):
            bundle = bundles(name)
            boundary, _ = analyzed(name)
            for r in boundary:
                fd = central_difference_jacobian(
                    lambda s: np.asarray(bundle.controller.field(s), dtype=float), r.x_star)
                assert np.max(np.abs(fd - r.jacobian)) < 1e-5

    def test_left_eigenvector_identity(self, bundles, analyzed):
        # grad_h^T J = -alpha'(0) grad_h^T at every strict boundary equilibrium
        for name in ("fig3", "fig2", "fig3-h1a2"):
            bundle = bundles(name)
            boundary, _ = analyzed(name)
            slope = float(bundle.pair.alpha.deriv(0.0))
            for r in boundary:
                grad = np.asarray(bundle.pair.grad_h(r.x_star), dtype=float)
                assert np.max(np.abs(grad @ r.jacobian + slope * grad)) < 1e-8


class TestReducedSpectrum:
    def test_matched_points_pass(self, bundles, analyzed):
        base, _ = analyzed("fig3")
        other, _ = analyzed("fig3-h1a2")
        a1 = float(bundles("fig3").pair.alpha.deriv(0.0))
        a2 = float(bundles("fig3-h1a2").pair.alpha.deriv(0.0))
        assert a1 != a2
        for r1, r2 in zip(base, other):
            assert (r1.spectrum.known_factor_root, r2.spectrum.known_factor_root) == (-a1, -a2)
            verdict = spectral_invariance_check(r1.spectrum, r2.spectrum)
            assert verdict.passed
            assert verdict.verdict == "pass"
            assert verdict.max_relative_difference < 1e-7
            assert max(verdict.identity_residuals) < 1e-12

    def test_mismatched_points_fail(self, analyzed):
        boundary, _ = analyzed("fig3")
        verdict = spectral_invariance_check(boundary[0].spectrum, boundary[2].spectrum)
        assert verdict.verdict == "fail"
        assert verdict.max_relative_difference > 1.0

    def test_missing_factor_is_reported(self):
        # -1 is no eigenvalue of diag(5, 7): grad_h^T J + grad_h^T = (6, 0)
        spectrum = eigen_and_classify(np.diag([5.0, 7.0]), 1.0, np.array([1.0, 0.0]))
        assert abs(spectrum.identity_residual - 6.0) < 1e-12
        verdict = spectral_invariance_check(spectrum, spectrum)
        assert verdict.verdict == "factorization-failure"
        assert not verdict.passed
        assert math.isnan(verdict.max_relative_difference)
        assert min(verdict.identity_residuals) > spectral.IDENTITY_TOL
        # a residual that is not a number voids the comparison as well
        ok = eigen_and_classify(np.diag([-1.0, -2.0]), 1.0, np.array([1.0, 0.0]))
        for pair in ((replace(ok, identity_residual=float("nan")), ok),
                     (ok, replace(ok, identity_residual=float("nan")))):
            assert spectral_invariance_check(*pair).verdict == "factorization-failure"

    def test_spectrum_without_known_factor_is_rejected(self):
        grad = np.array([1.0, 0.0])
        with pytest.raises(PreconditionError):
            spectral_invariance_check(eigen_and_classify(np.diag([-1.0, -2.0]), 1.0, grad),
                                      eigen_and_classify(np.diag([-1.0, -2.0])))
        with pytest.raises(PreconditionError):
            spectral_invariance_check(
                eigen_and_classify(np.diag([-1.0, -2.0]), 1.0, grad),
                eigen_and_classify(np.diag([-1.0, -2.0, -3.0]), 1.0, np.array([1.0, 0.0, 0.0])))

    def test_nearest_partners_are_paired_relative_to_magnitude(self):
        # reduced spectra {-3, 1e4} and {1e4 (1 + 5e-8), -3}: listed in another
        # order, paired by distance, and the large pair compared relative to 1e4
        grad = np.array([0.0, 0.0, 1.0])
        a = eigen_and_classify(np.diag([-3.0, 1e4, -1.0]), 1.0, grad)
        b = eigen_and_classify(np.diag([1e4 * (1.0 + 5e-8), -3.0, -10.0]), 10.0, grad)
        verdict = spectral_invariance_check(a, b)
        assert verdict.passed
        assert abs(verdict.max_relative_difference - 5e-8) < 1e-12
        c = eigen_and_classify(np.diag([1e4 * (1.0 + 2e-7), -3.0, -10.0]), 10.0, grad)
        assert spectral_invariance_check(a, c).verdict == "fail"


# boundary_slope's central difference against the closed-form reduced
# eigenvalue: the worst relative gap over the 33 equilibria below is 4.06e-9
# (fig2's saddles, the O(eps^2) truncation); the bound leaves a 10x margin
SLOPE_TOL = 4e-8


def _undesirable_on_boundary(controller):
    reports = [r for r in find_boundary_equilibria(controller) if r.desirability == "undesirable"]
    return attach_spectra(reports, controller)


def _slope_gaps(controller, reports):
    """Relative gap of boundary_slope to each report's one reduced eigenvalue."""
    gaps = []
    for r in reports:
        reduced, = r.spectrum.reduced_eigenvalues
        gaps.append(abs(boundary_slope(controller, r.x_star) - reduced) / abs(reduced))
    return gaps


class TestBoundarySlope:
    """The reduced eigenvalue t^T J t is the slope of t^T F along the boundary.

    The closed forms read hess_h and alpha'(0); the slope reads the field on
    the boundary alone, the same for every barrier with that zero set.
    """

    def test_slope_equals_the_reduced_eigenvalue(self, bundles, analyzed):
        gaps = []
        for name in BUILTIN_SCENARIOS:
            boundary, _ = analyzed(name)
            gaps += _slope_gaps(bundles(name).controller,
                                [r for r in boundary if r.desirability == "undesirable"])
        for name in ("fig2", "fig3"):
            config = comparison_config(name)
            model, pairs, clf = build_model(config), build_pairs(config), build_clf(config)
            for i in range(len(pairs)):
                controller = build_controller(config, model, pairs, clf, cbf_index=i)
                gaps += _slope_gaps(controller, _undesirable_on_boundary(controller))
        assert len(gaps) == 33
        assert max(gaps) < SLOPE_TOL

    def test_a_wrong_hessian_fails_and_its_gradient_passes(self, bundles):
        # fig3-h2a1's transformed barrier with hess_h off by 0.5 I: h and
        # grad_h are untouched, so only the closed forms move
        bundle = bundles("fig3-h2a1")
        good = bundle.pair
        bad = replace(good, hess_h=lambda x: good.hess_h(x) + 0.5 * np.eye(2))
        controller = build_controller(bundle.config, bundle.model, [bad], bundle.clf,
                                      cbf_index=0)
        reports = _undesirable_on_boundary(controller)
        assert len(reports) == 3
        for r in reports:
            fd_grad = central_difference_jacobian(
                lambda s: np.asarray(bad.h(s), dtype=float)[None], r.x_star)[0]
            assert np.max(np.abs(fd_grad - bad.grad_h(r.x_star))) < 1e-5
        assert min(_slope_gaps(controller, reports)) > SLOPE_TOL


def _tangent_family(n: int, rng):
    """(J1, J2, grad_h) with grad_h^T J1 = -grad_h^T and grad_h^T J2 = -10 grad_h^T.

    J1's entries are scaled by a factor drawn from [1, 50]; J2 = J1 + u grad_h^T
    moves the left eigenvalue and leaves the tangent block T^T J T alone, as a
    change of barrier or of alpha does.
    """
    grad = rng.standard_normal(n)
    norm_sq = float(grad @ grad)
    m = rng.uniform(1.0, 50.0) * rng.standard_normal((n, n))
    j1 = m - np.outer(grad, grad @ m + grad) / norm_sq
    v = rng.standard_normal(n)
    u = v - grad * (float(grad @ v) + 9.0) / norm_sq
    return j1, j1 + np.outer(u, grad), grad


class TestRandomTangentFamily:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_reduced_spectra_agree_in_every_dimension(self, n):
        rng = np.random.default_rng(2021 + n)
        for _ in range(200):
            j1, j2, grad = _tangent_family(n, rng)
            a = eigen_and_classify(j1, 1.0, grad)
            b = eigen_and_classify(j2, 10.0, grad)
            assert len(a.reduced_eigenvalues) == len(b.reduced_eigenvalues) == n - 1
            verdict = spectral_invariance_check(a, b)
            assert verdict.passed, (verdict, a.reduced_eigenvalues, b.reduced_eigenvalues)
            assert verdict.max_relative_difference < 1e-10


class TestAssumptionGuards:
    def test_constant_d_for_builtin_model(self, bundles):
        for name in BUILTIN_SCENARIOS:
            controller = bundles(name).controller
            d = constant_d_matrix(controller)
            assert np.array_equal(d, np.eye(2))
            assert np.array_equal(d, spectral._d_matrix(controller.model.constant_g(),
                                                         constant_value(controller.weight)))

    def test_marked_model_forms_d_without_sampling(self):
        marked = linear_system(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 2.0]]))
        weight = constant_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        pair, clf = make_ball_cbf((0.0, 3.0), 1.0), quadratic_clf(np.eye(2))
        calls = []

        def counted_g(x):
            calls.append(1)
            return marked.g(x)

        # the same g without the constant mark takes the sampled path, once
        # per controller: its loop terms keep the checked D
        controller = ClfCbfController(replace(marked, g=counted_g), pair, clf, weight)
        sampled = constant_d_matrix(controller)
        assert len(calls) == 16
        del calls[:]
        assert constant_d_matrix(controller) is sampled
        assert calls == []
        counted_g.constant = marked.constant_g()
        del calls[:]
        d = constant_d_matrix(ClfCbfController(replace(marked, g=counted_g), pair, clf, weight))
        assert calls == []
        assert np.array_equal(d, sampled)

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_spectra_form_no_d_matrix(self, monkeypatch, name):
        # the closed-form Jacobians read D from the controller's loop terms
        cfg = builtin_scenario(name)
        model = build_model(cfg)
        controller = build_controller(cfg, model, build_pairs(cfg), build_clf(cfg))
        reports = find_boundary_equilibria(controller)
        calls = []
        d_matrix = spectral._d_matrix

        def counted(g, w):
            calls.append(1)
            return d_matrix(g, w)

        monkeypatch.setattr(spectral, "_d_matrix", counted)
        reports = attach_spectra(reports, controller)
        assert len(reports) == 3 and all(r.spectrum is not None for r in reports)
        assert calls == []

    def test_state_dependent_g_is_rejected(self):
        def g(x):
            x = np.asarray(x, dtype=float)
            return np.array([[1.0], [float(x[0])]])

        model = SystemModel(n=2, m=1,
                            f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                            g=g,
                            jf=lambda x: np.zeros((2, 2)))
        controller = ClfCbfController(model, make_ball_cbf((0.0, 3.0), 1.0),
                                      quadratic_clf(np.eye(2)))
        with pytest.raises(AssumptionViolationError):
            constant_d_matrix(controller)

        # without the constant-g mark a controller evaluates g at each state
        assert model.constant_g() is None
        states = [np.array([0.5, 0.5]), np.array([2.0, 1.0]), np.array([-1.5, 0.2])]
        for x in states:
            u, field, _, _ = controller.evaluate(x)
            ref_u = reference_evaluation(controller, x)[0]
            assert np.max(np.abs(u - ref_u)) < 1e-12
            assert np.max(np.abs(field - g(x) @ u)) < 1e-12
            for other in states:
                if other is not x:
                    assert np.max(np.abs(field - g(other) @ u)) > 1e-3

    def test_weak_complementarity_is_rejected(self):
        # lam2 = 0 at this boundary state: the closed form does not apply
        model = linear_system(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
        clf = quadratic_clf(np.diag([6.0, 1.0]))
        cbf = make_ball_cbf((1.0, 3.0), 1.0, form="half")
        with pytest.raises(PreconditionError):
            jacobian_clf_cbf_boundary(ClfCbfController(model, cbf, clf, None, 2.0),
                                      np.array([0.0, 3.0]))

    def test_inactive_filter_row_is_rejected(self, fig3):
        # delta = 0.5 > 0 at (1, 0): the constraint pushes outward there
        with pytest.raises(PreconditionError):
            jacobian_safety_filter_boundary(fig3.controller, np.array([1.0, 0.0]))
