"""Characteristic polynomials, closed-form Jacobians, reduced-spectrum checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from barrier_lab import (
    AssumptionViolationError,
    ClfCbfController,
    PreconditionError,
    SystemModel,
    aberth_roots,
    central_difference_jacobian,
    char_poly_coefficients,
    constant_d_matrix,
    constant_matrix,
    eigen_and_classify,
    jacobian_clf_cbf_boundary,
    jacobian_safety_filter_boundary,
    linear_system,
    make_ball_cbf,
    quadratic_clf,
    spectral_invariance_check,
    stability_label,
    synthetic_division,
)
from conftest import reference_evaluation

SQ3 = math.sqrt(3.0)


class TestPolynomialUnits:
    def test_char_poly_upper_triangular(self):
        coeffs = char_poly_coefficients(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert np.max(np.abs(coeffs - [1.0, -5.0, 6.0])) < 1e-12

    def test_char_poly_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mat = rng.uniform(-2.0, 2.0, size=(4, 4))
            mine = char_poly_coefficients(mat)
            ref = np.poly(mat)
            assert np.max(np.abs(mine - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_roots_of_factored_quadratic(self):
        roots = np.sort_complex(aberth_roots([1.0, -5.0, 6.0]))
        assert np.max(np.abs(roots - [2.0, 3.0])) < 1e-10

    def test_roots_match_reference_on_random_polys(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            coeffs = np.concatenate([[1.0], rng.uniform(-3.0, 3.0, size=4)])
            mine = aberth_roots(coeffs)
            ref = np.roots(coeffs)
            assert mine.shape == ref.shape
            # conjugate pairs sort unstably, so match each root to its nearest
            for z in ref:
                assert np.min(np.abs(mine - z)) < 1e-6

    def test_synthetic_division_exact_factor(self):
        reduced, remainder = synthetic_division([1.0, -6.0, 11.0, -6.0], 1.0)
        assert np.max(np.abs(reduced - [1.0, -5.0, 6.0])) < 1e-12
        assert remainder == 0.0

    def test_synthetic_division_remainder_is_value_at_root(self):
        coeffs = [1.0, -6.0, 11.0, -6.0]
        _, remainder = synthetic_division(coeffs, 4.0)
        assert abs(remainder - np.polyval(coeffs, 4.0)) < 1e-12
        assert abs(remainder - 6.0) < 1e-12

    def test_stability_labels(self):
        assert stability_label([-1.0, -2.0]) == "asymptotically-stable"
        assert stability_label([-1.0, 3.0]) == "saddle"
        assert stability_label([1.0, 2.0]) == "unstable"
        assert stability_label([-1.0, 1e-12]) == "inconclusive"
        assert stability_label([]) == "inconclusive"
        assert stability_label([complex(-0.5, 4.0), complex(-0.5, -4.0)]) == "asymptotically-stable"

    def test_eigen_and_classify_with_known_factor(self):
        result = eigen_and_classify(np.diag([-1.0, -2.0]), alpha_prime0=1.0)
        assert result.known_factor_root == -1.0
        assert np.max(np.abs(np.array(result.reduced_poly) - [1.0, 2.0])) < 1e-10
        assert abs(result.division_remainder) < 1e-10
        assert result.stability == "asymptotically-stable"
        assert np.max(np.abs(np.array(result.eigenvalues) - [-2.0, -1.0])) < 1e-10

    def test_eigen_and_classify_without_factor(self):
        result = eigen_and_classify(np.diag([-1.0, -2.0]))
        assert result.known_factor_root is None
        assert result.reduced_poly is None
        assert result.division_remainder is None


class TestGoldenJacobians:
    def test_obstacle_scenario_boundary(self, analyzed):
        boundary, _ = analyzed("fig3")
        expected = [
            np.array([[2.75, SQ3 / 4.0], [5.0 * SQ3 / 4.0, -0.75]]),
            np.array([[2.75, -SQ3 / 4.0], [-5.0 * SQ3 / 4.0, -0.75]]),
            np.diag([-1.0, -2.0]),
        ]
        eigs = [(-1.0, 3.0), (-1.0, 3.0), (-2.0, -1.0)]
        labels = ["saddle", "saddle", "asymptotically-stable"]
        for r, jac, ev, label in zip(boundary, expected, eigs, labels):
            assert np.max(np.abs(r.jacobian - jac)) < 1e-6
            assert np.max(np.abs(np.array(r.eigenvalues) - np.array(ev))) < 1e-8
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
            slope = float(bundle.pair.alpha_prime(0.0))
            for r in boundary:
                grad = np.asarray(bundle.pair.grad_h(r.x_star), dtype=float)
                assert np.max(np.abs(grad @ r.jacobian + slope * grad)) < 1e-8


class TestReducedSpectrum:
    def test_matched_points_pass(self, bundles, analyzed):
        base, _ = analyzed("fig3")
        other, _ = analyzed("fig3-h1a2")
        a1 = float(bundles("fig3").pair.alpha_prime(0.0))
        a2 = float(bundles("fig3-h1a2").pair.alpha_prime(0.0))
        assert a1 != a2
        for r1, r2 in zip(base, other):
            verdict = spectral_invariance_check(r1.jacobian, a1, r2.jacobian, a2)
            assert verdict.passed
            assert verdict.verdict == "pass"
            assert verdict.max_coeff_difference < 1e-7

    def test_mismatched_points_fail(self, analyzed):
        boundary, _ = analyzed("fig3")
        verdict = spectral_invariance_check(boundary[0].jacobian, 1.0,
                                            boundary[2].jacobian, 1.0)
        assert verdict.verdict == "fail"
        assert verdict.max_coeff_difference > 1.0

    def test_missing_factor_is_reported(self):
        verdict = spectral_invariance_check(np.diag([5.0, 7.0]), 1.0,
                                            np.diag([5.0, 7.0]), 1.0)
        assert verdict.verdict == "factorization-failure"
        assert not verdict.passed
        assert math.isnan(verdict.max_coeff_difference)
        assert min(verdict.remainders) > 1e-6


class TestAssumptionGuards:
    def test_constant_d_for_builtin_model(self, fig3):
        d = constant_d_matrix(fig3.model, fig3.controller.weight)
        assert np.array_equal(d, np.eye(2))

    def test_marked_model_forms_d_without_sampling(self):
        marked = linear_system(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 2.0]]))
        weight = constant_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        calls = []

        def counted_g(x):
            calls.append(1)
            return marked.g(x)

        # the same g without the constant mark takes the sampled path
        sampled = constant_d_matrix(replace(marked, g=counted_g), weight)
        assert len(calls) == 16
        counted_g.constant = marked.constant_g()
        del calls[:]
        d = constant_d_matrix(replace(marked, g=counted_g), weight)
        assert calls == []
        assert np.array_equal(d, sampled)

    def test_state_dependent_g_is_rejected(self):
        def g(x):
            x = np.asarray(x, dtype=float)
            return np.array([[1.0], [float(x[0])]])

        model = SystemModel(n=2, m=1,
                            f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                            g=g,
                            jf=lambda x: np.zeros((2, 2)))
        with pytest.raises(AssumptionViolationError):
            constant_d_matrix(model, None)

        # without the constant-g mark a controller evaluates g at each state
        assert model.constant_g() is None
        controller = ClfCbfController(model, make_ball_cbf((0.0, 3.0), 1.0),
                                      quadratic_clf(np.eye(2)))
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
