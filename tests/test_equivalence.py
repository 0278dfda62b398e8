"""Boundary equivalence of barriers: gradient ratios, rank-2 Hessian fits."""

import dataclasses
import math

import numpy as np
import pytest

from barrier_lab import (
    PreconditionError,
    TransformStep,
    boundary_field_difference,
    compose_transforms,
    default_boundary_samples,
    gradient_ratio,
    hausdorff_distance,
    hessian_equivalence,
    identity_map,
    make_ball_cbf,
    quadratic_offset_map,
)


def rebuild(pair, **overrides):
    fields = {f.name: getattr(pair, f.name) for f in dataclasses.fields(type(pair))}
    fields.update(overrides)
    return type(pair)(**fields)


def predicted_zeta(step, x):
    """zeta of a single transform on the boundary: a gamma'(0) + b eta(x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    if step.a != 0.0:
        gamma = step.gamma
        out = out + step.a * float(gamma.deriv(0.0))
    if step.b != 0.0:
        eta = step.eta
        out = out + step.b * np.asarray(eta.value_and_grad(x)[0], dtype=float)
    return out


def predicted_zeta_tilde(base, step, x):
    """zeta_tilde of a single transform: (1/2) a gamma''(0) grad_h + b grad_eta."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if step.a != 0.0:
        out = out + 0.5 * step.a * float(step.gamma.second(0.0)) * np.asarray(base.grad_h(x), dtype=float)
    if step.b != 0.0:
        out = out + step.b * np.asarray(step.eta.value_and_grad(x)[1], dtype=float)
    return out


class TestGoldenPair:
    # h1 = ||x - (2, 0)||^2 - 1 against h2 = eta h1, eta = ||x - (5, 1)||^2 + 1

    def test_zeta_and_zeta_tilde_at_corner(self, fig3, fig3_h2a1):
        samples = np.array([[3.0, 0.0]])
        report = hessian_equivalence(fig3.pair, fig3_h2a1.pair, samples=samples)
        assert report.verdict == "equivalent-within-tol"
        assert abs(float(report.zeta[0]) - 6.0) < 1e-10
        assert np.max(np.abs(report.zeta_tilde[0] - [-4.0, -2.0])) < 1e-10

    def test_full_boundary_sweep(self, fig3, fig3_h2a1):
        report = hessian_equivalence(fig3.pair, fig3_h2a1.pair)
        assert report.verdict == "equivalent-within-tol"
        assert report.samples.shape == (256, 2)
        assert report.max_gradient_residual < 1e-8
        assert report.max_hessian_residual < 1e-8
        assert float(np.min(report.zeta)) > 0.0

    def test_fit_matches_transform_prediction(self, fig3, fig3_h2a1):
        step = TransformStep(b=1.0, eta=quadratic_offset_map((5.0, 1.0), 1.0))
        samples = default_boundary_samples(fig3.pair, 64)
        report = hessian_equivalence(fig3.pair, fig3_h2a1.pair, samples=samples)
        assert np.max(np.abs(report.zeta - predicted_zeta(step, samples))) < 1e-8
        assert np.max(np.abs(report.zeta_tilde
                             - predicted_zeta_tilde(fig3.pair, step, samples))) < 1e-8


class TestEquivalenceRelation:
    def test_reflexive(self, fig3):
        report = hessian_equivalence(fig3.pair, fig3.pair)
        assert report.verdict == "equivalent-within-tol"
        assert np.max(np.abs(report.zeta - 1.0)) < 1e-12
        assert np.max(np.abs(report.zeta_tilde)) < 1e-12

    def test_pure_scaling(self, fig3):
        scaled = compose_transforms(fig3.pair, [TransformStep(a=10.0, gamma=identity_map())])
        report = hessian_equivalence(fig3.pair, scaled)
        assert report.verdict == "equivalent-within-tol"
        assert np.max(np.abs(report.zeta - 10.0)) < 1e-10
        assert np.max(np.abs(report.zeta_tilde)) < 1e-10

    def test_symmetric(self, fig3, fig3_h2a1):
        forward = hessian_equivalence(fig3.pair, fig3_h2a1.pair)
        backward = hessian_equivalence(fig3_h2a1.pair, fig3.pair, tol=1e-7)
        assert backward.verdict == "equivalent-within-tol"
        assert np.max(np.abs(forward.zeta * backward.zeta - 1.0)) < 1e-8

    def test_transitive_chain(self, fig3):
        eta = quadratic_offset_map((5.0, 1.0), 1.0)
        step12 = TransformStep(b=1.0, eta=eta)
        step23 = TransformStep(a=3.0, gamma=identity_map())
        mid = compose_transforms(fig3.pair, [step12])
        far = compose_transforms(fig3.pair, [step12, step23])
        r12 = hessian_equivalence(fig3.pair, mid)
        r23 = hessian_equivalence(mid, far, tol=1e-7)
        r13 = hessian_equivalence(fig3.pair, far)
        assert r12.verdict == r23.verdict == r13.verdict == "equivalent-within-tol"
        assert np.max(np.abs(r12.zeta * r23.zeta - r13.zeta)) < 1e-8


class TestVerdictBoundaries:
    def test_tangent_hessian_defect_downgrades(self, fig3):
        # add t t^T with t orthogonal to grad_h1: no rank-2 update along
        # grad_h1 can absorb a tangent-tangent block
        base = fig3.pair
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])

        def bent_hess(x):
            t = np.asarray(base.grad_h(x), dtype=float) @ rot.T
            return np.asarray(base.hess_h(x), dtype=float) + t[..., :, None] * t[..., None, :]

        bent = rebuild(base, hess_h=bent_hess)
        samples = default_boundary_samples(base, 64)
        report = hessian_equivalence(base, bent, samples=samples)
        assert report.verdict == "gradient-relation-only"
        assert report.max_gradient_residual < 1e-8
        assert report.max_hessian_residual > 1.0

    def test_each_barrier_is_evaluated_once(self, fig3, fig3_h2a1):
        # the Hessian fit reuses the gradients the gradient relation evaluated
        calls = []

        def counted(pair, tag):
            def value_and_grad(x):
                calls.append(tag)
                return pair.value_and_grad(x)
            return rebuild(pair, value_and_grad=value_and_grad)

        samples = default_boundary_samples(fig3.pair, 64)
        first, second = counted(fig3.pair, "first"), counted(fig3_h2a1.pair, "second")
        report = hessian_equivalence(first, second, samples=samples)
        assert calls == ["first", "second"]
        assert report.verdict == "equivalent-within-tol"
        reference = hessian_equivalence(fig3.pair, fig3_h2a1.pair, samples=samples)
        for name in ("zeta", "zeta_tilde", "gradient_residual", "hessian_residual"):
            assert np.array_equal(getattr(report, name), getattr(reference, name))

    def test_flipped_gradient_is_rejected(self, fig3):
        base = fig3.pair

        def flipped_value_and_grad(x):
            h, grad = base.value_and_grad(x)
            return -np.asarray(h, dtype=float), -np.asarray(grad, dtype=float)

        flipped = rebuild(
            base,
            value_and_grad=flipped_value_and_grad,
            hess_h=lambda x: -np.asarray(base.hess_h(x), dtype=float),
        )
        report = hessian_equivalence(base, flipped)
        assert report.verdict == "rejected"

    def test_off_boundary_sample_is_refused(self, fig3):
        with pytest.raises(PreconditionError):
            gradient_ratio(fig3.pair, fig3.pair, np.array([[0.0, 0.0]]))

    def test_first_gradient_vanishing_on_its_zero_set_is_refused(self, fig3):
        # h = (||x - c||^2 - r^2)^2 has the ball's zero set and a zero gradient there
        squared = rebuild(fig3.pair, value_and_grad=lambda x: (
            fig3.pair.h(x) ** 2, 2.0 * fig3.pair.h(x)[..., None] * fig3.pair.grad_h(x)))
        with pytest.raises(PreconditionError) as excinfo:
            gradient_ratio(squared, fig3.pair, default_boundary_samples(fig3.pair, 16))
        assert excinfo.type is PreconditionError
        assert str(excinfo.value) == "grad of the first barrier vanishes at a sample"

    def test_zero_set_mismatch_is_refused(self, fig3):
        other = make_ball_cbf((2.0, 0.0), 1.1)
        with pytest.raises(PreconditionError):
            hessian_equivalence(fig3.pair, other,
                                samples=default_boundary_samples(fig3.pair, 16))

    def test_sampling_needs_ball_geometry(self, fig3):
        bare = rebuild(fig3.pair, geometry=None)
        with pytest.raises(PreconditionError):
            default_boundary_samples(bare)


class TestFieldAgreement:
    def test_filtered_fields_match_across_barrier_choice(self, fig3, fig3_h2a1):
        samples = default_boundary_samples(fig3.pair, 128)
        diff = boundary_field_difference(fig3.controller, fig3_h2a1.controller, samples)
        assert diff < 1e-9

    def test_differing_alpha_changes_nothing_on_the_boundary(self, fig3, fig3_h1a2):
        # on {h = 0} the row offset is grad_h^T f regardless of alpha's slope
        samples = default_boundary_samples(fig3.pair, 128)
        diff = boundary_field_difference(fig3.controller, fig3_h1a2.controller, samples)
        assert diff < 1e-9


class TestHausdorff:
    def test_singletons(self):
        d = hausdorff_distance([np.array([0.0, 0.0])], [np.array([3.0, 4.0])])
        assert d == 5.0

    def test_asymmetric_sets(self):
        a = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        b = [np.array([0.0, 0.0])]
        assert hausdorff_distance(a, b) == 10.0
        assert hausdorff_distance(b, a) == 10.0

    def test_empty_conventions(self):
        assert hausdorff_distance([], []) == 0.0
        assert hausdorff_distance([np.zeros(2)], []) == math.inf
        assert hausdorff_distance([], [np.zeros(2)]) == math.inf
