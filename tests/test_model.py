"""Barrier/Lyapunov constructors, transforms, derivative audits."""

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest

from barrier_lab import (
    BarrierPair,
    InvalidParameterError,
    LyapunovPair,
    StructuralError,
    SystemModel,
    central_difference_jacobian,
    linear_map,
    linear_system,
    make_ball_cbf,
    quadratic_clf,
    quadratic_map,
    quadratic_offset_map,
    single_integrator_2d,
    transform_cbf,
)
from barrier_lab.model import (SafeSetGeometry, ScalarMap, constant_matrix, constant_state_map,
                               dot, identity_map, linear_evaluator)


class TestBallBarrier:
    def test_full_form_values(self):
        pair = make_ball_cbf((2.0, 0.0), 1.0, form="full")
        assert float(pair.h(np.array([2.0, 0.0]))) == -1.0
        assert float(pair.h(np.array([3.0, 0.0]))) == 0.0
        assert np.array_equal(pair.grad_h(np.array([3.0, 0.0])), [2.0, 0.0])
        assert np.array_equal(pair.hess_h(np.array([3.0, 0.0])), 2.0 * np.eye(2))
        assert float(pair.alpha.fun(0.3)) == 0.3

    def test_half_form_values(self):
        pair = make_ball_cbf((0.0, 3.0), 1.5, form="half")
        assert abs(float(pair.h(np.array([0.0, 4.5])))) == 0.0
        assert np.array_equal(pair.grad_h(np.array([0.0, 4.5])), [0.0, 1.5])
        assert np.array_equal(pair.hess_h(np.array([0.0, 4.5])), np.eye(2))
        assert float(pair.h(np.array([0.0, 3.0]))) == -1.125

    def test_zero_set_is_the_circle(self):
        for form in ("full", "half"):
            pair = make_ball_cbf((2.0, 0.0), 1.0, form=form)
            samples = pair.geometry.boundary_points(64)
            assert float(np.max(np.abs(pair.h(samples)))) < 1e-12
            # sign convention: outside the ball is safe
            assert float(pair.h(np.array([4.0, 0.0]))) > 0.0
            assert float(pair.h(np.array([2.0, 0.1]))) < 0.0

    def test_batched_evaluation_matches_loop(self):
        pair = make_ball_cbf((2.0, 0.0), 1.0)
        x = np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 2.0]])
        h_batch = np.asarray(pair.h(x), dtype=float)
        for i, xi in enumerate(x):
            assert h_batch[i] == float(pair.h(xi))
        grad_batch = np.asarray(pair.grad_h(x), dtype=float)
        assert grad_batch.shape == (3, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_ball_cbf((2.0, 0.0), 0.0)
        with pytest.raises(InvalidParameterError):
            make_ball_cbf((2.0, 0.0), 1.0, alpha=linear_map(-1.0))
        with pytest.raises(InvalidParameterError):
            make_ball_cbf((2.0, 0.0), 1.0, form="cubic")
        with pytest.raises(InvalidParameterError):
            make_ball_cbf((2.0, 0.0, 0.0), 1.0)


class TestQuadraticClf:
    def test_values(self):
        clf = quadratic_clf(np.diag([6.0, 1.0]))
        x = np.array([0.0, 4.5])
        assert float(clf.v(x)) == 10.125
        assert np.array_equal(clf.grad_v(x), [0.0, 4.5])
        assert np.array_equal(clf.hess_v(x), np.diag([6.0, 1.0]))

    def test_offset_minimum(self):
        clf = quadratic_clf(np.eye(2), xstar=(1.0, 2.0))
        assert float(clf.v(np.array([1.0, 2.0]))) == 0.0
        assert np.array_equal(clf.grad_v(np.array([1.0, 2.0])), [0.0, 0.0])

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidParameterError):
            quadratic_clf(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(InvalidParameterError):
            quadratic_clf(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidParameterError):
            quadratic_clf(np.eye(2), xstar=(1.0, 2.0, 3.0))

    def test_rejects_q_asymmetric_by_1e_6(self):
        # within np.allclose's default rtol, but Q d would then miss the
        # gradient of V = (1/2) d^T Q d, (1/2)(Q + Q^T) d, by 5e-7 at (1, 1)
        with pytest.raises(InvalidParameterError, match=r"^Q must be symmetric$"):
            quadratic_clf(np.array([[6.0, 1.0 + 1e-6], [1.0, 2.0]]))


class TestTransform:
    def base(self):
        return make_ball_cbf((2.0, 0.0), 1.0, form="full")

    def test_zero_set_preserved(self):
        base = self.base()
        eta = quadratic_offset_map((5.0, 1.0), 1.0)
        h2 = transform_cbf(base, 0.0, 1.0, eta=eta)
        h3 = transform_cbf(base, 1.0, 0.0, gamma=quadratic_map(1.0, 0.5))
        samples = base.geometry.boundary_points(256)
        assert float(np.max(np.abs(h2.h(samples)))) < 1e-12
        assert float(np.max(np.abs(h3.h(samples)))) < 1e-12

    def test_gradient_on_boundary_golden(self):
        # h2 = eta h1 with eta = ||x - (5, 1)||^2 + 1: at (3, 0) eta = 6, so
        # grad h2 = 6 grad h1 = (12, 0) on the boundary where h1 = 0
        h2 = transform_cbf(self.base(), 0.0, 1.0, eta=quadratic_offset_map((5.0, 1.0), 1.0))
        grad = np.asarray(h2.grad_h(np.array([3.0, 0.0])), dtype=float)
        assert np.max(np.abs(grad - [12.0, 0.0])) < 1e-12

    def test_derivatives_match_finite_differences(self):
        h2 = transform_cbf(self.base(), 2.0, 0.5, gamma=quadratic_map(1.0, -0.25),
                           eta=quadratic_offset_map((5.0, 1.0), 1.0))
        for x in (np.array([3.0, 0.0]), np.array([1.2, -0.7]), np.array([2.4, 1.1])):
            fd_grad = central_difference_jacobian(
                lambda s: np.asarray(h2.h(s), dtype=float)[None], x)[0]
            assert np.max(np.abs(fd_grad - h2.grad_h(x))) < 1e-5
            fd_hess = central_difference_jacobian(h2.grad_h, x)
            assert np.max(np.abs(fd_hess - h2.hess_h(x))) < 1e-5

    def test_rejects_invalid_parameters(self):
        base = self.base()
        with pytest.raises(InvalidParameterError):
            transform_cbf(base, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            transform_cbf(base, -1.0, 2.0)
        # gamma without a second derivative cannot support a > 0
        bare = ScalarMap(fun=lambda s: np.asarray(s, dtype=float),
                         deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)))
        with pytest.raises(InvalidParameterError):
            transform_cbf(base, 1.0, 0.0, gamma=bare)
        # gamma(0) != 0 would move the zero level set
        shifted = ScalarMap(fun=lambda s: np.asarray(s, dtype=float) + 1.0,
                            deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                            second=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        with pytest.raises(InvalidParameterError):
            transform_cbf(base, 1.0, 0.0, gamma=shifted)
        with pytest.raises(InvalidParameterError):
            transform_cbf(base, 0.0, 1.0, eta=constant_state_map(-1.0))

    def test_identity_transform_is_identity(self):
        base = self.base()
        same = transform_cbf(base, 0.0, 1.0, eta=constant_state_map(1.0))
        x = np.array([[3.0, 0.0], [1.5, 0.5], [4.0, -2.0]])
        assert np.max(np.abs(np.asarray(same.h(x)) - np.asarray(base.h(x)))) < 1e-15
        assert np.max(np.abs(np.asarray(same.grad_h(x)) - np.asarray(base.grad_h(x)))) < 1e-15

    def test_combined_evaluators_match_the_separate_ones(self):
        # h, grad_h, v and grad_v are the parts of value_and_grad, and a batch
        # gives each row exactly what that row gives alone
        base = self.base()
        inner = transform_cbf(base, 2.0, 0.5, gamma=quadratic_map(1.0, -0.25),
                              eta=quadratic_offset_map((5.0, 1.0), 1.0))
        pairs = [base, make_ball_cbf((0.0, 3.0), 1.5, form="half"),
                 transform_cbf(base, 0.0, 1.0, eta=quadratic_offset_map((5.0, 1.0), 1.0)),
                 transform_cbf(inner, 1.5, 0.0, gamma=quadratic_map(2.0, 0.3))]
        xs = np.random.default_rng(3).uniform(-2.0, 5.0, size=(50, 2))
        clf = quadratic_clf(np.array([[6.0, 1.0], [1.0, 2.0]]), xstar=(0.5, -1.0))
        evaluators = [(pair.value_and_grad, pair.h, pair.grad_h) for pair in pairs]
        evaluators.append((clf.value_and_grad, clf.v, clf.grad_v))
        for value_and_grad, value, grad in evaluators:
            batch_value, batch_grad = value_and_grad(xs)
            assert np.array_equal(batch_value, value(xs))
            assert np.array_equal(batch_grad, grad(xs))
            for i in (0, 7, 49):
                row_value, row_grad = value_and_grad(xs[i])
                assert np.array_equal(row_value, batch_value[i])
                assert np.array_equal(row_grad, batch_grad[i])
                assert np.array_equal(value(xs[i]), row_value)
                assert np.array_equal(grad(xs[i]), row_grad)

    def test_alpha_override(self):
        h2 = transform_cbf(self.base(), 0.0, 1.0, eta=constant_state_map(1.0),
                           alpha=ScalarMap(fun=lambda s: 10.0 * np.asarray(s, dtype=float),
                                           deriv=lambda s: 10.0 * np.ones_like(np.asarray(s, dtype=float))))
        assert float(h2.alpha.fun(0.5)) == 5.0
        assert float(h2.alpha.deriv(0.0)) == 10.0


class TestLinearSystemMarks:
    def test_linear_evaluator_matches_the_matrix_product(self):
        xs = np.random.default_rng(4).uniform(-3.0, 3.0, size=(40, 2))
        for mat in (np.zeros((2, 2)), np.diag([-1.0, -5.0]), np.eye(2),
                    np.array([[1.0, 2.0], [-3.0, 0.5]]), np.array([[1.0, 0.0]])):
            evaluate = linear_evaluator(mat)
            assert np.array_equal(evaluate.matrix, mat)
            for x in (xs, xs[0]):
                assert np.array_equal(evaluate(x), np.einsum("ij,...j->...i", mat, x))

    def test_drift_matrix_matches_the_model_drift(self):
        xs = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 2))
        plants = [
            (np.zeros((2, 2)), np.eye(2), np.diag([-1.0, -5.0])),
            (np.array([[0.0, 1.0], [-1.0, 0.5]]), np.array([[1.0, 0.3], [0.2, 1.5]]),
             np.array([[-1.0, 0.2], [0.1, -2.0]])),
            (np.array([[0.0, 0.0], [0.0, -1.0]]), np.array([[1.0], [0.0]]), np.array([[0.5, -1.0]])),
        ]
        for a, b, gain in plants:
            model = linear_system(a, b, gain=gain)
            assert np.array_equal(model.constant_g(), b)
            assert np.max(np.abs(model.drift_evaluator()(xs) - model.drift(xs))) < 1e-12
            assert model.drift_evaluator(nominal=False) is model.f
        # a state-dependent g carries no mark: the model keeps its own drift
        hand_built = SystemModel(n=2, m=1, f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                 g=lambda x: np.array([[1.0], [float(np.asarray(x)[0])]]),
                                 jf=lambda x: np.zeros((2, 2)),
                                 k=linear_evaluator(np.array([[0.5, -1.0]])))
        assert hand_built.constant_g() is None
        assert hand_built.drift_evaluator() == hand_built.drift

    def test_without_k_the_drift_is_f(self):
        model = linear_system(np.array([[0.0, 1.0], [-2.0, -3.0]]), np.eye(2))
        xs = np.random.default_rng(6).uniform(-3.0, 3.0, size=(5, 2))
        assert np.array_equal(model.drift(xs), model.f(xs))
        assert np.array_equal(model.jdrift(xs), model.jf(xs))


def hand_built_barrier(alpha):
    ball = make_ball_cbf((2.0, 0.0), 1.0)
    return BarrierPair(value_and_grad=ball.value_and_grad, hess_h=ball.hess_h, alpha=alpha)


def hand_built_clf(beta):
    clf = quadratic_clf(np.eye(2))
    return LyapunovPair(value_and_grad=clf.value_and_grad, hess_v=clf.hess_v, beta=beta,
                        xstar=clf.xstar)


def model_without_jk():
    return SystemModel(n=2, m=2, f=linear_evaluator(np.zeros((2, 2))), g=constant_matrix(np.eye(2)),
                       jf=constant_matrix(np.zeros((2, 2))), k=linear_evaluator(-np.eye(2)))


# case: (call, error type, message); the class-K rows cover every site that builds a pair
RAISES = {
    "ball-alpha": (lambda: make_ball_cbf((2, 0), 1, alpha=linear_map(-1.0)), InvalidParameterError,
                   "alpha is not class-K: alpha'(0) = -1, need > 0"),
    "ball-alpha-flat": (lambda: make_ball_cbf((2, 0), 1, alpha=linear_map(0.0)),
                        InvalidParameterError, "alpha is not class-K: alpha'(0) = 0, need > 0"),
    "transform-alpha": (lambda: transform_cbf(make_ball_cbf((2, 0), 1), 1, 0,
                                              alpha=linear_map(-1.0)),
                        InvalidParameterError, "alpha is not class-K: alpha'(0) = -1, need > 0"),
    "hand-built-alpha": (lambda: hand_built_barrier(quadratic_map(-0.5, 1.0)),
                         InvalidParameterError,
                         "alpha is not class-K: alpha'(0) = -0.5, need > 0"),
    "clf-beta": (lambda: quadratic_clf(np.eye(2), beta=linear_map(0.0)), InvalidParameterError,
                 "beta is not class-K: beta'(0) = 0, need > 0"),
    "hand-built-beta": (lambda: hand_built_clf(linear_map(-2.0)), InvalidParameterError,
                        "beta is not class-K: beta'(0) = -2, need > 0"),
    "jdrift-without-jk": (lambda: model_without_jk().jdrift(np.zeros(2)), StructuralError,
                          "nominal controller k has no Jacobian evaluator jk"),
    "a-not-square": (lambda: linear_system(np.zeros((2, 3)), np.eye(2)), InvalidParameterError,
                     "A must be square, got shape (2, 3)"),
    "b-rows": (lambda: linear_system(np.zeros((2, 2)), np.eye(3)), InvalidParameterError,
               "B must have 2 rows, got shape (3, 3)"),
    "k-shape": (lambda: linear_system(np.zeros((2, 2)), np.eye(2), gain=np.eye(3)),
                InvalidParameterError, "K must have shape (2, 2), got (3, 3)"),
    "geometry-kind": (lambda: SafeSetGeometry(kind="ellipse", center=(0, 0), radius=1.0),
                      InvalidParameterError, "unknown geometry kind 'ellipse'"),
    "geometry-no-radius": (lambda: SafeSetGeometry(kind="ball-complement-2d", center=(0, 0)),
                           InvalidParameterError, "ball geometry needs center and radius"),
    "geometry-radius": (lambda: SafeSetGeometry(kind="ball-complement-2d", center=(0, 0),
                                                radius=0.0),
                        InvalidParameterError, "ball radius must be positive"),
    "q-not-square": (lambda: quadratic_clf(np.ones((2, 3))), InvalidParameterError,
                     "Q must be square"),
}


class TestRaises:
    @pytest.mark.parametrize("case", RAISES)
    def test_each_raise_names_what_failed(self, case):
        call, error, message = RAISES[case]
        with pytest.raises(error) as excinfo:
            call()
        assert type(excinfo.value) is error and str(excinfo.value) == message

    def test_a_pair_keeps_the_map_it_is_given(self):
        alpha, other, beta = linear_map(2.0), quadratic_map(3.0, 0.5), quadratic_map(1.0, 0.5)
        ball = make_ball_cbf((2.0, 0.0), 1.0, alpha=alpha)
        assert ball.alpha is alpha
        assert transform_cbf(ball, 1.0, 0.0).alpha is alpha
        assert transform_cbf(ball, 1.0, 0.0, alpha=other).alpha is other
        assert hand_built_barrier(other).alpha is other
        assert quadratic_clf(np.eye(2), beta=beta).beta is beta
        assert hand_built_clf(beta).beta is beta


DERIVATIVE_TOL = 1e-4        # analytic vs central-difference agreement
MONOTONE_GRID_POINTS = 101   # class-K monotonicity check on [-10, 10]
MONOTONE_GRID_SPAN = 10.0
BOUNDARY_GRAD_MIN = 1e-10    # grad_h must not vanish on the boundary


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[ValidationCheck, ...]
    threshold: float = DERIVATIVE_TOL

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def failures(self) -> List[ValidationCheck]:
        return [c for c in self.checks if not c.passed]


def _check_shapes(model: SystemModel, x0: np.ndarray) -> None:
    expected = {
        "f": ((model.n,), model.f),
        "g": ((model.n, model.m), model.g),
        "jf": ((model.n, model.n), model.jf),
    }
    if model.k is not None:
        expected["k"] = ((model.m,), model.k)
    if model.jk is not None:
        expected["jk"] = ((model.m, model.n), model.jk)
    for name, (shape, fun) in expected.items():
        got = np.asarray(fun(x0)).shape
        if got != shape:
            raise StructuralError("evaluator %r returned shape %s, expected %s" % (name, got, shape))


def _monotone_check(name: str, fun: Callable) -> ValidationCheck:
    grid = np.linspace(-MONOTONE_GRID_SPAN, MONOTONE_GRID_SPAN, MONOTONE_GRID_POINTS)
    vals = np.asarray(fun(grid), dtype=float)
    min_diff = float(np.min(np.diff(vals)))
    ok = min_diff > 0.0
    return ValidationCheck(name=name, max_residual=max(0.0, -min_diff), tolerance=0.0,
                           passed=ok, detail="strictly increasing on [-10, 10]" if ok else "not increasing")


def validate_model(model: SystemModel, pairs: Sequence[object], samples: Sequence[np.ndarray]) -> ValidationReport:
    """Numerical audit of shape and derivative consistency.

    Checks every analytic Jacobian/gradient/Hessian against central
    differences at the sampled states (threshold 1e-4), class-K monotonicity
    on a 101-point grid, definiteness-style sign conditions, and batched vs
    per-sample evaluation agreement. Dimension mismatches raise immediately.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise InvalidParameterError("validation needs a nonempty sample list")
    _check_shapes(model, samples[0])
    checks: List[ValidationCheck] = []

    def fd_entry(name, analytic, reference, pts):
        res = 0.0
        for x in pts:
            approx = central_difference_jacobian(reference, x)
            res = max(res, float(np.max(np.abs(np.asarray(analytic(x), dtype=float) - approx))))
        checks.append(ValidationCheck(name=name, max_residual=res, tolerance=DERIVATIVE_TOL,
                                      passed=res < DERIVATIVE_TOL))

    fd_entry("jf", model.jf, model.f, samples)
    if model.k is not None and model.jk is not None:
        fd_entry("jk", model.jk, model.k, samples)

    stacked = np.stack(samples, axis=0)
    batch_res = float(np.max(np.abs(model.f(stacked) - np.stack([model.f(x) for x in samples]))))
    batch_res = max(batch_res, float(np.max(np.abs(model.g(stacked) - np.stack([model.g(x) for x in samples])))))
    checks.append(ValidationCheck(name="batch-evaluation", max_residual=batch_res, tolerance=1e-12,
                                  passed=batch_res < 1e-12,
                                  detail="batched f/g agree with per-sample evaluation"))

    for idx, pair in enumerate(pairs):
        if isinstance(pair, BarrierPair):
            tag = "cbf[%d]" % idx
            zero = abs(float(pair.alpha.fun(0.0)))
            checks.append(ValidationCheck(name="%s.alpha(0)" % tag, max_residual=zero, tolerance=0.0,
                                          passed=zero == 0.0))
            checks.append(_monotone_check("%s.alpha-monotone" % tag, pair.alpha.fun))
            fd_entry("%s.grad_h" % tag,
                     pair.grad_h, lambda x, p=pair: np.asarray(p.h(x), dtype=float)[None] if np.asarray(p.h(x)).ndim == 0 else p.h(x),
                     samples)
            fd_entry("%s.hess_h" % tag, pair.hess_h, pair.grad_h, samples)
            if pair.geometry is not None:
                boundary = pair.geometry.boundary_points(128)
                norms = np.sqrt(dot(pair.grad_h(boundary), pair.grad_h(boundary)))
                min_norm = float(np.min(norms))
                checks.append(ValidationCheck(name="%s.grad-on-boundary" % tag,
                                              max_residual=0.0 if min_norm > BOUNDARY_GRAD_MIN else BOUNDARY_GRAD_MIN - min_norm,
                                              tolerance=0.0, passed=min_norm > BOUNDARY_GRAD_MIN,
                                              detail="min ||grad_h|| on boundary = %g" % min_norm))
        elif isinstance(pair, LyapunovPair):
            tag = "clf[%d]" % idx
            at_star = abs(float(pair.v(pair.xstar)))
            checks.append(ValidationCheck(name="%s.v(xstar)" % tag, max_residual=at_star, tolerance=0.0,
                                          passed=at_star == 0.0))
            away = [x for x in samples if np.linalg.norm(x - pair.xstar) > 1e-12]
            min_v = min((float(pair.v(x)) for x in away), default=1.0)
            checks.append(ValidationCheck(name="%s.v-positive" % tag,
                                          max_residual=max(0.0, -min_v), tolerance=0.0,
                                          passed=min_v > 0.0,
                                          detail="min V over samples away from xstar = %g" % min_v))
            zero = abs(float(pair.beta.fun(0.0)))
            checks.append(ValidationCheck(name="%s.beta(0)" % tag, max_residual=zero, tolerance=0.0,
                                          passed=zero == 0.0))
            checks.append(_monotone_check("%s.beta-monotone" % tag, pair.beta.fun))
            fd_entry("%s.grad_v" % tag,
                     pair.grad_v, lambda x, p=pair: np.asarray(p.v(x), dtype=float)[None] if np.asarray(p.v(x)).ndim == 0 else p.v(x),
                     samples)
            fd_entry("%s.hess_v" % tag, pair.hess_v, pair.grad_v, samples)
        else:
            raise StructuralError("unsupported pair type %r at index %d" % (type(pair).__name__, idx))

    return ValidationReport(checks=tuple(checks))


class TestValidateModel:
    def samples(self):
        return [np.array([0.5, -1.0]), np.array([3.5, 0.5]), np.array([-1.0, 2.0])]

    def test_builtin_scenario_passes(self, fig3, fig2):
        report = validate_model(fig3.model, list(fig3.pairs), self.samples())
        assert report.passed
        assert report.max_residual < 1e-4
        mixed = validate_model(fig2.model, list(fig2.pairs) + [fig2.clf], self.samples())
        assert mixed.passed

    def test_wrong_gradient_is_caught_and_named(self):
        model = single_integrator_2d(gain=np.diag([-1.0, -5.0]))
        good = make_ball_cbf((2.0, 0.0), 1.0)

        def value_and_grad(x):
            h, grad = good.value_and_grad(x)
            return h, 1.1 * np.asarray(grad, dtype=float)

        bad = type(good)(value_and_grad=value_and_grad, hess_h=good.hess_h, alpha=good.alpha,
                         geometry=good.geometry)
        report = validate_model(model, [bad], self.samples())
        assert not report.passed
        assert any("grad_h" in c.name for c in report.failures())

    def test_shape_mismatch_raises(self):
        model = linear_system(np.zeros((2, 2)), np.eye(2))
        broken = type(model)(n=2, m=2, f=lambda x: np.zeros(3), g=model.g, jf=model.jf)
        with pytest.raises(Exception):
            validate_model(broken, [], self.samples())

    def test_empty_samples_rejected(self, fig3):
        with pytest.raises(InvalidParameterError):
            validate_model(fig3.model, list(fig3.pairs), [])


class TestFiniteDifferences:
    def test_exact_on_linear_fields(self):
        a = np.array([[1.0, 2.0], [-3.0, 0.5]])
        jac = central_difference_jacobian(lambda x: a @ x, np.array([0.3, -0.7]))
        assert np.max(np.abs(jac - a)) < 1e-9

    def test_quadratic_gradient(self):
        fun = lambda x: np.array([float(x @ x)])
        x = np.array([1.0, 2.0])
        jac = central_difference_jacobian(fun, x)
        assert np.max(np.abs(jac[0] - 2.0 * x)) < 1e-8

    def test_batch_matches_one_state_calls_bitwise(self):
        # a batch of states gives each state the Jacobian (and value) a
        # one-state call gives it, bit for bit, including the step size
        def field(x):
            x = np.asarray(x, dtype=float)
            return np.stack([x[..., 0] ** 3 - x[..., 1], np.sin(x[..., 0] * x[..., 1]),
                             x[..., 1] ** 2], axis=-1)

        states = np.random.default_rng(7).uniform(-4.0, 4.0, size=(300, 2))
        values, jacs = central_difference_jacobian(field, states, value=True)
        assert jacs.shape == (300, 3, 2)
        for x, value, jac in zip(states, values, jacs):
            assert value.tobytes() == field(x).tobytes()
            assert jac.tobytes() == central_difference_jacobian(field, x).tobytes()
            delta = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            cols = [(field(x + delta * e) - field(x - delta * e)) / (2.0 * delta)
                    for e in np.eye(2)]
            assert jac.tobytes() == np.stack(cols, axis=-1).tobytes()

    def test_scalar_output_keeps_its_shape(self):
        jac = central_difference_jacobian(lambda x: np.asarray(x, dtype=float) @ [1.0, 2.0],
                                          np.array([[0.5, 1.0], [2.0, -1.0]]))
        assert jac.shape == (2, 2)
        assert np.max(np.abs(jac - [1.0, 2.0])) < 1e-9
