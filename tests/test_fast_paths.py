"""Each fast path against the slow path it replaces, compared bit for bit.

The fast paths: products with g and W formed once from their constant marks
(identity products skipped), unit factors that skip the multiply by 1 (and
the zero and constant evaluators that skip their arithmetic at one state), each
state function's value and gradient from one evaluator, the CLF-CBF failure
mask read from lam1, the basin loop stepping its running rows packed, in
Fortran order for planar systems, and the batched products calling einsum's
C kernel.
Stored results own their memory even when an evaluator returns its input.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from barrier_lab import (
    BarrierPair,
    ClfCbfController,
    NominalClosedLoop,
    SafetyFilterController,
    SystemModel,
    field_grid,
    integrate_batch,
    linear_system,
    make_ball_cbf,
    quadratic_clf,
    roa_grid,
    transform_cbf,
)
from barrier_lab.model import (constant_matrix, constant_state_map, constant_value, dot,
                               identity_map, linear_evaluator, linear_map, matvec, outer,
                               quadratic_map, quadratic_offset_map)
from barrier_lab.qp import DUAL_TOL, FEAS_TOL, _clf_cbf_fields, _clf_cbf_solution
from barrier_lab.sim import (CONV_HOLD, CONV_RADIUS, STATUS_CONVERGED, STATUS_ERROR,
                             STATUS_LEFT, STATUS_RUNNING, _advance, _attractor_label, _labels)
from conftest import bits

CATALOG = ("fig3", "fig3-h2a1", "fig3-h1a2", "fig3-h2a2", "fig2")
# -0.0, nan and +-inf in every position, next to ordinary values
SPECIAL = np.array([[-0.0, -0.0], [-0.0, 1.5], [math.nan, 2.0], [-math.nan, -0.0],
                    [math.inf, 0.5], [-math.inf, -2.0], [3.0, math.inf], [-1.0, -math.inf]])


def unmarked_twin(controller):
    """The controller rebuilt with g and W as unmarked callables of the same matrices."""
    model = controller.model
    b = model.constant_g()
    w = controller.weight.constant

    def g(x):
        return np.broadcast_to(b, np.shape(x)[:-1] + b.shape)

    def weight(x):
        return np.broadcast_to(w, np.shape(x)[:-1] + w.shape)

    twin = SystemModel(n=model.n, m=model.m, f=model.f, g=g, jf=model.jf, k=model.k,
                       jk=model.jk)
    if controller.kind == "safety-filter":
        return SafetyFilterController(twin, controller.pair, weight)
    return ClfCbfController(twin, controller.pair, controller.clf, weight, p=controller.p)


class TestMarkedLoopTerms:
    def test_builtins_match_unmarked_callables(self, bundles):
        for name in CATALOG:
            bundle = bundles(name)
            fast, slow = bundle.controller, unmarked_twin(bundle.controller)
            assert slow._terms.times_g is None and slow._terms.times_winv_gt is None
            states = bundle.safe_states(10 ** 4, seed=13)
            for x in (states[0], states[:1], states[:100], states):
                for got, want in zip(fast.evaluate(x), slow.evaluate(x)):
                    assert np.array_equal(got, want), name
                assert np.array_equal(fast.field(x), slow.field(x)), name
            rk4_fast = integrate_batch(fast, states[:20], t_final=0.2, dt=1e-3)
            rk4_slow = integrate_batch(slow, states[:20], t_final=0.2, dt=1e-3)
            for a, b in zip(rk4_fast, rk4_slow):
                assert len(a.times) == 201
                for got, want in ((a.states, b.states), (a.inputs, b.inputs),
                                  (a.multiplier_trace, b.multiplier_trace)):
                    assert np.array_equal(got, want), name


class TestUnitFactors:
    def test_identity_evaluator_is_the_multiply(self):
        evaluate = linear_evaluator(np.eye(2))
        for x in (SPECIAL, SPECIAL[2]):
            assert np.array_equal(bits(evaluate(x)), bits(x * np.ones(2)))
        # a diagonal of ones beside a zero is no identity: the zero still scales
        assert np.array_equal(bits(linear_evaluator(np.diag([1.0, 0.0]))(SPECIAL[:2])),
                              bits(SPECIAL[:2] * np.array([1.0, 0.0])))
        # a zero matrix skips every 0 * x_j: +0.0 entries of shape (..., m),
        # also at one state, where it returns np.zeros(m)
        for mat in (np.zeros((2, 2)), np.zeros((1, 2))):
            zero = linear_evaluator(mat)
            for x in (SPECIAL, SPECIAL[2], SPECIAL[3]):
                got = zero(x)
                assert type(got) is np.ndarray and got.shape == x.shape[:-1] + mat.shape[:1]
                assert np.array_equal(bits(got), bits(np.zeros(got.shape)))
        # a constant matrix skips the broadcast at one state: it returns the
        # marked matrix itself, read-only like the batch's broadcast view; the
        # Hessians of both ball forms and of the offset eta are such evaluators
        skew = np.array([[1.0, 0.3], [-0.0, 1.5]])
        for mat, constant in ((np.eye(2), constant_matrix(np.eye(2))),
                              (skew, constant_matrix(skew)),
                              (2.0 * np.eye(2), make_ball_cbf((0.0, 3.0), 1.5).hess_h),
                              (np.eye(2), make_ball_cbf((0.0, 3.0), 1.5, form="half").hess_h),
                              (2.0 * np.eye(2), quadratic_offset_map((5.0, 1.0), 1.0).hess)):
            for x in (SPECIAL, SPECIAL[2]):
                got = constant(x)
                want = np.broadcast_to(mat, x.shape[:-1] + mat.shape)
                assert got.shape == want.shape and np.array_equal(bits(got), bits(want))
                with pytest.raises(ValueError, match="read-only"):
                    got[..., 0, 0] = 1.0
            assert constant(SPECIAL[2]) is constant_value(constant)
            assert np.array_equal(bits(constant_value(constant)), bits(mat))

    def test_unit_slope_is_the_multiply(self):
        unit = linear_map(1.0)
        s = SPECIAL.ravel()
        for value in (s, s[0], -0.0, math.nan, math.inf):
            assert np.array_equal(bits(unit.fun(value)), bits(1.0 * np.asarray(value)))
            assert np.array_equal(bits(unit.deriv(value)),
                                  bits(1.0 * np.ones_like(np.asarray(value, dtype=float))))

    def test_ball_unit_factors_are_the_multiply(self):
        center = np.array([0.0, 3.0])
        for form, scale in (("full", 2.0), ("half", 1.0)):
            ball = make_ball_cbf(center, 1.5, form=form)
            with np.errstate(invalid="ignore"):
                d = SPECIAL - center
                want_h = 0.5 * scale * (dot(d, d) - 1.5 ** 2)
                value, grad = ball.value_and_grad(SPECIAL)
                assert np.array_equal(bits(grad), bits(scale * d))
                assert np.array_equal(bits(ball.grad_h(SPECIAL)), bits(scale * d))
                assert np.array_equal(bits(value), bits(want_h))
                assert np.array_equal(bits(ball.h(SPECIAL)), bits(want_h))

    def test_transform_coefficients_of_one_are_the_multiply(self):
        base = make_ball_cbf((2.0, 0.0), 1.0)
        eta = quadratic_offset_map((5.0, 1.0), 1.0)
        xs = np.concatenate([SPECIAL, np.random.default_rng(3).uniform(-3.0, 5.0, (20, 2))])
        for a, b, gamma in ((0.0, 1.0, None), (1.0, 1.0, quadratic_map(1.0, 0.5)),
                            (1.0, 0.5, identity_map()), (2.0, 1.0, quadratic_map(2.0, -0.1)),
                            (1.0, 0.0, quadratic_map(1.0, 0.25))):
            pair = transform_cbf(base, a, b, gamma=gamma, eta=eta)
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_transform(base, a, b, gamma or identity_map(), eta, xs)
                value, grad = pair.value_and_grad(xs)
                got = (pair.h(xs), value, grad, pair.grad_h(xs), pair.hess_h(xs))
                for part, expect in zip(got, (want[0], want[0], want[1], want[1], want[2])):
                    assert np.array_equal(bits(part), bits(expect)), (a, b)
        # a constant eta of 1 with b = 1 gives back the base barrier's bits
        same = transform_cbf(base, 0.0, 1.0, eta=constant_state_map(1.0))
        assert np.array_equal(bits(same.h(xs[8:])), bits(base.h(xs[8:])))

    def test_shared_eta_terms_are_the_separate_evaluators(self):
        for eta, fun, grad in written_out_etas(OFFSET_CENTER):
            for x in (SPECIAL, SPECIAL[0]):
                with np.errstate(invalid="ignore"):
                    value, gradient = eta.value_and_grad(x)
                    assert np.array_equal(bits(value), bits(fun(x)))
                    assert np.array_equal(bits(gradient), bits(grad(x)))


OFFSET_CENTER = np.array([5.0, 1.0])


def written_out_etas(center):
    """Each eta map beside its value and gradient as separate expressions."""
    def offset(x):
        return np.asarray(x, dtype=float) - center

    return [
        (constant_state_map(2.0),
         lambda x: np.full(np.shape(x)[:-1], 2.0),
         lambda x: np.zeros_like(np.asarray(x, dtype=float))),
        (quadratic_offset_map(center, 1.0),
         lambda x: dot(offset(x), offset(x)) + 1.0,
         lambda x: 2.0 * offset(x)),
    ]


def written_out_ball(center, radius, form):
    """The ball's h and grad_h as separate expressions, unit factors skipped."""
    def h(x):
        d = np.asarray(x, dtype=float) - center
        v = dot(d, d) - radius ** 2
        return v if form == "full" else 0.5 * v

    def grad_h(x):
        d = np.asarray(x, dtype=float) - center
        return 2.0 * d if form == "full" else d

    return h, grad_h


def written_out_transform(base_h, base_grad, a, b, gamma, eta_fun, eta_grad):
    """h and grad_h of a gamma(h1) + b eta h1 as separate expressions, unit factors skipped."""
    def h(x):
        hv, ev = base_h(x), eta_fun(x)
        out = ev * hv if b == 1.0 else b * ev * hv
        if a != 0.0:
            out = out + (gamma.fun(hv) if a == 1.0 else a * gamma.fun(hv))
        return out

    def grad_h(x):
        hv, gv = np.asarray(base_h(x), dtype=float), base_grad(x)
        grad = eta_fun(x)[..., None] * gv + hv[..., None] * eta_grad(x)
        if b != 1.0:
            grad = b * grad
        if a != 0.0:
            slope = np.asarray(gamma.deriv(hv), dtype=float)[..., None]
            grad = grad + (slope if a == 1.0 else a * slope) * gv
        return grad

    return h, grad_h


class TestOneEvaluator:
    def test_value_and_grad_is_the_written_out_value_and_gradient(self):
        center = np.array([2.0, 0.0])
        offset_center = OFFSET_CENTER
        q, xstar = np.array([[6.0, 1.0], [1.0, 2.0]]), np.array([0.5, -1.0])
        cases = []
        for form in ("full", "half"):
            cases.append((make_ball_cbf(center, 1.0, form=form).value_and_grad,
                          written_out_ball(center, 1.0, form)))
        etas = written_out_etas(offset_center)
        base = make_ball_cbf(center, 1.0)
        base_h, base_grad = written_out_ball(center, 1.0, "full")
        gamma = quadratic_map(1.0, 0.5)
        for eta, eta_fun, eta_grad in etas:
            cases.append((eta.value_and_grad, (eta_fun, eta_grad)))
            for a in (0.0, 1.0, 2.0):
                for b in (0.5, 1.0):
                    pair = transform_cbf(base, a, b, gamma=gamma, eta=eta)
                    cases.append((pair.value_and_grad, written_out_transform(
                        base_h, base_grad, a, b, gamma, eta_fun, eta_grad)))

        def grad_v(x):
            return matvec(q, np.asarray(x, dtype=float) - xstar)

        def v(x):
            return 0.5 * dot(np.asarray(x, dtype=float) - xstar, grad_v(x))

        cases.append((quadratic_clf(q, xstar=xstar).value_and_grad, (v, grad_v)))
        assert len(cases) == 17
        for value_and_grad, (value, grad) in cases:
            for x in (SPECIAL, SPECIAL[1]):
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = value_and_grad(x), (value(x), grad(x))
                for part, expect in zip(got, want):
                    assert np.array_equal(bits(part), bits(expect))


def reference_transform(base, a, b, gamma, eta, x):
    """h, grad and Hessian of a gamma(h1) + b eta h1, each coefficient multiplied."""
    hv, gv = base.value_and_grad(x)
    hv = np.asarray(hv, dtype=float)
    ev, egv = eta.value_and_grad(x)
    value = b * ev * hv
    grad = b * (ev[..., None] * gv + hv[..., None] * egv)
    cross = outer(egv, gv)
    hess = b * (hv[..., None, None] * eta.hess(x) + cross + np.swapaxes(cross, -1, -2)
                + np.asarray(ev)[..., None, None] * base.hess_h(x))
    if a != 0.0:
        value = value + a * gamma.fun(hv)
        grad = grad + a * np.asarray(gamma.deriv(hv), dtype=float)[..., None] * gv
        hess = hess + a * (np.asarray(gamma.second(hv), dtype=float)[..., None, None]
                           * outer(gv, gv)
                           + np.asarray(gamma.deriv(hv), dtype=float)[..., None, None]
                           * base.hess_h(x))
    return value, grad, hess


def case_code(data: dict, p: float) -> np.ndarray:
    """The four-case selection as an active-set code, -1 where no case holds."""
    fv, fh, bb, c = data["fv"], data["fh"], data["vdh"], data["hdh"]
    a = data["vdv"] + 1.0 / p
    cond_empty = (fv <= FEAS_TOL) & (fh >= -FEAS_TOL)
    lam1_clf = fv / a
    cond_clf = (lam1_clf >= -DUAL_TOL) & (fh - lam1_clf * bb >= -FEAS_TOL)
    pos_c = c > 0.0
    lam2_cbf = -fh / np.where(pos_c, c, 1.0)
    cond_cbf = pos_c & (lam2_cbf >= -DUAL_TOL) & (fv + lam2_cbf * bb <= FEAS_TOL)
    det = a * c - bb * bb
    pos_det = det > 0.0
    safe_det = np.where(pos_det, det, 1.0)
    cond_both = (pos_det & ((fv * c - fh * bb) / safe_det >= -DUAL_TOL)
                 & ((fv * bb - fh * a) / safe_det >= -DUAL_TOL))
    return np.select([cond_empty, cond_clf, cond_cbf, cond_both], [0, 1, 2, 3], -1)


class TestClfCbfFailureMask:
    def test_nan_lam1_is_the_failed_case(self):
        # h is no CBF here: g = (0, 1)^T is tangent to the ball at (1, 0) and
        # (3, 0), and g^T grad_h = 2 x2 vanishes on the whole line x2 = 0
        model = linear_system(np.diag([-1.0, 0.0]), np.array([[0.0], [1.0]]))
        controller = ClfCbfController(model, make_ball_cbf((2.0, 0.0), 1.0),
                                      quadratic_clf(np.eye(2)))
        x1, x2 = np.meshgrid(np.linspace(-1.0, 5.0, 121), np.linspace(-3.0, 3.0, 121))
        states = np.stack([x1.ravel(), x2.ravel()], axis=-1)
        line = np.linspace(-1.0, 5.0, 601)
        states = np.concatenate([states, np.stack([line, np.zeros_like(line)], axis=-1)])
        data = _clf_cbf_fields(controller._terms, controller.pair, controller.clf, states)
        _, lam1, _ = _clf_cbf_solution(data, controller.p)
        failed = case_code(data, controller.p) < 0
        assert failed.sum() > 100
        assert np.array_equal(np.isnan(lam1), failed)
        assert np.array_equal(controller.evaluate(states)[3] < 0, failed)


class Mixed:
    """A duck-typed loop whose rows converge, leave the domain or fail at set times.

    The field is -20 x, so rows converge to the origin, except: 50 x beyond
    |x1| = 1e5 (the row leaves the domain), -0.1 x above x2 = 10 (too slow to
    converge within the horizon) and no input at all in two regions.
    """

    pair = None

    def field(self, x):
        x = np.asarray(x, dtype=float)
        v = np.where(np.abs(x[..., :1]) > 1e5, 50.0 * x,
                     np.where(x[..., 1:] > 10.0, -0.1 * x, -20.0 * x))
        # no input where x2 > 100, or where x1 < 1.5 while x2 < -1
        fails = (x[..., 1:] > 100.0) | ((x[..., 1:] < -1.0) & (x[..., :1] < 1.5))
        return np.where(fails, np.nan, v)


class TestPackedBasinLoop:
    def test_batch_matches_each_row_alone(self):
        attractors = [np.zeros(2), np.array([0.25, 0.25])]
        x0s = np.array([[0.0, 0.0],          # on an attractor: done after CONV_HOLD steps
                        [1.0, 0.5],
                        [2e5, 0.0],          # leaves the domain
                        [0.5, 200.0],        # fails at t = 0
                        [3.0, -1.0],
                        [4.0, -8.0],         # fails mid-run
                        [0.25, 0.25],
                        [-2.0, 1.5],
                        [0.0, 50.0]])        # still running at the horizon
        loop = Mixed()
        batch = _advance(loop, x0s, 1.0, 1e-3, attractors, record=False)
        status = batch[3]
        assert {STATUS_RUNNING, STATUS_CONVERGED, STATUS_LEFT,
                STATUS_ERROR} <= set(status.tolist())
        assert np.isfinite(batch[5][5]) and batch[5][5] > 0.0
        # a failed row keeps its last state, and a running one ends off its start
        assert np.all(np.isfinite(batch[2][status == STATUS_ERROR]))
        assert batch[2][-1, 1] < 50.0
        labels = _labels(*batch[3:], attractors)
        for i, x0 in enumerate(x0s):
            alone = _advance(loop, x0[None], 1.0, 1e-3, attractors, record=False)
            assert np.array_equal(alone[2][0], batch[2][i], equal_nan=True), i
            for got, want in zip(alone[3:], batch[3:]):
                assert np.array_equal(got[0], want[i], equal_nan=True), i
            assert _labels(*alone[3:], attractors) == [labels[i]]

    def test_recorded_batch_matches_each_row_alone(self):
        # the rows above, recorded: converged rows step on to the horizon, and a
        # row alone that fails or leaves the domain stops its recording early
        attractors = [np.zeros(2), np.array([0.25, 0.25])]
        x0s = np.array([[0.0, 0.0], [1.0, 0.5], [2e5, 0.0], [0.5, 200.0], [3.0, -1.0],
                        [4.0, -8.0], [0.25, 0.25], [-2.0, 1.5], [0.0, 50.0]])
        loop = Mixed()
        batch = _advance(loop, x0s, 1.0, 1e-3, attractors, record=True)
        times, states, status = batch[0], batch[1], batch[3]
        assert {STATUS_RUNNING, STATUS_CONVERGED, STATUS_LEFT,
                STATUS_ERROR} <= set(status.tolist())
        assert states.shape == (x0s.shape[0], times.size, 2)
        assert np.array_equal(states[:, -1], batch[2])
        for i, x0 in enumerate(x0s):
            alone = _advance(loop, x0[None], 1.0, 1e-3, attractors, record=True)
            k = alone[0].size
            assert np.array_equal(alone[0], times[:k]), i
            assert np.array_equal(alone[1][0], states[i, :k]), i
            # after the row's own recording ends, the batch repeats its last state
            assert np.array_equal(states[i, k:], np.broadcast_to(
                states[i, k - 1], states[i, k:].shape)), i
            assert k == times.size or status[i] in (STATUS_LEFT, STATUS_ERROR), i
            assert np.array_equal(alone[2][0], batch[2][i]), i
            for got, want in zip(alone[3:], batch[3:]):
                assert np.array_equal(got[0], want[i], equal_nan=True), i

    def test_grid_labels_match_each_node_alone(self):
        # fast plant: k(x) = -20 x around an obstacle at (2, 0), alpha slope 20
        model = linear_system(np.zeros((2, 2)), np.eye(2), gain=-20.0 * np.eye(2))
        controller = SafetyFilterController(model, make_ball_cbf((2.0, 0.0), 1.0,
                                                                 alpha=linear_map(20.0)))
        attractors = [np.zeros(2), np.array([3.0, 0.0])]
        grid = roa_grid(controller, ((-1.0, 4.5), (-1.0, 1.0)), [6, 3], attractors,
                        t_final=0.8, dt=1e-3)
        assert {"converged-to(0;0)", "converged-to(3;0)", "max-time",
                "unsafe-start"} <= set(grid.labels)
        for point, label in zip(grid.points, grid.labels):
            if label != "unsafe-start":
                alone = _advance(controller, point[None], 0.8, 1e-3, attractors, record=False)
                assert _labels(*alone[3:], attractors) == [label]


def assert_unshared(arrays, *inputs):
    arrays = [np.asarray(a) for a in arrays]
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:] + [np.asarray(x) for x in inputs]:
            assert not np.shares_memory(a, other)


class TestStoredArraysOwnTheirMemory:
    def test_identity_gain(self):
        # K = I with B = I: k and the drift A + B K are identity evaluators,
        # which return their input
        model = linear_system(np.zeros((2, 2)), np.eye(2), gain=np.eye(2))
        assert model.k(SPECIAL) is SPECIAL
        ball = make_ball_cbf((2.0, 0.0), 1.0)
        x0s = np.array([[0.5, 0.5], [4.0, 1.0]])
        attractors = [np.zeros(2), np.array([3.0, 0.0])]
        for controller in (NominalClosedLoop(model), SafetyFilterController(model, ball)):
            for traj in integrate_batch(controller, x0s, t_final=0.01, dt=1e-3,
                                        attractors=attractors):
                assert_unshared([traj.times, traj.states, traj.inputs, traj.h_values,
                                 traj.multiplier_trace], x0s, *attractors)
            grid = field_grid(controller, ((-1.0, 4.0), (-1.0, 1.0)), 4)
            assert_unshared([grid.states, grid.velocity, grid.h, grid.active_code,
                             grid.masked])
            roa = roa_grid(controller, ((-1.0, 4.0), (-1.0, 1.0)), 3, attractors,
                           t_final=0.01, dt=1e-3)
            assert_unshared([roa.points, *roa.attractors], *attractors)


def assert_same_or_nan(got, want, what):
    """Equal bits where want is a number; NaN where want is NaN, of either sign."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), what
    assert np.array_equal(bits(got)[~nan], bits(want)[~nan]), what


class TestBatchContiguousStates:
    def test_fortran_ordered_states_give_the_c_ordered_bits(self, bundles):
        for name in CATALOG:
            bundle = bundles(name)
            states = np.concatenate([bundle.safe_states(10 ** 4, seed=21), SPECIAL])
            for batch in (states[:1], states[:100], states, SPECIAL):
                fortran, c_order = np.asfortranarray(batch), np.ascontiguousarray(batch)
                assert fortran.flags.f_contiguous and c_order.flags.c_contiguous
                for controller in (bundle.controller, bundle.unfiltered):
                    with np.errstate(all="ignore"):
                        got = (controller.field(fortran),) + controller.evaluate(fortran)
                        want = (controller.field(c_order),) + controller.evaluate(c_order)
                    for part, (a, b) in enumerate(zip(got, want)):
                        assert_same_or_nan(a, b, (name, controller.kind, len(batch), part))


def c_layout_rk4(controller, x, dt):
    """One RK4 step of _advance's arithmetic with every stage state in C order."""
    def field(s):
        return np.asarray(controller.field(np.ascontiguousarray(s)), dtype=float)

    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return np.ascontiguousarray(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def c_layout_basins(controller, x0s, attractors, steps, dt):
    """Labels and final states of a basin run, every row stepped in one C-ordered batch.

    A row converges once it has stayed within CONV_RADIUS of one attractor
    for CONV_HOLD steps; its final state is the state it converged at. Every
    row steps to the horizon, so no row ever leaves the batch.
    """
    x = np.ascontiguousarray(x0s, dtype=float)
    attractors = np.array(attractors, dtype=float)
    hold = np.zeros(len(x), dtype=int)
    last_near = np.full(len(x), -1)
    labels, final = ["max-time"] * len(x), x.copy()
    for _ in range(steps):
        x = c_layout_rk4(controller, x, dt)
        assert np.isfinite(x).all()
        dists = np.linalg.norm(x[:, None, :] - attractors[None], axis=-1)
        nearest = np.argmin(dists, axis=-1)
        near = dists.min(axis=-1) < CONV_RADIUS
        hold = np.where(near & (nearest == last_near), hold + 1, near.astype(int))
        last_near = np.where(near, nearest, -1)
        for i in np.flatnonzero(hold >= CONV_HOLD):
            if labels[i] == "max-time":
                labels[i] = _attractor_label(attractors, nearest[i])
                final[i] = x[i]
    running = [i for i, label in enumerate(labels) if label == "max-time"]
    final[running] = x[running]
    return labels, final


class TestCLayoutReference:
    def test_integrate_batch_matches_the_c_layout_loop(self, bundles):
        for name in CATALOG:
            bundle = bundles(name)
            x0s = bundle.safe_states(20, seed=5)
            want = [x0s]
            for _ in range(200):
                want.append(c_layout_rk4(bundle.controller, want[-1], 1e-3))
            want = np.stack(want, axis=1)
            trajectories = integrate_batch(bundle.controller, x0s, t_final=0.2, dt=1e-3)
            assert len(trajectories) == 20
            for traj, states in zip(trajectories, want):
                assert traj.states.shape == (201, 2)
                assert np.array_equal(bits(traj.states), bits(states)), name

    def test_roa_grid_matches_the_c_layout_loop(self):
        # the fast plant of test_grid_labels_match_each_node_alone, on a finer grid
        model = linear_system(np.zeros((2, 2)), np.eye(2), gain=-20.0 * np.eye(2))
        controller = SafetyFilterController(model, make_ball_cbf((2.0, 0.0), 1.0,
                                                                 alpha=linear_map(20.0)))
        attractors = [np.zeros(2), np.array([3.0, 0.0])]
        bounds, t_final, dt = ((-1.0, 4.5), (-1.0, 1.0)), 0.8, 1e-3
        grid = roa_grid(controller, bounds, [12, 5], attractors, t_final=t_final, dt=dt)
        safe = np.array([label != "unsafe-start" for label in grid.labels])
        labels, final = c_layout_basins(controller, grid.points[safe], attractors, 800, dt)
        assert [label for label in grid.labels if label != "unsafe-start"] == labels
        assert {"converged-to(0;0)", "converged-to(3;0)", "max-time"} <= set(labels)
        packed = _advance(controller, grid.points[safe], t_final, dt, attractors, record=False)
        assert packed[2].flags.f_contiguous
        assert np.array_equal(bits(packed[2]), bits(final))

    def test_c_ordered_evaluator_keeps_the_bits(self, fig3):
        # a barrier evaluator that returns C-ordered copies turns the planar
        # pack back to C order at the first stage: the speed of the Fortran
        # pack is lost, the bits of every trajectory are not
        def value_and_grad(x):
            h, grad = fig3.pair.value_and_grad(x)
            return np.array(h, order="C"), np.array(grad, order="C")

        pair = replace(fig3.pair, value_and_grad=value_and_grad)
        controller = SafetyFilterController(fig3.model, pair, fig3.controller.weight)
        x0s = fig3.safe_states(100, seed=5)
        fortran = np.asfortranarray(x0s)
        assert fig3.controller.field(fortran).flags.f_contiguous
        assert not controller.field(fortran).flags.f_contiguous
        wrapped = integrate_batch(controller, x0s, t_final=0.2, dt=1e-3)
        plain = integrate_batch(fig3.controller, x0s, t_final=0.2, dt=1e-3)
        assert len(wrapped) == len(plain) == 100
        for got, want in zip(wrapped, plain):
            assert got.terminal_label == want.terminal_label
            for a, b in ((got.states, want.states), (got.inputs, want.inputs),
                         (got.h_values, want.h_values),
                         (got.multiplier_trace, want.multiplier_trace)):
                assert np.array_equal(bits(a), bits(b))


def readme_filter():
    """The README's custom barrier: the unit ball around (2, 0, 0) in three states."""
    center = np.array([2.0, 0.0, 0.0])

    def value_and_grad(x):
        d = np.asarray(x, dtype=float) - center
        return np.sum(d * d, axis=-1) - 1.0, 2.0 * d

    def hess_h(x):
        return np.broadcast_to(2.0 * np.eye(3), np.shape(x)[:-1] + (3, 3))

    alpha = linear_map(1.0)
    pair = BarrierPair(value_and_grad=value_and_grad, hess_h=hess_h,
                       alpha=alpha)
    model = linear_system(np.zeros((3, 3)), np.eye(3), -np.diag([1.0, 5.0, 9.0]))
    return SafetyFilterController(model, pair)


class TestThreeStatePack:
    def test_batch_matches_each_row_alone(self):
        # einsum sums a contiguous trailing axis of three in another order than
        # a strided one, so a batch-contiguous pack would move some rows' bits
        controller = readme_filter()
        x0s = np.random.default_rng(17).uniform((2.5, -2.0, -2.0), (6.0, 2.0, 2.0), (100, 3))
        times, states, final = _advance(controller, x0s, 0.02, 1e-3, (), record=True)[:3]
        assert states.shape == (100, 21, 3)
        for i, x0 in enumerate(x0s):
            alone = _advance(controller, x0[None], 0.02, 1e-3, (), record=True)
            assert np.array_equal(bits(alone[1][0]), bits(states[i])), i
            assert np.array_equal(bits(alone[2][0]), bits(final[i])), i


class TestEinsumKernel:
    def test_products_are_np_einsum(self):
        rng = np.random.default_rng(11)
        pool = np.array([-0.0, 0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, -math.nan,
                         1e308, -3e-310])

        def draw(*shape):
            out = rng.normal(size=shape)
            mask = rng.random(shape) < 0.3
            out[mask] = rng.choice(pool, size=int(mask.sum()))
            return out

        products = ((dot, "...i,...i->..."), (matvec, "...ij,...j->...i"),
                    (outer, "...i,...j->...ij"))
        for n in range(1, 9):
            batch = draw(50, n)
            cases = {
                dot: [(draw(n), draw(n)), (batch, draw(50, n)), (batch, draw(n)),
                      (np.asfortranarray(batch), draw(n)), (draw(7, 1, n), draw(4, n))],
                matvec: [(draw(n, n), draw(n)), (draw(50, n, n), batch), (draw(n, n), batch),
                         (draw(50, n, n), draw(n)), (draw(n, n), np.asfortranarray(batch))],
                outer: [(draw(n), draw(n)), (batch, draw(50, n)), (batch, draw(n)),
                        (np.asfortranarray(batch), draw(n)), (draw(7, 1, n), draw(4, n))],
            }
            for product, spec in products:
                for a, b in cases[product]:
                    with np.errstate(all="ignore"):
                        got, want = product(a, b), np.einsum(spec, a, b)
                    assert type(got) is type(want), (product.__name__, n)
                    assert np.shape(got) == np.shape(want), (product.__name__, n)
                    assert np.array_equal(bits(got), bits(want)), (product.__name__, n)
