"""QP conventions: the controllers' laws vs the subset-enumeration solver, KKT audits."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from barrier_lab import (
    ClfCbfController,
    ClfController,
    DefinitenessError,
    InfeasibleProblemError,
    InvalidParameterError,
    NominalClosedLoop,
    StrictFeasibilityError,
    StructuralError,
    certificate_errors,
    clf_cbf_problem,
    linear_system,
    make_ball_cbf,
    multipliers_on_boundary,
    quadratic_clf,
    safety_filter_problem,
    SafetyFilterController,
    solve_small_qp,
)
from barrier_lab import qp
from barrier_lab.model import constant_matrix, constant_value
from barrier_lab.qp import (DUAL_TOL, FEAS_TOL, MAX_ROWS, ConstraintRow, KktPoint, QpProblem,
                            _checked_matrix, clf_problem)
from conftest import barrier_slack, max_certificate_error, reference_evaluation

CERT_TOL = 1e-9
MATCH_TOL = 1e-10
EVAL_TOL = 1e-12
CATALOG = ("fig3", "fig3-h2a1", "fig3-h1a2", "fig3-h2a2", "fig2")
# rows of problem() active under each active code, per controller kind
ACTIVE_ROWS = {
    "safety-filter": {0: (), 2: (0,)},
    "clf-cbf-qp": {0: (), 1: (0,), 2: (1,), 3: (0, 1)},
    "clf": {0: (), 1: (0,)},
    "nominal": {0: ()},
}


def degenerate_plant(gain=None):
    # g spans x1 only while the normal of the unit ball at (0, 1) is pure x2
    # and the drift pushes into the ball: no input meets the cbf row there
    return linear_system(np.array([[0.0, 0.0], [0.0, -1.0]]), np.array([[1.0], [0.0]]),
                         gain=gain)


# (0, +-1) leave the m = 1 cbf row unsatisfiable: g^T grad_h = 0 with F_h < 0
DEGENERATE_STATES = np.array([[0.0, 1.0], [0.0, -1.0]])


def weighted_plant():
    """(model, W, ball, clf) on which every hoisted matrix matters: A != 0, B != I, W != I."""
    model = linear_system(np.array([[0.0, 1.0], [-1.0, 0.5]]),
                          np.array([[1.0, 0.3], [0.2, 1.5]]),
                          gain=np.array([[-1.0, 0.2], [0.1, -2.0]]))
    weight = constant_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    return model, weight, make_ball_cbf((2.0, 0.0), 1.0), quadratic_clf(np.diag([2.0, 1.0]))


def plant_states(pair, seed, low, high):
    """Uniform states of the box [low, high]^2 with h >= 0."""
    xs = np.random.default_rng(seed).uniform(low, high, size=(60, 2))
    return xs[pair.h(xs) >= 0.0]


def assert_single_states_are_batch_rows(controller, xs):
    """evaluate(x) and field(x) at each state of xs are row i of the batch call, bit for bit.

    All four evaluate outputs are compared, so -0.0 against 0.0 and the sign
    of a NaN count. Pins the one-state types too: u, field and multipliers
    are float64 arrays of one state's shape; the active code is a numpy
    integer on every controller kind.
    Returns the batch evaluate.
    """
    batch = controller.evaluate(xs)
    assert same_bits(controller.field(xs), batch[1])
    shapes = ((controller.model.m,), (controller.model.n,), (len(controller.row_bits),), ())
    for i, x in enumerate(xs):
        single = controller.evaluate(x)
        for name, got, want, shape in zip(("u", "field", "multipliers", "code"), single, batch,
                                          shapes):
            assert same_bits(got, want[i]), (name, i)
            assert np.shape(got) == shape and np.asarray(got).dtype == want.dtype, (name, i)
        for got in single[:3]:
            assert type(got) is np.ndarray and got.dtype == np.float64
        assert type(single[3]) is np.int_
        assert same_bits(controller.field(x), batch[1][i])
    return batch


class TestSafetyFilter:
    def test_inactive_region_passes_nominal_through(self, fig3):
        x = np.array([1.5, 0.0])
        controller = fig3.controller
        assert float(barrier_slack(fig3.pair, x, controller.unfiltered_field(x))) > 0.0
        assert np.array_equal(controller.evaluate(x)[0], [0.0, 0.0])
        point = fig3.controller.point(x)
        assert np.array_equal(point.u, [0.0, 0.0])
        assert point.active_set == ()
        assert point.multipliers == (0.0,)

    def test_active_golden_point(self, fig3):
        # at (3, 0): eta = -6, u = (3, 0), row multiplier 3 under the 2G weight
        x = np.array([3.0, 0.0])
        assert float(barrier_slack(fig3.pair, x, fig3.controller.unfiltered_field(x))) == -6.0
        point = fig3.controller.point(x)
        assert np.max(np.abs(point.u - [3.0, 0.0])) < 1e-12
        assert point.active_set == (0,)
        assert abs(point.multipliers[0] - 3.0) < 1e-12

    def test_matches_subset_solver(self, fig3):
        problem = safety_filter_problem(fig3.model, fig3.pair)
        for x in fig3.safe_states(128, seed=11):
            mine = fig3.controller.point(x)
            point = solve_small_qp(problem, x)
            assert np.max(np.abs(mine.u - point.u)) < MATCH_TOL
            assert max_certificate_error(problem, x, point) < CERT_TOL
            assert max_certificate_error(problem, x, mine) < CERT_TOL
            assert abs(mine.multipliers[0] - point.multipliers[0]) < MATCH_TOL

    def test_non_identity_weight(self, fig3):
        weight = constant_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        controller = SafetyFilterController(fig3.model, fig3.pair, weight)
        problem = safety_filter_problem(fig3.model, fig3.pair, weight=weight)
        for x in fig3.safe_states(64, seed=12):
            point = solve_small_qp(problem, x)
            assert np.max(np.abs(controller.evaluate(x)[0] - point.u)) < MATCH_TOL
            assert max_certificate_error(problem, x, point) < CERT_TOL

    def test_batched_matches_single(self, bundles):
        model, weight, ball, _ = weighted_plant()
        unit = make_ball_cbf((0.0, 0.0), 1.0, form="full")
        cases = [(bundles(name).controller, bundles(name).safe_states(64, seed=13))
                 for name in CATALOG[:4]]
        cases.append((SafetyFilterController(model, ball, weight), plant_states(ball, 5, -1.0, 5.0)))
        m1 = SafetyFilterController(degenerate_plant(gain=np.zeros((1, 2))), unit)
        m1_states = plant_states(unit, 6, -3.0, 3.0)
        cases.append((m1, m1_states))
        for controller, xs in cases:
            assert controller.kind == "safety-filter"
            assert_single_states_are_batch_rows(controller, xs)
            eta_batch = barrier_slack(controller.pair, xs, controller.unfiltered_field(xs))
            for i, x in enumerate(xs):
                assert float(eta_batch[i]) == float(
                    barrier_slack(controller.pair, x, controller.unfiltered_field(x)))
        # at the degenerate states one state raises and a batch row fails
        for x in DEGENERATE_STATES:
            for call in (m1.evaluate, m1.point):
                with pytest.raises(StrictFeasibilityError) as raised:
                    call(x)
                assert type(raised.value) is StrictFeasibilityError
                assert str(raised.value) == ("eta < 0 with ||g^T grad_h|| ~ 0:"
                                             " the cbf row cannot be met")
        u, field, multipliers, code = m1.evaluate(np.vstack([m1_states, DEGENERATE_STATES]))
        assert code[-2:].tolist() == [-1, -1] and np.all(code[:-2] >= 0)
        assert np.isnan(u[-2:]).all() and np.isnan(field[-2:]).all()
        assert np.isnan(multipliers[-2:]).all() and np.isfinite(u[:-2]).all()


class TestClfCbfQp:
    def test_golden_boundary_equilibrium(self, fig2):
        # at (0, 4.5) both rows bind: lam = (10.125, 30.375) and u = 0
        x = np.array([0.0, 4.5])
        point = fig2.controller.point(x)
        assert np.max(np.abs(point.u)) < 1e-12
        assert abs(point.multipliers[0] - 10.125) < 1e-12
        assert abs(point.multipliers[1] - 30.375) < 1e-12
        assert point.active_set == (0, 1)
        assert abs(point.delta - 10.125) < 1e-12
        problem = clf_cbf_problem(fig2.model, fig2.pair, fig2.clf)
        other = solve_small_qp(problem, x)
        assert np.max(np.abs(point.u - other.u)) < MATCH_TOL
        assert abs(point.delta - other.delta) < MATCH_TOL
        assert max_certificate_error(problem, x, point) < CERT_TOL

    def test_matches_subset_solver(self, fig2):
        problem = clf_cbf_problem(fig2.model, fig2.pair, fig2.clf)
        for x in fig2.safe_states(128, seed=21):
            point = fig2.controller.point(x)
            other = solve_small_qp(problem, x)
            assert np.max(np.abs(point.u - other.u)) < MATCH_TOL
            assert abs(point.delta - other.delta) < MATCH_TOL
            assert np.max(np.abs(np.array(point.multipliers) - other.multipliers)) < MATCH_TOL
            assert max_certificate_error(problem, x, point) < CERT_TOL

    def test_batch_matches_single(self, fig2):
        model, weight, ball, clf = weighted_plant()
        unit = make_ball_cbf((0.0, 0.0), 1.0, form="full")
        m1 = ClfCbfController(degenerate_plant(), unit, quadratic_clf(np.eye(2)))
        cases = ((fig2.controller, fig2.safe_states(64, seed=22)),
                 (ClfCbfController(model, ball, clf, weight, p=3.0),
                  plant_states(ball, 5, -1.0, 5.0)),
                 (m1, plant_states(unit, 6, -3.0, 3.0)))
        for controller, xs in cases:
            assert controller.kind == "clf-cbf-qp"
            u, _, multipliers, code = assert_single_states_are_batch_rows(controller, xs)
            for i, x in enumerate(xs):
                point = controller.point(x)
                assert same_bits(u[i], point.u)
                assert float(multipliers[i, 0]) / controller.p == point.delta
                assert int(code[i]) >= 0
        # at the degenerate states point raises, and evaluate gives code -1
        # and a +NaN u and multipliers, at one state as in a batch
        u, _, multipliers, code = assert_single_states_are_batch_rows(m1, DEGENERATE_STATES)
        assert code.tolist() == [-1, -1]
        assert same_bits(u, np.full((2, 1), np.nan))
        assert same_bits(multipliers, np.full((2, 2), np.nan))
        for x in DEGENERATE_STATES:
            with pytest.raises(InfeasibleProblemError) as raised:
                m1.point(x)
            assert type(raised.value) is InfeasibleProblemError
            assert str(raised.value) == ("cbf row unsatisfiable: g^T grad_h = 0 with F_h < 0"
                                         " at this state")

    def test_multiplier_equals_penalty_times_beta_when_gradients_d_orthogonal(self):
        # single-input plant where g^T grad_v = 0 on the boundary point:
        # the clf multiplier collapses to p beta(V) and the cbf row goes slack
        model = linear_system(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
        clf = quadratic_clf(np.diag([6.0, 1.0]))
        cbf = make_ball_cbf((1.0, 3.0), 1.0, form="half")
        x = np.array([0.0, 3.0])
        p = 2.0
        controller = ClfCbfController(model, cbf, clf, constant_matrix(np.eye(1)), p)
        lam1, lam2, delta_mat, det = multipliers_on_boundary(controller, x)
        assert lam1 == p * float(clf.beta.fun(clf.v(x))) == 9.0
        assert lam2 == 0.0
        point = ClfCbfController(model, cbf, clf, p=p).point(x)
        assert abs(point.multipliers[0] - 9.0) < 1e-12
        assert point.multipliers[1] == 0.0
        assert np.max(np.abs(point.u)) < 1e-12
        problem = clf_cbf_problem(model, cbf, clf, p=p)
        other = solve_small_qp(problem, x)
        assert np.max(np.abs(point.u - other.u)) < MATCH_TOL
        assert max_certificate_error(problem, x, point) < CERT_TOL

    def test_infeasible_state_raises_single_and_flags_batch(self):
        model = degenerate_plant()
        clf = quadratic_clf(np.eye(2))
        cbf = make_ball_cbf((0.0, 0.0), 1.0, form="full")
        x = np.array([0.0, 1.0])
        controller = ClfCbfController(model, cbf, clf)
        with pytest.raises(InfeasibleProblemError) as raised:
            controller.point(x)
        # the cbf row is row 1; it is short by -F_h = -grad_h^T f = 2
        assert raised.value.row == 1
        assert raised.value.violation == 2.0
        with pytest.raises(InfeasibleProblemError):
            solve_small_qp(clf_cbf_problem(model, cbf, clf), x)
        u, _, _, code = controller.evaluate(x[None, :])
        assert int(code[0]) == -1
        assert np.all(np.isnan(u[0]))


class TestUnfilteredControl:
    def test_golden_value(self, fig2):
        # at (0, 4.5): F_V = 10.125, a = 21.25, lam1 = 10.125 / 21.25
        x = np.array([0.0, 4.5])
        point = fig2.unfiltered.point(x)
        assert abs(point.multipliers[0] - 10.125 / 21.25) < 1e-14
        assert np.max(np.abs(point.u - (-(10.125 / 21.25)) * np.array([0.0, 4.5]))) < 1e-12

    def test_zero_when_decrease_holds_for_free(self, fig2):
        point = fig2.unfiltered.point(np.zeros(2))
        assert np.array_equal(point.u, [0.0, 0.0])
        assert point.active_set == ()
        assert point.multipliers == (0.0,)

    def test_matches_subset_solver(self, fig2):
        problem = fig2.unfiltered.problem()
        for x in fig2.safe_states(128, seed=31):
            point = fig2.unfiltered.point(x)
            other = solve_small_qp(problem, x)
            assert np.max(np.abs(point.u - other.u)) < MATCH_TOL
            assert max_certificate_error(problem, x, point) < CERT_TOL

    def test_batch_matches_single(self, bundles):
        model, weight, _, clf = weighted_plant()
        unit = make_ball_cbf((0.0, 0.0), 1.0, form="full")
        cases = [(bundles(name).unfiltered, bundles(name).safe_states(64, seed=32))
                 for name in CATALOG]
        cases += [(ClfController(model, clf, weight, p=3.0),
                   np.random.default_rng(5).uniform(-1.0, 5.0, size=(40, 2))),
                  (ClfController(degenerate_plant(), quadratic_clf(np.eye(2))),
                   np.vstack([plant_states(unit, 6, -3.0, 3.0), DEGENERATE_STATES]))]
        kinds = set()
        for controller, xs in cases:
            kinds.add(controller.kind)
            u, _, multipliers, _ = assert_single_states_are_batch_rows(controller, xs)
            for i, x in enumerate(xs):
                point = controller.point(x)
                assert same_bits(u[i], point.u)
                assert point.multipliers == tuple(multipliers[i].tolist())
        assert kinds == {"clf", "nominal"}


def one_row_problem(weight, normal, penalty=None):
    row = ConstraintRow(kind="custom", terms=lambda x: (normal, 1.0))
    return QpProblem(weight=weight, penalty=penalty, rows=(row,))


def plant(gain=None):
    return linear_system(np.zeros((2, 2)), np.eye(2), gain=gain)


# case: (call, error type, message) for each typed raise no other test pins
RAISES = {
    "unknown-row-kind": (lambda: ConstraintRow(kind="box", terms=lambda x: (np.ones(2), 0.0)),
                         InvalidParameterError, "unknown row kind 'box'"),
    "penalty": (lambda: one_row_problem(constant_matrix(np.eye(2)), np.ones(2), penalty=0.0),
                InvalidParameterError, "penalty must be positive, got 0.0"),
    "weight-shape": (lambda: solve_small_qp(one_row_problem(lambda x: np.ones((2, 3)), np.ones(2)),
                                            np.zeros(2)),
                     StructuralError, "weight evaluator returned shape (2, 3)"),
    "row-shape": (lambda: solve_small_qp(one_row_problem(constant_matrix(np.eye(2)), np.ones(3)),
                                         np.zeros(2)),
                  StructuralError, "row normal has shape (3,), expected (2,)"),
    "point-on-a-batch": (lambda: SafetyFilterController(plant(-np.eye(2)), make_ball_cbf((2, 0), 1))
                         .point(np.zeros((3, 2))),
                         InvalidParameterError,
                         "point takes a single state; evaluate takes batches"),
    "filter-without-k": (lambda: SafetyFilterController(plant(), make_ball_cbf((2, 0), 1)),
                         StructuralError, "the safety filter needs a nominal controller k"),
    "nominal-without-k": (lambda: NominalClosedLoop(plant()), StructuralError,
                          "nominal closed loop needs a controller k on the model"),
}


class TestRaises:
    @pytest.mark.parametrize("case", RAISES)
    def test_each_raise_names_what_failed(self, case):
        call, error, message = RAISES[case]
        with pytest.raises(error) as excinfo:
            call()
        assert type(excinfo.value) is error and str(excinfo.value) == message


class TestSolverStructure:
    def test_row_count_cap(self):
        row = ConstraintRow(kind="custom", terms=lambda x: (np.ones(2), 0.0))
        problem = QpProblem(weight=constant_matrix(np.eye(2)), penalty=None,
                            rows=(row,) * (MAX_ROWS + 1))
        with pytest.raises(InvalidParameterError):
            solve_small_qp(problem, np.zeros(2))

    def test_weight_must_be_symmetric_positive_definite(self):
        row = ConstraintRow(kind="custom", terms=lambda x: (np.ones(2), 1.0))
        skew = QpProblem(weight=constant_matrix(np.array([[1.0, 0.3], [0.0, 1.0]])),
                         penalty=None, rows=(row,))
        with pytest.raises(DefinitenessError):
            solve_small_qp(skew, np.zeros(2))
        indefinite = QpProblem(weight=constant_matrix(np.diag([1.0, -1.0])),
                               penalty=None, rows=(row,))
        with pytest.raises(DefinitenessError):
            solve_small_qp(indefinite, np.zeros(2))

    def test_relaxed_row_needs_penalty(self):
        row = ConstraintRow(kind="clf-relaxed", terms=lambda x: (np.ones(2), 0.0),
                            relax_coeff=1.0)
        with pytest.raises(InvalidParameterError):
            QpProblem(weight=constant_matrix(np.eye(2)), penalty=None, rows=(row,))

    def test_cbf_row_admits_no_relaxation(self):
        with pytest.raises(InvalidParameterError):
            ConstraintRow(kind="cbf", terms=lambda x: (np.ones(2), 0.0), relax_coeff=1.0)

    def test_penalty_must_be_positive(self, fig2):
        from barrier_lab.qp import clf_problem
        calls = (
            lambda: clf_cbf_problem(fig2.model, fig2.pair, fig2.clf, p=-1.0),
            lambda: clf_problem(fig2.model, fig2.clf, p=0.0),
            lambda: ClfCbfController(fig2.model, fig2.pair, fig2.clf, p=0.0),
            lambda: ClfController(fig2.model, fig2.clf, p=-2.0),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="penalty p must be positive"):
                call()


class TestStrictFeasibilityAudit:
    def test_infeasible_eta_raises_in_filter(self):
        controller = SafetyFilterController(degenerate_plant(gain=np.zeros((1, 2))),
                                            make_ball_cbf((0.0, 0.0), 1.0, form="full"))
        x = np.array([0.0, 1.0])
        with pytest.raises(StrictFeasibilityError):
            controller.point(x)
        with pytest.raises(StrictFeasibilityError):
            controller.evaluate(x)
        u = controller.evaluate(x[None, :])[0]
        assert np.all(np.isnan(u[0]))


def assert_matches_reference(controller, x):
    mine = controller.evaluate(x)
    ref = reference_evaluation(controller, x)
    for name, got, want in zip(("u", "field", "multipliers"), mine[:3], ref[:3]):
        got = np.asarray(got, dtype=float)
        assert got.shape == np.shape(want), name
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        gap = np.abs(np.nan_to_num(got) - np.nan_to_num(want))
        assert gap.size == 0 or float(np.max(gap)) < EVAL_TOL, (name, float(np.max(gap)))
    assert np.array_equal(mine[3], ref[3])
    # a second pass, and field, give the same bits
    again = controller.evaluate(x)
    assert np.array_equal(again[0], mine[0], equal_nan=True)
    assert np.array_equal(controller.field(x), mine[1], equal_nan=True)
    assert np.array_equal(again[2], mine[2], equal_nan=True)
    assert np.array_equal(again[3], mine[3])
    return mine


def assert_point_reads_evaluate(controller, x):
    """point(x) holds the slots of evaluate(x) bit for bit."""
    u, _, multipliers, code = controller.evaluate(x)
    point = controller.point(x)
    assert np.array_equal(point.u, u)
    assert point.multipliers == tuple(multipliers.tolist())
    assert point.active_set == ACTIVE_ROWS[controller.kind][int(code)]
    relaxed = controller.kind in ("clf-cbf-qp", "clf")
    assert point.delta == (multipliers[0] / controller.p if relaxed else 0.0)


class TestOnePassEvaluate:
    def test_evaluate_matches_reference_laws(self, bundles):
        for name in CATALOG:
            bundle = bundles(name)
            states = bundle.safe_states(100, seed=41)
            for controller in (bundle.controller, bundle.unfiltered):
                assert_matches_reference(controller, states[:1])
                u, _, multipliers, _ = assert_matches_reference(controller, states)
                for i, x in enumerate(states[:25]):
                    assert np.array_equal(controller.evaluate(x)[0], u[i])
                    assert_point_reads_evaluate(controller, x)
                if controller.kind == "nominal":
                    continue
                problem = controller.problem()
                for i, x in enumerate(states[:25]):
                    point = solve_small_qp(problem, x)
                    assert np.max(np.abs(u[i] - point.u)) < MATCH_TOL
                    assert np.max(np.abs(multipliers[i] - point.multipliers)) < MATCH_TOL
                    assert max_certificate_error(problem, x, point) < CERT_TOL

        model, weight, ball, clf = weighted_plant()
        xs = np.random.default_rng(5).uniform(-1.0, 5.0, size=(200, 2))
        xs = xs[ball.h(xs) >= 0.0]
        for controller in (SafetyFilterController(model, ball, weight),
                           ClfCbfController(model, ball, clf, weight, p=3.0)):
            _, _, _, code = assert_matches_reference(controller, xs)
            assert len(set(code.tolist())) > 1
            for x in xs[:25]:
                assert_point_reads_evaluate(controller, x)

        # degenerate rows at (0, 1): a batch gives NaN and code -1, a single
        # state raises
        cbf = make_ball_cbf((0.0, 0.0), 1.0, form="full")
        batch = np.array([[0.0, 1.0], [2.0, 0.5], [0.0, 1.0], [0.5, 3.0]])
        fil = SafetyFilterController(degenerate_plant(gain=np.zeros((1, 2))), cbf)
        u, field, multipliers, code = assert_matches_reference(fil, batch)
        assert np.all(np.isnan(u[[0, 2]])) and np.all(np.isnan(field[[0, 2]]))
        assert np.all(np.isfinite(u[[1, 3]]))
        assert list(code) == [-1, 0, -1, 2]
        with pytest.raises(StrictFeasibilityError):
            fil.evaluate(batch[0])
        with pytest.raises(StrictFeasibilityError):
            fil.point(batch[0])
        qp_ctl = ClfCbfController(degenerate_plant(), cbf, quadratic_clf(np.eye(2)))
        u, field, multipliers, code = assert_matches_reference(qp_ctl, batch)
        assert list(code[[0, 2]]) == [-1, -1]
        assert np.all(code[[1, 3]] >= 0)
        assert np.all(np.isnan(u[[0, 2]])) and np.all(np.isnan(multipliers[[0, 2]]))
        assert np.all(np.isfinite(field[[1, 3]]))
        with pytest.raises(InfeasibleProblemError) as raised:
            qp_ctl.point(batch[0])
        assert raised.value.row == 1
        for x in batch[[1, 3]]:
            assert_point_reads_evaluate(fil, x)
            assert_point_reads_evaluate(qp_ctl, x)

    def test_unmarked_non_identity_weight_is_solved_at_each_state(self, monkeypatch):
        # a weight given as a plain callable is not hoisted: each evaluation
        # solves W x = g^T grad_h (qp._apply_inverse's LU branch)
        solves = []
        apply_inverse = qp._apply_inverse

        def counted(w, vec):
            if not np.array_equal(w, np.broadcast_to(np.eye(w.shape[-1]), w.shape)):
                solves.append(w.shape)
            return apply_inverse(w, vec)

        monkeypatch.setattr(qp, "_apply_inverse", counted)
        model, marked, ball, clf = weighted_plant()
        w = marked.constant

        def weight(x):
            return np.broadcast_to(w, np.shape(x)[:-1] + w.shape)

        xs = np.random.default_rng(5).uniform(-1.0, 5.0, size=(200, 2))
        xs = xs[ball.h(xs) >= 0.0]
        for controller in (SafetyFilterController(model, ball, weight),
                           ClfCbfController(model, ball, clf, weight, p=3.0)):
            solves.clear()
            u, _, multipliers, code = assert_matches_reference(controller, xs)
            assert solves and len(set(code.tolist())) > 1
            problem = controller.problem()
            for i, x in enumerate(xs[:25]):
                point = solve_small_qp(problem, x)
                assert np.max(np.abs(u[i] - point.u)) < MATCH_TOL
                assert np.max(np.abs(multipliers[i] - point.multipliers)) < MATCH_TOL
                assert max_certificate_error(problem, x, point) < CERT_TOL


states = st.tuples(st.floats(-4.0, 6.0), st.floats(-4.0, 6.0)).map(np.array)


class TestSolverProperties:
    @given(x=states)
    def test_filter_certificate_everywhere(self, fig3, x):
        problem = safety_filter_problem(fig3.model, fig3.pair)
        try:
            u = fig3.controller.point(x).u
        except StrictFeasibilityError:
            # grad_h = 0 at the obstacle center: the solver must agree
            with pytest.raises(InfeasibleProblemError):
                solve_small_qp(problem, x)
            return
        point = solve_small_qp(problem, x)
        assert max_certificate_error(problem, x, point) < CERT_TOL
        assert np.max(np.abs(u - point.u)) < MATCH_TOL

    @given(x=states)
    def test_clf_cbf_certificate_on_feasible_states(self, fig2, x):
        problem = clf_cbf_problem(fig2.model, fig2.pair, fig2.clf)
        try:
            point = solve_small_qp(problem, x)
        except InfeasibleProblemError:
            return
        assert max_certificate_error(problem, x, point) < CERT_TOL
        other = fig2.controller.point(x)
        assert np.max(np.abs(other.u - point.u)) < MATCH_TOL

    @given(g11=st.floats(0.5, 3.0), g22=st.floats(0.5, 3.0), g12=st.floats(-0.4, 0.4),
           x=states)
    def test_weighted_filter_matches_solver(self, fig3, g11, g22, g12, x):
        weight = constant_matrix(np.array([[g11, g12], [g12, g22]]))
        problem = safety_filter_problem(fig3.model, fig3.pair, weight=weight)
        try:
            u = SafetyFilterController(fig3.model, fig3.pair, weight).point(x).u
        except StrictFeasibilityError:
            return
        point = solve_small_qp(problem, x)
        assert np.max(np.abs(u - point.u)) < MATCH_TOL


def _reference_solve(problem, x):
    """solve_small_qp as it was before it shared one KKT system of all rows.

    The weight is checked at every state, and every subset builds its own
    KKT system from the stacked normals. The solver must match it bit for
    bit.
    """
    x = np.asarray(x, dtype=float)
    w = _checked_matrix(problem.weight(x))
    m = w.shape[0]
    has_delta = problem.relaxed
    nz = m + 1 if has_delta else m
    hess = np.zeros((nz, nz))
    hess[:m, :m] = w
    if has_delta:
        hess[m, m] = float(problem.penalty)
    normals, offsets, senses = [], [], []
    for row in problem.rows:
        a, c = row.terms(x)
        a = np.asarray(a, dtype=float)
        normals.append(np.concatenate([a, [-row.relax_coeff]]) if has_delta else a)
        offsets.append(float(c))
        senses.append(row.sense)
    k = len(problem.rows)

    def residuals(z):
        return np.array([senses[i] * (normals[i] @ z + offsets[i]) for i in range(k)])

    for card in range(k + 1):
        for subset in itertools.combinations(range(k), card):
            if card == 0:
                z, lam_subset = np.zeros(nz), np.zeros(0)
            else:
                size = nz + card
                system = np.zeros((size, size))
                rhs = np.zeros(size)
                system[:nz, :nz] = hess
                for j, i in enumerate(subset):
                    system[:nz, nz + j] = senses[i] * normals[i]
                    system[nz + j, :nz] = normals[i]
                    rhs[nz + j] = -offsets[i]
                try:
                    sol = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
                z, lam_subset = sol[:nz], sol[nz:]
            if lam_subset.size and float(np.min(lam_subset)) < -DUAL_TOL:
                continue
            if k and float(np.max(residuals(z))) > FEAS_TOL:
                continue
            multipliers = np.zeros(k)
            for j, i in enumerate(subset):
                multipliers[i] = max(0.0, float(lam_subset[j]))
            return KktPoint(u=z[:m].copy(), delta=float(z[m]) if has_delta else 0.0,
                            multipliers=tuple(multipliers.tolist()), active_set=tuple(subset))
    viol = [max(0.0, senses[i] * offsets[i]) for i in range(k)]
    worst = int(np.argmax(viol))
    raise InfeasibleProblemError("rows inconsistent", row=worst, violation=viol[worst])


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_kkt(got, want):
    assert same_bits(got.u, want.u)
    assert same_bits(got.delta, want.delta)
    assert same_bits(got.multipliers, want.multipliers)
    assert got.active_set == want.active_set


def assert_solver_matches_reference(problem, states):
    """The same KktPoint, or the same InfeasibleProblemError, at every state."""
    infeasible = 0
    for x in states:
        try:
            want = _reference_solve(problem, x)
        except InfeasibleProblemError as expected:
            infeasible += 1
            with pytest.raises(InfeasibleProblemError) as raised:
                solve_small_qp(problem, x)
            assert raised.value.row == expected.row
            assert same_bits(raised.value.violation, expected.violation)
            continue
        got = solve_small_qp(problem, x)
        assert_same_kkt(got, want)
        for name, value in certificate_errors(problem, x, got).items():
            assert value < CERT_TOL, name
    return infeasible


def oracle_problems():
    """(label, problem, states) beyond the builtins: the W != I and m = 1 plants."""
    model, weight, ball, clf = weighted_plant()
    xs = np.random.default_rng(5).uniform(-1.0, 5.0, size=(300, 2))
    xs = xs[ball.h(xs) >= 0.0]
    unit = make_ball_cbf((0.0, 0.0), 1.0, form="full")
    # at DEGENERATE_STATES the m = 1 rows are inconsistent
    ys = np.vstack([np.random.default_rng(6).uniform(-3.0, 3.0, size=(300, 2)), DEGENERATE_STATES])
    ys = ys[unit.h(ys) >= 0.0]
    return (
        ("weighted filter", safety_filter_problem(model, ball, weight), xs),
        ("weighted clf-cbf", clf_cbf_problem(model, ball, clf, weight, p=3.0), xs),
        ("m = 1 filter", safety_filter_problem(degenerate_plant(gain=np.zeros((1, 2))), unit), ys),
        ("m = 1 clf-cbf", clf_cbf_problem(degenerate_plant(), unit, quadratic_clf(np.eye(2))), ys),
        ("m = 1 clf", clf_problem(degenerate_plant(), quadratic_clf(np.eye(2))), ys),
    )


class TestOneStateOracle:
    def test_matches_reference_enumeration_bit_for_bit(self, bundles):
        for name in CATALOG:
            bundle = bundles(name)
            states = bundle.safe_states(1000, seed=1)
            assert assert_solver_matches_reference(bundle.controller.problem(), states) == 0
            if bundle.unfiltered.kind != "nominal":
                assert_solver_matches_reference(bundle.unfiltered.problem(), states[:200])
        infeasible = 0
        for label, problem, states in oracle_problems():
            assert len(states) > 100, label
            infeasible += assert_solver_matches_reference(problem, states)
        # both m = 1 problems with a cbf row are inconsistent at (0, 1) and (0, -1)
        assert infeasible == 4

    def test_smallest_certifying_subset_wins(self):
        # u1 + 1 <= 0 binds; u1 + u2 + 1 <= 0 is met with equality at the same
        # point, so subsets (0,) and (0, 1) both certify: cardinality order picks (0,)
        rows = (ConstraintRow(kind="custom", terms=lambda x: (np.array([1.0, 0.0]), 1.0)),
                ConstraintRow(kind="custom", terms=lambda x: (np.array([1.0, 1.0]), 1.0)))
        problem = QpProblem(weight=constant_matrix(np.eye(2)), penalty=None, rows=rows)
        point = solve_small_qp(problem, np.zeros(2))
        assert point.active_set == (0,)
        assert point.multipliers == (1.0, 0.0)
        assert_same_kkt(point, _reference_solve(problem, np.zeros(2)))

    def test_non_finite_row_raises_where_it_would_read_as_satisfied(self):
        # row 1 is violated at z = 0; a NaN in row 0 must not let the empty
        # subset (or any other) certify, in the solver or in the certificate
        violated = ConstraintRow(kind="custom", terms=lambda x: (np.array([1.0, 0.0]), 1.0))
        point = KktPoint(u=np.zeros(2), delta=0.0, multipliers=(0.0, 0.0), active_set=())
        for bad in (ConstraintRow(kind="cbf", terms=lambda x: (np.array([1.0, 0.0]), np.nan)),
                    ConstraintRow(kind="custom", terms=lambda x: (np.array([np.inf, 0.0]), 0.0))):
            problem = QpProblem(weight=constant_matrix(np.eye(2)), penalty=None,
                                rows=(bad, violated))
            with pytest.raises(StructuralError, match="row 0 is not finite"):
                solve_small_qp(problem, np.zeros(2))
            with pytest.raises(StructuralError, match="row 0 is not finite"):
                certificate_errors(problem, np.zeros(2), point)

    def test_non_finite_weight_raises(self):
        row = ConstraintRow(kind="custom", terms=lambda x: (np.ones(2), 1.0))
        for weight in (constant_matrix(np.diag([np.nan, 1.0])), lambda x: np.diag([1.0, np.inf])):
            problem = QpProblem(weight=weight, penalty=None, rows=(row,))
            with pytest.raises(DefinitenessError, match="non-finite"):
                solve_small_qp(problem, np.zeros(2))

    def test_filter_problem_keeps_the_constant_mark(self, fig3):
        weight = constant_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        problem = safety_filter_problem(fig3.model, fig3.pair, weight)
        assert same_bits(constant_value(problem.weight), 2.0 * constant_value(weight))
        unmarked = safety_filter_problem(fig3.model, fig3.pair, lambda x: np.eye(2))
        assert constant_value(unmarked.weight) is None

    def test_invalid_constant_weight_raises_on_every_call(self, fig3):
        row = ConstraintRow(kind="custom", terms=lambda x: (np.ones(2), 1.0))
        for weight in (np.diag([1.0, -1.0]), np.array([[1.0, 0.3], [0.0, 1.0]])):
            problem = QpProblem(weight=constant_matrix(weight), penalty=None, rows=(row,))
            for _ in range(2):
                with pytest.raises(DefinitenessError):
                    solve_small_qp(problem, np.zeros(2))
            point = KktPoint(u=np.zeros(2), delta=0.0, multipliers=(0.0,), active_set=())
            with pytest.raises(DefinitenessError):
                certificate_errors(problem, np.zeros(2), point)
        filtered = safety_filter_problem(fig3.model, fig3.pair, constant_matrix(np.diag([1.0, -1.0])))
        for _ in range(2):
            with pytest.raises(DefinitenessError):
                solve_small_qp(filtered, np.array([3.0, 0.0]))

    def test_controllers_check_a_constant_weight(self, fig2, fig3):
        # the loop terms check the weight when they are built, on the first evaluation
        for weight in (np.diag([1.0, -1.0]), np.array([[1.0, 0.3], [0.0, 1.0]])):
            for controller in (SafetyFilterController(fig3.model, fig3.pair,
                                                      constant_matrix(weight)),
                               ClfCbfController(fig2.model, fig2.pair, fig2.clf,
                                                constant_matrix(weight)),
                               ClfController(fig2.model, fig2.clf, constant_matrix(weight))):
                with pytest.raises(DefinitenessError):
                    controller.field(np.array([3.0, 0.5]))

    def test_unmarked_weight_is_checked_at_every_state(self, fig3):
        bad = np.array([3.0, 0.5])

        def weight(x):
            return np.diag([1.0, -1.0]) if np.array_equal(x, bad) else np.eye(2)

        problem = safety_filter_problem(fig3.model, fig3.pair, weight)
        states = [np.array([3.0, 0.0]), bad, np.array([2.5, -1.0]), bad]
        for x in states:
            if np.array_equal(x, bad):
                with pytest.raises(DefinitenessError):
                    solve_small_qp(problem, x)
            else:
                assert_same_kkt(solve_small_qp(problem, x), _reference_solve(problem, x))
