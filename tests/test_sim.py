"""RK4 integration, terminal labels, invariance audits, label/field grids."""

import math

import numpy as np
import pytest

from barrier_lab import (
    ClfCbfController,
    InvalidParameterError,
    NominalClosedLoop,
    PreconditionError,
    SafetyFilterController,
    field_grid,
    integrate,
    integrate_batch,
    invariance_audit,
    linear_map,
    linear_system,
    make_ball_cbf,
    quadratic_clf,
    roa_grid,
)
from barrier_lab.sim import CONV_HOLD, CONV_RADIUS, _region


class DuckLoop:
    """Duck-typed closed loop with no barrier: the subclass gives the field."""

    pair = None

    def evaluate(self, x):
        velocity = self.field(x)
        batch = np.shape(x)[:-1]
        return velocity, velocity, np.zeros(batch + (0,)), np.zeros(batch, dtype=int)


class ConstantVelocity(DuckLoop):
    def __init__(self, velocity):
        self.velocity = np.asarray(velocity, dtype=float)

    def field(self, x):
        return np.broadcast_to(self.velocity, np.shape(x))


class Rotation(DuckLoop):
    """Counter-clockwise rotation at rate omega about a center."""

    def __init__(self, center, omega):
        self.center = np.asarray(center, dtype=float)
        self.omega = float(omega)

    def field(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return self.omega * np.stack([-d[..., 1], d[..., 0]], axis=-1)


class Linear(DuckLoop):
    """dx/dt = J (x - center)."""

    def __init__(self, jac, center=(0.0, 0.0)):
        self.jac = np.asarray(jac, dtype=float)
        self.center = np.asarray(center, dtype=float)

    def field(self, x):
        return (np.asarray(x, dtype=float) - self.center) @ self.jac.T


class Kinked(DuckLoop):
    """dx/dt = -e + 5 ||e|| (1, 0), e = x: central differences at 0 give J = -I,
    but along +x1 the field points outward at every scale."""

    def field(self, x):
        x = np.asarray(x, dtype=float)
        return -x + 5.0 * np.linalg.norm(x, axis=-1, keepdims=True) * np.array([1.0, 0.0])


class CountedField:
    """A controller whose field calls are counted."""

    def __init__(self, controller):
        self.controller, self.pair, self.calls = controller, controller.pair, 0

    def field(self, x):
        self.calls += 1
        return self.controller.field(x)


def attractor_label(point) -> str:
    return "converged-to(" + ";".join("%.9g" % v for v in point) + ")"


def reference_labels(trajectories, attractors):
    """Terminal labels by the per-step rule, scanned over recorded states.

    A trajectory converges at the first step that ends CONV_HOLD consecutive
    steps within CONV_RADIUS of the same attractor; the initial state does
    not count.
    """
    attractors = np.asarray(attractors, dtype=float)
    labels = []
    for traj in trajectories:
        dists = np.linalg.norm(traj.states[1:, None, :] - attractors[None, :, :], axis=-1)
        label, hold, last = "max-time", 0, -1
        for row in dists:
            nearest = int(np.argmin(row))
            near = row[nearest] < CONV_RADIUS
            hold = hold + 1 if near and nearest == last else int(near)
            last = nearest if near else -1
            if hold >= CONV_HOLD:
                label = attractor_label(attractors[nearest])
                break
        labels.append(label)
    return labels


class TestIntegrator:
    def test_fourth_order_convergence(self, fig3):
        # nominal loop diag(-1, -5): exact flow available in closed form
        x0 = np.array([1.0, 1.0])
        exact = np.array([math.exp(-1.0), math.exp(-5.0)])
        errors = []
        for dt in (0.01, 0.005):
            traj = integrate(fig3.unfiltered, x0, t_final=1.0, dt=dt)
            errors.append(float(np.linalg.norm(traj.states[-1] - exact)))
        ratio = errors[0] / errors[1]
        assert 8.0 < ratio < 32.0

    def test_trajectory_shapes_and_traces(self, fig3):
        traj = integrate(fig3.controller, np.array([0.5, 0.5]), t_final=0.05, dt=1e-3)
        assert traj.times.shape == (51,)
        assert traj.states.shape == (51, 2)
        assert traj.inputs.shape == (51, 2)
        assert traj.h_values.shape == (51,)
        assert traj.multiplier_trace.shape == (51, 1)
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 0.05) < 1e-12
        assert np.array_equal(traj.states[0], [0.5, 0.5])
        assert traj.terminal_label == "max-time"
        assert traj.attractor_index is None

    def test_convergence_label(self, fig3):
        traj = integrate(fig3.controller, np.array([1e-5, 1e-5]), t_final=3.0, dt=1e-3,
                         attractors=[np.zeros(2), np.array([3.0, 0.0])])
        assert traj.terminal_label == "converged-to(0;0)"
        assert traj.attractor_index == 0
        assert float(np.linalg.norm(traj.states[-1])) < 1e-6

    def test_boundary_equilibrium_is_a_fixed_point(self, fig3):
        traj = integrate(fig3.controller, np.array([3.0, 0.0]), t_final=0.05, dt=1e-3,
                         attractors=[np.zeros(2), np.array([3.0, 0.0])])
        assert traj.terminal_label == "converged-to(3;0)"
        assert traj.attractor_index == 1
        assert np.max(np.abs(traj.states - [3.0, 0.0])) == 0.0
        assert traj.min_h == 0.0

    def test_unsafe_start_is_refused(self, fig3):
        with pytest.raises(PreconditionError):
            integrate(fig3.controller, np.array([2.0, 0.0]))
        with pytest.raises(PreconditionError):
            integrate_batch(fig3.controller, [np.zeros(2), np.array([2.0, 0.0])])

    def test_left_domain_label(self):
        model = linear_system(5.0 * np.eye(2), np.eye(2), gain=np.zeros((2, 2)))
        loop = NominalClosedLoop(model)
        traj = integrate(loop, np.array([9.0e5, 0.0]), t_final=0.1, dt=1e-3)
        assert traj.terminal_label == "left-domain"
        assert traj.min_h == math.inf
        # a loop with no barrier records h = +inf, one entry per time
        assert traj.h_values.shape == traj.times.shape
        assert np.all(traj.h_values == math.inf)

    def test_infeasible_controller_labels_the_time(self):
        model = linear_system(np.array([[0.0, 0.0], [0.0, -1.0]]), np.array([[1.0], [0.0]]))
        controller = ClfCbfController(model, make_ball_cbf((0.0, 0.0), 1.0),
                                      quadratic_clf(np.eye(2)))
        traj = integrate(controller, np.array([0.0, 1.0]), t_final=0.05, dt=1e-3)
        assert traj.terminal_label == "error:infeasible@t=0"

    def test_horizon_must_be_a_whole_number_of_steps(self, fig3):
        with pytest.raises(InvalidParameterError) as excinfo:
            integrate(fig3.controller, np.array([0.5, 0.5]), t_final=0.0105, dt=1e-3)
        message = str(excinfo.value)
        assert "t_final 0.0105" in message
        assert "dt 0.001" in message
        assert message.endswith("nearest reachable horizon is 0.01")
        # a grid whose every node starts unsafe integrates nothing, and still fails
        with pytest.raises(InvalidParameterError):
            roa_grid(fig3.controller, ((2.0, 2.5), (-0.5, 0.5)), 2, attractors=(),
                     t_final=0.0105, dt=1e-3)

    def test_long_horizon_in_whole_steps_passes(self):
        traj = integrate(ConstantVelocity([1.0, 0.0]), np.zeros(2), t_final=20.0, dt=1e-3)
        assert traj.times.shape == (20001,)
        assert traj.times[-1] == 20.0
        assert traj.terminal_label == "max-time"

    def test_batch_matches_single(self, fig3):
        x0s = [np.array([0.5, 0.5]), np.array([4.0, 1.0])]
        batch = integrate_batch(fig3.controller, x0s, t_final=0.02, dt=1e-3)
        for x0, traj in zip(x0s, batch):
            single = integrate(fig3.controller, x0, t_final=0.02, dt=1e-3)
            assert np.array_equal(traj.states, single.states)
            assert traj.terminal_label == single.terminal_label


RAISES = {
    "dt-zero": (lambda: integrate(ConstantVelocity([1.0, 0.0]), np.zeros(2), t_final=1.0, dt=0.0),
                InvalidParameterError, "dt must be positive, got 0"),
    "dt-negative": (lambda: roa_grid(ConstantVelocity([1.0, 0.0]), ((0, 1), (0, 1)), 2, (),
                                     t_final=1.0, dt=-1e-3),
                    InvalidParameterError, "dt must be positive, got -0.001"),
    "horizon-below-one-step": (lambda: integrate(ConstantVelocity([1.0, 0.0]), np.zeros(2),
                                                 t_final=1e-4, dt=1e-3),
                               InvalidParameterError, "horizon 0.0001 is shorter than one step 0.001"),
}


@pytest.mark.parametrize("case", RAISES)
def test_each_raise_names_what_failed(case):
    call, error, message = RAISES[case]
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


class TestInvarianceAudit:
    def test_filtered_run_passes(self, fig3):
        traj = integrate(fig3.controller, np.array([0.5, 0.5]), t_final=0.1, dt=1e-3)
        min_h, verdict = invariance_audit(traj, fig3.pair)
        assert verdict == "pass"
        assert min_h > 0.0

    def test_nominal_run_through_the_obstacle_fails(self, fig3):
        traj = integrate(fig3.unfiltered, np.array([2.5, 0.01]), t_final=1.0, dt=1e-3)
        min_h, verdict = invariance_audit(traj, fig3.pair)
        assert verdict == "fail"
        assert min_h < -0.5


class TestRoaGrid:
    def test_node_order_and_unsafe_labels(self, fig3):
        grid = roa_grid(fig3.controller, ((0.5, 4.5), (-2.0, 2.0)), [5, 4],
                        attractors=(), t_final=0.01, dt=1e-3)
        assert grid.shape == (5, 4)
        assert grid.points.shape == (20, 2)
        assert len(grid.labels) == 20
        # row-major: x2 varies fastest within one x1 row
        assert np.max(np.abs(grid.points[1] - [0.5, -2.0 + 4.0 / 3.0])) < 1e-12
        assert np.array_equal(grid.points[4], [1.5, -2.0])
        unsafe = {i for i, lab in enumerate(grid.labels) if lab == "unsafe-start"}
        assert unsafe == {5, 6, 9, 10}
        assert all(lab == "max-time" for i, lab in enumerate(grid.labels) if i not in unsafe)

    def test_labels_match_the_per_step_rule_on_recorded_states(self):
        # fast plant: k(x) = -20 x around an obstacle at (2, 0), alpha slope 20
        model = linear_system(np.zeros((2, 2)), np.eye(2), gain=-20.0 * np.eye(2))
        controller = SafetyFilterController(model, make_ball_cbf((2.0, 0.0), 1.0,
                                                                 alpha=linear_map(20.0)))
        attractors = [np.zeros(2), np.array([3.0, 0.0])]
        bounds, resolution = ((-1.0, 4.5), (-1.0, 1.0)), [12, 5]
        grid = roa_grid(controller, bounds, resolution, attractors, t_final=0.8, dt=1e-3)
        safe = [i for i, label in enumerate(grid.labels) if label != "unsafe-start"]
        recorded = integrate_batch(controller, grid.points[safe], t_final=0.8, dt=1e-3)
        expected = reference_labels(recorded, attractors)
        assert [grid.labels[i] for i in safe] == expected
        assert {"converged-to(0;0)", "converged-to(3;0)", "max-time"} <= set(expected)

    def test_rejects_degenerate_resolution(self, fig3):
        from barrier_lab.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            roa_grid(fig3.controller, ((0.0, 1.0), (0.0, 1.0)), [1, 4], attractors=())


class TestFieldGrid:
    def test_golden_samples(self, fig3):
        grid = field_grid(fig3.controller, ((2.5, 4.0), (-1.0, 1.0)), [2, 3])
        assert grid.shape == (2, 3)
        assert grid.states.shape == (6, 2)
        node = 1 * 3 + 1     # (4, 0)
        assert np.array_equal(grid.states[node], [4.0, 0.0])
        assert np.max(np.abs(grid.velocity[node] - [-0.75, 0.0])) < 1e-12
        assert grid.active_code[node] == 2
        assert grid.h[node] == 3.0
        assert grid.masked[node] == 0
        inside = 0 * 3 + 1   # (2.5, 0) sits in the obstacle
        assert grid.h[inside] == -0.75
        assert grid.masked[inside] == 1

    def test_mask_matches_h_sign(self, fig2):
        grid = field_grid(fig2.controller, ((-3.0, 3.0), (0.0, 6.0)), 7)
        assert np.array_equal(grid.masked, (grid.h < 0.0).astype(int))
        assert grid.velocity.shape == (49, 2)
        # with no barrier, h is +inf and no node is masked
        unfiltered = field_grid(fig2.unfiltered, ((-3.0, 3.0), (0.0, 6.0)), 7)
        assert unfiltered.h.shape == (49,) and np.all(unfiltered.h == math.inf)
        assert np.array_equal(unfiltered.masked, np.zeros(49, dtype=int))


class TestConvergenceHold:
    """A pass through an attractor's radius converges only after CONV_HOLD steps."""

    @staticmethod
    def crossing(steps_inside: int, attractors, dt: float = 1e-3):
        # steps_inside positions, spaced 2 R / steps_inside, sit symmetrically
        # inside (-R, R) with a margin of R / steps_inside on either side
        spacing = 2.0 * CONV_RADIUS / steps_inside
        first = -0.5 * (steps_inside - 1) * spacing
        x0 = np.array([first - 5.0 * spacing, 0.0])
        controller = ConstantVelocity([spacing / dt, 0.0])
        return integrate(controller, x0, t_final=0.03, dt=dt, attractors=attractors)

    def test_one_step_short_does_not_converge(self):
        traj = self.crossing(CONV_HOLD - 1, [np.zeros(2)])
        assert traj.terminal_label == "max-time"
        assert traj.attractor_index is None
        inside = np.linalg.norm(traj.states, axis=-1) < CONV_RADIUS
        assert int(inside.sum()) == CONV_HOLD - 1

    def test_one_step_over_converges(self):
        traj = self.crossing(CONV_HOLD + 1, [np.array([5.0, 5.0]), np.zeros(2)])
        assert traj.terminal_label == "converged-to(0;0)"
        assert traj.attractor_index == 1
        inside = np.linalg.norm(traj.states, axis=-1) < CONV_RADIUS
        assert int(inside.sum()) == CONV_HOLD + 1

    def test_switching_attractor_restarts_the_count(self):
        # two attractors 1.2 R apart: the path stays near one or the other for
        # more than CONV_HOLD steps, but never CONV_HOLD steps near the same one
        half = 0.6 * CONV_RADIUS
        attractors = [np.array([-half, 0.0]), np.array([half, 0.0])]
        traj = self.crossing(CONV_HOLD + 1, attractors)
        assert traj.terminal_label == "max-time"
        points = np.asarray(attractors)
        dists = np.linalg.norm(traj.states[:, None, :] - points[None], axis=-1)
        assert int((dists.min(axis=-1) < CONV_RADIUS).sum()) > CONV_HOLD

    def test_leaving_the_radius_restarts_the_count(self):
        # a circle of radius 1e-5 through the attractor, about 6.5 steps of
        # dt inside the radius per pass: two passes add up to more than
        # CONV_HOLD steps, but neither pass alone reaches it
        radius, dt = 1e-5, 1e-3
        omega = 2.0 * CONV_RADIUS / 6.5 / radius / dt
        start = np.array([radius * math.sin(0.5), radius * (math.cos(0.5) - 1.0)])
        traj = integrate(Rotation([0.0, -radius], omega), start, t_final=0.3, dt=dt,
                         attractors=[np.zeros(2)])
        assert traj.terminal_label == "max-time"
        inside = np.linalg.norm(traj.states, axis=-1) < CONV_RADIUS
        assert int(inside.sum()) > CONV_HOLD
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], inside, [0]]))))[::2]
        assert len(runs) == 2 and max(runs) < CONV_HOLD


class TestCertifiedRegions:
    """roa_grid decides a row inside a stable attractor's region only when the
    per-step rule would give it the same label before t_final."""

    def test_lyapunov_matrix_and_first_level(self):
        # a linear field passes the decay check at the first level: dV/dt = -||e||^2
        jac = np.array([[-1.0, 2.0], [0.0, -3.0]])
        attractors = [np.array([1.0, 1.0]), np.array([4.0, 5.0])]
        region = _region(Linear(jac, attractors[0]).field, attractors, 0)
        assert region.index == 0
        assert np.max(np.abs(jac.T @ region.p + region.p @ jac + np.eye(2))) < 1e-9
        lam = np.linalg.eigvalsh(region.p)
        assert (region.lam_min, region.lam_max) == (lam[0], lam[-1])
        # V <= level keeps a row within half the distance 5 to the other attractor
        assert region.level == pytest.approx(region.lam_min * 2.5 ** 2, rel=1e-12)

    def test_attractors_that_get_no_region(self):
        origin = [np.zeros(2)]
        # a saddle, a NaN field, and a repeated attractor (level 0 never passes)
        assert _region(Linear(np.diag([-1.0, 1.0])).field, origin, 0) is None
        assert _region(ConstantVelocity([math.nan, 0.0]).field, origin, 0) is None
        assert _region(Linear(-np.eye(2)).field, origin * 2, 1) is None
        # stable linearization, but no level of the halving sequence passes
        assert _region(Kinked().field, origin, 0) is None

    def test_row_inside_a_region_near_the_horizon_keeps_stepping(self, fig3):
        # V <= level at each node, but reaching CONV_RADIUS takes about 14 s
        attractors = [np.zeros(2), np.array([3.0, 0.0])]
        region = _region(fig3.controller.field, attractors, 0)
        bounds = ((0.05, 0.06), (0.05, 0.06))
        points = np.array([[x1, x2] for x1 in bounds[0] for x2 in bounds[1]])
        assert np.all(np.einsum("ki,ij,kj->k", points, region.p, points) <= region.level)
        short = CountedField(fig3.controller)
        grid = roa_grid(short, bounds, 2, attractors, t_final=2.0, dt=1e-3)
        assert grid.labels == ("max-time",) * 4
        assert short.calls >= 4 * 2000
        # with time to spare the region decides them at the first step, where
        # the hold rule needs about 14,000 (TestRoaGrid checks labels against it)
        full = CountedField(fig3.controller)
        grid = roa_grid(full, bounds, 2, attractors, t_final=20.0, dt=1e-3)
        assert grid.labels == ("converged-to(0;0)",) * 4
        assert full.calls < 4 * 10
