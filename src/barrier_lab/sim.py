"""Closed-loop integration, invariance audits, field sampling, basin labeling.

Fixed-step RK4 on dx/dt = f(x) + g(x) u(x) with the controller evaluated at
every stage point. The integrator never projects back onto the safe set:
forward invariance is audited afterwards, not enforced. Batches of initial
conditions advance together; trajectories that blow up or hit a controller
error are frozen while the rest continue, so grids stay vectorized.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, PreconditionError

DT_DEFAULT = 1e-3
T_DEFAULT = 20.0
CONV_RADIUS = 1e-6      # distance to an attractor counting as "there"
CONV_HOLD = 10          # consecutive steps inside the radius to conclude
DIVERGE_NORM = 1e6      # leaving this ball labels the trajectory left-domain
INVARIANCE_TOL = 1e-6
HORIZON_RTOL = 1e-9     # t_final must be this close to a whole number of steps

STATUS_RUNNING = 0
STATUS_CONVERGED = 1
STATUS_LEFT = 2
STATUS_ERROR = 3


@dataclass(frozen=True)
class Trajectory:
    """One integrated trajectory with controller traces along it."""

    times: np.ndarray              # (T,)
    states: np.ndarray             # (T, n)
    inputs: np.ndarray             # (T, m)
    h_values: np.ndarray           # (T, P) for the controller's P barriers
    multiplier_trace: np.ndarray   # (T, L)
    terminal_label: str
    attractor_index: Optional[int] = None

    @property
    def min_h(self) -> float:
        if self.h_values.size == 0:
            return float("inf")
        return float(np.min(self.h_values))


def _attractor_label(attractors: Sequence[np.ndarray], index: int) -> str:
    point = np.asarray(attractors[index], dtype=float)
    return "converged-to(" + ";".join("%.9g" % v for v in point) + ")"


def _rk4_increment(field, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = np.asarray(field(x), dtype=float)
    k2 = np.asarray(field(x + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(field(x + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(field(x + dt * k3), dtype=float)
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _true_rows(mask: np.ndarray) -> Optional[np.ndarray]:
    """Indices where mask holds; None when it holds everywhere."""
    return None if mask.all() else np.flatnonzero(mask)


def _horizon_steps(t_final: float, dt: float) -> int:
    """Number of dt steps in t_final; the horizon must be a whole number of steps."""
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive, got %g" % dt)
    if t_final < dt:
        raise InvalidParameterError("horizon %g is shorter than one step %g" % (t_final, dt))
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > HORIZON_RTOL * t_final:
        raise InvalidParameterError(
            "t_final %.12g is not a whole number of steps dt %.12g; the nearest "
            "reachable horizon is %.12g" % (t_final, dt, steps * dt))
    return steps


def _advance(controller, x0s: np.ndarray, t_final: float, dt: float,
             attractors: Sequence[np.ndarray], record: bool):
    """Shared RK4 driver over a batch; returns status bookkeeping per item."""
    steps = _horizon_steps(t_final, dt)
    x = np.array(x0s, dtype=float)
    batch = x.shape[0]
    attractor_arr = (np.stack([np.asarray(a, dtype=float) for a in attractors])
                     if len(attractors) else None)

    status = np.full(batch, STATUS_RUNNING, dtype=int)
    attr_index = np.full(batch, -1, dtype=int)
    err_time = np.full(batch, np.nan)
    hold = np.zeros(batch, dtype=int)
    last_near = np.full(batch, -1, dtype=int)

    recorded = [x] if record else None
    # basin labeling never needs to keep stepping decided cells; recorded
    # trajectories keep integrating through convergence to fill the horizon
    basin = attractor_arr is not None and not record
    n = x.shape[-1]
    steps_done = 0
    idx = None          # the rows that step; None while every row does
    run_idx = None      # the running rows; None while every row runs
    holding = False     # some running row has a nonzero hold counter
    refresh = True      # set whenever a status changes
    for step in range(1, steps + 1):
        if refresh:
            run_idx = _true_rows(status == STATUS_RUNNING)
            idx = run_idx if basin else _true_rows(status <= STATUS_CONVERGED)
            refresh = False
            if idx is not None and idx.size == 0:
                break
        rows = x if idx is None else x[idx]
        trial_rows = rows + _rk4_increment(controller.field, rows, dt)
        # x is replaced, never written in place: recorded steps share no memory
        if np.abs(trial_rows).max() * n < DIVERGE_NORM:
            # every entry finite and every row inside the domain, since
            # ||row|| <= sqrt(n) max |entry|: no status changes this step
            if idx is None:
                x = trial_rows
            else:
                x = x.copy()
                x[idx] = trial_rows
        else:
            x = x.copy()
            rows_idx = np.arange(batch) if idx is None else idx
            bad_rows = ~np.all(np.isfinite(trial_rows), axis=-1)
            newly_bad = rows_idx[bad_rows]
            if newly_bad.size:
                status[newly_bad] = STATUS_ERROR
                err_time[newly_bad] = (step - 1) * dt
            good = rows_idx[~bad_rows]
            x[good] = trial_rows[~bad_rows]
            left = good[np.linalg.norm(x[good], axis=-1) > DIVERGE_NORM]
            if left.size:
                status[left] = STATUS_LEFT
            refresh = True
            run_idx = _true_rows(status == STATUS_RUNNING)

        if attractor_arr is not None and (run_idx is None or run_idx.size):
            # a running row far from every attractor with a zero hold counter
            # keeps both counters as they are, so only rows near an attractor,
            # or holding, need the bookkeeping
            run_x = x if run_idx is None else x[run_idx]
            diff = run_x[:, None, :] - attractor_arr[None, :, :]
            dists = np.sqrt(np.add.reduce(diff * diff, -1))     # == np.linalg.norm
            if holding or dists.min() < CONV_RADIUS:
                nearest = np.argmin(dists, axis=-1)
                near = np.take_along_axis(dists, nearest[:, None], -1)[:, 0] < CONV_RADIUS
                run_hold = hold if run_idx is None else hold[run_idx]
                run_last = last_near if run_idx is None else last_near[run_idx]
                run_hold = np.where(near & (nearest == run_last), run_hold + 1,
                                    near.astype(int))
                done = run_hold >= CONV_HOLD
                holding = bool(run_hold[~done].any())
                if run_idx is None:
                    hold = run_hold
                    last_near = np.where(near, nearest, -1)
                else:
                    hold[run_idx] = run_hold
                    last_near[run_idx] = np.where(near, nearest, -1)
                if done.any():
                    rows_done = np.flatnonzero(done) if run_idx is None else run_idx[done]
                    status[rows_done] = STATUS_CONVERGED
                    attr_index[rows_done] = nearest[done]
                    refresh = True
        if record:
            recorded.append(x)
        steps_done = step

    times = dt * np.arange(steps_done + 1)
    states = np.stack(recorded, axis=1) if record else None   # (batch, K+1, n)
    return times, states, x, status, attr_index, err_time


def _labels(status: np.ndarray, attr_index: np.ndarray, err_time: np.ndarray,
            attractors: Sequence[np.ndarray]) -> List[str]:
    out = []
    for s, a, t in zip(status, attr_index, err_time):
        if s == STATUS_CONVERGED:
            out.append(_attractor_label(attractors, int(a)))
        elif s == STATUS_LEFT:
            out.append("left-domain")
        elif s == STATUS_ERROR:
            out.append("error:infeasible@t=%.6g" % float(t))
        else:
            out.append("max-time")
    return out


def _check_safe_start(controller, x0s: np.ndarray) -> np.ndarray:
    """h(x0) >= 0 for every carried barrier; returns the per-item verdict."""
    ok = np.ones(x0s.shape[0], dtype=bool)
    for pair in controller.cbf_pairs:
        ok &= np.asarray(pair.h(x0s), dtype=float) >= 0.0
    return ok


def _assemble(controller, times: np.ndarray, states: np.ndarray, label: str,
              attractor_index: Optional[int]) -> Trajectory:
    inputs, _, mult, _ = controller.evaluate(states)
    inputs = np.asarray(inputs, dtype=float)
    mult = np.asarray(mult, dtype=float)
    if controller.cbf_pairs:
        h_values = np.stack([np.asarray(pair.h(states), dtype=float)
                             for pair in controller.cbf_pairs], axis=-1)
    else:
        h_values = np.zeros(states.shape[:-1] + (0,))
    return Trajectory(times=times, states=states, inputs=inputs, h_values=h_values,
                      multiplier_trace=mult, terminal_label=label,
                      attractor_index=attractor_index)


def integrate_batch(controller, x0s: Sequence[np.ndarray], t_final: float = T_DEFAULT,
                    dt: float = DT_DEFAULT,
                    attractors: Sequence[np.ndarray] = ()) -> List[Trajectory]:
    """RK4 on a batch of initial conditions; full state recording."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    safe = _check_safe_start(controller, x0s)
    if not np.all(safe):
        raise PreconditionError("initial condition %d starts outside the safe set"
                                % int(np.flatnonzero(~safe)[0]))
    times, states, _, status, attr_index, err_time = _advance(
        controller, x0s, t_final, dt, attractors, record=True)
    labels = _labels(status, attr_index, err_time, attractors)
    out = []
    for i in range(x0s.shape[0]):
        idx = int(attr_index[i]) if status[i] == STATUS_CONVERGED else None
        out.append(_assemble(controller, times, states[i], labels[i], idx))
    return out


def integrate(controller, x0: np.ndarray, t_final: float = T_DEFAULT,
              dt: float = DT_DEFAULT,
              attractors: Sequence[np.ndarray] = ()) -> Trajectory:
    """RK4 from one initial condition inside the safe set."""
    return integrate_batch(controller, [np.asarray(x0, dtype=float)], t_final=t_final,
                           dt=dt, attractors=attractors)[0]


def invariance_audit(traj: Trajectory, pair) -> Tuple[float, str]:
    """Minimum of h along the trajectory; pass iff it stays above -INVARIANCE_TOL."""
    h = np.asarray(pair.h(traj.states), dtype=float)
    min_h = float(np.min(h))
    return min_h, ("pass" if min_h >= -INVARIANCE_TOL else "fail")


def _grid_nodes(bounds, resolution) -> Tuple[np.ndarray, Tuple[int, int]]:
    (x1_lo, x1_hi), (x2_lo, x2_hi) = bounds
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if nx < 2 or ny < 2:
        raise InvalidParameterError("grid needs at least 2 nodes per axis")
    x1 = np.linspace(float(x1_lo), float(x1_hi), nx)
    x2 = np.linspace(float(x2_lo), float(x2_hi), ny)
    m1, m2 = np.meshgrid(x1, x2, indexing="ij")
    return np.stack([m1.ravel(), m2.ravel()], axis=-1), (nx, ny)


@dataclass(frozen=True)
class RoaGrid:
    """Terminal labels of grid-seeded trajectories (row-major in x1, then x2)."""

    points: np.ndarray
    labels: Tuple[str, ...]
    shape: Tuple[int, int]
    attractors: Tuple[np.ndarray, ...]


def roa_grid(controller, bounds, resolution, attractors: Sequence[np.ndarray],
             t_final: float = T_DEFAULT, dt: float = DT_DEFAULT) -> RoaGrid:
    """Label every grid node by where its trajectory ends up.

    Unsafe nodes (h < 0 for some barrier of the controller) are labeled
    'unsafe-start' and not integrated; controller failures become per-node
    error labels rather than run failures.
    """
    _horizon_steps(t_final, dt)     # rejected even when no node gets integrated
    points, shape = _grid_nodes(bounds, resolution)
    safe = _check_safe_start(controller, points)
    labels = ["unsafe-start"] * points.shape[0]
    safe_idx = np.flatnonzero(safe)
    if safe_idx.size:
        _, _, _, status, attr_index, err_time = _advance(
            controller, points[safe_idx], t_final, dt, attractors, record=False)
        safe_labels = _labels(status, attr_index, err_time, attractors)
        for j, i in enumerate(safe_idx):
            labels[int(i)] = safe_labels[j]
    return RoaGrid(points=points, labels=tuple(labels), shape=shape,
                   attractors=tuple(np.asarray(a, dtype=float) for a in attractors))


@dataclass(frozen=True)
class FieldGrid:
    """Sampled closed-loop field (row-major in x1, then x2)."""

    states: np.ndarray       # (N, 2)
    velocity: np.ndarray     # (N, 2)
    h: np.ndarray            # (N,)
    active_code: np.ndarray  # (N,) - bit 1 clf row, bit 2 cbf row, -1 error
    masked: np.ndarray       # (N,) 1 where the node lies outside the safe set
    shape: Tuple[int, int]


def field_grid(controller, bounds, resolution) -> FieldGrid:
    """Closed-loop velocity, h, and active-set code on a rectangular grid."""
    points, shape = _grid_nodes(bounds, resolution)
    _, velocity, _, code = controller.evaluate(points)
    velocity = np.asarray(velocity, dtype=float)
    code = np.asarray(code, dtype=int)
    if controller.cbf_pairs:
        h = np.asarray(controller.cbf_pairs[0].h(points), dtype=float)
    else:
        h = np.full(points.shape[0], np.inf)
    masked = (h < 0.0).astype(int)
    return FieldGrid(states=points, velocity=velocity, h=h, active_code=code,
                     masked=masked, shape=shape)
