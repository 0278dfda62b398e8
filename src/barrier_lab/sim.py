"""Closed-loop integration, invariance audits, field sampling, basin labeling.

Fixed-step RK4 on dx/dt = f(x) + g(x) u(x) with the controller evaluated at
every stage point. The integrator never projects back onto the safe set:
forward invariance is audited afterwards, not enforced. Batches of initial
conditions advance together; trajectories that blow up or hit a controller
error are frozen while the rest continue, so grids stay vectorized.

A row converges once it holds within CONV_RADIUS of one attractor for
CONV_HOLD steps. A basin grid (roa_grid) may decide a row earlier, inside a
quadratic-Lyapunov region of an asymptotically stable attractor, but only
when a decay bound shows that rule would give the same label before t_final.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .model import central_difference_jacobian

DT_DEFAULT = 1e-3
T_DEFAULT = 20.0
CONV_RADIUS = 1e-6      # distance to an attractor counting as "there"
CONV_HOLD = 10          # consecutive steps inside the radius to conclude
DIVERGE_NORM = 1e6      # leaving this ball labels the trajectory left-domain
AUDIT_TOL = 1e-6        # invariance_audit passes while min h >= -AUDIT_TOL
HORIZON_RTOL = 1e-9     # t_final must be this close to a whole number of steps

# Regions of attraction {(x - x*)^T P (x - x*) <= c}, J^T P + P J = -I, in which
# roa_grid decides a row early; checked at samples of the region, not proved
REGION_STABLE = -1e-8   # every eigenvalue of J must have a real part below this
REGION_KAPPA = 0.9      # required decay dV/dt <= -kappa ||x - x*||^2 at the samples
REGION_SHELLS = (1.0, 0.25, 0.0625)     # sampled level sets V = s c, as fractions s of c
REGION_ANGLES = 64      # samples per level set (roa grids are planar)
REGION_HALVINGS = 40    # c is halved at most this often before the attractor gets no region

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
    h_values: np.ndarray           # (T,) h of the controller's barrier, +inf if none
    multiplier_trace: np.ndarray   # (T, L)
    terminal_label: str
    attractor_index: Optional[int] = None

    @property
    def min_h(self) -> float:
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


@dataclass(frozen=True)
class _Region:
    """{x : V(x) <= level} around attractors[index], V(x) = (x - x*)^T P (x - x*).

    At the sampled shells dV/dt <= -REGION_KAPPA ||x - x*||^2 <= -REGION_KAPPA
    V / lam_max, so from V a row is within CONV_RADIUS (V < lam_min r^2) after
    T_hit = (lam_max / kappa) ln(max(V, lam_min r^2) / (lam_min r^2)).
    """

    index: int
    p: np.ndarray
    level: float
    lam_min: float      # extreme eigenvalues of P: lam_min ||e||^2 <= V <= lam_max ||e||^2
    lam_max: float

    def decision_level(self, budget: float) -> float:
        """The largest V at which a row inside is decided with budget >= 0 s left.

        T_hit(V) <= budget is V <= lam_min r^2 exp(kappa budget / lam_max).
        """
        floor = self.lam_min * CONV_RADIUS ** 2
        return floor * math.exp(min(REGION_KAPPA * budget / self.lam_max,
                                    math.log(self.level / floor)))


def _region(field, attractors: Sequence[np.ndarray], index: int) -> Optional[_Region]:
    """The certified region of attractors[index], or None.

    None where the linearization J of the field there is not asymptotically
    stable, or where no level of the halving sequence passes the sampled
    decay check. The first level keeps ||x - x*|| <= d / 2, d the distance to
    the nearest other attractor (1 if there is none), so no other
    attractor's CONV_RADIUS ball lies inside.
    """
    center = np.asarray(attractors[index], dtype=float)
    jac = central_difference_jacobian(field, center[None])[0]
    if not np.all(np.isfinite(jac)) or np.linalg.eigvals(jac).real.max() >= REGION_STABLE:
        return None
    n = center.size
    eye = np.eye(n)
    # J^T P + P J = -I in row-major vec form: (J^T kron I + I kron J^T) vec P = -vec I
    p = np.linalg.solve(np.kron(jac.T, eye) + np.kron(eye, jac.T), -eye.ravel()).reshape(n, n)
    p = 0.5 * (p + p.T)
    lam, vec = np.linalg.eigh(p)
    gap = min((float(np.linalg.norm(np.asarray(a, dtype=float) - center))
               for j, a in enumerate(attractors) if j != index), default=1.0)
    level = lam[0] * (0.5 * gap) ** 2
    # P^(-1/2) u for unit u at REGION_ANGLES angles: V = 1 there
    angles = np.linspace(0.0, 2.0 * math.pi, REGION_ANGLES, endpoint=False)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=-1) @ (vec / np.sqrt(lam) @ vec.T)
    for _ in range(REGION_HALVINGS + 1):
        e = np.concatenate([math.sqrt(s * level) * unit for s in REGION_SHELLS])
        vdot = 2.0 * np.einsum("ki,ij,kj->k", e, p, field(center + e))
        # strict, so a level of 0 (a repeated attractor) never passes; NaN fails
        if np.all(vdot < -REGION_KAPPA * np.einsum("ki,ki->k", e, e)):
            return _Region(index, p, float(level), float(lam[0]), float(lam[-1]))
        level *= 0.5
    return None


def _advance(controller, x0s: np.ndarray, t_final: float, dt: float,
             attractors: Sequence[np.ndarray], record: bool,
             regions: Sequence[_Region] = ()):
    """Shared RK4 driver over a batch; returns status bookkeeping per item.

    The rows that step live in one pack, in index order: each packed row's id,
    state, hold counter, nearest attractor and running flag. A row leaves the
    pack when it fails or leaves the domain and, without recording, when it
    converges; a recorded batch keeps stepping its converged rows to fill the
    horizon. A row outside the pack keeps in x the state it left with, and x
    is rebuilt from the pack after each recorded step and once at the end.

    A row converges by the hold rule (CONV_HOLD steps within CONV_RADIUS of
    one attractor) or, given regions (roa_grid's, never a recorded batch's),
    once it lies inside a region whose decay bound brings it within
    CONV_RADIUS with CONV_HOLD steps to spare before t_final: the label the
    hold rule would give. Only a step with a row within the largest reach of
    the regions does any region work.

    For n <= 2 the pack is batch-contiguous (Fortran order), so each
    elementwise op of the field runs one loop down the batch instead of N
    loops of length n; ufuncs keep their inputs' layout, so only the
    shrinking step, whose boolean index returns C order, restores it. For
    n >= 3 the pack stays in C order: einsum vectorizes a contiguous trailing
    axis of three or more, so its sums, and with them a row's bits, would
    depend on the layout and on the batch the row steps in. At n <= 2 every
    finite and infinite result has the same bits in either layout; a NaN may
    differ in its sign bit, and a row that holds one leaves the pack.
    """
    steps = _horizon_steps(t_final, dt)
    reach = max((math.sqrt(r.level / r.lam_min) for r in regions), default=-1.0)
    x = np.array(x0s, dtype=float)
    batch, n = x.shape
    batch_contiguous = n <= 2
    if batch_contiguous:
        x = np.asfortranarray(x)
    attractor_arr = (np.stack([np.asarray(a, dtype=float) for a in attractors])
                     if len(attractors) else None)

    status = np.full(batch, STATUS_RUNNING, dtype=int)
    attr_index = np.full(batch, -1, dtype=int)
    err_time = np.full(batch, np.nan)

    ids = np.arange(batch)
    rows = x
    hold = np.zeros(batch, dtype=int)
    last_near = np.full(batch, -1, dtype=int)
    running = np.ones(batch, dtype=bool)
    all_running = True  # every packed row runs, so no step has to read running
    holding = False     # some running row has a nonzero hold counter

    recorded = [x] if record else None
    step = 0
    while step < steps and ids.size:
        step += 1
        trial_rows = rows + _rk4_increment(controller.field, rows, dt)
        changed = False     # some packed row's status changed this step
        # below the bound every entry is finite and every row inside the domain,
        # since ||row|| <= sqrt(n) max |entry|: no status changes this step
        if not np.abs(trial_rows).max() * n < DIVERGE_NORM:     # NaN lands here
            bad = ~np.all(np.isfinite(trial_rows), axis=-1)
            trial_rows[bad] = rows[bad]     # a failed row keeps its last state
            left = ~bad & (np.linalg.norm(trial_rows, axis=-1) > DIVERGE_NORM)
            status[ids[bad]] = STATUS_ERROR
            err_time[ids[bad]] = (step - 1) * dt
            status[ids[left]] = STATUS_LEFT
            running &= ~(bad | left)
            changed, all_running = True, False
        rows = trial_rows

        run = slice(None) if all_running else np.flatnonzero(running)   # a slice gathers nothing
        run_x = rows[run]
        if attractor_arr is not None and len(run_x):
            # a running row far from every attractor with a zero hold counter
            # keeps both counters as they are, so only rows near an attractor,
            # or holding, need the bookkeeping
            diff = run_x[:, None, :] - attractor_arr[None, :, :]
            dists = np.sqrt(np.add.reduce(diff * diff, -1))     # == np.linalg.norm
            closest = dists.min()
            done = None
            if holding or closest < CONV_RADIUS:
                nearest = np.argmin(dists, axis=-1)
                near = np.take_along_axis(dists, nearest[:, None], -1)[:, 0] < CONV_RADIUS
                run_hold = np.where(near & (nearest == last_near[run]), hold[run] + 1,
                                    near.astype(int))
                done = run_hold >= CONV_HOLD
                holding = bool(run_hold[~done].any())
                hold[run] = run_hold
                last_near[run] = np.where(near, nearest, -1)
            # likewise a row outside every region is not decided by one, nor
            # is any row once the hold rule has no time left
            budget = (steps - step - CONV_HOLD) * dt
            if closest <= reach and budget >= 0.0:
                for region in regions:
                    level = region.decision_level(budget)
                    region_reach = math.sqrt(level / region.lam_min)
                    if closest <= region_reach:
                        if done is None:
                            done, nearest = np.zeros(len(run_x), dtype=bool), np.full(len(run_x), -1)
                        near = np.flatnonzero(~done & (dists[:, region.index] <= region_reach))
                        e = diff[near, region.index]
                        hit = near[np.einsum("ki,ij,kj->k", e, region.p, e) <= level]
                        done[hit] = True
                        nearest[hit] = region.index
            if done is not None and done.any():
                status[ids[run][done]] = STATUS_CONVERGED
                attr_index[ids[run][done]] = nearest[done]
                running[run] = ~done
                changed, all_running = True, False

        if record:
            # x is replaced, never written in place: recorded steps share no
            # memory, and while the pack holds every row it is x
            if ids.size == batch:
                x = rows
            else:
                x = x.copy()
                x[ids] = rows
            recorded.append(x)
        if changed:
            # the one place the pack shrinks: failed and departed rows leave,
            # converged ones too unless the recording needs them
            keep = status[ids] <= STATUS_CONVERGED if record else running
            if not record:
                x[ids[~keep]] = rows[~keep]
            ids, rows, hold, last_near, running = (
                a[keep] for a in (ids, rows, hold, last_near, running))
            if batch_contiguous:
                rows = np.asfortranarray(rows)
            all_running = bool(running.all())

    if not record:
        x[ids] = rows
    times = dt * np.arange(step + 1)
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


def _barrier_h(controller, x: np.ndarray) -> np.ndarray:
    """h of the controller's barrier at x (a copy), +inf where it carries none."""
    if controller.pair is None:
        return np.full(x.shape[:-1], np.inf)
    return np.array(controller.pair.h(x), dtype=float)


def _assemble(controller, times: np.ndarray, states: np.ndarray, label: str,
              attractor_index: Optional[int]) -> Trajectory:
    inputs, _, mult, _ = controller.evaluate(states)
    # copies: an evaluator may return its input, and a stored array owns its memory
    inputs = np.array(inputs, dtype=float)
    mult = np.array(mult, dtype=float)
    return Trajectory(times=times, states=states, inputs=inputs,
                      h_values=_barrier_h(controller, states),
                      multiplier_trace=mult, terminal_label=label,
                      attractor_index=attractor_index)


def integrate_batch(controller, x0s: Sequence[np.ndarray], t_final: float = T_DEFAULT,
                    dt: float = DT_DEFAULT,
                    attractors: Sequence[np.ndarray] = ()) -> List[Trajectory]:
    """RK4 on a batch of initial conditions; full state recording."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    safe = _barrier_h(controller, x0s) >= 0.0
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
    """Minimum of h along the trajectory; pass iff it stays above -AUDIT_TOL."""
    h = np.asarray(pair.h(traj.states), dtype=float)
    min_h = float(np.min(h))
    return min_h, ("pass" if min_h >= -AUDIT_TOL else "fail")


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

    Unsafe nodes (h < 0 for the controller's barrier) are labeled
    'unsafe-start' and not integrated; controller failures become per-node
    error labels rather than run failures.
    """
    _horizon_steps(t_final, dt)     # rejected even when no node gets integrated
    points, shape = _grid_nodes(bounds, resolution)
    safe = _barrier_h(controller, points) >= 0.0
    labels = ["unsafe-start"] * points.shape[0]
    safe_idx = np.flatnonzero(safe)
    if safe_idx.size:
        regions = [_region(controller.field, attractors, i) for i in range(len(attractors))]
        _, _, _, status, attr_index, err_time = _advance(
            controller, points[safe_idx], t_final, dt, attractors, record=False,
            regions=[region for region in regions if region is not None])
        for i, label in zip(safe_idx, _labels(status, attr_index, err_time, attractors)):
            labels[i] = label
    return RoaGrid(points=points, labels=tuple(labels), shape=shape,
                   attractors=tuple(np.array(a, dtype=float) for a in attractors))


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
    # copies: an evaluator may return its input, and a stored array owns its memory
    velocity = np.array(velocity, dtype=float)
    code = np.array(code, dtype=int)
    h = _barrier_h(controller, points)
    masked = (h < 0.0).astype(int)
    return FieldGrid(states=points, velocity=velocity, h=h, active_code=code,
                     masked=masked, shape=shape)
