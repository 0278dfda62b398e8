"""Equilibria of the filtered and unfiltered closed loops.

Boundary equilibria of the safety filter satisfy f + g k = delta D grad_h
with D = g G^{-1} g^T; undesirable ones have delta < 0. Boundary equilibria
of the CLF-CBF QP satisfy f = lam1 D grad_v - lam2 D grad_h with the
closed-form multipliers

    lam1 = (F_V ||grad_h||_D^2 - F_h grad_v^T D grad_h) / det
    lam2 = (F_V grad_v^T D grad_h - F_h (||grad_v||_D^2 + 1/p)) / det

where det = (||grad_v||_D^2 + 1/p) ||grad_h||_D^2 - (grad_v^T D grad_h)^2 > 0;
undesirable ones have lam1 > 0 and lam2 > 0. Interior equilibria of either
loop coincide with equilibria of the unfiltered loop and are desirable.

On dS alpha(h) = 0, so where the barrier row is active the closed-loop field
is tangent to dS, and every barrier of the safe set gives the same field
there: boundary equilibria are the zeros of the tangential component
tau^T field along dS, which the boundary search brackets.
"""

import itertools
import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotOnBoundaryError, PreconditionError, StrictFeasibilityError
from .model import central_difference_jacobian
from .qp import _both_rows, _clf_cbf_fields, _filter_row

if TYPE_CHECKING:
    from .spectral import SpectralResult

log = logging.getLogger(__name__)

SWEEP_DEFAULT = 2048        # boundary samples that bracket the tangential field
POLISH_TOL = 1e-10          # Gauss-Newton target residual
POLISH_MAX_ITER = 100
STEP_TOL = 1e-12            # relative step size at which polishing stalls
DEDUP_TOL = 1e-7
RESIDUAL_TOL = 1e-9         # any reported equilibrium must beat this
BOUNDARY_TOL = 1e-9         # |h| bound marking a boundary state
DESIRABILITY_TOL = 1e-8     # strict-complementarity margin on lam / delta
INTERIOR_MIN_H = 1e-6       # reported interior points must clear this
NORMAL_MIN = 1e-10          # ||g^T grad_h|| floor for multiplier formulas
DIVERGE_NORM = 1e6
BACKTRACK_HALVINGS = 30     # trials per Gauss-Newton step before no-descent
STOP_REASONS = ("step-stalled", "no-descent", "max-iterations", "diverged", "singular")


@dataclass(frozen=True)
class EquilibriumReport:
    """One equilibrium with its classification; attach_spectra fills spectrum.

    jacobian, eigenvalues and stability read the spectrum (None without one).
    """

    x_star: np.ndarray
    kind: str                      # interior | boundary
    desirability: str              # desirable | undesirable | inconclusive
    controller: str                # safety-filter | clf-cbf-qp | clf | nominal
    multipliers: Tuple[float, ...]
    residual: float
    spectrum: Optional["SpectralResult"] = None

    @property
    def jacobian(self) -> Optional[np.ndarray]:
        return None if self.spectrum is None else self.spectrum.jacobian

    @property
    def eigenvalues(self) -> Optional[Tuple[complex, ...]]:
        return None if self.spectrum is None else self.spectrum.eigenvalues

    @property
    def stability(self) -> Optional[str]:
        return None if self.spectrum is None else self.spectrum.stability


def multipliers_on_boundary(controller, x: np.ndarray):
    """Both-rows-active multipliers (lam1, lam2, Delta, det) at a boundary state.

    controller is a CLF-CBF QP controller. F_V, F_h, g^T grad_h and the
    D-weighted products come from the law code it runs (qp._clf_cbf_fields
    on its cached loop terms), and the multipliers from the law's qp._both_rows.
    """
    x = np.asarray(x, dtype=float)
    h = float(controller.pair.h(x))
    if abs(h) >= BOUNDARY_TOL:
        raise NotOnBoundaryError("|h(x)| = %g is not below %g" % (abs(h), BOUNDARY_TOL))
    data = _clf_cbf_fields(controller._terms, controller.pair, controller.clf, x)
    if float(np.linalg.norm(data["ah"])) <= NORMAL_MIN:
        raise StrictFeasibilityError("||g^T grad_h|| vanishes on the boundary")
    a, bb, c, det, num1, num2 = map(float, _both_rows(data, controller.p))
    return num1 / det, num2 / det, np.array([[a, -bb], [-bb, c]]), det


def collinearity_factor(controller, x: np.ndarray) -> float:
    """Least-squares delta in f + g k = delta D grad_h for a safety filter.

    D grad_h = g (W^{-1} g^T grad_h) and f + g k come from the filter's
    cached loop terms (qp._LoopTerms).
    """
    x = np.asarray(x, dtype=float)
    terms = controller._terms
    _, winv_a = terms.row(x, np.asarray(controller.pair.grad_h(x), dtype=float))
    d_grad = terms.apply_g(x, winv_a)
    den = float(d_grad @ d_grad)
    if den <= NORMAL_MIN ** 2:
        raise StrictFeasibilityError("D grad_h vanishes; no collinearity factor")
    return float(d_grad @ terms.drift(x)) / den


def classify_desirability(report: EquilibriumReport, controller) -> str:
    """Desirable / undesirable / inconclusive from multipliers at the point."""
    if report.kind == "interior":
        return "desirable"
    mult = report.multipliers
    if controller.kind == "clf-cbf-qp":
        if len(mult) >= 2 and mult[0] > DESIRABILITY_TOL and mult[1] > DESIRABILITY_TOL:
            return "undesirable"
    elif controller.kind == "safety-filter":
        if mult and mult[0] < -DESIRABILITY_TOL:
            return "undesirable"
    unfiltered = np.asarray(controller.unfiltered_field(report.x_star), dtype=float)
    if float(np.linalg.norm(unfiltered)) < DESIRABILITY_TOL:
        return "desirable"
    return "inconclusive"


@dataclass(frozen=True)
class PolishResult:
    """One candidate's Gauss-Newton polish.

    x is the last accepted iterate, iterations the number of accepted steps,
    residual ||fun(x)|| and reason why the iteration stopped (one of
    STOP_REASONS). converged: residual below the target, and the stop was
    neither diverged nor singular.
    """

    x: np.ndarray
    iterations: int
    residual: float
    reason: str
    converged: bool

    @property
    def root(self) -> Optional[np.ndarray]:
        return self.x if self.converged else None


class PolishCounts:
    """Running totals of equilibrium searches, for the run summary.

    polished: candidates polished; iterations: their accepted steps in
    total; stops: candidates per stop reason; dropped: seeds, brackets,
    candidates and roots a search discarded, each with a log line.
    """

    def __init__(self):
        self.polished = 0
        self.iterations = 0
        self.stops: Dict[str, int] = {}
        self.dropped = 0

    def add(self, result: PolishResult) -> None:
        self.polished += 1
        self.iterations += result.iterations
        self.stops[result.reason] = self.stops.get(result.reason, 0) + 1


def polish_roots(fun, x0s) -> List[PolishResult]:
    """Gauss-Newton with backtracking on a batch of candidates, one result each.

    fun maps states (k, n) to residuals (k, p), row by row. Each round makes
    one fun call for all running rows: a row evaluates its next state (its
    seed, then each backtracking trial x - scale * step) together with the
    2 n central-difference offsets around it, so an accepted trial already
    carries the Jacobian of its next iteration. A row iterates until its
    step stalls, so that roots of high multiplicity are located accurately,
    not just to the residual target; the target still gates success. A row
    that stops is frozen and leaves the batch. Per row, the arithmetic is
    that of a one-row polish: norms and least-squares solves are per row.
    """
    if not len(x0s):
        return []
    x = np.array(x0s, dtype=float)
    k = x.shape[0]
    trial = x.copy()               # the state each running row evaluates next
    norm = [0.0] * k               # ||fun(x)|| at each row's accepted iterate
    step: List[Optional[np.ndarray]] = [None] * k
    scale = [1.0] * k
    halvings = [0] * k
    iterations = [0] * k
    results: List[Optional[PolishResult]] = [None] * k

    def stop(i: int, residual: float, reason: str) -> None:
        converged = reason not in ("diverged", "singular") and residual < POLISH_TOL
        results[i] = PolishResult(x=x[i].copy(), iterations=iterations[i], residual=residual,
                                  reason=reason, converged=converged)

    running = list(range(k))
    while running:
        values, jacs = central_difference_jacobian(fun, trial[running], value=True)
        still = []
        for j, i in enumerate(running):
            value_norm = float(np.linalg.norm(values[j]))
            if step[i] is not None:
                # a backtracking trial: accept on strict descent, else halve
                if not value_norm < norm[i]:
                    halvings[i] += 1
                    if halvings[i] == BACKTRACK_HALVINGS:
                        stop(i, norm[i], "no-descent")
                        continue
                    scale[i] *= 0.5
                    trial[i] = x[i] - scale[i] * step[i]
                    still.append(i)
                    continue
                iterations[i] += 1
            x[i] = trial[i]
            norm[i] = value_norm
            if iterations[i] >= POLISH_MAX_ITER:
                stop(i, value_norm, "max-iterations")
                continue
            if not np.isfinite(value_norm) or value_norm > DIVERGE_NORM:
                stop(i, value_norm, "diverged")
                continue
            try:
                step[i] = np.linalg.lstsq(jacs[j], values[j], rcond=None)[0]
            except np.linalg.LinAlgError:
                stop(i, value_norm, "singular")
                continue
            if float(np.linalg.norm(step[i])) <= STEP_TOL * (1.0 + float(np.linalg.norm(x[i]))):
                stop(i, value_norm, "step-stalled")
                continue
            scale[i] = 1.0
            halvings[i] = 0
            trial[i] = x[i] - scale[i] * step[i]
            still.append(i)
        running = still
    return results


def state_sort_key(q: np.ndarray):
    # rounded so that polish noise below display precision cannot flip
    # the canonical lexicographic order of near-tied coordinates
    return tuple(round(float(c), 9) for c in q)


def _dedup(roots: List[Tuple[np.ndarray, float]]) -> List[Tuple[np.ndarray, float]]:
    """(root, residual) pairs, the first of each DEDUP_TOL cluster, in sort order."""
    kept: List[Tuple[np.ndarray, float]] = []
    for root in roots:
        if all(float(np.linalg.norm(root[0] - q[0])) > DEDUP_TOL for q in kept):
            kept.append(root)
    return sorted(kept, key=lambda root: state_sort_key(root[0]))


def _merge_zero_components(controller, roots: List[Tuple[np.ndarray, float]]
                           ) -> List[Tuple[np.ndarray, float]]:
    """Deduplicate (root, residual) pairs of a possibly degenerate zero.

    Two roots belong to the same equilibrium when the field stays below the
    residual gate along the segment between them (one connected component of
    the sub-level set); the member with the smallest residual, then the
    smallest norm, represents the component. Distinct nondegenerate zeros
    keep the plain radius rule.
    """
    def same(p: np.ndarray, q: np.ndarray) -> bool:
        if float(np.linalg.norm(p - q)) <= DEDUP_TOL:
            return True
        for t in (0.25, 0.5, 0.75):
            val = float(np.linalg.norm(controller.field(p + t * (q - p))))
            if not val < RESIDUAL_TOL:
                return False
        return True

    def rank(root: Tuple[np.ndarray, float]):
        return (root[1], float(np.linalg.norm(root[0])))

    reps: List[Tuple[np.ndarray, float]] = []
    for root in roots:
        for i, rep in enumerate(reps):
            if same(root[0], rep[0]):
                if rank(root) < rank(rep):
                    reps[i] = root
                break
        else:
            reps.append(root)
    return sorted(reps, key=lambda rep: state_sort_key(rep[0]))


def _boundary_multipliers(controller, x: np.ndarray) -> Tuple[float, ...]:
    if controller.kind == "clf-cbf-qp":
        return multipliers_on_boundary(controller, x)[:2]
    if controller.kind == "safety-filter":
        return (collinearity_factor(controller, x),)
    return ()


def _tangential(controller, geometry, theta: np.ndarray):
    """Boundary points x(theta), ||field(x)|| and tau^T field(x), in one field call.

    The field is NaN where no input meets the barrier row, where h is not a
    CBF: the first point whose tau^T field is not finite raises
    StrictFeasibilityError with the row's eta = grad_h^T drift + alpha(h)
    and ||g^T grad_h|| there.
    """
    x, tangent = geometry.boundary_at(theta)
    field = np.asarray(controller.field(x), dtype=float)
    tang = np.sum(tangent * field, axis=-1)
    bad = np.flatnonzero(~np.isfinite(tang))
    if bad.size:
        i = bad[0]
        eta, a, _, _ = _filter_row(controller._terms, controller.pair, x[i])
        raise StrictFeasibilityError(
            "closed-loop field not finite at the boundary point theta = %.17g, x = %s:"
            " no input meets the barrier row (eta = %g, ||g^T grad_h|| = %g), so h is not"
            " a CBF there" % (theta[i], x[i].tolist(), eta, float(np.linalg.norm(a))))
    return x, np.linalg.norm(field, axis=-1), tang


def find_boundary_equilibria(controller, sweep: int = SWEEP_DEFAULT,
                             counts: Optional[PolishCounts] = None) -> List[EquilibriumReport]:
    """Equilibria of the closed loop on the boundary of the safe set.

    Brackets: adjacent samples of tau^T field at sweep uniform parameters of
    SafeSetGeometry.boundary_at, last to first included, whose product is
    <= 0. Illinois regula falsi refines them together, one field call per
    round, until a value is exactly 0, the next point does not move, or
    POLISH_MAX_ITER rounds. A point with ||field|| >= RESIDUAL_TOL, a sign
    change where the row is inactive, is dropped with a debug line; the rest
    are deduplicated and get multipliers and desirability. A tangential zero
    without a sign change (a double root) is not found. counts, when given,
    receives each drop. A sweep sample or refinement point whose field is
    not finite raises StrictFeasibilityError: no input meets the barrier row
    there, so h is not a CBF, which the analysis assumes.
    """
    geometry = None if controller.pair is None else controller.pair.geometry
    if geometry is None:
        raise PreconditionError("controller carries no barrier with a parametrized boundary")
    counts = PolishCounts() if counts is None else counts

    theta = np.append(2.0 * np.pi * np.arange(sweep) / sweep, 2.0 * np.pi)   # 2 pi closes the loop
    x, residual, tang = _tangential(controller, geometry, theta[:-1])
    tang = np.append(tang, tang[:1])
    lo = np.flatnonzero(tang[:-1] * tang[1:] <= 0.0)
    # b is the end of smaller |tau^T field| and, after each round, the new point
    ia, ib = np.where(np.abs(tang[lo + 1]) <= np.abs(tang[lo]), [lo, lo + 1], [lo + 1, lo])
    a, fa, b, fb = theta[ia], tang[ia], theta[ib], tang[ib]
    bx, bres = x[ib % sweep], residual[ib % sweep]
    running = np.flatnonzero(fb != 0.0)
    for _ in range(POLISH_MAX_ITER):
        c = b[running] - fb[running] * (b[running] - a[running]) / (fb[running] - fa[running])
        moves = (c - a[running]) * (c - b[running]) < 0.0
        running, c = running[moves], c[moves]
        if not running.size:
            break
        xc, rc, fc = _tangential(controller, geometry, c)
        # Illinois: a new point on b's side keeps a and halves its value
        flip = np.sign(fc) != np.sign(fb[running])
        a[running] = np.where(flip, b[running], a[running])
        fa[running] = np.where(flip, fb[running], 0.5 * fa[running])
        b[running], fb[running], bx[running], bres[running] = c, fc, xc, rc
        running = running[fc != 0.0]

    roots: List[Tuple[np.ndarray, float]] = []
    for point, res in zip(bx, bres.tolist()):
        if res < RESIDUAL_TOL:
            roots.append((point, res))
        else:
            log.debug("boundary bracket at %s dropped: closed-loop residual %g is not"
                      " below %g", point, res, RESIDUAL_TOL)
            counts.dropped += 1

    reports: List[EquilibriumReport] = []
    for point, res in _dedup(roots):
        try:
            multipliers = _boundary_multipliers(controller, point)
        except (StrictFeasibilityError, NotOnBoundaryError) as exc:
            log.error("boundary candidate at %s rejected: %s", point, exc)
            counts.dropped += 1
            continue
        report = EquilibriumReport(x_star=point, kind="boundary", desirability="inconclusive",
                                   controller=controller.kind, multipliers=multipliers,
                                   residual=res)
        reports.append(replace(report,
                               desirability=classify_desirability(report, controller)))
    return reports


def _default_seed_grid(box, per_axis: int) -> List[np.ndarray]:
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(lo.shape[0])]
    return [np.array(combo) for combo in itertools.product(*axes)]


def find_interior_equilibria(controller, box=((-5.0, -5.0), (5.0, 5.0)),
                             seeds: Optional[Sequence[np.ndarray]] = None,
                             per_axis: int = 5,
                             counts: Optional[PolishCounts] = None) -> List[EquilibriumReport]:
    """Equilibria of the closed loop in the strict interior of the safe set.

    Interior equilibria coincide with equilibria of the unfiltered loop
    (an active barrier row forces grad_h^T field = -alpha(h) != 0 there), so
    Newton runs on the unfiltered field, which has no solver-tolerance
    plateaus; the filtered field still gates the reported residual. The
    seeds inside the safe set are polished in one batch. Converged points
    with h > 1e-6 for the controller's barrier are reported. counts, when
    given, receives each polish and each drop.
    """
    if seeds is None:
        seeds = _default_seed_grid(box, per_axis)
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise PreconditionError("interior search needs a nonempty seed set")

    def field_at(x):
        return np.asarray(controller.unfiltered_field(x), dtype=float)

    counts = PolishCounts() if counts is None else counts
    pair = controller.pair
    # not h < 0 rather than h >= 0: a seed where h is NaN still gets polished
    safe = [pair is None or not float(pair.h(x0)) < 0.0 for x0 in seeds]
    polished = iter(polish_roots(field_at, [x0 for x0, ok in zip(seeds, safe) if ok]))
    # states go to the log as lazy %s arguments: no formatting below the level
    roots: List[Tuple[np.ndarray, float]] = []
    for x0, ok in zip(seeds, safe):
        if not ok:
            log.debug("interior seed %s dropped: outside the safe set", x0)
            counts.dropped += 1
            continue
        result = next(polished)
        counts.add(result)
        if not result.converged:
            log.warning("interior seed %s dropped: no convergence (%s after %d iterations,"
                        " residual %g)", x0, result.reason, result.iterations, result.residual)
            counts.dropped += 1
            continue
        root = result.x
        if pair is not None and float(pair.h(root)) <= INTERIOR_MIN_H:
            log.debug("interior seed %s dropped: its root %s is not inside the safe set",
                      x0, root)
            counts.dropped += 1
            continue
        residual = float(np.linalg.norm(controller.field(root)))
        if not residual < RESIDUAL_TOL:   # a NaN residual fails the gate too
            log.warning("interior seed %s dropped: closed-loop residual %g at its root %s"
                        " is not below %g", x0, residual, root, RESIDUAL_TOL)
            counts.dropped += 1
            continue
        roots.append((root, residual))

    return [EquilibriumReport(x_star=x, kind="interior", desirability="desirable",
                              controller=controller.kind,
                              multipliers=controller.point(x).multipliers,
                              residual=residual)
            for x, residual in _merge_zero_components(controller, roots)]
