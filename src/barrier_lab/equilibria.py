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
"""

import itertools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotOnBoundaryError, PreconditionError, StrictFeasibilityError
from .model import central_difference_jacobian
from .qp import _LoopTerms, _reference_fields

if TYPE_CHECKING:
    from .spectral import SpectralResult

log = logging.getLogger(__name__)

SWEEP_DEFAULT = 2048        # boundary samples for the 2D circle sweep
DETECT_TOL = 1e-3           # field-norm threshold marking a candidate minimum
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


def multipliers_on_boundary(model, cbf, clf, weight, p: float, x: np.ndarray):
    """Both-rows-active multipliers (lam1, lam2, Delta, det) at a boundary state.

    F_V, F_h, g^T grad_h and the D-weighted products come from the law code
    the controllers run (qp._reference_fields).
    """
    x = np.asarray(x, dtype=float)
    h = float(cbf.h(x))
    if abs(h) >= BOUNDARY_TOL:
        raise NotOnBoundaryError("|h(x)| = %g is not below %g" % (abs(h), BOUNDARY_TOL))
    data = _reference_fields(model, cbf, clf, weight, x)
    if float(np.linalg.norm(data["ah"])) <= NORMAL_MIN:
        raise StrictFeasibilityError("||g^T grad_h|| vanishes on the boundary")
    fv, fh = float(data["fv"]), float(data["fh"])
    a = float(data["vdv"]) + 1.0 / float(p)
    bb = float(data["vdh"])
    c = float(data["hdh"])
    det = a * c - bb * bb
    lam1 = (fv * c - fh * bb) / det
    lam2 = (fv * bb - fh * a) / det
    delta_mat = np.array([[a, -bb], [-bb, c]])
    return lam1, lam2, delta_mat, det


def collinearity_factor(model, pair, weight, x: np.ndarray) -> float:
    """Least-squares delta in f + g k = delta D grad_h for the safety filter.

    D grad_h = g (W^{-1} g^T grad_h) and f + g k come from the filter's
    loop terms (qp._LoopTerms).
    """
    x = np.asarray(x, dtype=float)
    terms = _LoopTerms(model, weight, nominal=True, hoist=False)
    [(_, winv_a)] = terms.rows(x, np.asarray(pair.grad_h(x), dtype=float))
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


def gauss_newton_root(fun, x0: np.ndarray, max_iter: int = POLISH_MAX_ITER,
                      tol: float = POLISH_TOL) -> Optional[np.ndarray]:
    """Gauss-Newton with backtracking on a (possibly overdetermined) system.

    Iterates until the step stalls so that roots of high multiplicity are
    located accurately, not just to the residual target; the target still
    gates success. Returns the root with ||fun|| < tol, else None.
    """
    x = np.array(x0, dtype=float)
    value = np.asarray(fun(x), dtype=float)
    for _ in range(max_iter):
        norm = float(np.linalg.norm(value))
        if not np.isfinite(norm) or norm > DIVERGE_NORM:
            return None
        jac = central_difference_jacobian(fun, x)
        try:
            step = np.linalg.lstsq(jac, value, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
        if float(np.linalg.norm(step)) <= STEP_TOL * (1.0 + float(np.linalg.norm(x))):
            break
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            trial_value = np.asarray(fun(trial), dtype=float)
            if float(np.linalg.norm(trial_value)) < norm:
                break
            scale *= 0.5
        else:
            break
        x = trial
        value = trial_value
    return x if float(np.linalg.norm(value)) < tol else None


def state_sort_key(q: np.ndarray):
    # rounded so that polish noise below display precision cannot flip
    # the canonical lexicographic order of near-tied coordinates
    return tuple(round(float(c), 9) for c in q)


def _dedup(points: List[np.ndarray], tol: float = DEDUP_TOL) -> List[np.ndarray]:
    kept: List[np.ndarray] = []
    for p in points:
        if all(float(np.linalg.norm(p - q)) > tol for q in kept):
            kept.append(p)
    return sorted(kept, key=state_sort_key)


def _merge_zero_components(controller, points: List[np.ndarray]) -> List[np.ndarray]:
    """Deduplicate roots of a possibly degenerate zero.

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

    def rank(p: np.ndarray):
        return (float(np.linalg.norm(controller.field(p))), float(np.linalg.norm(p)))

    reps: List[np.ndarray] = []
    for p in points:
        for i, q in enumerate(reps):
            if same(p, q):
                if rank(p) < rank(q):
                    reps[i] = p
                break
        else:
            reps.append(p)
    return sorted(reps, key=state_sort_key)


def _boundary_multipliers(controller, x: np.ndarray) -> Tuple[float, ...]:
    if controller.kind == "clf-cbf-qp":
        lam1, lam2, _, _ = multipliers_on_boundary(controller.model, controller.pair,
                                                   controller.clf, controller.weight,
                                                   controller.p, x)
        return (lam1, lam2)
    if controller.kind == "safety-filter":
        return (collinearity_factor(controller.model, controller.pair, controller.weight, x),)
    return ()


def find_boundary_equilibria(controller, sweep: int = SWEEP_DEFAULT,
                             seeds: Optional[Sequence[np.ndarray]] = None) -> List[EquilibriumReport]:
    """Equilibria of the closed loop on the boundary of the safe set.

    For a planar ball boundary: sweep the circle, keep local minima of the
    closed-loop field norm under 1e-3, polish each with Gauss-Newton on the
    stacked system [field(x); h(x)] = 0, deduplicate, attach multipliers and
    desirability. Non-ball geometries need explicit seeds.
    """
    if not controller.cbf_pairs:
        raise PreconditionError("controller carries no barrier; no boundary to search")
    pair = controller.pair
    candidates: List[np.ndarray] = []
    if seeds is not None:
        candidates = [np.asarray(s, dtype=float) for s in seeds]
    elif pair.geometry is not None and pair.geometry.kind == "ball-complement-2d":
        samples = pair.geometry.boundary_points(sweep)
        field = np.asarray(controller.field(samples), dtype=float)
        norms = np.linalg.norm(field, axis=-1)
        norms = np.where(np.isfinite(norms), norms, np.inf)
        prev_n = np.roll(norms, 1)
        next_n = np.roll(norms, -1)
        # a zero between samples shows up as a V-shaped local minimum whose
        # sampled value can exceed DETECT_TOL by up to slope * spacing; accept
        # when the interpolated minimum could reach the threshold
        slack = np.maximum(np.abs(prev_n - norms), np.abs(next_n - norms))
        slack = np.where(np.isfinite(slack), slack, 0.0)
        mask = (np.isfinite(norms)
                & (norms <= prev_n) & (norms <= next_n)
                & (norms < DETECT_TOL + slack))
        candidates = [samples[i] for i in np.flatnonzero(mask)]
    else:
        raise PreconditionError("non-ball geometry needs explicit seeds")

    def stacked(x):
        return np.concatenate([np.asarray(controller.field(x), dtype=float),
                               np.atleast_1d(np.asarray(pair.h(x), dtype=float))])

    polished: List[np.ndarray] = []
    for x0 in candidates:
        root = gauss_newton_root(stacked, x0)
        if root is None:
            log.warning("boundary candidate at %s dropped: no convergence in %d iterations",
                        np.array2string(x0, precision=6), POLISH_MAX_ITER)
            continue
        polished.append(root)

    reports: List[EquilibriumReport] = []
    for x in _dedup(polished):
        residual = float(np.linalg.norm(controller.field(x)))
        try:
            multipliers = _boundary_multipliers(controller, x)
        except (StrictFeasibilityError, NotOnBoundaryError) as exc:
            log.error("boundary candidate at %s rejected: %s",
                      np.array2string(x, precision=6), exc)
            continue
        report = EquilibriumReport(x_star=x, kind="boundary", desirability="inconclusive",
                                   controller=controller.kind, multipliers=multipliers,
                                   residual=residual)
        reports.append(EquilibriumReport(x_star=x, kind="boundary",
                                         desirability=classify_desirability(report, controller),
                                         controller=controller.kind, multipliers=multipliers,
                                         residual=residual))
    return reports


def _default_seed_grid(box, per_axis: int) -> List[np.ndarray]:
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(lo.shape[0])]
    return [np.array(combo) for combo in itertools.product(*axes)]


def find_interior_equilibria(controller, box=((-5.0, -5.0), (5.0, 5.0)),
                             seeds: Optional[Sequence[np.ndarray]] = None,
                             per_axis: int = 5) -> List[EquilibriumReport]:
    """Equilibria of the closed loop in the strict interior of the safe set.

    Interior equilibria coincide with equilibria of the unfiltered loop
    (an active barrier row forces grad_h^T field = -alpha(h) != 0 there), so
    Newton runs on the unfiltered field, which has no solver-tolerance
    plateaus; the filtered field still gates the reported residual.
    Converged points with h > 1e-6 for every carried barrier are reported.
    """
    if seeds is None:
        seeds = _default_seed_grid(box, per_axis)
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise PreconditionError("interior search needs a nonempty seed set")

    def field_at(x):
        return np.asarray(controller.unfiltered_field(x), dtype=float)

    # states go to the log as lazy %s arguments: no formatting below the level
    roots: List[np.ndarray] = []
    for x0 in seeds:
        if any(float(pair.h(x0)) < 0.0 for pair in controller.cbf_pairs):
            log.debug("interior seed %s dropped: outside the safe set", x0)
            continue
        root = gauss_newton_root(field_at, x0)
        if root is None:
            log.warning("interior seed %s dropped: no convergence in %d iterations",
                        x0, POLISH_MAX_ITER)
            continue
        if any(float(pair.h(root)) <= INTERIOR_MIN_H for pair in controller.cbf_pairs):
            log.debug("interior seed %s dropped: its root %s is not inside the safe set",
                      x0, root)
            continue
        residual = float(np.linalg.norm(controller.field(root)))
        if not residual < RESIDUAL_TOL:   # a NaN residual fails the gate too
            log.warning("interior seed %s dropped: closed-loop residual %g at its root %s"
                        " is not below %g", x0, residual, root, RESIDUAL_TOL)
            continue
        roots.append(root)

    reports: List[EquilibriumReport] = []
    for x in _merge_zero_components(controller, roots):
        residual = float(np.linalg.norm(controller.field(x)))
        if hasattr(controller, "point"):
            multipliers = tuple(controller.point(x).multipliers)
        else:
            multipliers = ()
        reports.append(EquilibriumReport(x_star=x, kind="interior", desirability="desirable",
                                         controller=controller.kind, multipliers=multipliers,
                                         residual=residual))
    return reports
