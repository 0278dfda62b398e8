"""Boundary equivalence of two barriers of the same safe set.

On dS = {h1 = 0} two barriers are equivalent when their gradients are
parallel, grad_h2 = zeta grad_h1 with zeta > 0, and their Hessians differ by
a symmetric rank-2 update

    H_h2 = grad_h1 zeta_tilde^T + zeta_tilde grad_h1^T + zeta H_h1.

zeta is fit per sample as a Rayleigh quotient and zeta_tilde in closed form
by contracting A = H_h2 - zeta H_h1 with grad_h1:

    zeta_tilde = A g / ||g||^2 - g (g^T A g) / (2 ||g||^4),   g = grad_h1.

The transform h2 = a gamma(h1) + b eta h1 realizes zeta = a gamma'(0) + b eta
and zeta_tilde = (1/2) a gamma''(0) grad_h1 + b grad_eta on the boundary.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionError
from .model import BarrierPair, ScalarMap, StateMap, dot, matvec, outer, transform_cbf

DEFAULT_SAMPLES = 256
BOUNDARY_TOL = 1e-9       # samples must satisfy |h| below this for both barriers
GRADIENT_TOL = 1e-8       # max relative parallelism defect
ZETA_MIN = 1e-10          # zeta must stay above this (positivity)
HESSIAN_TOL = 1e-8        # default verdict tolerance on the rank-2 defect


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-sample fit of (zeta, zeta_tilde) with residuals and a verdict."""

    samples: np.ndarray
    zeta: np.ndarray
    zeta_tilde: np.ndarray
    gradient_residual: np.ndarray
    hessian_residual: np.ndarray
    verdict: str      # equivalent-within-tol | gradient-relation-only | rejected

    @property
    def max_gradient_residual(self) -> float:
        return float(np.max(self.gradient_residual))

    @property
    def max_hessian_residual(self) -> float:
        return float(np.max(self.hessian_residual))


def default_boundary_samples(pair: BarrierPair, count: int = DEFAULT_SAMPLES) -> np.ndarray:
    if pair.geometry is None:
        raise PreconditionError("no parametrized boundary; supply explicit samples")
    return pair.geometry.boundary_points(count)


def gradient_ratio(h1: BarrierPair, h2: BarrierPair,
                   samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample zeta = grad_h2^T grad_h1 / ||grad_h1||^2 and parallelism defect.

    The defect is ||grad_h2 - zeta grad_h1|| / ||grad_h2||; the gradient
    relation holds when every defect is below 1e-8 and every zeta above 1e-10.
    """
    zeta, residual, _ = _gradient_ratio(h1, h2, samples)
    return zeta, residual


def _gradient_ratio(h1: BarrierPair, h2: BarrierPair,
                    samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gradient_ratio's zeta and defect, and grad_h1 at the samples."""
    samples = np.asarray(samples, dtype=float)
    grads = []
    for tag, pair in (("first", h1), ("second", h2)):
        h, grad = pair.value_and_grad(samples)
        values = np.abs(np.asarray(h, dtype=float))
        worst = int(np.argmax(values))
        if float(values[worst]) >= BOUNDARY_TOL:
            raise PreconditionError(
                "sample %d is off the %s barrier's zero set: |h| = %g"
                % (worst, tag, float(values[worst])))
        grads.append(np.asarray(grad, dtype=float))
    g1, g2 = grads
    norm1_sq = dot(g1, g1)
    if float(np.min(norm1_sq)) <= ZETA_MIN ** 2:
        raise PreconditionError("grad of the first barrier vanishes at a sample")
    zeta = dot(g2, g1) / norm1_sq
    defect = np.sqrt(dot(g2 - zeta[..., None] * g1, g2 - zeta[..., None] * g1))
    scale = np.sqrt(dot(g2, g2))
    residual = defect / np.where(scale > 0.0, scale, 1.0)
    return zeta, residual, g1


def hessian_equivalence(h1: BarrierPair, h2: BarrierPair,
                        samples: Optional[np.ndarray] = None,
                        tol: float = HESSIAN_TOL) -> EquivalenceReport:
    """Full equivalence test: gradient relation, then the rank-2 Hessian fit.

    Verdicts: 'rejected' when the gradient relation fails; otherwise
    'equivalent-within-tol' when every Hessian defect is below tol, else
    'gradient-relation-only'.
    """
    if samples is None:
        samples = default_boundary_samples(h1)
    samples = np.asarray(samples, dtype=float)
    zeta, grad_residual, g1 = _gradient_ratio(h1, h2, samples)
    a_mat = (np.asarray(h2.hess_h(samples), dtype=float)
             - zeta[..., None, None] * np.asarray(h1.hess_h(samples), dtype=float))
    norm_sq = dot(g1, g1)
    ag = matvec(a_mat, g1)
    gag = dot(g1, ag)
    zeta_tilde = ag / norm_sq[..., None] - g1 * (gag / (2.0 * norm_sq ** 2))[..., None]
    defect = a_mat - outer(g1, zeta_tilde) - outer(zeta_tilde, g1)
    hess_residual = np.max(np.abs(defect), axis=(-1, -2))

    grad_ok = (float(np.max(grad_residual)) < GRADIENT_TOL
               and float(np.min(zeta)) > ZETA_MIN)
    if not grad_ok:
        verdict = "rejected"
    elif float(np.max(hess_residual)) < tol:
        verdict = "equivalent-within-tol"
    else:
        verdict = "gradient-relation-only"
    return EquivalenceReport(samples=samples, zeta=zeta, zeta_tilde=zeta_tilde,
                             gradient_residual=grad_residual,
                             hessian_residual=hess_residual, verdict=verdict)


@dataclass(frozen=True)
class TransformStep:
    """Parameters of one h -> a gamma(h) + b eta h application."""

    a: float = 0.0
    b: float = 0.0
    gamma: Optional[ScalarMap] = None
    eta: Optional[StateMap] = None
    alpha: Optional[ScalarMap] = None


def compose_transforms(base: BarrierPair, steps: Sequence[TransformStep]) -> BarrierPair:
    """Left-fold of the barrier transform over the given steps."""
    pair = base
    for step in steps:
        pair = transform_cbf(pair, step.a, step.b, gamma=step.gamma, eta=step.eta,
                             alpha=step.alpha)
    return pair


def boundary_field_difference(controller_a, controller_b, samples: np.ndarray) -> float:
    """Max closed-loop field difference over shared boundary samples."""
    samples = np.asarray(samples, dtype=float)
    fa = np.asarray(controller_a.field(samples), dtype=float)
    fb = np.asarray(controller_b.field(samples), dtype=float)
    return float(np.max(np.linalg.norm(fa - fb, axis=-1)))


def hausdorff_distance(set_a: Sequence[np.ndarray], set_b: Sequence[np.ndarray]) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a = [np.asarray(p, dtype=float) for p in set_a]
    b = [np.asarray(p, dtype=float) for p in set_b]
    if not a and not b:
        return 0.0
    if not a or not b:
        return float("inf")
    d_ab = max(min(float(np.linalg.norm(p - q)) for q in b) for p in a)
    d_ba = max(min(float(np.linalg.norm(p - q)) for q in a) for p in b)
    return max(d_ab, d_ba)
