"""Closed-form Jacobians at boundary equilibria, spectra, stability labels.

With D = g G^{-1} g^T constant, the CLF-CBF closed loop at a boundary
equilibrium with both rows strictly active has Jacobian

    J = J_f - lam1 D H_V + lam2 D H_h - (S1/det) R_V - (S2/det) R_h

where, with Delta = [[a, -bb], [-bb, c]], a = ||grad_v||_D^2 + 1/p,
bb = grad_v^T D grad_h, c = ||grad_h||_D^2, det = a c - bb^2:

    S1 = c D grad_v - bb D grad_h        (column vector)
    S2 = -bb D grad_v + a D grad_h
    R_V = grad_v^T J_f + beta'(V) grad_v^T - lam1 grad_v^T D H_V + lam2 grad_v^T D H_h
    R_h = grad_h^T J_f + alpha'(0) grad_h^T - lam1 grad_h^T D H_V + lam2 grad_h^T D H_h

The safety-filter analogue at a boundary equilibrium of f~ = f + g k is

    J = J_f~ - (D grad_h grad_h^T / q) (J_f~ + alpha'(0) I)
        - D (grad_h^T f~ I - grad_h f~^T) H_h / q,     q = grad_h^T D grad_h.

Both satisfy grad_h^T J = -alpha'(0) grad_h^T, so J maps grad_h^perp, the
tangent space of dS, into itself. With T an orthonormal basis of it the
spectrum is -alpha'(0) and eig(T^T J T), and that reduced part does not depend
on which barrier of the safe set (or which alpha) produced the controller.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .equilibria import (DESIRABILITY_TOL, EquilibriumReport, collinearity_factor,
                         multipliers_on_boundary)
from .errors import AssumptionViolationError, PreconditionError
from .model import central_difference_jacobian

D_CHECK_SAMPLES = 16
D_CHECK_TOL = 1e-10
D_CHECK_SPAN = 10.0        # sampling box [-10, 10]^n for models without constant marks
D_CHECK_SEED = 0
IDENTITY_TOL = 1e-6        # above this grad_h is not a left eigenvector of J
STABILITY_TOL = 1e-8
INVARIANCE_TOL = 1e-7      # relative to max(1, |z|) per reduced eigenvalue z


@dataclass(frozen=True)
class SpectralResult:
    """Spectrum of one Jacobian and, at a known factor, its tangent-space part."""

    jacobian: np.ndarray
    char_poly: Tuple[float, ...]
    eigenvalues: Tuple[complex, ...]
    known_factor_root: Optional[float]
    reduced_eigenvalues: Optional[Tuple[complex, ...]]
    identity_residual: Optional[float]
    stability: str


def _d_matrix(g, w) -> np.ndarray:
    """D = g W^{-1} g^T for one state's g and W."""
    g = np.asarray(g, dtype=float)
    return g @ np.linalg.solve(np.asarray(w, dtype=float), g.T)


def constant_d_matrix(controller) -> np.ndarray:
    """D = g G^{-1} g^T of a controller's loop; the closed-form Jacobians need it constant.

    When g and G are both marked constant (as linear_system builds them), D
    is g times the G^{-1} g^T of the controller's cached loop terms. Otherwise
    it is checked at 16 states drawn from [-10, 10]^n with seed 0: deviation
    above 1e-10 raises an assumption-violation error. The loop terms keep a
    D that passed, read-only, so later calls return it without a g call.
    """
    terms = controller._terms
    if terms.d_matrix is not None:
        return terms.d_matrix
    if terms.times_winv_gt is not None:
        d = terms.times_g.matrix @ terms.times_winv_gt.matrix
    else:
        model, weight = controller.model, controller.weight
        rng = np.random.default_rng(D_CHECK_SEED)
        states = -D_CHECK_SPAN + 2.0 * D_CHECK_SPAN * rng.random((D_CHECK_SAMPLES, model.n))
        d = _d_matrix(model.g(states[0]), weight(states[0]))
        worst = 0.0
        for x in states[1:]:
            worst = max(worst, float(np.max(np.abs(_d_matrix(model.g(x), weight(x)) - d))))
        if worst > D_CHECK_TOL:
            raise AssumptionViolationError(
                "D = g G^{-1} g^T varies by %g over sampled states; closed-form "
                "Jacobians require constant D" % worst)
    d.setflags(write=False)     # every later call returns this same array
    terms.d_matrix = d
    return d


def jacobian_clf_cbf_boundary(controller, x_star: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of a CLF-CBF QP loop at a strict boundary equilibrium."""
    x = np.asarray(x_star, dtype=float)
    model, cbf, clf = controller.model, controller.pair, controller.clf
    lam1, lam2, delta_mat, det = multipliers_on_boundary(controller, x)
    if lam1 <= DESIRABILITY_TOL or lam2 <= DESIRABILITY_TOL:
        raise PreconditionError(
            "strict complementarity needed: lam1 = %g, lam2 = %g must exceed %g"
            % (lam1, lam2, DESIRABILITY_TOL))
    d = constant_d_matrix(controller)
    v, grad_v = clf.value_and_grad(x)
    grad_v = np.asarray(grad_v, dtype=float)
    grad_h = np.asarray(cbf.grad_h(x), dtype=float)
    h_v = np.asarray(clf.hess_v(x), dtype=float)
    h_h = np.asarray(cbf.hess_h(x), dtype=float)
    j_f = np.asarray(model.jf(x), dtype=float)
    a_p0 = float(cbf.alpha.deriv(0.0))
    b_pv = float(clf.beta.deriv(v))

    # a, bb and c as the multipliers used them (Delta = [[a, -bb], [-bb, c]])
    a, bb, c = float(delta_mat[0, 0]), -float(delta_mat[0, 1]), float(delta_mat[1, 1])
    dv = d @ grad_v
    dh = d @ grad_h

    s1 = c * dv - bb * dh
    s2 = -bb * dv + a * dh
    r_v = grad_v @ j_f + b_pv * grad_v - lam1 * (grad_v @ d @ h_v) + lam2 * (grad_v @ d @ h_h)
    r_h = grad_h @ j_f + a_p0 * grad_h - lam1 * (grad_h @ d @ h_v) + lam2 * (grad_h @ d @ h_h)
    return (j_f - lam1 * d @ h_v + lam2 * d @ h_h
            - np.outer(s1, r_v) / det - np.outer(s2, r_h) / det)


def jacobian_safety_filter_boundary(controller, x_star: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of a safety-filter loop at a boundary equilibrium."""
    x = np.asarray(x_star, dtype=float)
    model, cbf = controller.model, controller.pair
    delta = collinearity_factor(controller, x)
    if delta >= -DESIRABILITY_TOL:
        raise PreconditionError(
            "boundary equilibrium with delta = %g >= -%g: the filter row is not "
            "strictly active" % (delta, DESIRABILITY_TOL))
    d = constant_d_matrix(controller)
    grad_h = np.asarray(cbf.grad_h(x), dtype=float)
    h_h = np.asarray(cbf.hess_h(x), dtype=float)
    j_ft = np.asarray(model.jdrift(x), dtype=float)
    ft = np.asarray(model.drift(x), dtype=float)
    a_p0 = float(cbf.alpha.deriv(0.0))
    dh = d @ grad_h
    q = float(grad_h @ dh)
    n = x.shape[0]
    return (j_ft
            - np.outer(dh, grad_h) @ (j_ft + a_p0 * np.eye(n)) / q
            - d @ (float(grad_h @ ft) * np.eye(n) - np.outer(grad_h, ft)) @ h_h / q)


def stability_label(eigenvalues: Sequence[complex]) -> str:
    reals = np.array([complex(z).real for z in eigenvalues])
    if reals.size == 0 or np.any(np.abs(reals) <= STABILITY_TOL):
        return "inconclusive"
    if np.all(reals < -STABILITY_TOL):
        return "asymptotically-stable"
    if np.all(reals > STABILITY_TOL):
        return "unstable"
    return "saddle"


def eigen_and_classify(jacobian: np.ndarray, alpha_prime0: Optional[float] = None,
                       grad_h: Optional[np.ndarray] = None) -> SpectralResult:
    """Spectrum, tangent-space spectrum, and stability label for one Jacobian.

    Eigenvalues come from numpy's eigensolver, sorted by real then imaginary
    part; char_poly is the monic polynomial with those roots. alpha_prime0
    and grad_h, given together, name the known left eigenpair: the reduced
    eigenvalues are eig(T^T J T), T an orthonormal basis of grad_h^perp, and
    the identity residual is ||grad_h^T J + alpha_prime0 grad_h^T|| / ||grad_h||.
    A non-finite Jacobian raises numpy's LinAlgError.
    """
    if (alpha_prime0 is None) != (grad_h is None):
        raise PreconditionError("give alpha_prime0 and grad_h together or neither")
    jacobian = np.asarray(jacobian, dtype=float)
    roots = np.sort_complex(np.linalg.eigvals(jacobian))
    coeffs = np.poly(roots)     # real: the roots of a real matrix come in conjugate pairs
    eigenvalues = tuple(complex(z) for z in roots)
    factor_root = reduced = residual = None
    if alpha_prime0 is not None:
        factor_root = -float(alpha_prime0)
        grad = np.asarray(grad_h, dtype=float)
        tangent = np.linalg.svd(grad[None, :])[2][1:]      # orthonormal rows spanning grad^perp
        reduced = np.sort_complex(np.linalg.eigvals(tangent @ jacobian @ tangent.T))
        reduced = tuple(complex(z) for z in reduced)
        residual = float(np.linalg.norm(grad @ jacobian - factor_root * grad)
                         / np.linalg.norm(grad))
    return SpectralResult(jacobian=jacobian, char_poly=tuple(coeffs.tolist()),
                          eigenvalues=eigenvalues, known_factor_root=factor_root,
                          reduced_eigenvalues=reduced, identity_residual=residual,
                          stability=stability_label(eigenvalues))


@dataclass(frozen=True)
class InvarianceVerdict:
    verdict: str                 # pass | fail | factorization-failure
    max_relative_difference: float
    identity_residuals: Tuple[float, float]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def spectral_invariance_check(a: SpectralResult, b: SpectralResult) -> InvarianceVerdict:
    """Compare the reduced eigenvalues of two spectra, each paired with its nearest.

    Every reduced eigenvalue z of a and its nearest unmatched partner w of b
    must have |z - w| < INVARIANCE_TOL max(1, |z|). An identity residual above
    1e-6 (grad_h is no left eigenvector) voids the comparison. Spectra without
    a known factor, or of different dimensions, raise PreconditionError.
    """
    if (a.reduced_eigenvalues is None or b.reduced_eigenvalues is None
            or len(a.reduced_eigenvalues) != len(b.reduced_eigenvalues)):
        raise PreconditionError("invariance check needs two spectra of one dimension with "
                                "a known factor (undesirable boundary equilibria)")
    residuals = (a.identity_residual, b.identity_residual)
    if not np.max(residuals) <= IDENTITY_TOL:        # a NaN residual voids it too
        return InvarianceVerdict("factorization-failure", float("nan"), residuals)
    unmatched, diff = list(b.reduced_eigenvalues), 0.0
    for z in a.reduced_eigenvalues:
        w = unmatched.pop(int(np.argmin([abs(z - u) for u in unmatched])))
        diff = max(diff, abs(z - w) / max(1.0, abs(z)))
    return InvarianceVerdict("pass" if diff < INVARIANCE_TOL else "fail", diff, residuals)


_CLOSED_FORMS = {"clf-cbf-qp": jacobian_clf_cbf_boundary,
                 "safety-filter": jacobian_safety_filter_boundary}


def _spectrum(controller, report: EquilibriumReport) -> SpectralResult:
    closed_form = _CLOSED_FORMS.get(controller.kind)
    if closed_form is not None and report.kind == "boundary" \
            and report.desirability == "undesirable":
        pair = controller.pair
        return eigen_and_classify(closed_form(controller, report.x_star),
                                  float(pair.alpha.deriv(0.0)), pair.grad_h(report.x_star))
    return eigen_and_classify(central_difference_jacobian(controller.field, report.x_star))


def attach_spectra(reports: Sequence[EquilibriumReport], controller) -> List[EquilibriumReport]:
    """Copies of the reports with their spectrum filled in.

    Undesirable boundary equilibria get the closed-form Jacobian and the known
    left eigenpair (-alpha'(0), grad_h(x*)); everything else gets a central-
    difference Jacobian of the closed-loop field and no known factor.
    """
    return [replace(report, spectrum=_spectrum(controller, report)) for report in reports]
