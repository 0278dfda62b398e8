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

Both satisfy grad_h^T J = -alpha'(0) grad_h^T, so (s + alpha'(0)) divides the
characteristic polynomial and the quotient does not depend on which barrier
of the safe set (or which alpha) produced the controller.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .equilibria import (DESIRABILITY_TOL, EquilibriumReport, collinearity_factor,
                         multipliers_on_boundary)
from .errors import (AssumptionViolationError, InvalidParameterError, NumericsError,
                     PreconditionError)
from .model import central_difference_jacobian, constant_value
from .qp import _weight_or_identity

D_CHECK_SAMPLES = 16
D_CHECK_TOL = 1e-10
D_CHECK_SPAN = 10.0        # sampling box [-10, 10]^n for models without constant marks
D_CHECK_SEED = 0
MAX_MATRIX_DIM = 8
ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200
REMAINDER_TOL = 1e-6       # above this the known factor does not divide
STABILITY_TOL = 1e-8
INVARIANCE_TOL = 1e-7


@dataclass(frozen=True)
class SpectralResult:
    """Spectrum of one Jacobian with the known-factor division bookkeeping."""

    jacobian: np.ndarray
    char_poly: Tuple[float, ...]
    eigenvalues: Tuple[complex, ...]
    known_factor_root: Optional[float]
    reduced_poly: Optional[Tuple[float, ...]]
    division_remainder: Optional[float]
    stability: str


def _d_matrix(g, w) -> np.ndarray:
    """D = g W^{-1} g^T for one state's g and W."""
    g = np.asarray(g, dtype=float)
    return g @ np.linalg.solve(np.asarray(w, dtype=float), g.T)


def constant_d_matrix(model, weight) -> np.ndarray:
    """D = g G^{-1} g^T, which the closed-form Jacobians need constant.

    When g and G are both marked constant (constant_matrix evaluators, as
    linear_system builds them), D is formed once from those matrices.
    Otherwise it is checked at 16 states drawn from [-10, 10]^n with seed 0:
    deviation above 1e-10 raises an assumption-violation error.
    """
    weight = _weight_or_identity(weight, model.m)
    g = model.constant_g()
    w = constant_value(weight)
    if g is not None and w is not None:
        return _d_matrix(g, w)
    rng = np.random.default_rng(D_CHECK_SEED)
    states = -D_CHECK_SPAN + 2.0 * D_CHECK_SPAN * rng.random((D_CHECK_SAMPLES, model.n))

    base = _d_matrix(model.g(states[0]), weight(states[0]))
    worst = 0.0
    for x in states[1:]:
        worst = max(worst, float(np.max(np.abs(_d_matrix(model.g(x), weight(x)) - base))))
    if worst > D_CHECK_TOL:
        raise AssumptionViolationError(
            "D = g G^{-1} g^T varies by %g over sampled states; closed-form "
            "Jacobians require constant D" % worst)
    return base


def jacobian_clf_cbf_boundary(controller, x_star: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of a CLF-CBF QP loop at a strict boundary equilibrium."""
    x = np.asarray(x_star, dtype=float)
    model, cbf, clf = controller.model, controller.pair, controller.clf
    lam1, lam2, delta_mat, det = multipliers_on_boundary(controller, x)
    if lam1 <= DESIRABILITY_TOL or lam2 <= DESIRABILITY_TOL:
        raise PreconditionError(
            "strict complementarity needed: lam1 = %g, lam2 = %g must exceed %g"
            % (lam1, lam2, DESIRABILITY_TOL))
    d = constant_d_matrix(model, controller.weight)
    grad_v = np.asarray(clf.grad_v(x), dtype=float)
    grad_h = np.asarray(cbf.grad_h(x), dtype=float)
    h_v = np.asarray(clf.hess_v(x), dtype=float)
    h_h = np.asarray(cbf.hess_h(x), dtype=float)
    j_f = np.asarray(model.jf(x), dtype=float)
    a_p0 = float(cbf.alpha_prime(0.0))
    b_pv = float(clf.beta_prime(clf.v(x)))

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
    d = constant_d_matrix(model, controller.weight)
    grad_h = np.asarray(cbf.grad_h(x), dtype=float)
    h_h = np.asarray(cbf.hess_h(x), dtype=float)
    j_ft = np.asarray(model.jdrift(x), dtype=float)
    ft = np.asarray(model.drift(x), dtype=float)
    a_p0 = float(cbf.alpha_prime(0.0))
    dh = d @ grad_h
    q = float(grad_h @ dh)
    n = x.shape[0]
    return (j_ft
            - np.outer(dh, grad_h) @ (j_ft + a_p0 * np.eye(n)) / q
            - d @ (float(grad_h @ ft) * np.eye(n) - np.outer(grad_h, ft)) @ h_h / q)


def char_poly_coefficients(mat: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial of det(sI - J) by Faddeev-LeVerrier."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise InvalidParameterError("need a square matrix, got shape %s" % (mat.shape,))
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    aux = np.eye(n)
    for k in range(1, n + 1):
        aux = mat @ aux
        coeffs[k] = -np.trace(aux) / k
        aux = aux + coeffs[k] * np.eye(n)
    return coeffs


def polyval(coeffs: Sequence[float], z: complex) -> complex:
    """Horner evaluation of a descending-coefficient polynomial."""
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def aberth_roots(coeffs: Sequence[float]) -> np.ndarray:
    """All roots of a monic real polynomial by the Aberth-Ehrlich iteration.

    Starts on a circle inside the Cauchy bound with an asymmetric phase so no
    initial point sits on a symmetry axis; stops when every simultaneous
    Newton correction falls below ROOT_TOL relative to the root magnitude.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if abs(coeffs[0] - 1.0) > 1e-12:
        coeffs = coeffs / coeffs[0]
    degree = coeffs.size - 1
    if degree == 0:
        return np.zeros(0, dtype=complex)
    if degree == 1:
        return np.array([-coeffs[1]], dtype=complex)
    deriv = coeffs[:-1] * np.arange(degree, 0, -1)
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    angles = 2.0 * np.pi * (np.arange(degree) + 0.25) / degree + 0.5
    roots = 0.5 * radius * np.exp(1j * angles)
    for _ in range(ROOT_MAX_ITER):
        values = np.array([polyval(coeffs, z) for z in roots])
        dvalues = np.array([polyval(deriv, z) for z in roots])
        newton = np.where(dvalues != 0.0, values / np.where(dvalues != 0.0, dvalues, 1.0), 0.1)
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        correction = newton / denom
        roots = roots - correction
        if float(np.max(np.abs(correction) / (1.0 + np.abs(roots)))) < ROOT_TOL:
            break
    else:
        residuals = [abs(polyval(coeffs, z)) for z in roots]
        raise NumericsError("root iteration did not converge in %d steps; residuals %s"
                            % (ROOT_MAX_ITER, residuals))
    return roots


def synthetic_division(coeffs: Sequence[float], root: float) -> Tuple[np.ndarray, float]:
    """Divide a descending-coefficient polynomial by (s - root)."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(coeffs.size - 1)
    acc = 0.0
    for i in range(coeffs.size - 1):
        acc = coeffs[i] + root * acc
        out[i] = acc
    remainder = coeffs[-1] + root * acc
    return out, float(remainder)


def _sorted_eigs(roots: np.ndarray) -> Tuple[complex, ...]:
    order = np.lexsort((roots.imag, roots.real))
    return tuple(complex(roots[i]) for i in order)


def stability_label(eigenvalues: Sequence[complex]) -> str:
    reals = np.array([complex(z).real for z in eigenvalues])
    if reals.size == 0:
        return "inconclusive"
    if np.any(np.abs(reals) <= STABILITY_TOL):
        return "inconclusive"
    if np.all(reals < -STABILITY_TOL):
        return "asymptotically-stable"
    if np.all(reals > STABILITY_TOL):
        return "unstable"
    return "saddle"


def eigen_and_classify(jacobian: np.ndarray, alpha_prime0: Optional[float] = None) -> SpectralResult:
    """Spectrum, known-factor division, and stability label for one Jacobian.

    alpha_prime0 names the known left-eigenvalue factor: (s + alpha_prime0)
    is divided out of the characteristic polynomial and the quotient stored
    as reduced_poly. Pass None (interior equilibria) to skip the division.
    """
    jacobian = np.asarray(jacobian, dtype=float)
    n = jacobian.shape[0]
    if n > MAX_MATRIX_DIM:
        raise InvalidParameterError("spectral analysis limited to n <= %d, got %d"
                                    % (MAX_MATRIX_DIM, n))
    coeffs = char_poly_coefficients(jacobian)
    roots = aberth_roots(coeffs)
    eigenvalues = _sorted_eigs(roots)
    reduced = None
    remainder = None
    factor_root = None
    if alpha_prime0 is not None:
        factor_root = -float(alpha_prime0)
        reduced_arr, remainder = synthetic_division(coeffs, factor_root)
        reduced = tuple(reduced_arr.tolist())
    return SpectralResult(jacobian=jacobian, char_poly=tuple(coeffs.tolist()),
                          eigenvalues=eigenvalues, known_factor_root=factor_root,
                          reduced_poly=reduced, division_remainder=remainder,
                          stability=stability_label(eigenvalues))


@dataclass(frozen=True)
class InvarianceVerdict:
    verdict: str                 # pass | fail | factorization-failure
    max_coeff_difference: float
    remainders: Tuple[float, float]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def spectral_invariance_check(j1: np.ndarray, alpha1_prime0: float,
                              j2: np.ndarray, alpha2_prime0: float,
                              tol: float = INVARIANCE_TOL) -> InvarianceVerdict:
    """Compare the reduced characteristic polynomials of two Jacobians.

    Each polynomial is divided by its own (s + alpha'(0)); the quotients must
    agree coefficient-wise within tol. A division remainder above 1e-6 means
    -alpha'(0) is not actually an eigenvalue and the comparison is void.
    """
    red1, rem1 = synthetic_division(char_poly_coefficients(j1), -float(alpha1_prime0))
    red2, rem2 = synthetic_division(char_poly_coefficients(j2), -float(alpha2_prime0))
    remainders = (abs(rem1), abs(rem2))
    if max(remainders) > REMAINDER_TOL:
        return InvarianceVerdict(verdict="factorization-failure",
                                 max_coeff_difference=float("nan"), remainders=remainders)
    diff = float(np.max(np.abs(red1 - red2))) if red1.size else 0.0
    verdict = "pass" if diff < tol else "fail"
    return InvarianceVerdict(verdict=verdict, max_coeff_difference=diff, remainders=remainders)


def _closed_form_jacobian(controller, report: EquilibriumReport) -> Optional[np.ndarray]:
    if report.kind != "boundary" or report.desirability != "undesirable":
        return None
    if controller.kind == "clf-cbf-qp":
        return jacobian_clf_cbf_boundary(controller, report.x_star)
    if controller.kind == "safety-filter":
        return jacobian_safety_filter_boundary(controller, report.x_star)
    return None


def _spectrum(controller, report: EquilibriumReport) -> SpectralResult:
    closed = _closed_form_jacobian(controller, report)
    if closed is not None:
        return eigen_and_classify(closed, float(controller.pair.alpha_prime(0.0)))
    jac = central_difference_jacobian(lambda s: np.asarray(controller.field(s), dtype=float),
                                      report.x_star)
    return eigen_and_classify(jac, None)


def attach_spectra(reports: Sequence[EquilibriumReport], controller) -> List[EquilibriumReport]:
    """Copies of the reports with their spectrum filled in.

    Undesirable boundary equilibria get the closed-form Jacobian and the
    known-factor division at -alpha'(0); everything else (interior points,
    non-strict boundary points) gets a central-difference Jacobian of the
    closed-loop field (model.central_difference_jacobian) with no known
    factor.
    """
    return [replace(report, spectrum=_spectrum(controller, report)) for report in reports]
