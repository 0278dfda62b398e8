"""Analysis toolkit for safety filters and CLF-CBF quadratic programs.

Builds control-affine closed loops from barrier (h, alpha) and Lyapunov
(V, beta) pairs, solves the per-state quadratic programs in closed form and
with a certified active-set solver, locates and classifies the equilibria the
barrier constraint introduces on the safe-set boundary, evaluates closed-form
Jacobians and reduced spectra there, verifies barrier equivalence, and
integrates / grids the closed loops for invariance and basin studies.
"""

from .config import (ScenarioConfig, build_clf, build_controller, build_model,
                     build_pairs, builtin_scenario, comparison_config,
                     parse_config, parse_config_text, unfiltered_controller,
                     validate_config)
from .equilibria import (EquilibriumReport, PolishCounts, PolishResult,
                         classify_desirability, collinearity_factor,
                         find_boundary_equilibria, find_interior_equilibria,
                         multipliers_on_boundary, polish_roots)
from .equivalence import (EquivalenceReport, TransformStep,
                          boundary_field_difference, compose_transforms,
                          default_boundary_samples, gradient_ratio,
                          hausdorff_distance, hessian_equivalence,
                          predicted_zeta, predicted_zeta_tilde)
from .errors import (AssumptionViolationError, BarrierLabError, ConfigError,
                     DefinitenessError, InfeasibleProblemError,
                     InvalidParameterError, NotOnBoundaryError, NumericsError,
                     PreconditionError, StrictFeasibilityError, StructuralError)
from .model import (BarrierPair, LyapunovPair, SafeSetGeometry, ScalarMap,
                    StateMap, SystemModel, ValidationReport,
                    central_difference_jacobian, constant_matrix,
                    constant_state_map, identity_map, linear_map,
                    linear_system, make_ball_cbf, project_to_boundary,
                    quadratic_clf, quadratic_map, quadratic_offset_map,
                    single_integrator_2d, transform_cbf, validate_model)
from .qp import (ClfCbfController, ClfController, ConstraintRow, KktPoint,
                 NominalClosedLoop, QpProblem, SafetyFilterController,
                 certificate_errors, check_strict_feasibility,
                 clf_cbf_problem, safety_filter_problem, solve_small_qp)
from .sim import (FieldGrid, RoaGrid, Trajectory, field_grid, integrate,
                  integrate_batch, invariance_audit, roa_grid)
from .spectral import (InvarianceVerdict, SpectralResult, aberth_roots,
                       attach_spectra, char_poly_coefficients,
                       constant_d_matrix, eigen_and_classify,
                       jacobian_clf_cbf_boundary,
                       jacobian_safety_filter_boundary,
                       spectral_invariance_check, stability_label,
                       synthetic_division)
from .cli import compare_pairs, main, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError", "BarrierLabError", "BarrierPair",
    "ClfCbfController", "ClfController", "ConfigError", "ConstraintRow",
    "DefinitenessError", "EquilibriumReport", "EquivalenceReport",
    "FieldGrid", "InfeasibleProblemError", "InvalidParameterError",
    "InvarianceVerdict", "KktPoint", "LyapunovPair", "NominalClosedLoop",
    "NotOnBoundaryError", "NumericsError", "PolishCounts", "PolishResult",
    "PreconditionError", "QpProblem",
    "RoaGrid", "SafeSetGeometry", "SafetyFilterController", "ScalarMap",
    "ScenarioConfig", "SpectralResult", "StateMap", "StrictFeasibilityError",
    "StructuralError", "SystemModel", "Trajectory", "TransformStep",
    "ValidationReport", "aberth_roots", "attach_spectra",
    "boundary_field_difference", "build_clf", "build_controller",
    "build_model", "build_pairs", "builtin_scenario",
    "central_difference_jacobian", "certificate_errors",
    "char_poly_coefficients", "check_strict_feasibility",
    "classify_desirability", "clf_cbf_problem", "collinearity_factor",
    "compare_pairs",
    "comparison_config", "compose_transforms", "constant_d_matrix",
    "constant_matrix", "constant_state_map", "default_boundary_samples",
    "eigen_and_classify", "field_grid",
    "find_boundary_equilibria", "find_interior_equilibria",
    "gradient_ratio", "hausdorff_distance",
    "hessian_equivalence", "identity_map", "integrate", "integrate_batch",
    "invariance_audit", "jacobian_clf_cbf_boundary",
    "jacobian_safety_filter_boundary", "linear_map", "linear_system", "main",
    "make_ball_cbf", "multipliers_on_boundary", "parse_config",
    "parse_config_text", "polish_roots", "predicted_zeta", "predicted_zeta_tilde",
    "project_to_boundary", "quadratic_clf", "quadratic_map",
    "quadratic_offset_map", "roa_grid", "run_scenario",
    "safety_filter_problem", "single_integrator_2d", "solve_small_qp",
    "spectral_invariance_check", "stability_label", "synthetic_division",
    "transform_cbf", "unfiltered_controller", "validate_config",
    "validate_model",
]
