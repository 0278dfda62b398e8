"""Optimization-based controllers: small active-set QP solver and fast paths.

Every controller here minimizes (1/2)||u||^2_W (+ (1/2) p delta^2 when a
relaxed row exists) subject to affine rows in u:

    cbf rows:          a(x)^T u + c(x) >= 0
    clf-relaxed rows:  a(x)^T u + c(x) - r delta <= 0
    custom rows:       a(x)^T u + c(x) <= 0

with a = g^T grad and c the drift term of the directional derivative plus the
class-K margin, i.e. F_h(x) = grad_h^T f + alpha(h) for cbf rows and
F_V(x) = grad_v^T f + beta(V) for clf rows. Multipliers of >=-rows enter
stationarity with a minus sign: W u + sum_i lambda_i s_i a_i = 0, s_i = +1
for <=-rows and -1 for >=-rows.

The closed-form laws (safety filter, CLF-CBF QP, unfiltered CLF control)
live in the controller objects, vectorized over leading state axes: each
computes the state-independent parts once and evaluates its law in one pass
per call (evaluate -> u, field, multipliers, code); point(x) reads that pass
at one state. The generic solver handles one state at a time and serves as
the oracle the controllers are tested against.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DefinitenessError, InfeasibleProblemError, InvalidParameterError,
                     StrictFeasibilityError, StructuralError)
from .model import (BarrierPair, LyapunovPair, SystemModel, constant_matrix, constant_value, dot,
                    identity_weight, linear_evaluator, matvec)

MAX_ROWS = 12
FEAS_TOL = 1e-9          # row satisfaction at the returned point
DUAL_TOL = 1e-12         # multipliers may undershoot zero by this much
WEAK_ACTIVE_TOL = 1e-10  # inactive rows must have multiplier below this
SYMMETRY_TOL = 1e-12
TANGENCY_TOL = 1e-8      # |grad_h^T f + alpha(h)| below this marks a tangency
NORMAL_MIN = 1e-8        # required ||g^T grad_h|| at tangency samples
DEGENERATE_NORM = 1e-12  # explicit-law denominator floor when the row binds

Weight = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConstraintRow:
    """One affine row; kind fixes the inequality sense and delta coupling.

    terms(x) returns the row's (normal a, offset c) at x in one pass.
    """

    kind: str
    terms: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    relax_coeff: float = 0.0

    def __post_init__(self):
        if self.kind not in ("clf-relaxed", "cbf", "custom"):
            raise InvalidParameterError("unknown row kind %r" % (self.kind,))
        if self.kind == "cbf" and self.relax_coeff != 0.0:
            raise InvalidParameterError("cbf rows admit no relaxation")

    @property
    def sense(self) -> float:
        """+1 for <=-rows, -1 for >=-rows."""
        return -1.0 if self.kind == "cbf" else 1.0


@dataclass(frozen=True)
class QpProblem:
    """Weighted min-norm QP with affine rows; weight and rows are evaluators."""

    weight: Weight
    penalty: Optional[float]
    rows: Tuple[ConstraintRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        relaxed = any(row.relax_coeff != 0.0 for row in self.rows)
        if relaxed and (self.penalty is None or float(self.penalty) <= 0.0):
            raise InvalidParameterError("a relaxed row requires penalty p > 0")
        if self.penalty is not None and float(self.penalty) <= 0.0:
            raise InvalidParameterError("penalty must be positive, got %r" % (self.penalty,))

    @property
    def relaxed(self) -> bool:
        return self.penalty is not None

    @cached_property
    def _constant_weight(self) -> Optional[np.ndarray]:
        # checked on first use, not at construction; a raising check caches
        # nothing, so an invalid constant weight raises on every call
        w = constant_value(self.weight)
        return None if w is None else _checked_matrix(w)

    def weight_at(self, x: np.ndarray) -> np.ndarray:
        """The checked weight at x: once per problem when marked constant."""
        w = self._constant_weight
        return _checked_matrix(self.weight(x)) if w is None else w


@dataclass(frozen=True)
class KktPoint:
    """Primal/dual solution of one QP evaluation."""

    u: np.ndarray
    delta: float
    multipliers: Tuple[float, ...]
    active_set: Tuple[int, ...]


def _checked_matrix(w: np.ndarray) -> np.ndarray:
    """w as a float array, checked square, symmetric and positive definite."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise StructuralError("weight evaluator returned shape %s" % (w.shape,))
    if not np.isfinite(w).all():
        raise DefinitenessError("weight matrix has a non-finite entry")
    if float(np.max(np.abs(w - w.T))) > SYMMETRY_TOL:
        raise DefinitenessError("weight matrix is not symmetric within %g" % SYMMETRY_TOL)
    try:
        np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        raise DefinitenessError("weight matrix is not positive definite")
    return w


def _row_at(row: ConstraintRow, i: int, x: np.ndarray, m: int) -> Tuple[np.ndarray, float]:
    """Row i's (a, c) at x in one pass, checked: a of shape (m,), a and c finite.

    A non-finite value raises: every tolerance test on NaN is false, so such
    a row would otherwise read as satisfied.
    """
    a, c = row.terms(x)
    a = np.asarray(a, dtype=float)
    if a.shape != (m,):
        raise StructuralError("row normal has shape %s, expected (%d,)" % (a.shape, m))
    c = float(c)
    if not (math.isfinite(c) and np.isfinite(a).all()):
        raise StructuralError("row %d is not finite at the given state: a = %s, c = %r"
                              % (i, a.tolist(), c))
    return a, c


@lru_cache(maxsize=None)
def _subset_indices(nz: int, k: int) -> Tuple[Tuple[Tuple[int, ...], np.ndarray], ...]:
    """Nonempty row subsets in solver order, each with its KKT indices.

    The indices pick the nz primal variables and the subset's multipliers
    out of the KKT system of all k rows; they are read-only, since every
    call with the same (nz, k) shares them.
    """
    out = []
    for card in range(1, k + 1):
        for subset in itertools.combinations(range(k), card):
            keep = np.array(list(range(nz)) + [nz + i for i in subset])
            keep.flags.writeable = False
            out.append((subset, keep))
    return tuple(out)


def solve_small_qp(problem: QpProblem, x: np.ndarray) -> KktPoint:
    """Global minimizer of the strongly convex QP by active-subset enumeration.

    Subsets are tried by increasing cardinality (lexicographic within equal
    cardinality); the first candidate with nonnegative multipliers that
    satisfies every row is the unique minimizer. Singular subset systems are
    skipped. No subset certifying means the rows are inconsistent at x.
    Each row is evaluated once per state (ConstraintRow.terms)
    and a constant weight is checked once per problem (QpProblem.weight_at).
    """
    x = np.asarray(x, dtype=float)
    k = len(problem.rows)
    if k > MAX_ROWS:
        raise InvalidParameterError("solver accepts at most %d rows, got %d" % (MAX_ROWS, k))
    w = problem.weight_at(x)
    m = w.shape[0]
    has_delta = problem.relaxed
    nz = m + 1 if has_delta else m

    # the KKT system of all rows: [[H, s_i a_i], [a_i^T, 0]] with H = diag(W, p)
    # and right side (0, -c_i); a subset's system is its rows and columns of it
    full = np.zeros((nz + k, nz + k))
    full_rhs = np.zeros(nz + k)
    offsets: List[float] = []
    senses: List[float] = []
    for i, row in enumerate(problem.rows):
        a, c = _row_at(row, i, x, m)
        j = nz + i
        full[j, :m] = a
        if has_delta:
            full[j, m] = -row.relax_coeff
        full[:nz, j] = row.sense * full[j, :nz]
        full_rhs[j] = -c
        offsets.append(c)
        senses.append(row.sense)

    # the empty subset: z = 0, so each row's signed slack is s_i c_i
    if not any(s * c > FEAS_TOL for s, c in zip(senses, offsets)):
        return KktPoint(u=np.zeros(m), delta=0.0, multipliers=(0.0,) * k, active_set=())

    full[:m, :m] = w
    if has_delta:
        full[m, m] = float(problem.penalty)
    normals = full[nz:, :nz]
    for subset, keep in _subset_indices(nz, k):
        try:
            sol = np.linalg.solve(full.take(keep, 0).take(keep, 1), full_rhs.take(keep))
        except np.linalg.LinAlgError:
            continue
        lam_subset = sol[nz:].tolist()
        if min(lam_subset) < -DUAL_TOL:
            continue
        z = sol[:nz]
        # signed slack s_i (a_i z + c_i); feasible where <= FEAS_TOL
        if any(senses[i] * (normals[i] @ z + offsets[i]) > FEAS_TOL for i in range(k)):
            continue
        multipliers = [0.0] * k
        for i, lam in zip(subset, lam_subset):
            multipliers[i] = max(0.0, lam)
        return KktPoint(u=z[:m].copy(), delta=float(z[m]) if has_delta else 0.0,
                        multipliers=tuple(multipliers), active_set=subset)

    viol = [max(0.0, senses[i] * offsets[i]) for i in range(k)]
    worst = int(np.argmax(viol))
    raise InfeasibleProblemError("no active subset certifies; rows inconsistent at the given state",
                                 row=worst, violation=viol[worst])


def certificate_errors(problem: QpProblem, x: np.ndarray, point: KktPoint) -> dict:
    """Stationarity / feasibility / dual / complementarity residuals at a point."""
    x = np.asarray(x, dtype=float)
    w = problem.weight_at(x)
    has_delta = problem.relaxed
    grad_u = w @ np.asarray(point.u, dtype=float)
    grad_d = (float(problem.penalty) * point.delta) if has_delta else 0.0
    worst_primal = 0.0
    worst_comp = 0.0
    for i, (row, lam) in enumerate(zip(problem.rows, point.multipliers)):
        a, c = _row_at(row, i, x, w.shape[0])
        value = float(a @ point.u + c - row.relax_coeff * point.delta)
        worst_primal = max(worst_primal, row.sense * value)
        worst_comp = max(worst_comp, abs(lam * value))
        grad_u = grad_u + lam * row.sense * a
        grad_d = grad_d + lam * row.sense * (-row.relax_coeff)
    stationarity = float(np.max(np.abs(grad_u)))
    if has_delta:
        stationarity = max(stationarity, abs(grad_d))
    return {
        "stationarity": stationarity,
        "primal": worst_primal,
        "dual": -min(0.0, min(point.multipliers, default=0.0)),
        "complementarity": worst_comp,
    }


def _weight_or_identity(weight: Optional[Weight], m: int) -> Weight:
    return identity_weight(m) if weight is None else weight


def _penalty(p: float) -> float:
    p = float(p)
    if p <= 0.0:
        raise InvalidParameterError("penalty p must be positive, got %g" % p)
    return p


def _apply_inverse(w: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # batched W^{-1} vec over trailing axes; the identity check is exact, so
    # skipping the LU solve cannot move any value
    m = w.shape[-1]
    if w.shape[-2] == m and np.array_equal(w, np.broadcast_to(np.eye(m), w.shape)):
        return np.asarray(vec, dtype=float)
    return np.linalg.solve(w, vec[..., None])[..., 0]


class _LoopTerms:
    """Drift, g and W^{-1} g^T of one controller's loop, evaluated at states.

    The drift is f + g k for loops around a nominal controller, else f. The
    parts the model marks as state-independent are computed once, here: g
    (a constant_matrix evaluator), W^{-1} g^T (g and W both constant) and
    the drift matrix A + B K (SystemModel.drift_evaluator); products with
    them go through linear_evaluator. Unmarked parts are evaluated at each
    state.
    """

    def __init__(self, model: SystemModel, weight: Weight, nominal: bool):
        self.model = model
        self.weight = weight
        self.drift = model.drift_evaluator(nominal)
        g = model.constant_g()
        w = constant_value(weight)
        self.times_g = self.times_gt = self.times_winv_gt = None
        if g is not None:
            self.times_g = linear_evaluator(g)
            self.times_gt = linear_evaluator(g.T)
            if w is not None:
                # the identity check is exact, so reusing g^T cannot move any value
                identity = not np.count_nonzero(w - np.eye(w.shape[0]))
                self.times_winv_gt = (self.times_gt if identity
                                      else linear_evaluator(np.linalg.solve(w, g.T)))

    def apply_g(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """g(x) u."""
        if self.times_g is not None:
            return self.times_g(u)
        return matvec(self.model.g(x), u)

    def rows(self, x: np.ndarray, *grads: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(g^T grad, W^{-1} g^T grad) at x for each gradient."""
        if self.times_gt is not None:
            normals = [self.times_gt(grad) for grad in grads]
        else:
            gt = np.swapaxes(self.model.g(x), -1, -2)
            normals = [matvec(gt, grad) for grad in grads]
        if self.times_winv_gt is self.times_gt is not None:
            return [(a, a) for a in normals]
        if self.times_winv_gt is not None:
            return [(a, self.times_winv_gt(grad)) for a, grad in zip(normals, grads)]
        w = np.asarray(self.weight(x), dtype=float)
        return [(a, _apply_inverse(w, a)) for a in normals]


def safety_filter_problem(model: SystemModel, pair: BarrierPair,
                          weight: Optional[Weight] = None) -> QpProblem:
    """QP form of the safety filter; one cbf row, no relaxation.

    The stored objective weight is 2 G so the row multiplier comes out as
    lambda = max(0, -2 eta / ||g^T grad_h||^2_{G^{-1}}); the minimizer itself
    is invariant to that scaling and equals the explicit filter law.
    """
    base = _weight_or_identity(weight, model.m)
    w = constant_value(base)
    if w is not None:
        doubled = constant_matrix(2.0 * w)
    else:
        def doubled(x):
            return 2.0 * np.asarray(base(x), dtype=float)

    return QpProblem(weight=doubled, penalty=None, rows=(_cbf_row(model, pair, model.drift),))


def _filter_row(terms: _LoopTerms, pair: BarrierPair, x: np.ndarray):
    """(eta, g^T grad_h, W^{-1} g^T grad_h, f + g k) at x, batched."""
    hv, grad = pair.value_and_grad(x)
    drift = terms.drift(x)
    eta = np.asarray(dot(grad, drift) + pair.alpha(hv), dtype=float)
    [(a, winv_a)] = terms.rows(x, grad)
    return eta, a, winv_a, drift


def _filter_law(eta: np.ndarray, a: np.ndarray, winv_a: np.ndarray, single: bool):
    """Filter input u and ||g^T grad_h||^2_{G^{-1}} from one row's terms.

    Degenerate active rows raise at a single state and give NaN in a batch.
    """
    den = dot(a, winv_a)
    active = eta < 0.0
    degenerate = active & (den <= DEGENERATE_NORM ** 2)
    if single:
        if bool(degenerate):
            raise StrictFeasibilityError("eta < 0 with ||g^T grad_h|| ~ 0: the cbf row cannot be met")
        u = np.zeros(a.shape) if not active else -eta * winv_a / den
        return u, den
    # NaN in the denominator carries degenerate rows to u; 1 keeps inactive ones finite
    safe_den = np.where(degenerate, np.nan, np.where(active, den, 1.0))
    u = np.where(active[..., None], -eta[..., None] * winv_a / safe_den[..., None], 0.0)
    return u, den


def _times_gt(model: SystemModel) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(x, grad) -> g(x)^T grad; g^T is formed once when g is marked constant.

    Both branches multiply through matvec, so they give the same bits. The
    rows read only the model and pair evaluators, never the controllers'
    loop terms, which keeps the solver independent of the laws it checks.
    """
    g = model.constant_g()
    if g is not None:
        gt = g.T
        return lambda x, grad: matvec(gt, grad)
    return lambda x, grad: matvec(np.swapaxes(model.g(x), -1, -2), grad)


def _clf_row(model: SystemModel, clf: LyapunovPair) -> ConstraintRow:
    """The relaxed clf row: a = g^T grad_v, c = grad_v^T f + beta(V)."""
    times_gt = _times_gt(model)

    def terms(x):
        v, grad = clf.value_and_grad(x)
        return times_gt(x, grad), dot(grad, model.f(x)) + clf.beta(v)

    return ConstraintRow(kind="clf-relaxed", terms=terms, relax_coeff=1.0)


def _cbf_row(model: SystemModel, pair: BarrierPair,
             drift: Callable[[np.ndarray], np.ndarray]) -> ConstraintRow:
    """The cbf row: a = g^T grad_h, c = grad_h^T drift + alpha(h)."""
    times_gt = _times_gt(model)

    def terms(x):
        hv, grad = pair.value_and_grad(x)
        return times_gt(x, grad), dot(grad, drift(x)) + pair.alpha(hv)

    return ConstraintRow(kind="cbf", terms=terms)


def clf_cbf_problem(model: SystemModel, cbf: BarrierPair, clf: LyapunovPair,
                    weight: Optional[Weight] = None, p: float = 1.0) -> QpProblem:
    """QP with one relaxed clf row (index 0) and one cbf row (index 1)."""
    return QpProblem(weight=_weight_or_identity(weight, model.m), penalty=_penalty(p),
                     rows=(_clf_row(model, clf), _cbf_row(model, cbf, model.f)))


def clf_problem(model: SystemModel, clf: LyapunovPair,
                weight: Optional[Weight] = None, p: float = 1.0) -> QpProblem:
    """The clf_cbf_problem without its cbf row (unfiltered controller)."""
    return QpProblem(weight=_weight_or_identity(weight, model.m), penalty=_penalty(p),
                     rows=(_clf_row(model, clf),))


def _clf_cbf_fields(terms: _LoopTerms, cbf: Optional[BarrierPair], clf: LyapunovPair,
                    x: np.ndarray) -> dict:
    """Shared geometric quantities of the CLF(-CBF) controllers at x (batched)."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(terms.drift(x), dtype=float)
    v, grad_v = clf.value_and_grad(x)
    grad_v = np.asarray(grad_v, dtype=float)
    if cbf is None:
        [(av, winv_av)] = terms.rows(x, grad_v)
    else:
        hv, grad_h = cbf.value_and_grad(x)
        grad_h = np.asarray(grad_h, dtype=float)
        (av, winv_av), (ah, winv_ah) = terms.rows(x, grad_v, grad_h)
    data = {
        "f": f,
        "av": av,
        "winv_av": winv_av,
        "fv": np.asarray(dot(grad_v, f) + clf.beta(v), dtype=float),
        "vdv": dot(av, winv_av),   # ||grad_v||_D^2
    }
    if cbf is not None:
        data.update({
            "ah": ah,
            "winv_ah": winv_ah,
            "fh": np.asarray(dot(grad_h, f) + cbf.alpha(hv), dtype=float),
            "hdh": dot(ah, winv_ah),          # ||grad_h||_D^2
            "vdh": dot(av, winv_ah),          # grad_v^T D grad_h
        })
    return data


def _clf_cbf_solution(data: dict, p: float):
    """Four-case active-set selection, vectorized; mirrors solve_small_qp.

    Case order (empty; clf; cbf; both) matches the solver's subset order, so
    borderline states resolve identically. Returns (u, lam1, lam2, code)
    with code 0/1/2/3 for the four cases and -1 where no case holds (cbf row
    unsatisfiable: g^T grad_h = 0 with F_h < 0).
    """
    fv, fh = data["fv"], data["fh"]
    a = data["vdv"] + 1.0 / p
    bb = data["vdh"]
    c = data["hdh"]

    cond_empty = (fv <= FEAS_TOL) & (fh >= -FEAS_TOL)
    lam1_clf = fv / a
    cond_clf = (lam1_clf >= -DUAL_TOL) & (fh - lam1_clf * bb >= -FEAS_TOL)
    pos_c = c > 0.0
    lam2_cbf = -fh / np.where(pos_c, c, 1.0)   # read only where pos_c holds
    cond_cbf = pos_c & (lam2_cbf >= -DUAL_TOL) & (fv + lam2_cbf * bb <= FEAS_TOL)
    det = a * c - bb * bb
    pos_det = det > 0.0
    safe_det = np.where(pos_det, det, 1.0)
    lam1_both = (fv * c - fh * bb) / safe_det
    lam2_both = (fv * bb - fh * a) / safe_det
    cond_both = pos_det & (lam1_both >= -DUAL_TOL) & (lam2_both >= -DUAL_TOL)

    # nested where keeps np.select's first-true-wins order at stepping cost
    code = np.where(cond_empty, 0,
           np.where(cond_clf, 1,
           np.where(cond_cbf, 2,
           np.where(cond_both, 3, -1))))
    lam1 = np.where(cond_empty, 0.0,
           np.where(cond_clf, lam1_clf,
           np.where(cond_cbf, 0.0,
           np.where(cond_both, lam1_both, np.nan))))
    lam2 = np.where(cond_empty, 0.0,
           np.where(cond_clf, 0.0,
           np.where(cond_cbf, lam2_cbf,
           np.where(cond_both, lam2_both, np.nan))))
    u = -lam1[..., None] * data["winv_av"] + lam2[..., None] * data["winv_ah"]
    return u, lam1, lam2, code


def _unfiltered_solution(data: dict, p: float):
    a = data["vdv"] + 1.0 / p
    # exact threshold: the explicit law switches at F_V = 0, unlike the
    # four-case solver mirror which carries the solver's feasibility slack
    lam1 = np.where(data["fv"] <= 0.0, 0.0, data["fv"] / a)
    return -lam1[..., None] * data["winv_av"], lam1


def _unfiltered_pass(terms: _LoopTerms, clf: LyapunovPair, p: float, x: np.ndarray):
    """(u, f + g u, lam1) of the unfiltered CLF law at x."""
    x = np.asarray(x, dtype=float)
    data = _clf_cbf_fields(terms, None, clf, x)
    u, lam1 = _unfiltered_solution(data, p)
    return u, data["f"] + terms.apply_g(x, u), lam1


@dataclass(frozen=True)
class FeasibilityViolation:
    index: int
    state: np.ndarray
    offset_value: float
    normal_norm: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Tangency audit of the strict-feasibility condition for one barrier."""

    checked: int
    tangency_count: int
    violations: Tuple[FeasibilityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_strict_feasibility(model: SystemModel, pair: BarrierPair,
                             samples: Sequence[np.ndarray]) -> FeasibilityReport:
    """Where grad_h^T f + alpha(h) vanishes, ||g^T grad_h|| must not.

    Samples with |grad_h^T f + alpha(h)| < 1e-8 are the states where the cbf
    row binds with u = 0; at each of them ||g^T grad_h|| > 1e-8 is required
    for the row to be strictly satisfiable.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise InvalidParameterError("feasibility check needs a nonempty sample set")
    violations = []
    tangencies = 0
    for idx, x in enumerate(samples):
        offset = float(dot(pair.grad_h(x), model.f(x)) + pair.alpha(pair.h(x)))
        if abs(offset) >= TANGENCY_TOL:
            continue
        tangencies += 1
        a = matvec(np.swapaxes(model.g(x), -1, -2), pair.grad_h(x))
        norm = float(np.linalg.norm(a))
        if norm <= NORMAL_MIN:
            violations.append(FeasibilityViolation(index=idx, state=x, offset_value=offset,
                                                   normal_norm=norm))
    return FeasibilityReport(checked=len(samples), tangency_count=tangencies,
                             violations=tuple(violations))


class _ControllerViews:
    """control, multipliers, active_code and point as views of evaluate(x).

    Each controller defines evaluate(x) -> (u, field, multipliers,
    active_code) and field(x), the same pass without the multiplier and
    active-code arithmetic the integrator never reads. Bit row_bits[i] of
    the active code marks row i of problem() active (1: clf row, 2: cbf
    row); p is the penalty of a relaxed clf row. A loop with no barrier row
    is its own unfiltered loop; filtered controllers override
    unfiltered_field.
    """

    row_bits: Tuple[int, ...] = ()
    p: Optional[float] = None

    def point(self, x: np.ndarray) -> KktPoint:
        """evaluate at one state as the KktPoint of problem(); delta = lam1 / p.

        A degenerate cbf row raises: StrictFeasibilityError from the filter's
        evaluate, InfeasibleProblemError here for the CLF-CBF QP (code -1).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise InvalidParameterError("point takes a single state; evaluate takes batches")
        u, _, multipliers, code = self.evaluate(x)
        code = int(code)
        if code < 0:
            fh = float(self.problem().rows[1].terms(x)[1])
            raise InfeasibleProblemError("cbf row unsatisfiable: g^T grad_h = 0 with F_h < 0"
                                         " at this state", row=1, violation=-fh)
        multipliers = tuple(multipliers.tolist())
        return KktPoint(u=u, delta=0.0 if self.p is None else multipliers[0] / self.p,
                        multipliers=multipliers,
                        active_set=tuple(i for i, bit in enumerate(self.row_bits) if code & bit))

    def control(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[2]

    def active_code(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[3]

    def unfiltered_field(self, x: np.ndarray) -> np.ndarray:
        return self.field(x)


class SafetyFilterController(_ControllerViews):
    """Nominal closed loop f + g k wrapped by the explicit safety filter.

    evaluate(x) returns (u, field, multipliers, active_code) from one pass
    over the law; eta and the views of _ControllerViews read that pass.
    State-independent parts of the loop are computed once, on the first
    evaluation (see _LoopTerms), so building a controller stays cheap. The
    controllers below follow the same layout.
    """

    kind = "safety-filter"
    row_bits = (2,)

    def __init__(self, model: SystemModel, pair: BarrierPair, weight: Optional[Weight] = None):
        if model.k is None:
            raise StructuralError("the safety filter needs a nominal controller k")
        self.model = model
        self.pair = pair
        self.weight = _weight_or_identity(weight, model.m)
        self.cbf_pairs: Tuple[BarrierPair, ...] = (pair,)

    @cached_property
    def _terms(self) -> _LoopTerms:
        return _LoopTerms(self.model, self.weight, nominal=True)

    def _pass(self, x: np.ndarray):
        # the shared part of every view; field stops here, since the
        # integrator never reads the multipliers or the active code
        x = np.asarray(x, dtype=float)
        eta, a, winv_a, drift = _filter_row(self._terms, self.pair, x)
        u, den = _filter_law(eta, a, winv_a, x.ndim == 1)
        return u, drift + self._terms.apply_g(x, u), eta, den

    def evaluate(self, x: np.ndarray):
        u, field, eta, den = self._pass(x)
        active = eta < 0.0
        code = np.where(active, 2, 0)
        lam = np.where(active, -2.0 * eta / np.where(den > 0.0, den, 1.0), 0.0)
        return u, field, np.maximum(lam, 0.0)[..., None], code

    def eta(self, x: np.ndarray) -> np.ndarray:
        return _filter_row(self._terms, self.pair, np.asarray(x, dtype=float))[0]

    def field(self, x: np.ndarray) -> np.ndarray:
        return self._pass(x)[1]

    def unfiltered_field(self, x: np.ndarray) -> np.ndarray:
        return self._terms.drift(np.asarray(x, dtype=float))

    def problem(self) -> QpProblem:
        return safety_filter_problem(self.model, self.pair, self.weight)


class ClfCbfController(_ControllerViews):
    """CLF-CBF QP controller on the raw plant (no nominal k)."""

    kind = "clf-cbf-qp"
    row_bits = (1, 2)

    def __init__(self, model: SystemModel, cbf: BarrierPair, clf: LyapunovPair,
                 weight: Optional[Weight] = None, p: float = 1.0):
        self.model = model
        self.pair = cbf
        self.clf = clf
        self.weight = _weight_or_identity(weight, model.m)
        self.p = _penalty(p)
        self.cbf_pairs: Tuple[BarrierPair, ...] = (cbf,)

    @cached_property
    def _terms(self) -> _LoopTerms:
        return _LoopTerms(self.model, self.weight, nominal=False)

    def _pass(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        data = _clf_cbf_fields(self._terms, self.pair, self.clf, x)
        u, lam1, lam2, case = _clf_cbf_solution(data, self.p)
        failed = np.asarray(case) < 0
        u = np.where(failed[..., None], np.nan, u)
        return u, data["f"] + self._terms.apply_g(x, u), lam1, lam2, failed

    def evaluate(self, x: np.ndarray):
        u, field, lam1, lam2, failed = self._pass(x)
        code = (np.asarray(lam1) > 0.0).astype(int) + 2 * (np.asarray(lam2) > 0.0).astype(int)
        code = np.where(failed, -1, code)
        multipliers = np.stack([np.maximum(lam1, 0.0), np.maximum(lam2, 0.0)], axis=-1)
        return u, field, multipliers, code

    def field(self, x: np.ndarray) -> np.ndarray:
        return self._pass(x)[1]

    def unfiltered_field(self, x: np.ndarray) -> np.ndarray:
        return _unfiltered_pass(self._terms, self.clf, self.p, x)[1]

    def problem(self) -> QpProblem:
        return clf_cbf_problem(self.model, self.pair, self.clf, self.weight, self.p)


class ClfController(_ControllerViews):
    """Unfiltered min-norm CLF controller (the clf-cbf QP without its cbf row)."""

    kind = "clf"
    row_bits = (1,)

    def __init__(self, model: SystemModel, clf: LyapunovPair,
                 weight: Optional[Weight] = None, p: float = 1.0):
        self.model = model
        self.clf = clf
        self.weight = _weight_or_identity(weight, model.m)
        self.p = _penalty(p)
        self.cbf_pairs: Tuple[BarrierPair, ...] = ()

    @cached_property
    def _terms(self) -> _LoopTerms:
        return _LoopTerms(self.model, self.weight, nominal=False)

    def evaluate(self, x: np.ndarray):
        u, field, lam1 = _unfiltered_pass(self._terms, self.clf, self.p, x)
        return u, field, np.maximum(lam1, 0.0)[..., None], (np.asarray(lam1) > 0.0).astype(int)

    def field(self, x: np.ndarray) -> np.ndarray:
        return _unfiltered_pass(self._terms, self.clf, self.p, x)[1]

    def problem(self) -> QpProblem:
        return clf_problem(self.model, self.clf, self.weight, self.p)


class NominalClosedLoop(_ControllerViews):
    """The nominal closed loop f + g k with no optimization in the loop."""

    kind = "nominal"

    def __init__(self, model: SystemModel):
        if model.k is None:
            raise StructuralError("nominal closed loop needs a controller k on the model")
        self.model = model
        self.cbf_pairs: Tuple[BarrierPair, ...] = ()

    @cached_property
    def _drift(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.model.drift_evaluator()

    def evaluate(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        return self.model.k(x), self._drift(x), np.zeros(batch + (0,)), np.zeros(batch, dtype=int)

    def field(self, x: np.ndarray) -> np.ndarray:
        return self._drift(np.asarray(x, dtype=float))
