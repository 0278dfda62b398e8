"""Control-affine systems, barrier/Lyapunov pairs, safe-set geometry, transforms.

All evaluators follow a batched convention: states have shape (..., n) and
outputs gain the corresponding leading axes, so ``f(x) -> (..., n)``,
``g(x) -> (..., n, m)``, ``h(x) -> (...)``, ``grad_h(x) -> (..., n)`` and
``hess_h(x) -> (..., n, n)``. Scalar maps (alpha, beta, gamma) are elementwise.
Every type is immutable after construction and safe to share across workers.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, NumericsError, StructuralError

DERIVATIVE_TOL = 1e-4        # analytic vs central-difference agreement
MONOTONE_GRID_POINTS = 101   # class-K monotonicity check on [-10, 10]
MONOTONE_GRID_SPAN = 10.0
BOUNDARY_GRAD_MIN = 1e-10    # grad_h must not vanish on the boundary
PROJECTION_TOL = 1e-12       # |h| target for boundary projection
PROJECTION_MAX_ITER = 50
FD_STEP = 1e-5


def matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product over the trailing axes."""
    return np.einsum("...ij,...j->...i", mat, vec)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched inner product over the trailing axis."""
    return np.einsum("...i,...i->...", a, b)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched outer product a b^T."""
    return np.einsum("...i,...j->...ij", a, b)


def constant_matrix(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator returning the same matrix at every state, batch-broadcast.

    The evaluator carries the matrix as ``.constant`` (see constant_value),
    which marks it state-independent for consumers that compute with it once.
    """
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # read-only broadcast view; every consumer treats evaluator output
        # as immutable, and skipping the copy keeps stepping loops cheap
        return np.broadcast_to(mat, x.shape[:-1] + mat.shape)

    evaluate.constant = mat
    return evaluate


def constant_value(fun: Callable) -> Optional[np.ndarray]:
    """The matrix of a constant_matrix evaluator; None for any other callable."""
    return getattr(fun, "constant", None)


def linear_evaluator(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator x -> mat x, batched; carries the matrix as ``.matrix``.

    An all-zero matrix yields exact +0.0 entries and a diagonal one scales x
    entrywise: both skip the terms 0 * x_j, which could only change the
    sign of a zero.
    """
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False
    nonzero = np.count_nonzero(mat)
    diagonal = mat.shape[0] == mat.shape[1] and nonzero == np.count_nonzero(mat.diagonal())
    if not nonzero:
        def evaluate(x):
            return np.zeros(np.asarray(x).shape[:-1] + mat.shape[:1])
    elif diagonal:
        scale = mat.diagonal().copy()

        def evaluate(x):
            return np.asarray(x, dtype=float) * scale
    else:
        def evaluate(x):
            return matvec(mat, np.asarray(x, dtype=float))

    evaluate.matrix = mat
    return evaluate


def identity_weight(m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Constant identity weight G(x) = I_m."""
    return constant_matrix(np.eye(m))


@dataclass(frozen=True)
class ScalarMap:
    """Scalar function with derivatives, e.g. a class-K function or a warp gamma.

    ``second`` is only needed where a second derivative enters (transforms).
    """

    fun: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class StateMap:
    """Scalar-valued state function with gradient and Hessian, e.g. eta."""

    fun: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def linear_map(slope: float) -> ScalarMap:
    """s -> slope * s with constant derivative; valid class-K for slope > 0."""
    slope = float(slope)
    return ScalarMap(
        fun=lambda s: slope * np.asarray(s, dtype=float),
        deriv=lambda s: slope * np.ones_like(np.asarray(s, dtype=float)),
        second=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def identity_map() -> ScalarMap:
    return linear_map(1.0)


def quadratic_map(c1: float, c2: float) -> ScalarMap:
    """s -> c1 s + c2 s^2; gamma'(0) = c1, gamma''(0) = 2 c2."""
    c1 = float(c1)
    c2 = float(c2)
    return ScalarMap(
        fun=lambda s: c1 * np.asarray(s, dtype=float) + c2 * np.asarray(s, dtype=float) ** 2,
        deriv=lambda s: c1 + 2.0 * c2 * np.asarray(s, dtype=float),
        second=lambda s: 2.0 * c2 * np.ones_like(np.asarray(s, dtype=float)),
    )


def constant_state_map(value: float) -> StateMap:
    """eta(x) = value; positive value gives a pure rescaling transform."""
    value = float(value)

    def fun(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], value)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return np.zeros(x.shape[:-1] + (n, n))

    return StateMap(fun=fun, grad=grad, hess=hess)


def quadratic_offset_map(center: Sequence[float], offset: float) -> StateMap:
    """eta(x) = ||x - center||^2 + offset; positive everywhere for offset > 0."""
    center = np.array(center, dtype=float)
    offset = float(offset)

    def fun(x):
        d = np.asarray(x, dtype=float) - center
        return dot(d, d) + offset

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - center)

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return np.broadcast_to(2.0 * np.eye(n), x.shape[:-1] + (n, n)).copy()

    return StateMap(fun=fun, grad=grad, hess=hess)


@dataclass(frozen=True)
class SystemModel:
    """Control-affine dynamics dx/dt = f(x) + g(x) u with optional nominal k.

    ``jf`` is the Jacobian of f; ``jk`` the Jacobian of k when k is present.
    ``drift`` evaluates f + g k (the nominal closed loop when k is wrapped).
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    jf: Callable[[np.ndarray], np.ndarray]
    k: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jk: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def drift(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.k is None:
            return self.f(x)
        return self.f(x) + matvec(self.g(x), self.k(x))

    def constant_g(self) -> Optional[np.ndarray]:
        """g as one (n, m) matrix when its evaluator is marked constant, else None."""
        return constant_value(self.g)

    def drift_evaluator(self, nominal: bool = True) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator of f + g k (nominal) or of f alone.

        For f = A x and k = K x built by linear_evaluator with g = B marked
        constant, the nominal drift is the single matrix A + B K, formed
        here once; any other model gets its own drift / f evaluator.
        """
        if not nominal or self.k is None:
            return self.f
        a = getattr(self.f, "matrix", None)
        kmat = getattr(self.k, "matrix", None)
        b = self.constant_g()
        if a is None or kmat is None or b is None:
            return self.drift
        return linear_evaluator(a + b @ kmat)

    def jdrift(self, x: np.ndarray) -> np.ndarray:
        # J of f + g k for state-independent g; the catalog systems satisfy this
        x = np.asarray(x, dtype=float)
        if self.k is None:
            return self.jf(x)
        if self.jk is None:
            raise StructuralError("nominal controller k has no Jacobian evaluator jk")
        return self.jf(x) + np.einsum("...ij,...jl->...il", self.g(x), self.jk(x))


def linear_system(a: np.ndarray, b: np.ndarray, gain: Optional[np.ndarray] = None) -> SystemModel:
    """dx/dt = A x + B u with optional linear nominal controller k(x) = K x."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("A must be square, got shape %s" % (a.shape,))
    n = a.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise InvalidParameterError("B must have %d rows, got shape %s" % (n, b.shape))
    m = b.shape[1]

    k = None
    jk = None
    if gain is not None:
        gain = np.array(gain, dtype=float)
        if gain.shape != (m, n):
            raise InvalidParameterError("K must have shape (%d, %d), got %s" % (m, n, gain.shape))

        k = linear_evaluator(gain)
        jk = constant_matrix(gain)

    return SystemModel(n=n, m=m, f=linear_evaluator(a), g=constant_matrix(b), jf=constant_matrix(a),
                       k=k, jk=jk)


def single_integrator_2d(gain: Optional[np.ndarray] = None) -> SystemModel:
    """Planar integrator dx/dt = u, optionally wrapped with k(x) = K x."""
    return linear_system(np.zeros((2, 2)), np.eye(2), gain=gain)


@dataclass(frozen=True)
class SafeSetGeometry:
    """Geometry of the safe set S = {h >= 0} with boundary dS = {h = 0}.

    kind 'ball-complement-2d': S is the complement of an open planar ball, so
    dS is the circle of the given center and radius. kind 'implicit' carries no
    parametrization; boundary access goes through Newton projection on h.
    """

    kind: str
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ball-complement-2d", "implicit"):
            raise InvalidParameterError("unknown geometry kind %r" % (self.kind,))
        if self.kind == "ball-complement-2d":
            if self.center is None or self.radius is None:
                raise InvalidParameterError("ball geometry needs center and radius")
            object.__setattr__(self, "center", np.array(self.center, dtype=float))
            if float(self.radius) <= 0.0:
                raise InvalidParameterError("ball radius must be positive")
            object.__setattr__(self, "radius", float(self.radius))

    def boundary_points(self, count: int) -> np.ndarray:
        """Uniform samples of dS in the circle parameter (ball geometry only)."""
        if self.kind != "ball-complement-2d":
            raise InvalidParameterError("boundary_points needs a ball geometry; supply explicit samples")
        theta = 2.0 * np.pi * np.arange(count) / count
        return self.center + self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class BarrierPair:
    """A barrier h with its extended class-K function alpha.

    The safe set is S = {h >= 0}. The controller constraint built from the
    pair is grad_h(x)^T (f + g u) + alpha(h(x)) >= 0. The optional
    ``h_and_grad`` returns (h(x), grad_h(x)) with the values of the separate
    evaluators while sharing their common work.
    """

    h: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    hess_h: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    alpha_prime: Callable[[np.ndarray], np.ndarray]
    geometry: Optional[SafeSetGeometry] = None
    h_and_grad: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def value_and_grad(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.h_and_grad is not None:
            return self.h_and_grad(x)
        return self.h(x), self.grad_h(x)


@dataclass(frozen=True)
class LyapunovPair:
    """A Lyapunov function V with class-K beta; V certifies decrease to xstar.

    The optional ``v_and_grad`` returns (v(x), grad_v(x)), as BarrierPair's
    h_and_grad does for h.
    """

    v: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]
    hess_v: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Callable[[np.ndarray], np.ndarray]
    xstar: np.ndarray = field(default_factory=lambda: np.zeros(2))
    v_and_grad: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def value_and_grad(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.v_and_grad is not None:
            return self.v_and_grad(x)
        return self.v(x), self.grad_v(x)


def make_ball_cbf(center: Sequence[float], radius: float, form: str = "full",
                  alpha_slope: float = 1.0) -> BarrierPair:
    """Barrier for the complement of a planar ball obstacle.

    form 'full': h(x) = ||x - c||^2 - r^2, grad 2(x - c), Hessian 2 I.
    form 'half': h(x) = (1/2)||x - c||^2 - (1/2) r^2, grad (x - c), Hessian I.
    alpha is linear with the given positive slope.
    """
    center = np.array(center, dtype=float)
    if center.shape != (2,):
        raise InvalidParameterError("ball center must be a 2-vector")
    radius = float(radius)
    if radius <= 0.0:
        raise InvalidParameterError("ball radius must be positive, got %g" % radius)
    alpha_slope = float(alpha_slope)
    if alpha_slope <= 0.0:
        raise InvalidParameterError("alpha slope must be positive, got %g" % alpha_slope)
    if form not in ("full", "half"):
        raise InvalidParameterError("form must be 'full' or 'half', got %r" % (form,))
    scale = 2.0 if form == "full" else 1.0

    def h(x):
        d = np.asarray(x, dtype=float) - center
        return 0.5 * scale * (dot(d, d) - radius ** 2)

    def grad_h(x):
        return scale * (np.asarray(x, dtype=float) - center)

    def h_and_grad(x):
        d = np.asarray(x, dtype=float) - center
        return 0.5 * scale * (dot(d, d) - radius ** 2), scale * d

    def hess_h(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(scale * np.eye(2), x.shape[:-1] + (2, 2)).copy()

    alpha = linear_map(alpha_slope)
    geometry = SafeSetGeometry(kind="ball-complement-2d", center=center, radius=radius)
    return BarrierPair(h=h, grad_h=grad_h, hess_h=hess_h,
                       alpha=alpha.fun, alpha_prime=alpha.deriv, geometry=geometry,
                       h_and_grad=h_and_grad)


def quadratic_clf(q: np.ndarray, xstar: Optional[Sequence[float]] = None,
                  beta_slope: float = 1.0) -> LyapunovPair:
    """V(x) = (1/2)(x - xstar)^T Q (x - xstar) with linear class-K beta."""
    q = np.array(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidParameterError("Q must be square")
    if not np.allclose(q, q.T, atol=1e-12):
        raise InvalidParameterError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    if np.min(eigs) <= 0.0:
        raise InvalidParameterError("Q must be positive definite (min eigenvalue %g)" % np.min(eigs))
    n = q.shape[0]
    xstar = np.zeros(n) if xstar is None else np.array(xstar, dtype=float)
    if xstar.shape != (n,):
        raise InvalidParameterError("xstar must be a %d-vector" % n)
    beta_slope = float(beta_slope)
    if beta_slope <= 0.0:
        raise InvalidParameterError("beta slope must be positive")

    times_q = linear_evaluator(q)

    def v_and_grad(x):
        d = np.asarray(x, dtype=float) - xstar
        grad = times_q(d)
        return 0.5 * dot(d, grad), grad

    def v(x):
        return v_and_grad(x)[0]

    def grad_v(x):
        return times_q(np.asarray(x, dtype=float) - xstar)

    beta = linear_map(beta_slope)
    return LyapunovPair(v=v, grad_v=grad_v, hess_v=constant_matrix(q),
                        beta=beta.fun, beta_prime=beta.deriv, xstar=xstar,
                        v_and_grad=v_and_grad)


TRANSFORM_ETA_SAMPLES = 64   # boundary samples used to vet eta > 0


def transform_cbf(base: BarrierPair, a: float, b: float,
                  gamma: Optional[ScalarMap] = None,
                  eta: Optional[StateMap] = None,
                  alpha: Optional[ScalarMap] = None) -> BarrierPair:
    """Barrier transform h2(x) = a gamma(h1(x)) + b eta(x) h1(x).

    Preserves the zero level set, so the result describes the same safe set
    and is equivalent to the base pair on the boundary (checkable with the
    equivalence module). gamma must vanish at 0 and carry a second derivative
    when a > 0; eta must be positive on the boundary.
    """
    a = float(a)
    b = float(b)
    if a < 0.0 or b < 0.0 or a + b <= 0.0:
        raise InvalidParameterError("need a >= 0, b >= 0 and a + b > 0 (got a=%g, b=%g)" % (a, b))
    if gamma is None:
        gamma = identity_map()
    if eta is None:
        eta = constant_state_map(1.0)
    if a > 0.0:
        if float(gamma.fun(0.0)) != 0.0:
            raise InvalidParameterError("gamma(0) must be 0, got %g" % float(gamma.fun(0.0)))
        if gamma.second is None:
            raise InvalidParameterError("gamma needs a second derivative when a > 0")
    if b > 0.0 and base.geometry is not None and base.geometry.kind == "ball-complement-2d":
        samples = base.geometry.boundary_points(TRANSFORM_ETA_SAMPLES)
        eta_vals = np.asarray(eta.fun(samples), dtype=float)
        if np.any(eta_vals <= 0.0):
            raise InvalidParameterError("eta must be positive on the boundary (min %g)" % float(np.min(eta_vals)))

    base_h, base_value_and_grad, base_hess = base.h, base.value_and_grad, base.hess_h
    gfun, gprime, gsecond = gamma.fun, gamma.deriv, gamma.second
    efun, egrad, ehess = eta.fun, eta.grad, eta.hess

    def h(x):
        hv = base_h(x)
        out = b * efun(x) * hv
        if a != 0.0:
            out = out + a * gfun(hv)
        return out

    def h_and_grad(x):
        # the base barrier is evaluated once for both outputs
        hv, gv = base_value_and_grad(x)
        hv = np.asarray(hv, dtype=float)
        ev = efun(x)
        value = b * ev * hv
        grad = b * (ev[..., None] * gv + hv[..., None] * egrad(x))
        if a != 0.0:
            value = value + a * gfun(hv)
            grad = grad + a * np.asarray(gprime(hv), dtype=float)[..., None] * gv
        return value, grad

    def grad_h(x):
        return h_and_grad(x)[1]

    def hess_h(x):
        hv, gv = base_value_and_grad(x)
        hv = np.asarray(hv, dtype=float)
        hmat = base_hess(x)
        ev = np.asarray(efun(x), dtype=float)
        egv = egrad(x)
        cross = outer(egv, gv)
        out = b * (hv[..., None, None] * ehess(x) + cross + np.swapaxes(cross, -1, -2)
                   + ev[..., None, None] * hmat)
        if a != 0.0:
            out = out + a * (np.asarray(gsecond(hv), dtype=float)[..., None, None] * outer(gv, gv)
                             + np.asarray(gprime(hv), dtype=float)[..., None, None] * hmat)
        return out

    if alpha is None:
        alpha_fun, alpha_deriv = base.alpha, base.alpha_prime
    else:
        alpha_fun, alpha_deriv = alpha.fun, alpha.deriv
    return BarrierPair(h=h, grad_h=grad_h, hess_h=hess_h,
                       alpha=alpha_fun, alpha_prime=alpha_deriv, geometry=base.geometry,
                       h_and_grad=h_and_grad)


def project_to_boundary(pair: BarrierPair, x: np.ndarray) -> np.ndarray:
    """Damped Newton projection onto {h = 0} along grad_h.

    Iterates x <- x - h(x) grad_h(x) / ||grad_h(x)||^2, halving the step while
    it fails to reduce |h|.
    """
    x = np.array(x, dtype=float)
    for _ in range(PROJECTION_MAX_ITER):
        hv = float(pair.h(x))
        if abs(hv) <= PROJECTION_TOL:
            return x
        grad = np.asarray(pair.grad_h(x), dtype=float)
        denom = float(dot(grad, grad))
        if denom < BOUNDARY_GRAD_MIN ** 2:
            raise NumericsError("grad_h vanished during boundary projection")
        step = hv * grad / denom
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            if abs(float(pair.h(trial))) < abs(hv):
                break
            scale *= 0.5
        x = x - scale * step
    if abs(float(pair.h(x))) > PROJECTION_TOL:
        raise NumericsError("boundary projection did not reach |h| <= %g" % PROJECTION_TOL)
    return x


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[ValidationCheck, ...]
    threshold: float = DERIVATIVE_TOL

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def failures(self) -> List[ValidationCheck]:
        return [c for c in self.checks if not c.passed]


def central_difference_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                                step: float = FD_STEP, value: bool = False):
    """Central differences with a common step step * (1 + ||x||) per state.

    One state x (n,) takes a fun of one state. A batch x (k, n) takes a
    batched fun, called once on the 2 n k offset states; with value=True the
    k states themselves join that call and (fun(x), jacobian) is returned.
    The jacobian has shape (k,) + fun's output shape + (n,).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        def one_at_a_time(states):
            return np.stack([np.asarray(fun(s), dtype=float) for s in states])

        out = central_difference_jacobian(one_at_a_time, x[None], step, value)
        return (out[0][0], out[1][0]) if value else out[0]
    k, n = x.shape
    # each state's own 1-D norm: an axis-wise norm can differ in the last
    # bit, and a state's step must not depend on the batch it arrives in
    delta = step * (1.0 + np.array([float(np.linalg.norm(s)) for s in x]))
    offsets = np.zeros((k, n, n))
    offsets[:, np.arange(n), np.arange(n)] = delta[:, None]
    parts = [x[:, None, :] + offsets, x[:, None, :] - offsets]
    if value:
        parts.append(x[:, None, :])
    states = np.concatenate(parts, axis=1)
    out = np.asarray(fun(states.reshape(-1, n)), dtype=float)
    out = out.reshape(states.shape[:2] + out.shape[1:])
    scale = (2.0 * delta).reshape((k, 1) + (1,) * (out.ndim - 2))
    jac = np.ascontiguousarray(np.moveaxis((out[:, :n] - out[:, n:2 * n]) / scale, 1, -1))
    return (out[:, 2 * n], jac) if value else jac


def _check_shapes(model: SystemModel, x0: np.ndarray) -> None:
    expected = {
        "f": ((model.n,), model.f),
        "g": ((model.n, model.m), model.g),
        "jf": ((model.n, model.n), model.jf),
    }
    if model.k is not None:
        expected["k"] = ((model.m,), model.k)
    if model.jk is not None:
        expected["jk"] = ((model.m, model.n), model.jk)
    for name, (shape, fun) in expected.items():
        got = np.asarray(fun(x0)).shape
        if got != shape:
            raise StructuralError("evaluator %r returned shape %s, expected %s" % (name, got, shape))


def _monotone_check(name: str, fun: Callable) -> ValidationCheck:
    grid = np.linspace(-MONOTONE_GRID_SPAN, MONOTONE_GRID_SPAN, MONOTONE_GRID_POINTS)
    vals = np.asarray(fun(grid), dtype=float)
    min_diff = float(np.min(np.diff(vals)))
    ok = min_diff > 0.0
    return ValidationCheck(name=name, max_residual=max(0.0, -min_diff), tolerance=0.0,
                           passed=ok, detail="strictly increasing on [-10, 10]" if ok else "not increasing")


def validate_model(model: SystemModel, pairs: Sequence[object], samples: Sequence[np.ndarray]) -> ValidationReport:
    """Numerical audit of shape and derivative consistency.

    Checks every analytic Jacobian/gradient/Hessian against central
    differences at the sampled states (threshold 1e-4), class-K monotonicity
    on a 101-point grid, definiteness-style sign conditions, and batched vs
    per-sample evaluation agreement. Dimension mismatches raise immediately.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise InvalidParameterError("validation needs a nonempty sample list")
    _check_shapes(model, samples[0])
    checks: List[ValidationCheck] = []

    def fd_entry(name, analytic, reference, pts):
        res = 0.0
        for x in pts:
            approx = central_difference_jacobian(reference, x)
            res = max(res, float(np.max(np.abs(np.asarray(analytic(x), dtype=float) - approx))))
        checks.append(ValidationCheck(name=name, max_residual=res, tolerance=DERIVATIVE_TOL,
                                      passed=res < DERIVATIVE_TOL))

    fd_entry("jf", model.jf, model.f, samples)
    if model.k is not None and model.jk is not None:
        fd_entry("jk", model.jk, model.k, samples)

    stacked = np.stack(samples, axis=0)
    batch_res = float(np.max(np.abs(model.f(stacked) - np.stack([model.f(x) for x in samples]))))
    batch_res = max(batch_res, float(np.max(np.abs(model.g(stacked) - np.stack([model.g(x) for x in samples])))))
    checks.append(ValidationCheck(name="batch-evaluation", max_residual=batch_res, tolerance=1e-12,
                                  passed=batch_res < 1e-12,
                                  detail="batched f/g agree with per-sample evaluation"))

    for idx, pair in enumerate(pairs):
        if isinstance(pair, BarrierPair):
            tag = "cbf[%d]" % idx
            zero = abs(float(pair.alpha(0.0)))
            checks.append(ValidationCheck(name="%s.alpha(0)" % tag, max_residual=zero, tolerance=0.0,
                                          passed=zero == 0.0))
            checks.append(_monotone_check("%s.alpha-monotone" % tag, pair.alpha))
            fd_entry("%s.grad_h" % tag,
                     pair.grad_h, lambda x, p=pair: np.asarray(p.h(x), dtype=float)[None] if np.asarray(p.h(x)).ndim == 0 else p.h(x),
                     samples)
            fd_entry("%s.hess_h" % tag, pair.hess_h, pair.grad_h, samples)
            if pair.geometry is not None and pair.geometry.kind == "ball-complement-2d":
                boundary = pair.geometry.boundary_points(128)
                norms = np.sqrt(dot(pair.grad_h(boundary), pair.grad_h(boundary)))
                min_norm = float(np.min(norms))
                checks.append(ValidationCheck(name="%s.grad-on-boundary" % tag,
                                              max_residual=0.0 if min_norm > BOUNDARY_GRAD_MIN else BOUNDARY_GRAD_MIN - min_norm,
                                              tolerance=0.0, passed=min_norm > BOUNDARY_GRAD_MIN,
                                              detail="min ||grad_h|| on boundary = %g" % min_norm))
        elif isinstance(pair, LyapunovPair):
            tag = "clf[%d]" % idx
            at_star = abs(float(pair.v(pair.xstar)))
            checks.append(ValidationCheck(name="%s.v(xstar)" % tag, max_residual=at_star, tolerance=0.0,
                                          passed=at_star == 0.0))
            away = [x for x in samples if np.linalg.norm(x - pair.xstar) > 1e-12]
            min_v = min((float(pair.v(x)) for x in away), default=1.0)
            checks.append(ValidationCheck(name="%s.v-positive" % tag,
                                          max_residual=max(0.0, -min_v), tolerance=0.0,
                                          passed=min_v > 0.0,
                                          detail="min V over samples away from xstar = %g" % min_v))
            zero = abs(float(pair.beta(0.0)))
            checks.append(ValidationCheck(name="%s.beta(0)" % tag, max_residual=zero, tolerance=0.0,
                                          passed=zero == 0.0))
            checks.append(_monotone_check("%s.beta-monotone" % tag, pair.beta))
            fd_entry("%s.grad_v" % tag,
                     pair.grad_v, lambda x, p=pair: np.asarray(p.v(x), dtype=float)[None] if np.asarray(p.v(x)).ndim == 0 else p.v(x),
                     samples)
            fd_entry("%s.hess_v" % tag, pair.hess_v, pair.grad_v, samples)
        else:
            raise StructuralError("unsupported pair type %r at index %d" % (type(pair).__name__, idx))

    return ValidationReport(checks=tuple(checks))
