"""Control-affine systems, barrier/Lyapunov pairs, safe-set geometry, transforms.

All evaluators follow a batched convention: states have shape (..., n) and
outputs gain the corresponding leading axes, so ``f(x) -> (..., n)``,
``g(x) -> (..., n, m)`` and ``hess_h(x) -> (..., n, n)``. A scalar state
function (a barrier h, a Lyapunov function V, a transform's eta) has one
evaluator ``value_and_grad(x) -> ((...), (..., n))``. Scalar maps (alpha,
beta, gamma) are elementwise.
Every type is immutable after construction and safe to share across workers.

An evaluator may return its input (an identity matrix or a unit slope skips
the multiply by 1) or a read-only view (a constant matrix), so callers never
write into evaluator output; what they keep beyond a call, they copy.

A batch need not be C-contiguous: the stepping loop (sim._advance) hands
planar evaluators (N, 2) batches in Fortran order, so an evaluator indexes
and broadcasts over the trailing axis and assumes no memory layout.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:     # numpy < 2; numpy.core warns on numpy 2, so it is tried second
    from numpy.core.multiarray import c_einsum

from .errors import InvalidParameterError, StructuralError

FD_STEP = 1e-5
SYMMETRY_TOL = 1e-12     # bound on max |M - M^T| of a Lyapunov or weight matrix


# The products below call c_einsum, the C kernel np.einsum ends in when its
# optimize is off: the same bits without np.einsum's Python dispatch.

def matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product over the trailing axes."""
    return c_einsum("...ij,...j->...i", mat, vec)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched inner product over the trailing axis."""
    return c_einsum("...i,...i->...", a, b)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched outer product a b^T."""
    return c_einsum("...i,...j->...ij", a, b)


def constant_matrix(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator returning the same matrix at every state, batch-broadcast.

    The evaluator carries the matrix as ``.constant`` (see constant_value),
    which marks it state-independent for consumers that compute with it once.
    At one state it returns that read-only matrix itself.
    """
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False

    def evaluate(x: np.ndarray) -> np.ndarray:
        batch = np.asarray(x, dtype=float).shape[:-1]
        # read-only, as the matrix or a broadcast view of it; every consumer
        # treats evaluator output as immutable, and skipping the copy keeps
        # stepping loops cheap (np.broadcast_to alone costs microseconds)
        return np.broadcast_to(mat, batch + mat.shape) if batch else mat

    evaluate.constant = mat
    return evaluate


def constant_value(fun: Callable) -> Optional[np.ndarray]:
    """The matrix of a constant_matrix evaluator; None for any other callable."""
    return getattr(fun, "constant", None)


def linear_evaluator(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator x -> mat x, batched; carries the matrix as ``.matrix``.

    An all-zero matrix yields exact +0.0 entries (np.zeros at one state) and
    a diagonal one scales x entrywise: both skip the terms 0 * x_j, which
    could only change the sign of a zero. The identity returns x as float,
    possibly x itself, since x * 1.0 is x in every bit.
    """
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False
    nonzero = np.count_nonzero(mat)
    diagonal = mat.shape[0] == mat.shape[1] and nonzero == np.count_nonzero(mat.diagonal())
    if not nonzero:
        def evaluate(x):
            # in x's layout, like the ufunc outputs of the other branches
            x = np.asarray(x)
            batch = x.shape[:-1]
            if not batch:
                return np.zeros(mat.shape[0])
            return np.zeros_like(x, dtype=float, shape=batch + mat.shape[:1])
    elif diagonal and mat.diagonal().tolist() == [1.0] * mat.shape[0]:
        def evaluate(x):
            return np.asarray(x, dtype=float)
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
    """Scalar-valued state function with gradient and Hessian, e.g. eta.

    ``value_and_grad(x)`` returns the value and the gradient at x together.
    """

    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    hess: Callable[[np.ndarray], np.ndarray]


def linear_map(slope: float) -> ScalarMap:
    """s -> slope * s with constant derivative; valid class-K for slope > 0.

    Slope 1 returns s as float, possibly s itself: s * 1.0 is s in every bit.
    """
    slope = float(slope)
    unit = slope == 1.0
    return ScalarMap(
        fun=lambda s: np.asarray(s, dtype=float) if unit else slope * np.asarray(s, dtype=float),
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

    def value_and_grad(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], value), np.zeros_like(x)

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return np.zeros(x.shape[:-1] + (n, n))

    return StateMap(value_and_grad=value_and_grad, hess=hess)


def quadratic_offset_map(center: Sequence[float], offset: float) -> StateMap:
    """eta(x) = ||x - center||^2 + offset; positive everywhere for offset > 0."""
    center = np.array(center, dtype=float)
    offset = float(offset)

    def value_and_grad(x):
        d = np.asarray(x, dtype=float) - center
        return dot(d, d) + offset, 2.0 * d

    return StateMap(value_and_grad=value_and_grad, hess=constant_matrix(2.0 * np.eye(len(center))))


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

    kind 'ball-complement-2d' is the one kind: S is the complement of an open
    planar ball, so dS is the circle of the given center and radius, run once
    by the parameter theta in [0, 2 pi).
    """

    kind: str
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind != "ball-complement-2d":
            raise InvalidParameterError("unknown geometry kind %r" % (self.kind,))
        if self.center is None or self.radius is None:
            raise InvalidParameterError("ball geometry needs center and radius")
        object.__setattr__(self, "center", np.array(self.center, dtype=float))
        if float(self.radius) <= 0.0:
            raise InvalidParameterError("ball radius must be positive")
        object.__setattr__(self, "radius", float(self.radius))

    def boundary_at(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The boundary point x(theta) and its tangent dx/dtheta, batched over theta."""
        cos, sin = np.cos(theta), np.sin(theta)
        return (self.center + self.radius * np.stack([cos, sin], axis=-1),
                self.radius * np.stack([-sin, cos], axis=-1))

    def boundary_points(self, count: int) -> np.ndarray:
        """count uniform samples of dS in theta, starting at theta = 0."""
        return self.boundary_at(2.0 * np.pi * np.arange(count) / count)[0]


@dataclass(frozen=True)
class BarrierPair:
    """A barrier h with its extended class-K function alpha.

    The safe set is S = {h >= 0}. The controller constraint built from the
    pair is grad_h(x)^T (f + g u) + alpha(h(x)) >= 0. ``value_and_grad(x)``
    returns (h(x), grad_h(x)); h and grad_h read it. alpha'(0) must be
    positive.
    """

    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    hess_h: Callable[[np.ndarray], np.ndarray]
    alpha: ScalarMap
    geometry: Optional[SafeSetGeometry] = None

    def __post_init__(self):
        slope = float(self.alpha.deriv(0.0))
        if not slope > 0.0:
            raise InvalidParameterError("alpha is not class-K: alpha'(0) = %g, need > 0" % slope)

    def h(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[0]

    def grad_h(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]


@dataclass(frozen=True)
class LyapunovPair:
    """A Lyapunov function V with class-K beta; V certifies decrease to xstar.

    ``value_and_grad(x)`` returns (v(x), grad_v(x)); v and grad_v read it.
    beta'(0) must be positive.
    """

    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    hess_v: Callable[[np.ndarray], np.ndarray]
    beta: ScalarMap
    xstar: np.ndarray

    def __post_init__(self):
        slope = float(self.beta.deriv(0.0))
        if not slope > 0.0:
            raise InvalidParameterError("beta is not class-K: beta'(0) = %g, need > 0" % slope)

    def v(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[0]

    def grad_v(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]


def make_ball_cbf(center: Sequence[float], radius: float, form: str = "full",
                  alpha: Optional[ScalarMap] = None) -> BarrierPair:
    """Barrier for the complement of a planar ball obstacle.

    form 'full': h(x) = ||x - c||^2 - r^2, grad 2(x - c), Hessian 2 I.
    form 'half': h(x) = (1/2)||x - c||^2 - (1/2) r^2, grad (x - c), Hessian I.
    alpha defaults to the identity.
    """
    center = np.array(center, dtype=float)
    if center.shape != (2,):
        raise InvalidParameterError("ball center must be a 2-vector")
    radius = float(radius)
    if radius <= 0.0:
        raise InvalidParameterError("ball radius must be positive, got %g" % radius)
    if form not in ("full", "half"):
        raise InvalidParameterError("form must be 'full' or 'half', got %r" % (form,))
    scale = 2.0 if form == "full" else 1.0
    # h = (scale / 2)(||d||^2 - r^2) and grad = scale d; the factor that is 1
    # (h's in the full form, grad's in the half form) is skipped
    full = form == "full"

    def value_and_grad(x):
        d = np.asarray(x, dtype=float) - center
        v = dot(d, d) - radius ** 2
        return (v, scale * d) if full else (0.5 * v, d)

    geometry = SafeSetGeometry(kind="ball-complement-2d", center=center, radius=radius)
    return BarrierPair(value_and_grad=value_and_grad, hess_h=constant_matrix(scale * np.eye(2)),
                       alpha=identity_map() if alpha is None else alpha, geometry=geometry)


def quadratic_clf(q: np.ndarray, xstar: Optional[Sequence[float]] = None,
                  beta: Optional[ScalarMap] = None) -> LyapunovPair:
    """V(x) = (1/2)(x - xstar)^T Q (x - xstar) with class-K beta, by default the identity."""
    q = np.array(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidParameterError("Q must be square")
    if not float(np.max(np.abs(q - q.T))) <= SYMMETRY_TOL:
        raise InvalidParameterError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    if np.min(eigs) <= 0.0:
        raise InvalidParameterError("Q must be positive definite (min eigenvalue %g)" % np.min(eigs))
    n = q.shape[0]
    xstar = np.zeros(n) if xstar is None else np.array(xstar, dtype=float)
    if xstar.shape != (n,):
        raise InvalidParameterError("xstar must be a %d-vector" % n)

    times_q = linear_evaluator(q)

    def value_and_grad(x):
        d = np.asarray(x, dtype=float) - xstar
        grad = times_q(d)
        return 0.5 * dot(d, grad), grad

    return LyapunovPair(value_and_grad=value_and_grad, hess_v=constant_matrix(q),
                        beta=identity_map() if beta is None else beta, xstar=xstar)


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
    if b > 0.0 and base.geometry is not None:
        samples = base.geometry.boundary_points(TRANSFORM_ETA_SAMPLES)
        eta_vals = np.asarray(eta.value_and_grad(samples)[0], dtype=float)
        if np.any(eta_vals <= 0.0):
            raise InvalidParameterError("eta must be positive on the boundary (min %g)" % float(np.min(eta_vals)))

    base_value_and_grad, base_hess = base.value_and_grad, base.hess_h
    gfun, gprime, gsecond = gamma.fun, gamma.deriv, gamma.second
    eta_and_grad, ehess = eta.value_and_grad, eta.hess

    # a coefficient of 1 multiplies nothing: c * v is v in every bit when c = 1.0
    unit_a, unit_b = a == 1.0, b == 1.0

    def value_and_grad(x):
        hv, gv = base_value_and_grad(x)
        hv = np.asarray(hv, dtype=float)
        ev, egv = eta_and_grad(x)
        value = ev * hv if unit_b else b * ev * hv
        grad = ev[..., None] * gv + hv[..., None] * egv
        if not unit_b:
            grad = b * grad
        if a != 0.0:
            gam = gfun(hv)
            slope = np.asarray(gprime(hv), dtype=float)[..., None]
            value = value + (gam if unit_a else a * gam)
            grad = grad + (slope if unit_a else a * slope) * gv
        return value, grad

    def hess_h(x):
        hv, gv = base_value_and_grad(x)
        hv = np.asarray(hv, dtype=float)
        hmat = base_hess(x)
        ev, egv = eta_and_grad(x)
        ev = np.asarray(ev, dtype=float)
        cross = outer(egv, gv)
        out = (hv[..., None, None] * ehess(x) + cross + np.swapaxes(cross, -1, -2)
               + ev[..., None, None] * hmat)
        if not unit_b:
            out = b * out
        if a != 0.0:
            curv = (np.asarray(gsecond(hv), dtype=float)[..., None, None] * outer(gv, gv)
                    + np.asarray(gprime(hv), dtype=float)[..., None, None] * hmat)
            out = out + (curv if unit_a else a * curv)
        return out

    return BarrierPair(value_and_grad=value_and_grad, hess_h=hess_h,
                       alpha=base.alpha if alpha is None else alpha, geometry=base.geometry)


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
