"""Zero-order-hold discrete maps: Taylor-Lie truncations of orders 1-3
plus a high-accuracy adaptive Runge-Kutta reference for the exact map.

With u held constant on the sampling interval, repeated total
differentiation of dx/dt = A x + f(x, u) gives the series

    x(k+1) = x(k) + sum_l (T^l / l!) d^l x/dt^l .

The order-k model keeps terms through T^k and splits into a linear part
a_d = sum_{l<=k} (T^l/l!) A^l and a nonlinear part F_T.  Writing J for
df/dx, H for the (n, n, n) second-derivative tensor, and H(a, b)_i =
sum_{jk} H[i,j,k] a_j b_k (the contraction convention used throughout):

    order 1:  F_T = T f
    order 2:  adds (T^2/2) (A f + J A x + J f)
    order 3:  adds (T^3/6) (A^2 f + A J A x + A J f + J A^2 x + J A f
                            + J^2 A x + J^2 f
                            + H(Ax, Ax) + 2 H(Ax, f) + H(f, f))

so each map is the genuine order-k truncation of the series (local
error O(T^{k+1})), which the convergence study checks empirically.

H(a, b) is contracted over the entries of H that are not a constant
zero (``SystemSpec.hessian_support``), in C order, each adding
(H[i,j,k] a_j) b_k to an accumulator that starts at +0.0.  That is the
order in which ``np.einsum("ijk,j,k->i")`` sums all n^3 entries, so the
bits are the same: a skipped entry's term is +-0.0, which leaves a sum
begun at +0.0 unchanged.  Only a non-finite a_j or b_k makes a skipped
term NaN.  Then J a or J b is already non-finite in every component, so
the row of F_T is too, and at most the kind of non-finite value (inf or
NaN) can differ from the dense sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .system import SystemSpec

_CHUNK_ROWS = 16_384  # rows per F_T batch chunk; bounds the Hessian's memory


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the state at failure."""

    def __init__(self, message: str, t: float, x: np.ndarray, h: float):
        super().__init__(f"{message} (t={t!r}, h={h!r}, x={x.tolist()!r})")
        self.t = t
        self.x = x
        self.h = h


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Order-k ZOH model x_{k+1} = a_d x_k + F_T(x_k, u_k)."""

    spec: SystemSpec
    order: int
    a_d: np.ndarray

    def f_t(self, x, u=()) -> np.ndarray:
        """Nonlinear part of the discrete map at one point."""
        s = self.spec
        x = np.asarray(x, dtype=float)
        return self._series(x, u, s.eval_f, s.jacobian, s.second_derivative)

    def f_t_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Vectorized F_T over rows of (x, u), in chunks of _CHUNK_ROWS rows
        so the (N, n, n, n) Hessian never exceeds one chunk."""
        s = self.spec
        out = np.empty((x.shape[0], s.n))
        for lo in range(0, x.shape[0], _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            out[rows] = self._series(
                x[rows], u[rows], s.eval_f_batch, s.jacobian_batch, s.second_derivative_batch
            )
        return out

    def _series(self, x, u, f_of, jac_of, hess_of) -> np.ndarray:
        """The order-k series on states of shape (n,) or (N, n): one point
        or a stack of rows, with f, J and H from the matching evaluators."""
        t = self.spec.sampling_time
        at = self.spec.a.T
        f = f_of(x, u)
        out = t * f
        if self.order == 1:
            return out
        jac = jac_of(x, u)
        ax = x @ at
        mv = lambda mats, vecs: np.einsum("...ij,...j->...i", mats, vecs)
        fa, jax, jf = f @ at, mv(jac, ax), mv(jac, f)
        out = out + (t * t / 2.0) * (fa + jax + jf)
        if self.order == 2:
            return out
        hess, support = hess_of(x, u), self.spec.hessian_support
        bil = lambda va, vb: _bilinear(hess, support, va, vb)
        bracket = (
            fa @ at
            + jax @ at
            + jf @ at
            + mv(jac, ax @ at)
            + mv(jac, fa)
            + mv(jac, jax)
            + mv(jac, jf)
            + bil(ax, ax)
            + 2.0 * bil(ax, f)
            + bil(f, f)
        )
        return out + (t**3 / 6.0) * bracket

    def step(self, x, u=()) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.a_d @ x + self.f_t(x, u)


def _bilinear(hess, support, va, vb) -> np.ndarray:
    """H(va, vb) over the (i, j, k) entries of H in ``support``, for one
    point (n,) or a stack of rows (N, n), in the order the module
    docstring gives."""
    # transposed, so one point indexes scalars and a stack columns
    hess, va, vb = hess.T, va.T, vb.T
    acc = np.zeros(va.shape)
    for i, j, k in support:
        term = hess[k, j, i] * va[j]
        term *= vb[k]  # in place: one temporary row per entry
        acc[i] += term
    return acc.T


def build_taylor_model(s: SystemSpec, order: int) -> DiscreteModel:
    """Order-k ZOH Taylor-Lie model, k in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported order {order!r}; expected 1, 2 or 3")
    t = s.sampling_time
    n = s.n
    a_d = np.eye(n) + t * s.a
    if order >= 2:
        a_d = a_d + (t * t / 2.0) * (s.a @ s.a)
    if order >= 3:
        a_d = a_d + (t**3 / 6.0) * (s.a @ s.a @ s.a)
    return DiscreteModel(spec=s, order=order, a_d=a_d)


# ---------------------------------------------------------------------------
# reference integrator: Dormand-Prince 5(4) embedded pair

# stage times never enter: the held-input system is autonomous
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: weights of the embedded error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# as columns over the stacked stages, B5 and E side by side; a reduce
# over the stages from an initial 0.0 adds the terms in stage order, as
# a Python sum does, so every combination keeps its bits
_DP_A_COLS = tuple(np.array(row)[:, None] for row in _DP_A)
_DP_B5_E = np.array([_DP_B5, _DP_E])[:, :, None]

_MIN_STEP = 1e-12
_SAFETY = 0.9
_MAX_STEPS = 1_000_000


def exact_step(s: SystemSpec, x, u=(), tol: float = 1e-10) -> np.ndarray:
    """x(T) under the true flow of dx/dt = A x + f(x, u) with u held.

    Adaptive Dormand-Prince 5(4) with absolute and relative tolerance
    both equal to ``tol``; step sizes live in [1e-12, T].
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol!r}")
    t_end = s.sampling_time
    t_done = 4.0 * np.finfo(float).eps * t_end
    y = np.asarray(x, dtype=float).copy()
    k = np.empty((7,) + y.shape)

    def rhs(state):
        return s.a @ state + s.eval_f(state, u)

    t = 0.0
    h = t_end
    for _ in range(_MAX_STEPS):
        remaining = t_end - t
        if remaining <= t_done:
            return y
        h = min(h, remaining)
        k[0] = rhs(y)
        for stage in range(1, 7):
            incr = np.add.reduce(_DP_A_COLS[stage] * k[:stage], axis=0, initial=0.0)
            k[stage] = rhs(y + h * incr)
        b5, e = np.add.reduce(_DP_B5_E * k, axis=1, initial=0.0)
        y_new = y + h * b5
        err_vec = h * e
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y_new
        factor = 5.0 if err == 0.0 else _SAFETY * err ** (-0.2)
        h = h * min(5.0, max(0.2, factor))
        h = min(h, t_end)
        if h < _MIN_STEP:
            raise IntegrationError("step size underflow", t, y, h)
    raise IntegrationError("step budget exhausted", t, y, h)


# ---------------------------------------------------------------------------
# trajectory simulation

@dataclass
class Trajectory:
    states: np.ndarray  # (N+1, n)
    outputs: np.ndarray  # (N+1, p)
    first_exit: int | None  # step index of first state outside D, if any


def simulate(stepper, s: SystemSpec, x0, u_seq) -> Trajectory:
    """Iterate a one-step map over an input sequence; y_k = C x_k.

    ``stepper`` is a :class:`DiscreteModel` or any callable (x, u) -> x.
    Leaving the region D only warns (the estimated constants are valid
    inside D, the iteration itself stays meaningful).
    """
    step_fn = stepper.step if isinstance(stepper, DiscreteModel) else stepper
    u_seq = np.asarray(u_seq, dtype=float)
    if u_seq.size == 0:
        # zero steps, or an input-free system: the row count is the step count
        u_seq = np.zeros((u_seq.shape[0] if u_seq.ndim >= 1 else 0, s.m))
    else:
        u_seq = u_seq.reshape(-1, s.m)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (s.n,):
        raise ValueError(f"x0 must have shape ({s.n},), got {x0.shape}")
    count = u_seq.shape[0]
    states = np.empty((count + 1, s.n))
    states[0] = x0
    first_exit = None if s.region.contains(x0) else 0
    for k in range(count):
        states[k + 1] = step_fn(states[k], u_seq[k])
        if first_exit is None and not s.region.contains(states[k + 1]):
            first_exit = k + 1
    if first_exit is not None:
        warnings.warn(
            f"trajectory of {s.name!r} leaves the region at step {first_exit}",
            UserWarning,
            stacklevel=2,
        )
    outputs = states @ s.c.T
    return Trajectory(states=states, outputs=outputs, first_exit=first_exit)
