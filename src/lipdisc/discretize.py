"""Zero-order-hold discrete maps: Taylor-Lie truncations of orders 1-3
plus a high-accuracy adaptive Runge-Kutta reference for the exact map.

With u held constant on the sampling interval, the flow of
dx/dt = F(x, u) = A x + f(x, u) has the series

    x(k+1) = x(k) + sum_l (T^l / l!) (A^l x + N_l) ,

with the Lie terms N_1 = f and N_{l+1} = A^l f + (dN_l/dx) F (Groebner
1967; Kazantzis & Kravaris, Comput. Chem. Eng. 23, 1999).  The order-k
model keeps terms through T^k (local error O(T^{k+1}), which the
convergence study checks): a linear part a_d = sum_{l<=k} (T^l/l!) A^l
and F_T = sum_{l<=k} (T^l/l!) N_l.  With J = df/dx, H the (n, n, n)
second-derivative tensor and H(a, b)_i = sum_{jk} H[i,j,k] a_j b_k:

    order 1:  F_T = T f
    order 2:  adds (T^2/2) (A f + J A x + J f)
    order 3:  adds (T^3/6) (A^2 f + A J A x + A J f + J A^2 x + J A f
                            + J^2 A x + J^2 f
                            + H(Ax, Ax) + 2 H(Ax, f) + H(f, f))

One point evaluates N_1..N_k as the expression trees of
:func:`_lie_template`, through one kernel per spec and order that every
sampling time shares, and sums the kernel's terms in one pass with T,
T^2/2 and T^3/6 taken once per model.  A batch runs the series written out above on numpy columns; the two agree
to rounding.  The batch reads J and H only at the entries that are not
a constant zero (their templates' ``support``) and keeps the bits of
the dense einsums: H(a, b) adds (H[i,j,k] a_j) b_k in C order from
+0.0, the order of ``np.einsum("ijk,j,k->i")``, and J v the order of
the two-operand ``np.einsum("...ij,...j->...i")`` (see
:func:`_einsum_lanes`).  A skipped term is +-0.0 and leaves a sum begun
at +0.0 unchanged.  Only a non-finite a_j, b_k or v_j makes it NaN;
that value comes from a non-finite f or J entry, which makes the row of
F_T non-finite anyway, so at most the kind of non-finite value in a
component can differ.

The reference integrator is one straight-line Python function per spec
that runs the whole adaptive Dormand-Prince loop on Python floats with
F written out in every stage, a call's first included, and no ``min``
or ``max`` call in the step-size control (see :func:`_integrator`).  It
sums the stages in the order a Python ``sum`` over the stage vectors
does, and each step reuses its last stage as the next step's first.
Every step short of a call's last must exceed 1e-6 T, its one stop rule.

Both one-step maps, a :class:`DiscreteModel` and an :class:`ExactMap`,
are callables (x, u) -> list of floats, which :func:`simulate` iterates.
Each checks its arguments when it is built: ``DiscreteModel(spec, k)``
takes k by the order rule of :func:`_check_order`, which the bound
formulas share, and sums its own a_d.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .linalg import NumericalError
from .system import SpecValidationError, SystemSpec, _Template

ORDERS = (1, 2, 3)  # the Taylor-Lie orders with a model and a bound formula
_CHUNK_ROWS = 16_384  # rows per F_T batch chunk; bounds the Hessian's memory


def _check_order(order, path: str = "order") -> int:
    """The order rule: an integer in :data:`ORDERS`, not a bool, returned
    as an ``int``; ``path`` names the parameter in the error."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order not in ORDERS:
        raise SpecValidationError(path, f"must be one of {ORDERS}, got {order!r}")
    return int(order)


class IntegrationError(NumericalError):
    """Adaptive integration failed; carries the state at failure."""

    def __init__(self, message: str, t: float, x: np.ndarray, h: float):
        super().__init__(f"{message} (t={t!r}, h={h!r}, x={x.tolist()!r})")
        self.t = t
        self.x = x
        self.h = h


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Order-k ZOH model x_{k+1} = a_d x_k + F_T(x_k, u_k), k in
    :data:`ORDERS`; calling it takes one step."""

    spec: SystemSpec
    order: int
    a_d: np.ndarray = field(init=False)

    def __post_init__(self):
        """Check the order and sum a_d = I + T A + (T^2/2) A^2 + (T^3/6) A^3
        through T^k once, when the model is built."""
        order, s, t = _check_order(self.order), self.spec, self.spec.sampling_time
        a_d = np.eye(s.n) + t * s.a
        if order >= 2:
            a_d = a_d + (t * t / 2.0) * (s.a @ s.a)
        if order >= 3:
            a_d = a_d + (t**3 / 6.0) * (s.a @ s.a @ s.a)
        object.__setattr__(self, "order", order)  # a numpy integer as an int
        object.__setattr__(self, "a_d", a_d)

    def __call__(self, x, u=()) -> list:
        """a_d x + F_T(x, u) at one point, as a list of floats; a_d x is
        numpy's gemv on a contiguous vector, which a Python sum does not
        reproduce bit for bit."""
        return [l + v for l, v in zip(self.a_d.dot(x).tolist(), self.f_t(x, u))]

    def f_t(self, x, u=()) -> list:
        """F_T at one point on Python floats: the spec's Lie terms from one
        kernel call, summed in one pass as ((T N_1 + (T^2/2) N_2) + (T^3/6) N_3)."""
        t, c2, c3, point, n = self._point_sum
        terms = point(x, u)
        if self.order == 1:
            return [t * a for a in terms]
        if self.order == 2:
            return [t * a + c2 * b for a, b in zip(terms, terms[n:])]
        return [t * a + c2 * b + c3 * c for a, b, c in zip(terms, terms[n:], terms[2 * n :])]

    @functools.cached_property
    def _point_sum(self) -> tuple:
        """T, T^2/2, T^3/6, the Lie template's point function and n."""
        t = self.spec.sampling_time
        return t, t * t / 2.0, t**3 / 6.0, _lie_template(self.spec, self.order).point, self.spec.n

    def f_t_batch(self, x: np.ndarray, u: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """Vectorized F_T over rows of (x, u), in chunks of _CHUNK_ROWS rows
        so the temporaries never exceed one chunk.  ``f`` holds f(x, u)
        if the caller has already evaluated it."""
        out = np.empty((x.shape[0], self.spec.n))
        for lo in range(0, x.shape[0], _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            f_rows = self.spec.eval_f_batch(x[rows], u[rows]) if f is None else f[rows]
            out[rows] = self._series(x[rows], u[rows], f_rows)
        return out

    @functools.cached_property
    def _jac_lanes(self) -> tuple:
        """The lanes of J's support, for :func:`_matvec`."""
        return _einsum_lanes(self.spec._jac_template.support, self.spec.n)

    def _series(self, x: np.ndarray, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The order-k series on a stack of rows (N, n) with f = f(x, u)."""
        s = self.spec
        t, at = s.sampling_time, s.a.T
        out = t * f
        if self.order == 1:
            return out
        jac, lanes = s._jac_template.support_batch(x, u), self._jac_lanes
        mv = lambda v: _matvec(jac, lanes, v.T, np.empty(v.shape).T).T
        ax = x @ at
        fa, jax, jf = f @ at, mv(ax), mv(f)
        out = out + (t * t / 2.0) * (fa + jax + jf)
        if self.order == 2:
            return out
        hess, support = s._hess_template.support_batch(x, u), s._hess_template.support
        bil = lambda va, vb: _bilinear(hess, support, va.T, vb.T, np.zeros(va.T.shape)).T
        bracket = (
            fa @ at
            + jax @ at
            + jf @ at
            + mv(ax @ at)
            + mv(fa)
            + mv(jax)
            + mv(jf)
            + bil(ax, ax)
            + 2.0 * bil(ax, f)
            + bil(f, f)
        )
        return out + (t**3 / 6.0) * bracket


def _einsum_lanes(support, n: int) -> tuple:
    """For each row i of an (n, n) matrix whose entries that are not a
    constant zero sit at ``support`` (C order), its two lanes: the
    (position in ``support``, column j) of its entries in the order that
    :func:`_matvec` adds them.

    That is the order of numpy's two-operand einsum inner loop
    (``sum_of_products_contig_contig_outstride0_two``), which sums
    ``np.einsum("...ij,...j->...i")`` over j in two float64 lanes,
    multiply then add.  Column j goes to lane j mod 2; each full block of
    8 columns adds in descending order (j+6, j+4, j+2, j on lane 0 and
    j+7, j+5, j+3, j+1 on lane 1), the last n mod 8 columns in ascending
    order, and the result is lane 0 + lane 1, each lane begun at +0.0.
    Skipping a constant-zero entry is exact for a finite v_j: its term is
    +-0.0, and a lane begun at +0.0 never holds -0.0, so adding +-0.0
    leaves it unchanged.  The module docstring covers a non-finite v_j.
    """
    full = n - n % 8
    columns = [b + d for b in range(0, full, 8) for d in (6, 4, 2, 0, 7, 5, 3, 1)]
    columns += range(full, n)
    position = {ij: p for p, ij in enumerate(support)}
    lanes = []
    for i in range(n):
        even, odd = [], []
        for j in columns:
            if (i, j) in position:
                (odd if j % 2 else even).append((position[i, j], j))
        lanes.append((tuple(even), tuple(odd)))
    return tuple(lanes)


def _matvec(jac, lanes, v, acc):
    """J v stored into ``acc``, where ``jac`` holds the entries of J at
    its support and ``lanes`` orders them (:func:`_einsum_lanes`): the
    bits of ``np.einsum("...ij,...j->...i")`` over the whole J.  One point
    passes floats and lists of n floats; a stack of N rows passes
    columns, with v and acc of shape (n, N)."""
    for i, (even, odd) in enumerate(lanes):
        lane0 = lane1 = 0.0
        for p, j in even:
            lane0 += jac[p] * v[j]  # 0.0 + column makes a new array, then in place
        for p, j in odd:
            lane1 += jac[p] * v[j]
        acc[i] = lane0 + lane1
    return acc


def _bilinear(hess, support, va, vb, acc):
    """H(va, vb) added into ``acc``, which holds zeros, where ``hess``
    holds the entries of H at the (i, j, k) of ``support``, in the order
    the module docstring gives.  One point passes floats and lists of n
    floats; a stack of N rows passes columns, with va, vb and acc of
    shape (n, N)."""
    for h, (i, j, k) in zip(hess, support):
        term = h * va[j]
        term *= vb[k]  # in place for columns: one temporary per entry
        acc[i] += term
    return acc


def _lie_template(s: SystemSpec, order: int) -> _Template:
    """The Lie terms N_1, ..., N_order, shape (order, n), with
    d^l x/dt^l = A^l x + N_l under the held input: N_1 = f and
    N_{l+1} = A^l f + (dN_l/dx) F.  Order 0 gives the field F = A x + f.
    A's nonzero entries enter as constants; nothing depends on T, and
    each template is built on first use into ``s._discretize_cache``,
    which every sampling time of the spec shares, with the integrator."""
    cache = s._discretize_cache
    if order not in cache:
        n = s.n
        xs = [ex.Var("x", j + 1) for j in range(n)]
        consts = lambda m: [[ex.Const(v) for v in row] for row in m.tolist()]
        # sum_j c_j t_j, added in order of j; a constant-zero c_j adds nothing
        dot = lambda cs, ts: functools.reduce(ex._add, map(ex._mul, cs, ts), ex.Const(0.0))
        rhs = [ex._add(dot(row, xs), fi) for row, fi in zip(consts(s.a), s.f)]
        terms, power = [list(s.f) if order else rhs], np.eye(n)
        for _ in range(1, order):
            power = power @ s.a
            terms.append([
                ex._add(dot(row, s.f), dot([ex.differentiate(nl, x.name) for x in xs], rhs))
                for row, nl in zip(consts(power), terms[-1])
            ])
        cache[order] = _Template(sum(terms, []), (order, n) if order else (n,))
    return cache[order]


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
_SAFETY = 0.9


# the adaptive loop of ExactMap; _integrator writes out the stages
_LOOP = """def integrate(y, u, tol, t_end):
    [{y}] = [{v}] = y{first}
    t, h, t_done, h_min = 0.0, t_end, {done!r} * t_end, 1e-6 * t_end
    while True:
        remaining = t_end - t
        if remaining <= t_done:
            return [{y}]
        if remaining <= h:
            h = remaining
        elif h <= h_min:
            raise IntegrationError("step size underflow", t, np.array([{y}], dtype=float), h){trial}
        if err <= 1.0:
            t, {y}, {k0} = t + h, {n}, {k6}
        factor = 5.0 if err == 0.0 else {safety!r} * err ** (-0.2)
        h *= 5.0 if factor >= 5.0 else factor if factor > 0.2 else 0.2
"""


def _integrator(s: SystemSpec) -> Callable:
    """The spec's Dormand-Prince loop as one generated function
    ``integrate(y, u, tol, t_end)`` of a list of floats, built on first
    use into ``s._discretize_cache["integrator"]``.  Every stage, the
    first included, is F written out by the point kernel's emitter, in a
    ``try`` that falls back to the field template (:func:`_lie_template`
    of order 0), whose walk names a domain error's node or saturates an
    overflow; the first stage's ``try`` also loads the inputs F reads,
    so a missing one fails in the walk too.  Every stage, B5 and E sum is
    ``0.0 + c0*k0_i + c1*k1_i + ...`` in stage order, zeros kept; the
    error norm takes max(|y_i|, |y_new_i|) with NaN winning and the root
    of the mean of the squared quotients, summed in order.  The step-size
    control compares where it took ``min`` and ``max``, with the same
    results, a NaN factor giving 0.2.  A trial with h < t_end - t and
    h <= 1e-6 t_end raises the underflow: a call accepts at most 1e6 such
    steps and, as a rejection cuts h by 10 % or more, ends even at h = 0."""
    if "integrator" in s._discretize_cache:
        return s._discretize_cache["integrator"]
    field, ix, inputs = _lie_template(s, 0), range(s.n), set()

    def operand(v) -> str:
        if v.kind == "u":
            inputs.add(v.index - 1)
        return f"{'v' if v.kind == 'x' else 'u'}{v.index - 1}"

    namespace = dict(field=field.point, np=np, root=math.sqrt, IntegrationError=IntegrationError)
    lines: list[str] = []
    emit = ex.emitter(operand, namespace, lines)
    live = {j: tree for tree, j in field.live}
    values = [emit(live.get(j, ex.Const(c))) for j, c in enumerate(field.const_list)]
    listed = lambda name: ", ".join(f"{name}{i}" for i in ix)
    combo = lambda ws, i: "0.0" + "".join(f" + ({w!r}) * k{j}_{i}" for j, w in enumerate(ws))
    stage = lambda k, head=(): [
        "try:", *(f"    {line}" for line in (*head, *lines)),
        *(f"    k{k}_{i} = {values[i]}" for i in ix),
        "except (ArithmeticError, ValueError, IndexError):",
        f"    [{listed(f'k{k}_')}] = field([{listed('v')}], u)",
    ]
    first = stage(0, [f"u{k} = float(u[{k}])" for k in sorted(inputs)])
    trial = []
    for k, row in enumerate(_DP_A[1:], start=1):
        trial += [f"v{i} = y{i} + h * ({combo(row, i)})" for i in ix] + stage(k)
    for i in ix:
        trial += [f"n{i} = y{i} + h * ({combo(_DP_B5, i)})", f"a, b = abs(y{i}), abs(n{i})",
                  f"r{i} = h * ({combo(_DP_E, i)}) / (tol + tol * (a if a >= b or a != a else b))"]
    squares = " + ".join(f"r{i} * r{i}" for i in ix)
    trial.append(f"err = root(({squares}) / {s.n})")
    source = _LOOP.format(
        y=listed("y"), v=listed("v"), k0=listed("k0_"), n=listed("n"), k6=listed("k6_"),
        first="".join(f"\n    {line}" for line in first),
        done=4.0 * float(np.finfo(float).eps), safety=_SAFETY,
        trial="".join(f"\n        {line}" for line in trial),
    )
    exec(compile(source, f"<dormand-prince integrator of {s.name}>", "exec"), namespace)
    s._discretize_cache["integrator"] = namespace["integrate"]
    return namespace["integrate"]


@dataclass(frozen=True)
class ExactMap:
    """The map x -> x(T) under the true flow of dx/dt = A x + f(x, u) with
    u held, on lists of floats: adaptive Dormand-Prince 5(4) with absolute
    and relative tolerance both ``tol`` and every step but the last above
    1e-6 T, for any T > 0, as one call of the spec's generated loop
    (:func:`_integrator`).  It has the bits of the same sums over numpy
    stage vectors, with the mean of the squared error quotients summed in
    order.  After an accepted trial the seventh stage is the next trial's
    first (first same as last, Dormand & Prince 1980), bit for bit, since
    the last row of A equals B5 up to a zero weight on the seventh stage;
    a rejected trial keeps its first stage.  So one call evaluates the
    right-hand side 1 + 6·trials times."""

    spec: SystemSpec
    tol: float = 1e-10

    def __post_init__(self):
        """Check ``tol`` once, when the map is built."""
        _check_tol(self.tol)

    def __call__(self, x, u=()) -> list:
        return self._integrate([float(v) for v in x], u, self.tol, self.spec.sampling_time)

    @functools.cached_property
    def _integrate(self) -> Callable:
        """The spec's integrator, bound on the first step."""
        return _integrator(self.spec)


def _check_tol(tol: float):
    """The integrator tolerance rule of :class:`ExactMap`."""
    if not 1e-13 <= tol <= 1e-6:
        raise SpecValidationError("tol", f"must lie in [1e-13, 1e-6], got {tol!r}")


# ---------------------------------------------------------------------------
# trajectory simulation

@dataclass
class Trajectory:
    states: np.ndarray  # (N+1, n)
    outputs: np.ndarray  # (N+1, p)
    first_exit: int | None  # step index of first state outside D, if any


def simulate(stepper, s: SystemSpec, x0, u_seq) -> Trajectory:
    """Iterate a one-step map over an input sequence; y_k = C x_k.

    ``stepper`` is a :class:`DiscreteModel`, an :class:`ExactMap` or any
    callable (x, u) -> n floats that takes x and u as lists of floats.
    ``x0`` (n finite numbers) and ``u_seq`` are checked before the first
    step; one loop steps the lists and builds ``states`` once.  It
    warns of nothing: ``first_exit`` (the first step outside D, where
    the estimated constants hold) and a non-finite state or output are
    the caller's to report.
    """
    u_seq = _input_rows(u_seq, s.m)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (s.n,):
        raise SpecValidationError("x0", f"must have shape ({s.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise SpecValidationError("x0", f"must be finite, got {x0.tolist()!r}")
    rows = [x0.tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        for u in u_seq.tolist():
            rows.append(stepper(rows[-1], u))
        states = np.array(rows)
        outputs = states @ s.c.T
    outside = np.flatnonzero(~s.region.contains(states)).tolist()
    return Trajectory(states=states, outputs=outputs, first_exit=outside[0] if outside else None)


def _input_rows(u_seq, m: int) -> np.ndarray:
    """Input rows of m finite numbers as a (steps, m) array; for m = 1 a
    flat sequence also serves, and an empty one is zero steps for any m."""
    try:
        u_seq = np.asarray(u_seq, dtype=float)
    except (TypeError, ValueError) as err:  # not numbers, or ragged rows
        raise SpecValidationError("u_seq", str(err)) from err
    if u_seq.ndim == 1 and (m == 1 or not len(u_seq)):
        u_seq = u_seq.reshape(len(u_seq), m)
    if u_seq.ndim != 2 or u_seq.shape[1] != m:
        raise SpecValidationError(
            "u_seq", f"expected rows of m = {m} numbers, got shape {u_seq.shape}"
        )
    finite = np.isfinite(u_seq).all(axis=1)
    if not finite.all():
        step = int(finite.argmin())
        raise SpecValidationError("u_seq", f"must be finite, got {u_seq[step].tolist()!r} at step {step}")
    return u_seq
