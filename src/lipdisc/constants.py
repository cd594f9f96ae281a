"""Region estimates of the constants the discrete bound formulas consume.

Over the box D x U the estimators measure

  gamma_c     sup of the induced 2-norm of df/dx        (Lipschitz constant)
  rho_c       sup of <f(x1,u)-f(x2,u), x1-x2>/||x1-x2||^2   (one-sided)
  beta        sup of the order-3 tensor norm surrogate of d^2 f/dx^2
  big_m       sup of ||f(x, u)||
  sigma_bar_a max singular value of A

All estimates are empirical suprema: deterministic lower bounds on the
true values.  gamma_c, beta, big_m use a uniform grid (gamma_c refined
by a coordinate-descent polish); rho_c uses seeded random pairs plus
near-coincident pairs that capture the local limit of the quotient.

The grid norms of gamma_c and beta are reduced in two steps: one
batched LAPACK 2-norm screens every row, then the rows within a small
relative band of the screened maximum are re-ranked by the pointwise
kernels of ``linalg``, once per distinct matrix.  The supremum and its
witness are therefore those of the pointwise kernel over the whole
grid; exact ties go to the first grid point in C order.

The gamma_c polish screens its candidates the same way.  A candidate is
accepted only if its kernel value exceeds the current best, and the
kernel never exceeds the LAPACK 2-norm, so a Jacobian whose 2-norm lies
more than the band below the best is rejected without the kernel.  Each
distinct Jacobian (by its bytes) is scored once.  Every accept and
reject decision is the one the unscreened polish makes, so its path,
value and witness are unchanged.

A grid over more than 1e6 points is coarsened per axis; ``estimate_all``
then warns once, naming the requested and the effective grid.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import ExprError
from .linalg import NumericalError, max_singular_value, sym_max_eig, tensor3_norm_surrogate
from .system import SystemSpec

_GRID_CAP = 1_000_000  # total grid points across all axes
_PAIR_EPS = 1e-5  # offset of near-coincident pairs
_MAX_FAIL_FRACTION = 0.1
_SCREEN_BAND = 1e-9  # relative width of the re-ranked band below the screened max


@dataclass(frozen=True)
class SamplingConfig:
    grid_per_axis: int = 21
    pair_budget: int = 20_000
    seed: int = 42
    polish_iters: int = 40

    def __post_init__(self):
        if self.grid_per_axis < 2:
            raise ValueError("grid_per_axis must be >= 2")
        if self.pair_budget < 1000:
            raise ValueError("pair_budget must be >= 1000")
        if self.polish_iters < 0:
            raise ValueError("polish_iters must be >= 0")

    def to_jsonable(self) -> dict:
        return {
            "grid_per_axis": self.grid_per_axis,
            "pair_budget": self.pair_budget,
            "seed": self.seed,
            "polish_iters": self.polish_iters,
        }


@dataclass
class ConstantEstimates:
    gamma_c: float
    rho_c: float
    beta: float
    big_m: float
    sigma_bar_a: float
    witnesses: dict = field(default_factory=dict)
    config: SamplingConfig | None = None

    def to_jsonable(self) -> dict:
        out = {
            "gamma_c": self.gamma_c,
            "rho_c": self.rho_c,
            "beta": self.beta,
            "big_m": self.big_m,
            "sigma_bar_a": self.sigma_bar_a,
            "witnesses": self.witnesses,
        }
        if self.config is not None:
            out["sample_budget"] = self.config.to_jsonable()
        return out


# ---------------------------------------------------------------------------
# sample generation

def _domain_box(s: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    lower = np.concatenate([s.region.lower, s.input_region.lower])
    upper = np.concatenate([s.region.upper, s.input_region.upper])
    return lower, upper


def _effective_grid(dims: int, g: int) -> int:
    while g > 2 and g**dims > _GRID_CAP:
        g -= 1
    return g


def grid_points(s: SystemSpec, cfg: SamplingConfig) -> np.ndarray:
    """Uniform per-axis mesh over D x U including endpoints, shape (P, n+m).

    The per-axis count is reduced if needed so the total stays under 1e6.
    """
    lower, upper = _domain_box(s)
    dims = lower.shape[0]
    g = _effective_grid(dims, cfg.grid_per_axis)
    axes = [np.linspace(lower[d], upper[d], g) for d in range(dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class PairSample:
    """Point pairs (x1, x2) sharing an input u, for quotient suprema.

    The differences x1 - x2 and their squared norms are computed once,
    on first use, for every quotient taken over the sample."""

    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray

    @cached_property
    def dx(self) -> np.ndarray:
        return self.x1 - self.x2

    @cached_property
    def dist_sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.dx, self.dx)


def sample_pairs(s: SystemSpec, cfg: SamplingConfig) -> PairSample:
    """Deterministic pair sample on D with shared inputs from U.

    Three families: independent uniform pairs, near-coincident pairs
    x2 = x1 + eps*v with random unit v (the quotient limit lives there),
    and a few deterministic probes at the region center and pulled-in
    corners along extremal directions of the Jacobian.  The family sizes
    split the pair budget roughly in half; probes are a small extra.
    """
    rng = np.random.default_rng(cfg.seed)
    low, width = s.region.lower, s.region.width
    ulow, uwidth = s.input_region.lower, s.input_region.width
    n, m = s.n, s.m

    n_coincident = cfg.pair_budget // 2
    n_independent = cfg.pair_budget - n_coincident

    x1_list = [low + rng.random((n_independent, n)) * width]
    x2_list = [low + rng.random((n_independent, n)) * width]
    u_list = [ulow + rng.random((n_independent, m)) * uwidth]

    anchor = low + rng.random((n_coincident, n)) * width
    v = rng.standard_normal((n_coincident, n))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    v /= norms
    x1_list.append(anchor)
    x2_list.append(np.clip(anchor + _PAIR_EPS * v, low, s.region.upper))
    u_list.append(ulow + rng.random((n_coincident, m)) * uwidth)

    px1, px2, pu = _probe_pairs(s)
    if px1.size:
        x1_list.append(px1)
        x2_list.append(px2)
        u_list.append(pu)

    x1 = np.concatenate(x1_list)
    x2 = np.concatenate(x2_list)
    u = np.concatenate(u_list)
    return PairSample(x1=x1, x2=x2, u=u)


def _box_anchors(lower: np.ndarray, upper: np.ndarray, pull: float) -> list[np.ndarray]:
    """Center plus corners pulled inward so probe offsets stay in the box."""
    dims = lower.shape[0]
    anchors = [0.5 * (lower + upper)]
    if dims == 0:
        return anchors
    shift = np.minimum(pull, 0.25 * (upper - lower))
    if dims <= 10:
        for signs in itertools.product((0, 1), repeat=dims):
            corner = np.where(np.asarray(signs, bool), upper - shift, lower + shift)
            anchors.append(corner)
    else:
        for d in range(dims):
            for side in (lower + shift, upper - shift):
                point = anchors[0].copy()
                point[d] = side[d]
                anchors.append(point)
    return anchors


def _probe_pairs(s: SystemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Near-coincident probes along locally extremal Jacobian directions.

    Directions come from the spec's f only, never from the map under
    test, so every measurement over the same spec sees the identical
    pair set.
    """
    x1, x2, u = [], [], []
    x_anchors = _box_anchors(s.region.lower, s.region.upper, _PAIR_EPS)
    u_anchors = _box_anchors(s.input_region.lower, s.input_region.upper, 0.0)
    for xa in x_anchors:
        for ua in u_anchors:
            try:
                jac = s.jacobian(xa, ua)
            except ExprError:
                continue
            if not np.all(np.isfinite(jac)):
                continue
            _, v_one = sym_max_eig(0.5 * (jac + jac.T))
            _, v_two = sym_max_eig(jac.T @ jac)
            for v in (v_one, v_two):
                xb = np.clip(xa + _PAIR_EPS * v, s.region.lower, s.region.upper)
                if np.any(xb != xa):
                    x1.append(xa)
                    x2.append(xb)
                    u.append(ua)
    if not x1:
        return np.zeros((0, s.n)), np.zeros((0, s.n)), np.zeros((0, s.m))
    return np.asarray(x1), np.asarray(x2), np.asarray(u)


# ---------------------------------------------------------------------------
# quotient suprema over pair samples

def sup_pair_quotient(
    pairs: PairSample, images: tuple[np.ndarray, np.ndarray], one_sided: bool
) -> tuple[float, dict]:
    """Supremum of the (one-sided) difference quotient of a map over pairs.

    ``images = (m(x1,u), m(x2,u))`` holds the map under test evaluated on
    both endpoints of ``pairs``, so several quotients can share one
    evaluation.  Two-sided quotient: ||m(x1,u)-m(x2,u)|| / ||x1-x2||;
    one-sided: <m(x1,u)-m(x2,u), x1-x2> / ||x1-x2||^2.  Samples where the
    map is non-finite are skipped; more than 10% failures is an error.
    Returns the supremum and the witness pair.
    """
    m1, m2 = images
    dx, dist_sq = pairs.dx, pairs.dist_sq
    dm = m1 - m2
    ok = np.isfinite(m1).all(axis=1) & np.isfinite(m2).all(axis=1)
    failures = int(np.count_nonzero(~ok))
    if failures > _MAX_FAIL_FRACTION * len(ok):
        raise NumericalError(
            f"{failures}/{len(ok)} pair evaluations failed (domain errors)"
        )
    ok &= dist_sq > 0.0
    if not np.any(ok):
        raise NumericalError("no valid pairs to evaluate")
    if one_sided:
        quotients = np.einsum("ij,ij->i", dm, dx)[ok] / dist_sq[ok]
    else:
        quotients = np.sqrt(np.einsum("ij,ij->i", dm, dm)[ok] / dist_sq[ok])
    idx_ok = np.flatnonzero(ok)
    best = int(idx_ok[np.argmax(quotients)])
    witness = {
        "x1": pairs.x1[best].tolist(),
        "x2": pairs.x2[best].tolist(),
        "u": pairs.u[best].tolist(),
    }
    value = float(np.max(quotients))
    return value, witness


# ---------------------------------------------------------------------------
# grid suprema with polish

def _coordinate_polish(objective, start, lower, upper, steps, iters):
    """Local coordinate descent with per-iteration step halving.

    Only accepts improvements, so the returned value never falls below
    objective(start, -inf); candidates are clipped into the box.
    ``objective(z, best)`` receives the current best, which never
    decreases, and may return -inf for a candidate it can prove does
    not exceed it: the candidate would be rejected either way, so the
    path is that of the exact objective.
    """
    x = start.astype(float).copy()
    best = objective(x, -np.inf)
    h = steps.astype(float).copy()
    for _ in range(iters):
        for d in range(x.shape[0]):
            if h[d] <= 0.0:
                continue
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[d] = min(max(cand[d] + sign * h[d], lower[d]), upper[d])
                if cand[d] == x[d]:
                    continue
                val = objective(cand, best)
                if val > best:
                    best = val
                    x = cand
        h *= 0.5
    return best, x


def _grid_sup(s: SystemSpec, cfg: SamplingConfig, values_for_rows) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a row objective over the D x U grid; returns (values, points)."""
    pts = grid_points(s, cfg)
    vals = values_for_rows(pts[:, : s.n], pts[:, s.n :])
    failures = int(np.count_nonzero(~np.isfinite(vals)))
    if failures > _MAX_FAIL_FRACTION * len(vals):
        raise NumericalError(f"{failures}/{len(vals)} grid evaluations failed")
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    return vals, pts


def _norm_rows(stack: np.ndarray, kernel, band: float = _SCREEN_BAND) -> np.ndarray:
    """Per-row norms of a (P, d1, ...) stack whose max and first argmax are
    exactly those of ``kernel`` applied to every row; NaN marks rows that
    are non-finite or where ``kernel`` fails.

    One batched LAPACK 2-norm of the (P, d1, rest) unfoldings screens all
    rows.  Rows within ``band`` (relative) of the screened max get the
    ``kernel`` value, evaluated once per distinct matrix; the others keep
    their screened value.  ``kernel`` never exceeds the 2-norm (a Rayleigh
    quotient is at most sigma_max^2), so an unranked row stays below
    top * (1 - band / 2); if the re-ranked best falls short of that, the
    band widens until it holds or every row is re-ranked.
    """
    unfold = stack.reshape(stack.shape[0], stack.shape[1], -1)
    finite = np.isfinite(unfold).all(axis=(1, 2))
    screen = np.full(stack.shape[0], np.nan)
    try:
        if finite.all():  # no copy of the stack in the common case
            screen = np.linalg.norm(unfold, ord=2, axis=(1, 2))
        elif finite.any():
            screen[finite] = np.linalg.norm(unfold[finite], ord=2, axis=(1, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"batched 2-norm failed: {exc}") from exc
    vals = screen.copy()
    ranked = ~finite
    top = float(np.max(screen, where=finite, initial=-np.inf))
    while not ranked.all():
        idx = np.flatnonzero(~ranked & (screen >= top * (1.0 - band)))
        if idx.size:
            ranked[idx] = True
            distinct, inverse = np.unique(
                stack[idx].reshape(idx.size, -1), axis=0, return_inverse=True
            )
            exact = [_kernel_or_nan(kernel, d.reshape(stack.shape[1:])) for d in distinct]
            vals[idx] = np.array(exact)[inverse.ravel()]
        if np.fmax.reduce(vals[ranked & finite]) >= top * (1.0 - 0.5 * band):
            break
        band *= 1e3
    return vals


def _kernel_or_nan(kernel, mat: np.ndarray) -> float:
    try:
        return kernel(mat)
    except NumericalError:
        return np.nan


def _polish_score(jac: np.ndarray, best: float) -> float:
    """``max_singular_value(jac)``, or -inf where it fails or where the
    LAPACK 2-norm of ``jac`` lies below ``best * (1 - _SCREEN_BAND)``, so
    the kernel cannot exceed ``best``.  As ``best`` never decreases
    during a polish, a screened matrix stays screened."""
    if not np.isfinite(jac).all():
        return -np.inf
    try:
        if np.linalg.norm(jac, 2) < best * (1.0 - _SCREEN_BAND):
            return -np.inf
    except np.linalg.LinAlgError:
        pass  # no screen; the kernel decides
    try:
        return max_singular_value(jac)
    except NumericalError:
        return -np.inf


def _polish_setup(s: SystemSpec, cfg: SamplingConfig):
    lower, upper = _domain_box(s)
    g = _effective_grid(lower.shape[0], cfg.grid_per_axis)
    steps = (upper - lower) / (g - 1)  # one mesh cell per axis
    return lower, upper, steps


def estimate_gamma_c(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, dict]:
    """Empirical sup of ||df/dx|| over D x U: grid plus local polish.

    A lower bound on the true Lipschitz constant; the witness is the
    attaining point.
    """

    def rows(x, u):
        return _norm_rows(s.jacobian_batch(x, u), max_singular_value)

    vals, pts = _grid_sup(s, cfg, rows)
    best_row = int(np.argmax(vals))
    grid_best = float(vals[best_row])

    scores: dict[bytes, float] = {}

    def objective(z, best):
        try:
            jac = s.jacobian(z[: s.n], z[s.n :])
        except (ExprError, ValueError):
            return -np.inf
        key = jac.tobytes()
        if key not in scores:
            scores[key] = _polish_score(jac, best)
        return scores[key]

    lower, upper, steps = _polish_setup(s, cfg)
    polished, zbest = _coordinate_polish(
        objective, pts[best_row], lower, upper, steps, cfg.polish_iters
    )
    if polished > grid_best:
        value, point = polished, zbest
    else:
        value, point = grid_best, pts[best_row]
    witness = {"x": point[: s.n].tolist(), "u": point[s.n :].tolist()}
    return value, witness


def estimate_rho_c(
    s: SystemSpec, cfg: SamplingConfig, pairs: PairSample | None = None
) -> tuple[float, dict]:
    """Empirical sup of the one-sided Lipschitz quotient of f over D.

    May be negative; the near-coincident pair family makes quotients
    attained in the x2 -> x1 limit reachable.
    """
    if pairs is None:
        pairs = sample_pairs(s, cfg)
    images = s.eval_f_batch(pairs.x1, pairs.u), s.eval_f_batch(pairs.x2, pairs.u)
    return sup_pair_quotient(pairs, images, one_sided=True)


def estimate_beta_and_m(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, float, dict]:
    """Grid suprema of ||d^2 f/dx^2|| (mode-1 surrogate) and ||f||."""

    def beta_rows(x, u):
        return _norm_rows(s.second_derivative_batch(x, u), tensor3_norm_surrogate)

    beta_vals, pts = _grid_sup(s, cfg, beta_rows)

    def m_rows(x, u):
        f = s.eval_f_batch(x, u)
        return np.sqrt(np.einsum("ij,ij->i", f, f))

    m_vals, _ = _grid_sup(s, cfg, m_rows)

    beta_row = int(np.argmax(beta_vals))
    m_row = int(np.argmax(m_vals))
    witnesses = {
        "beta": {"x": pts[beta_row, : s.n].tolist(), "u": pts[beta_row, s.n :].tolist()},
        "big_m": {"x": pts[m_row, : s.n].tolist(), "u": pts[m_row, s.n :].tolist()},
    }
    return float(beta_vals[beta_row]), float(m_vals[m_row]), witnesses


def estimate_all(
    s: SystemSpec, cfg: SamplingConfig, pairs: PairSample | None = None
) -> ConstantEstimates:
    """All constants the bound formulas need, with witnesses; ``pairs``
    is the pair sample of ``cfg`` if already drawn."""
    g = _effective_grid(s.n + s.m, cfg.grid_per_axis)
    if g != cfg.grid_per_axis:
        warnings.warn(f"grid of {cfg.grid_per_axis} points per axis exceeds {_GRID_CAP} "
                      f"points; running at {g} points per axis", UserWarning, stacklevel=2)
    gamma, gamma_w = estimate_gamma_c(s, cfg)
    rho, rho_w = estimate_rho_c(s, cfg, pairs=pairs)
    beta, big_m, bm_w = estimate_beta_and_m(s, cfg)
    sigma = max_singular_value(s.a)
    witnesses = {"gamma_c": gamma_w, "rho_c": rho_w, **bm_w}
    return ConstantEstimates(
        gamma_c=gamma,
        rho_c=rho,
        beta=beta,
        big_m=big_m,
        sigma_bar_a=sigma,
        witnesses=witnesses,
        config=cfg,
    )
