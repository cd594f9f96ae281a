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
near-coincident pairs that capture the local limit of the quotient,
among them probes along the top eigenvectors of J's symmetric part and
Gram matrix at the box's anchors, all from one stacked eigh call.

Every 2-norm (of J, of H's mode-1 unfolding, of f and of A) is one
kernel, ``linalg.max_singular_values``: the root of the largest
eigenvalue of each matrix's smaller Gram matrix, taken on the rows and
columns that are nonzero somewhere in the stack, in closed form where
one or two are left (every bundled spec, and the 4-state probe) and by
one batched LAPACK call where more are.  The grid norms of gamma_c and
beta take one more step: the rows within a small relative band of the
grid maximum are re-ranked by ``linalg._power_iteration``, in one
stacked call over the distinct matrices, so the supremum and its
witness are those of the power iteration over the whole grid.  This
re-rank only breaks exact ties the way the benchmark references pin.

The gamma_c polish scores its candidates in batches: those of the next
few polish iterations, laid out as if none were accepted, are scored
in one kernel call, each distinct Jacobian once.  The walk through a
batch stops at its first acceptance, so every decision, and the path,
value and witness, are those of scoring one candidate at a time.

A grid over more than 1e6 points is coarsened per axis; ``estimate_all``
then warns once, naming the requested and the effective grid.

One reducer, ``_Sup``, takes every supremum, grid or pair, by one rule.
A row fails where f, J, H or an image is not finite or a norm kernel
fails; failed rows are skipped, and more than 10% of them
raises.  A later row, in the same chunk or another, takes over only with
a strictly greater value: the first maximum wins a tie.  A supremum of
finite evaluations that is not finite (a norm or a quotient above the
largest float) raises; if every valid value is -inf, the first valid
row is the witness.  Each error is a NumericalError naming the constant.

Pair quotients are reduced in one pass over the sample in the chunks of
F_T's batch (``sup_pair_quotient``).  A row whose quotient or norm
overflows is taken again scaled by powers of two, so only a value above
the largest float reads inf.  Beside the sample (filled in place), a
pass holds one chunk's temporaries: verify at 200k pairs on the 4-state
probe peaks 4.6 MB (order 1) to 8.8 MB (order 3) above its 13.7 MB
sample (tracemalloc).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .discretize import _CHUNK_ROWS
from .expr import ExprError
from .linalg import NumericalError, _power_iteration, max_singular_value, max_singular_values
from .system import SpecValidationError, SystemSpec

_GRID_CAP = 1_000_000  # total grid points across all axes
_PAIR_EPS = 1e-5  # offset of near-coincident pairs
_MAX_FAIL_FRACTION = 0.1
_SCREEN_BAND = 1e-9  # relative width of the re-ranked band below the grid max


@dataclass(frozen=True)
class SamplingConfig:
    grid_per_axis: int = 21
    pair_budget: int = 20_000
    seed: int = 42
    polish_iters: int = 40

    def __post_init__(self):
        for name, least in (
            ("grid_per_axis", 2), ("pair_budget", 1000), ("seed", 0), ("polish_iters", 0)
        ):
            value = getattr(self, name)
            if value < least:
                raise SpecValidationError(name, f"must be >= {least}, got {value}")

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
    """Point pairs (x1, x2) sharing an input u, for quotient suprema."""

    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray


def sample_pairs(s: SystemSpec, cfg: SamplingConfig) -> PairSample:
    """Deterministic pair sample on D with shared inputs from U.

    Three families: independent uniform pairs, near-coincident pairs
    x2 = x1 + eps*v with random unit v (the quotient limit lives there),
    and a few deterministic probes at the region center and pulled-in
    corners along extremal directions of the Jacobian.  The family sizes
    split the pair budget roughly in half; probes are a small extra.
    Every family is drawn into its rows of the sample in place.
    """
    rng = np.random.default_rng(cfg.seed)
    low, width = s.region.lower, s.region.width
    ulow, uwidth = s.input_region.lower, s.input_region.width
    budget = cfg.pair_budget
    n_coincident = budget // 2
    independent = slice(0, budget - n_coincident)
    coincident = slice(budget - n_coincident, budget)

    px1, px2, pu = _probe_pairs(s)  # draws no random numbers
    rows = budget + px1.shape[0]
    x1, x2, u = np.empty((rows, s.n)), np.empty((rows, s.n)), np.empty((rows, s.m))

    def uniform(out, lower, scale):  # lower + rng.random(out.shape) * scale
        rng.random(out=out)
        out *= scale
        out += lower

    uniform(x1[independent], low, width)
    uniform(x2[independent], low, width)
    uniform(u[independent], ulow, uwidth)

    anchor, v = x1[coincident], x2[coincident]  # x2 = clip(anchor + eps * v)
    uniform(anchor, low, width)
    rng.standard_normal(out=v)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    v /= norms
    v *= _PAIR_EPS
    v += anchor
    np.clip(v, low, s.region.upper, out=v)
    uniform(u[coincident], ulow, uwidth)

    x1[budget:], x2[budget:], u[budget:] = px1, px2, pu
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
    """Near-coincident probes along locally extremal Jacobian directions:
    at each (x-anchor, u-anchor) where J is finite, x1 moved 1e-5 along
    the top eigenvector of (J + J^T)/2, then of J^T J, clipped into D; a
    pair the clip leaves at x1 is dropped.  J comes from the point
    kernel, the eigenvectors of every anchor from one eigh call.

    Directions come from the spec's f only, never from the map under
    test, so every measurement over the same spec sees the identical
    pair set.
    """
    xs, us, jacs = [], [], []
    for xa in _box_anchors(s.region.lower, s.region.upper, _PAIR_EPS):
        for ua in _box_anchors(s.input_region.lower, s.input_region.upper, 0.0):
            try:
                jac = s.jacobian(xa, ua)
            except ExprError:
                continue
            if np.all(np.isfinite(jac)):
                xs.append(xa)
                us.append(ua)
                jacs.append(jac)
    k = len(jacs)
    x1, u = np.array(xs).reshape(k, s.n), np.array(us).reshape(k, s.m)
    jac = np.array(jacs).reshape(k, s.n, s.n)
    with np.errstate(over="ignore"):
        gram = jac.transpose(0, 2, 1) @ jac
    big = ~np.isfinite(gram).all(axis=(1, 2))
    if big.any():  # such a J scaled by 2^-e: the same eigenvectors
        over = jac[big]
        over = np.ldexp(over, -np.frexp(np.abs(over).max(axis=(1, 2)))[1][:, None, None])
        jac[big], gram[big] = over, over.transpose(0, 2, 1) @ over
    sym = 0.5 * (jac + jac.transpose(0, 2, 1))
    v = np.linalg.eigh(np.stack([sym, gram], axis=1))[1][..., -1]  # top eigenvectors, (k, 2, n)
    x1 = np.broadcast_to(x1[:, None], v.shape)
    x2 = np.clip(x1 + _PAIR_EPS * v, s.region.lower, s.region.upper)
    moved = np.any(x2 != x1, axis=2)
    return x1[moved], x2[moved], np.broadcast_to(u[:, None], (k, 2, s.m))[moved]


# ---------------------------------------------------------------------------
# the one reducer of every empirical supremum

class _Sup:
    """A running supremum under the module docstring's rule: ``value``,
    witness row ``best`` (-1 before a valid row) and ``failures``;
    ``points`` maps each witness key to the sample's array."""

    def __init__(self, points: dict, sample: str, noun: str):
        self.points, self.sample, self.noun = points, sample, noun
        self.rows = len(next(iter(points.values())))
        self.value, self.best, self.failures = -math.inf, -1, 0

    def update(self, lo: int, values: np.ndarray, ok: np.ndarray, failures: int) -> None:
        """Take the next chunk: rows lo, lo + 1, ..., valid in ``ok``, ``failures`` failed."""
        self.failures += failures
        if not ok.any():
            return
        values = np.where(ok, values, -np.inf)
        row = int(np.argmax(values))
        if values[row] == -np.inf:  # every valid value is -inf: the first valid row
            row = int(np.argmax(ok))
        if self.best < 0 or values[row] > self.value:
            self.value, self.best = float(values[row]), lo + row

    @property
    def failed(self) -> bool:
        return self.failures > _MAX_FAIL_FRACTION * self.rows

    def result(self, name: str) -> tuple[float, dict]:
        """The supremum and its witness, or NumericalError naming ``name``."""
        if self.failed:
            raise NumericalError(
                f"{name}: {self.failures}/{self.rows} {self.sample} evaluations failed"
            )
        if self.best < 0:
            raise NumericalError(f"{name}: no valid {self.sample} samples")
        if not math.isfinite(self.value):
            raise NumericalError(f"{name}: a {self.sample} {self.noun} overflows to {self.value}")
        return self.value, {key: array[self.best].tolist() for key, array in self.points.items()}


# ---------------------------------------------------------------------------
# quotient suprema over pair samples

def sup_pair_quotient(pairs: PairSample, images, one_sided) -> list[_Sup]:
    """Suprema of (one-sided) difference quotients of maps over ``pairs``,
    in one pass of chunks of _CHUNK_ROWS rows under np.errstate, so an
    overflow shows as a non-finite image or quotient.

    ``images(rows)`` returns (or yields), for the pairs in the slice
    ``rows``, one image pair (m(x1,u), m(x2,u)) per entry of
    ``one_sided``, so several quotients share one evaluation.  Two-sided
    quotient: ||m(x1,u)-m(x2,u)|| / ||x1-x2||; one-sided:
    <m(x1,u)-m(x2,u), x1-x2> / ||x1-x2||^2; a coincident pair is neither
    failed nor valid.  Returns one running supremum per quotient; a
    caller reads their ``result`` in this order, the order its failures
    should surface, so once a quotient has failed, later chunks stop
    after it (a generator ``images`` computes no more).
    """
    points = {"x1": pairs.x1, "x2": pairs.x2, "u": pairs.u}
    sups = [_Sup(points, "pair", "quotient") for _ in one_sided]
    with np.errstate(all="ignore"):
        for lo in range(0, pairs.x1.shape[0], _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            dx = pairs.x1[rows] - pairs.x2[rows]
            dist_sq = np.einsum("ij,ij->i", dx, dx)
            for sup, side, (m1, m2) in zip(sups, one_sided, images(rows), strict=True):
                sup.update(lo, *_quotients(m1, m2, dx, dist_sq, side))
                if sup.failed:
                    break
    return sups


def _quotients(m1, m2, dx, dist_sq, one_sided: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """A chunk's quotients, valid rows and count of failed rows (a
    non-finite image); a function, so its temporaries die on return."""
    dm = m1 - m2
    ok = np.isfinite(m1[:, 0])
    for column in (*m1.T[1:], *m2.T):
        ok &= np.isfinite(column)
    failures = len(ok) - int(np.count_nonzero(ok))
    ok &= dist_sq > 0.0
    quotients = np.einsum("ij,ij->i", dm, dx if one_sided else dm)
    np.divide(quotients, dist_sq, out=quotients, where=ok)
    if not one_sided:
        np.sqrt(quotients, out=quotients, where=ok)
    # the product or ||x1-x2||^2 overflows: again with the row's images and
    # x1 - x2 scaled by powers of two to max |entry| < 1, which leaves every
    # other row, so a quotient is inf only above the largest float, never NaN
    redo = ok & ~(np.isfinite(quotients) & np.isfinite(dist_sq))
    if redo.any():
        m1, m2, dx = m1[redo], m2[redo], dx[redo]
        _, em = np.frexp(np.maximum(np.max(np.abs(m1), axis=1), np.max(np.abs(m2), axis=1)))
        _, ex = np.frexp(np.max(np.abs(dx), axis=1))
        dm = np.ldexp(m1, -em[:, None]) - np.ldexp(m2, -em[:, None])
        dx = np.ldexp(dx, -ex[:, None])
        scaled = np.einsum("ij,ij->i", dm, dx if one_sided else dm) / np.einsum("ij,ij->i", dx, dx)
        quotients[redo] = np.ldexp(scaled if one_sided else np.sqrt(scaled), em - ex)
    return quotients, ok, failures


# ---------------------------------------------------------------------------
# grid suprema with polish

def _grid_sup(s: SystemSpec, pts: np.ndarray, values: np.ndarray) -> _Sup:
    """The supremum of ``values`` over the rows ``pts``; NaN marks a failed row."""
    sup = _Sup({"x": pts[:, : s.n], "u": pts[:, s.n :]}, "grid", "norm")
    failed = np.isnan(values)
    sup.update(0, values, ~failed, int(np.count_nonzero(failed)))
    return sup


def _norm_rows(stack: np.ndarray) -> np.ndarray:
    """Per-row norms of a (P, d1, ...) stack whose max and first argmax are
    exactly those of ``_power_iteration`` over the (P, d1, rest)
    unfoldings; NaN marks rows that are non-finite or where a kernel
    fails, inf those whose 2-norm is above the largest float.

    ``max_singular_values`` gives every row.  Rows within a band of
    ``_SCREEN_BAND`` (relative) of its max get the power-iteration value,
    from one stacked call over the distinct matrices; the others keep
    their 2-norm.  The power iteration never exceeds the 2-norm (a
    Rayleigh quotient is at most sigma_max^2), so an unranked row stays
    below top * (1 - band / 2); if the re-ranked best falls short of
    that, the band widens until it holds or every row is re-ranked.
    """
    unfold = stack.reshape(stack.shape[0], stack.shape[1], -1)
    norms = max_singular_values(unfold)
    vals, ranked, band = norms.copy(), np.isnan(norms), _SCREEN_BAND
    valid = ~ranked
    top = float(np.max(norms, where=valid, initial=-np.inf))
    while not ranked.all():
        idx = np.flatnonzero(~ranked & (norms >= top * (1.0 - band)))
        if idx.size:
            ranked[idx] = True
            band_rows = unfold[idx]  # a copy: contiguous rows, keyed by their bytes
            keys = band_rows.reshape(idx.size, -1).view(np.dtype((np.void, unfold[0].nbytes)))
            _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            vals[idx] = _power_iteration(band_rows[first])[inverse]
        if np.fmax.reduce(vals[ranked & valid]) >= top * (1.0 - 0.5 * band):
            break
        band *= 1e3
    return vals


def _polish(s: SystemSpec, start, lower, upper, steps, iters) -> tuple[float, np.ndarray]:
    """Coordinate ascent of ||df/dx|| from ``start``: iteration i tries
    x +- steps / 2^i along each axis (clipped into the box), and a
    candidate replaces x when it beats the best.  Returns the best value
    (-inf where every point fails, inf where a 2-norm overflows) and its
    point.  A batch holds the candidates of the next ``horizon``
    iterations as if none were accepted; the walk through it stops at
    the first acceptance, after which the horizon is 1, and a batch
    without one doubles it.  The walk runs on lists of Python floats."""
    # by Jacobian bytes, so each J keeps the one score of the stack it
    # was first scored in (the kernel's live block is the stack's); -inf
    # where it fails
    memo: dict[bytes, float] = {}

    def scores(points):
        keys, fresh = [], {}
        for z in points:
            try:
                jac = s.jacobian(z[: s.n], z[s.n :])
            except (ExprError, ValueError):
                jac = np.full((s.n, s.n), np.nan)  # scores -inf, as a non-finite J
            keys.append(jac.tobytes())
            if keys[-1] not in memo:
                fresh[keys[-1]] = jac
        if fresh:
            vals = max_singular_values(np.array(list(fresh.values())))
            memo.update(zip(fresh, np.where(np.isnan(vals), -np.inf, vals).tolist()))
        return [memo[key] for key in keys]

    halve = lambda h, _: [v * 0.5 for v in h]
    hs = list(itertools.accumulate(range(1, iters), halve, initial=steps.tolist()))
    moves = [(d, sign) for d in range(start.shape[0]) for sign in (1.0, -1.0)]
    m, x, lower, upper = len(moves), start.tolist(), lower.tolist(), upper.tolist()
    (best,) = scores([x])
    t, horizon = 0, 1  # t: the next candidate, moves[t % m] of iteration t // m
    while t < iters * m:
        end, batch = min((t // m + horizon) * m, iters * m), []
        for f in range(t, end):
            h, (d, sign) = hs[f // m], moves[f % m]
            xd = min(max(x[d] + sign * h[d], lower[d]), upper[d])
            if xd != x[d]:  # also where h[d] = 0
                batch.append((f, [*x[:d], xd, *x[d + 1 :]]))
        for (f, cand), val in zip(batch, scores([c for _, c in batch])):
            if val > best:
                best, x, t, horizon = val, cand, f + 1, 1
                break
        else:
            t, horizon = end, 2 * horizon
    return best, np.array(x)


def estimate_gamma_c(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, dict]:
    """Empirical sup of ||df/dx|| over D x U: grid plus local polish.

    A lower bound on the true Lipschitz constant; the witness is the
    attaining point.
    """
    pts = grid_points(s, cfg)
    sup = _grid_sup(s, pts, _norm_rows(s.jacobian_batch(pts[:, : s.n], pts[:, s.n :])))
    sup.result("gamma_c")  # the grid's failures surface before the polish
    lower, upper = _domain_box(s)
    steps = (upper - lower) / (_effective_grid(lower.shape[0], cfg.grid_per_axis) - 1)
    polished, point = _polish(s, pts[sup.best], lower, upper, steps, cfg.polish_iters)
    if polished > sup.value:
        sup = _grid_sup(s, point[None], np.array([polished]))
    return sup.result("gamma_c")


def estimate_rho_c(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, dict]:
    """Empirical sup of the one-sided Lipschitz quotient of f over D.

    May be negative; the near-coincident pair family makes quotients
    attained in the x2 -> x1 limit reachable.
    """
    pairs = sample_pairs(s, cfg)
    x1, x2, u, f = pairs.x1, pairs.x2, pairs.u, s.eval_f_batch
    (sup,) = sup_pair_quotient(
        pairs, lambda rows: [(f(x1[rows], u[rows]), f(x2[rows], u[rows]))], (True,)
    )
    return sup.result("rho_c")


def estimate_beta_and_m(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, float, dict]:
    """Grid suprema of ||d^2 f/dx^2|| (mode-1 surrogate) and ||f||, over
    one grid."""
    pts = grid_points(s, cfg)
    x, u = pts[:, : s.n], pts[:, s.n :]
    beta, beta_w = _grid_sup(s, pts, _norm_rows(s.second_derivative_batch(x, u))).result("beta")
    f_norms = max_singular_values(s.eval_f_batch(x, u)[:, None])  # 1 x n matrices
    big_m, m_w = _grid_sup(s, pts, f_norms).result("big_m")
    return beta, big_m, {"beta": beta_w, "big_m": m_w}


def estimate_all(
    s: SystemSpec, cfg: SamplingConfig, rho_c: _Sup | None = None
) -> ConstantEstimates:
    """All constants the bound formulas need, with witnesses; ``rho_c``
    is the running pair supremum of f's one-sided quotient over the pair
    sample of ``cfg`` if a caller has already taken it.  Failures surface
    in the order gamma_c, rho_c, beta and M."""
    g = _effective_grid(s.n + s.m, cfg.grid_per_axis)
    if g != cfg.grid_per_axis:
        warnings.warn(f"grid of {cfg.grid_per_axis} points per axis exceeds {_GRID_CAP} "
                      f"points; running at {g} points per axis", UserWarning, stacklevel=2)
    gamma, gamma_w = estimate_gamma_c(s, cfg)
    if rho_c is None:
        rho, rho_w = estimate_rho_c(s, cfg)
    else:
        rho, rho_w = rho_c.result("rho_c")
    beta, big_m, bm_w = estimate_beta_and_m(s, cfg)
    try:
        sigma = max_singular_value(s.a)
    except NumericalError as err:
        raise NumericalError(f"sigma_bar_a: {err}") from None
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
