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

The grid norms of gamma_c and beta are reduced in two steps: a Gram
screen bounds every row, then the rows within a small relative band of
the screened maximum are re-ranked by the power iteration
``linalg.max_singular_values``, in one stacked call over the distinct
matrices.  The supremum and its witness are therefore those of the
kernel over the whole grid.  The screen is the root of the largest
eigenvalue of each row's smaller Gram matrix, taken on the rows and
columns that are nonzero somewhere in the stack: in closed form where
one or two are left (every bundled spec, and the 4-state probe), by one
batched LAPACK call where more are.

The gamma_c polish scores its candidates in batches: those of the next
few polish iterations, laid out as if none were accepted, are screened
the same way against the current best (a kernel value cannot beat a
best its screen lies more than the band below) and the survivors scored
in one stacked call, each distinct Jacobian once.  The walk through a
batch stops at its first acceptance, so every decision, and the path,
value and witness, are those of scoring one candidate at a time.

A grid over more than 1e6 points is coarsened per axis; ``estimate_all``
then warns once, naming the requested and the effective grid.

One reducer, ``_Sup``, takes every supremum, grid or pair, by one rule.
A row fails where f, J, H or an image is not finite or a norm kernel
does not converge; failed rows are skipped, and more than 10% of them
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
from .linalg import NumericalError, max_singular_value, max_singular_values, sym_max_eig
from .system import SpecValidationError, SystemSpec

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
            with np.errstate(over="ignore"):
                gram = jac.T @ jac
            if not np.all(np.isfinite(gram)):  # J scaled by 2^-e: the same eigenvectors
                jac = np.ldexp(jac, -math.frexp(float(np.max(np.abs(jac))))[1])
                gram = jac.T @ jac
            _, v_one = sym_max_eig(0.5 * (jac + jac.T))
            _, v_two = sym_max_eig(gram)
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


def _gram_norms(mats: np.ndarray) -> np.ndarray:
    """2-norms of a (k, r, c) stack of finite matrices within about 1e-15: the
    root of the top eigenvalue of each smaller Gram matrix, formed after
    scaling by a power of two, of the rows and columns nonzero anywhere in
    the stack (sigma_max ignores the others); in closed form for up to two
    of them, else by LAPACK, with +inf for all if it fails (no screen)."""
    live = np.any(mats, axis=0)
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if rows.size < mats.shape[1] or cols.size < mats.shape[2]:
        mats = mats[:, rows[:, None], cols]
    if mats.shape[1] > mats.shape[2]:
        mats = mats.transpose(0, 2, 1)  # the Gram matrix of the rows is the smaller
    _, e = np.frexp(np.max(np.abs(mats), axis=(1, 2), initial=0.0))
    scaled = np.ldexp(mats, -e[:, None, None])
    if scaled.shape[1] <= 1:  # the sum of squares, 0 for no live row
        lam = np.einsum("kij,kij->k", scaled, scaled)
    elif scaled.shape[1] == 2:  # the top eigenvalue of [[a, b], [b, c]]: two terms >= 0
        r0, r1 = scaled[:, 0], scaled[:, 1]
        a, b, c = (np.einsum("ij,ij->i", p, q) for p, q in ((r0, r0), (r0, r1), (r1, r1)))
        lam = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    else:
        try:
            lam = np.linalg.eigvalsh(scaled @ scaled.transpose(0, 2, 1))[:, -1]
        except np.linalg.LinAlgError:
            return np.full(mats.shape[0], np.inf)
    with np.errstate(over="ignore"):  # a 2-norm above the largest float: inf
        return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e)


def _norm_rows(stack: np.ndarray) -> np.ndarray:
    """Per-row norms of a (P, d1, ...) stack whose max and first argmax are
    exactly those of ``max_singular_values`` over the (P, d1, rest)
    unfoldings (for an order-3 tensor, ``tensor3_norm_surrogate``); NaN
    marks rows that are non-finite or where the kernel fails, inf those
    whose 2-norm is above the largest float.

    ``_gram_norms`` screens all rows.  Rows within a band of
    ``_SCREEN_BAND`` (relative) of the screened max get the kernel value,
    from one stacked call over the distinct matrices; the others keep
    their screened value.  The kernel never exceeds the 2-norm (a Rayleigh
    quotient is at most sigma_max^2), so an unranked row stays below
    top * (1 - band / 2); if the re-ranked best falls short of that, the
    band widens until it holds or every row is re-ranked.
    """
    unfold = stack.reshape(stack.shape[0], stack.shape[1], -1)
    finite = np.isfinite(unfold).all(axis=(1, 2))
    screen = np.full(stack.shape[0], np.nan)
    if finite.all():  # no copy of the stack in the common case
        screen = _gram_norms(unfold)
    elif finite.any():
        screen[finite] = _gram_norms(unfold[finite])
    vals = screen.copy()
    ranked, band = ~finite, _SCREEN_BAND
    top = float(np.max(screen, where=finite, initial=-np.inf))
    while not ranked.all():
        idx = np.flatnonzero(~ranked & (screen >= top * (1.0 - band)))
        if idx.size:
            ranked[idx] = True
            band_rows = unfold[idx]  # a copy: contiguous rows, keyed by their bytes
            keys = band_rows.reshape(idx.size, -1).view(np.dtype((np.void, unfold[0].nbytes)))
            _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            vals[idx] = max_singular_values(band_rows[first])[inverse]
        if np.fmax.reduce(vals[ranked & finite]) >= top * (1.0 - 0.5 * band):
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
    without one doubles it."""
    memo: dict[bytes, float] = {}  # by Jacobian bytes; -inf if failed or screened

    def scores(points, best):
        keys, fresh = [], {}
        for z in points:
            try:
                jac = s.jacobian(z[: s.n], z[s.n :])
            except (ExprError, ValueError):
                jac = np.full((s.n, s.n), np.nan)  # scores -inf, as a non-finite J
            keys.append(jac.tobytes())
            if keys[-1] not in memo and np.isfinite(jac).all():
                fresh[keys[-1]] = jac
        if fresh:
            jacs = np.array(list(fresh.values()))
            vals = np.full(len(jacs), -np.inf)
            live = _gram_norms(jacs) >= best * (1.0 - _SCREEN_BAND)
            if live.any():
                vals[live] = max_singular_values(jacs[live])
            memo.update(zip(fresh, np.where(np.isnan(vals), -np.inf, vals).tolist()))
        return [memo.get(key, -np.inf) for key in keys]

    hs = list(itertools.accumulate(range(1, iters), lambda h, _: h * 0.5, initial=steps))
    moves = [(d, sign) for d in range(start.shape[0]) for sign in (1.0, -1.0)]
    m, x = len(moves), start.astype(float).copy()
    (best,) = scores([x], -np.inf)
    t, horizon = 0, 1  # t: the next candidate, moves[t % m] of iteration t // m
    while t < iters * m:
        end, batch = min((t // m + horizon) * m, iters * m), []
        for f in range(t, end):
            h, (d, sign) = hs[f // m], moves[f % m]
            cand = x.copy()
            cand[d] = min(max(x[d] + sign * h[d], lower[d]), upper[d])
            if cand[d] != x[d]:  # also where h[d] = 0
                batch.append((f, cand))
        for (f, cand), val in zip(batch, scores([c for _, c in batch], best)):
            if val > best:
                best, x, t, horizon = val, cand, f + 1, 1
                break
        else:
            t, horizon = end, 2 * horizon
    return best, x


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


def _f_norms(f: np.ndarray) -> np.ndarray:
    """||f|| per row: NaN where the row is not finite, inf only where the
    norm is above the largest float."""
    finite = np.isfinite(f).all(axis=1)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", f, f))
        # a finite row whose sum of squares overflows: again on the row
        # scaled by a power of two, which leaves every other row
        redo = np.isinf(norms) & finite
        if redo.any():
            _, e = np.frexp(np.max(np.abs(f[redo]), axis=1))
            scaled = np.ldexp(f[redo], -e[:, None])
            norms[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), e)
    norms[~finite] = np.nan
    return norms


def estimate_beta_and_m(s: SystemSpec, cfg: SamplingConfig) -> tuple[float, float, dict]:
    """Grid suprema of ||d^2 f/dx^2|| (mode-1 surrogate) and ||f||, over
    one grid."""
    pts = grid_points(s, cfg)
    x, u = pts[:, : s.n], pts[:, s.n :]
    beta, beta_w = _grid_sup(s, pts, _norm_rows(s.second_derivative_batch(x, u))).result("beta")
    big_m, m_w = _grid_sup(s, pts, _f_norms(s.eval_f_batch(x, u))).result("big_m")
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
