"""Shared fixtures, finite-difference and matrix-exponential oracles,
the pair-quotient Lipschitz estimates of f and of F_T, a whole-array
reference for the chunked pair pass, and random trees and specs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lipdisc import NumericalError, SamplingConfig, SystemSpec, benchmarks
from lipdisc import constants
from lipdisc.constants import sample_pairs, sup_pair_quotient
from lipdisc.expr import _FUNCTIONS, Binary, Const, Pow, Unary, Var
from lipdisc.system import _Template


# ``--hypothesis-profile=ci`` runs the same examples on every run and
# keeps no example database, so a failure in CI reproduces locally with
# the same flag; without it, runs draw new examples. ``fuzz`` does the
# same at 1,500 examples a test, for the exit-contract test outside tier 1
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=True, database=None, max_examples=1500)


@pytest.fixture(scope="session")
def bench():
    """All bundled benchmark specs, keyed by name."""
    return {name: benchmarks.load(name) for name in benchmarks.names()}


# the benchmark's probe, a 4-state coupled pendulum with one input
# (n + m = 5): most of its J and H entries are constants, and x2 -> -x2
# gives exact grid ties
PROBE = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "specs" / "coupled-pendulum.json").read_text()
)


@pytest.fixture(scope="session")
def probe():
    """The spec of :data:`PROBE`."""
    return SystemSpec.from_dict(PROBE)


@pytest.fixture(scope="session")
def default_cfg():
    return SamplingConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    return SamplingConfig(grid_per_axis=11, pair_budget=2000, seed=7, polish_iters=20)


# random trees over x1, x2, u1, u2 with every operator, signed zeros and
# non-finite constants, and points that reach domain errors, overflows
# and (with one state) an out-of-range variable
expr_trees = st.recursive(
    st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, 0.5, 3.0, 1e300]) | st.floats())
    | st.builds(Var, st.sampled_from("xu"), st.integers(1, 2)),
    lambda kids: st.builds(
        Unary,
        st.sampled_from(["neg", "sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "tanh", "sign"]),
        kids,
    )
    | st.builds(Binary, st.sampled_from("+-*/"), kids, kids)
    | st.builds(Pow, kids, st.integers(0, 5)),
    max_leaves=10,
)
expr_points = st.lists(
    st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e3, -1e3]), min_size=1, max_size=2
)



def _f_texts(n, m):
    """Text over x1..xn and u1..um that ``expr.parse`` accepts."""
    names = [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
    return st.recursive(
        st.sampled_from(["0", "1", "0.5", "3", "1e3", *names]),
        lambda kids: st.builds("{}({})".format, st.sampled_from(_FUNCTIONS), kids)
        | st.builds("({} {} {})".format, kids, st.sampled_from("+-*/"), kids)
        | st.builds("({})^{}".format, kids, st.integers(0, 5))
        | st.builds("-{}".format, kids),
        max_leaves=6,
    )


def _boxes(dim):
    ends = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -1e3, 1e3])
    sides = st.lists(st.tuples(ends, ends).map(sorted), min_size=dim, max_size=dim)
    return sides.map(lambda s: {"lower": [a for a, _ in s], "upper": [b for _, b in s]})


@st.composite
def spec_dicts(draw):
    """JSON spec objects with n <= 3 states and m <= 1 inputs, f as text,
    A and C with entries in [-1e3, 1e3], boxes within +-1e3 (not always
    around the origin) and T in {0.01, 0.1, 1}."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    matrix = lambda rows: st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), min_size=rows, max_size=rows
    )
    spec = {
        "name": "drawn",
        "A": draw(matrix(n)),
        "C": draw(matrix(1)),
        "f": draw(st.lists(_f_texts(n, m), min_size=n, max_size=n)),
        "region": draw(_boxes(n)),
        "T": draw(st.sampled_from([0.01, 0.1, 1.0])),
    }
    if m:
        spec["input_region"] = draw(_boxes(m))
    return spec


def float_bits(values) -> list:
    """The bit patterns of float values, every NaN as the default NaN.
    IEEE 754 leaves the sign and payload of a NaN result open, and
    CPython does not fix them: with both operands NaN, ``a * b`` can
    return either one, depending on whether the interpreter has
    specialised that multiplication yet."""
    v = np.asarray(values, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.int64).tolist()


def fd_step(value: float) -> float:
    return 1e-6 * max(1.0, abs(value))


def point_array(template, x, u) -> np.ndarray:
    """A template's entries at one point, from its point list, as an
    array of its shape."""
    return np.array(template.point(x, u)).reshape(template.shape)


def batch_column(tree, x, u) -> np.ndarray:
    """One tree over the rows of (x, u) as an (N,) column, through a
    template of that tree alone: its batch kernel, or its constant."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    return _Template([tree], (1,)).batch(x, u)[:, 0]


def central_diff(fn, x, idx):
    """Central finite difference of fn in coordinate idx at x."""
    h = fd_step(x[idx])
    hi = np.array(x, dtype=float)
    lo = np.array(x, dtype=float)
    hi[idx] += h
    lo[idx] -= h
    return (fn(hi) - fn(lo)) / (2.0 * h)


def sample_points(spec, count, seed):
    """Seeded uniform points in D x U for a spec."""
    rng = np.random.default_rng(seed)
    xs = spec.region.lower + rng.random((count, spec.n)) * spec.region.width
    us = (
        spec.input_region.lower
        + rng.random((count, spec.m)) * spec.input_region.width
    )
    return xs, us


def expm(a, t=1.0):
    """exp(A t) by scaling and squaring with a truncated Taylor core.

    The scaled matrix has norm <= 1/2, where 16 Taylor terms leave a
    remainder below 1e-19; squaring restores the full exponent.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a * t
    norm = float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = m / (2.0**squarings)
    eye = np.eye(a.shape[0])
    acc = eye.copy()
    for k in range(16, 0, -1):
        acc = eye + (b / k) @ acc
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def pair_quotient(map_batch, s, cfg, one_sided, pairs=None):
    """Quotient supremum of ``map_batch(X, U)`` over the pair sample of
    ``cfg`` (or ``pairs``), evaluating the map on both endpoints."""
    if pairs is None:
        pairs = sample_pairs(s, cfg)
    x1, x2, u = pairs.x1, pairs.x2, pairs.u
    (sup,) = sup_pair_quotient(
        pairs, lambda rows: [(map_batch(x1[rows], u[rows]), map_batch(x2[rows], u[rows]))],
        (one_sided,),
    )
    return sup.result("empirical quotient")


def grid_of(s, cfg):
    """The grid ``estimate_all`` runs on for ``cfg``: its rows and its
    effective per-axis count."""
    g = constants._effective_grid(s.n + s.m, cfg.grid_per_axis)
    return constants.grid_points(s, g), g


def gamma_c_of(s, cfg):
    """gamma_c and its witness, as ``estimate_all`` takes them."""
    pts, g = grid_of(s, cfg)
    return constants.estimate_gamma_c(s, pts, g, cfg.polish_iters)


def beta_and_m_of(s, cfg):
    """beta, M and their witnesses, as ``estimate_all`` takes them."""
    return constants.estimate_beta_and_m(s, grid_of(s, cfg)[0])


def rho_c_of(s, cfg):
    """f's one-sided quotient supremum over the pair sample of ``cfg``:
    ``estimate_all``'s rho_c."""
    return pair_quotient(s.eval_f_batch, s, cfg, one_sided=True)


def whole_array_pair_quotient(pairs, images, one_sided):
    """The quotient supremum over whole image arrays, with the masks,
    the rescale of overflowing rows, the -inf rule and the single
    ``argmax`` that the chunked pass of ``sup_pair_quotient`` must
    reproduce bit for bit."""
    m1, m2 = images
    dx = pairs.x1 - pairs.x2
    dist_sq = np.einsum("ij,ij->i", dx, dx)
    with np.errstate(all="ignore"):
        dm = m1 - m2
        ok = np.isfinite(m1[:, 0])
        for column in (*m1.T[1:], *m2.T):
            ok &= np.isfinite(column)
        failures = len(ok) - int(np.count_nonzero(ok))
        if failures > 0.1 * len(ok):
            raise NumericalError(f"{failures}/{len(ok)} pair evaluations failed (domain errors)")
        ok &= dist_sq > 0.0
        if not np.any(ok):
            raise NumericalError("no valid pairs to evaluate")
        quotients = np.einsum("ij,ij->i", dm, dx if one_sided else dm)
        np.divide(quotients, dist_sq, out=quotients, where=ok)
        if not one_sided:
            np.sqrt(quotients, out=quotients, where=ok)
        # rows whose quotient overflows, again with both images and dx
        # scaled by powers of two: only a quotient above the largest float
        # stays infinite
        redo = ok & ~(np.isfinite(quotients) & np.isfinite(dist_sq))
        em = np.frexp(np.maximum(np.abs(m1).max(axis=1), np.abs(m2).max(axis=1)))[1][redo]
        ex = np.frexp(np.abs(dx).max(axis=1))[1][redo]
        sdm = np.ldexp(m1[redo], -em[:, None]) - np.ldexp(m2[redo], -em[:, None])
        sdx = np.ldexp(dx[redo], -ex[:, None])
        q = np.einsum("ij,ij->i", sdm, sdx if one_sided else sdm) / np.einsum("ij,ij->i", sdx, sdx)
        quotients[redo] = np.ldexp(q if one_sided else np.sqrt(q), em - ex)
    quotients[~ok] = -np.inf
    best = int(np.argmax(quotients))
    if quotients[best] == -np.inf:  # every valid quotient is -inf: the first valid pair
        best = int(np.argmax(ok))
    witness = {
        "x1": pairs.x1[best].tolist(),
        "x2": pairs.x2[best].tolist(),
        "u": pairs.u[best].tolist(),
    }
    return float(quotients[best]), witness


def empirical_gamma_c(s, cfg, pairs=None):
    """Pair-quotient Lipschitz estimate of f itself, on the same sample
    set the model estimators use (the order-1 map scales it by T)."""
    return pair_quotient(s.eval_f_batch, s, cfg, one_sided=False, pairs=pairs)


def empirical_lipschitz(mdl, s, cfg, pairs=None):
    """Empirical sup of ||F_T(x1,u) - F_T(x2,u)|| / ||x1 - x2||."""
    return pair_quotient(mdl.f_t_batch, s, cfg, one_sided=False, pairs=pairs)


def empirical_one_sided(mdl, s, cfg, pairs=None):
    """Empirical sup of <F_T(x1,u) - F_T(x2,u), x1 - x2> / ||x1 - x2||^2."""
    return pair_quotient(mdl.f_t_batch, s, cfg, one_sided=True, pairs=pairs)
