"""Shared fixtures, finite-difference and matrix-exponential oracles,
the pair-quotient Lipschitz estimates of f and of F_T, and a whole-array
reference for the chunked pair pass."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lipdisc import NumericalError, SamplingConfig, SystemSpec, benchmarks
from lipdisc.constants import sample_pairs, sup_pair_quotient
from lipdisc.expr import Binary, Const, Pow, Unary, Var


# ``--hypothesis-profile=ci`` runs the same examples on every run and
# keeps no example database, so a failure in CI reproduces locally with
# the same flag; without it, runs draw new examples
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def bench():
    """All bundled benchmark specs, keyed by name."""
    return {name: benchmarks.load(name) for name in benchmarks.names()}


@pytest.fixture(scope="session")
def probe():
    """A 4-state coupled pendulum with one input (n + m = 5): most of its
    J and H entries are constants, and x2 -> -x2 gives exact grid ties."""
    return SystemSpec.from_dict(
        {
            "name": "coupled-pendulum",
            "A": [[0, 1, 0, 0], [-1, -0.2, 0.5, 0], [0, 0, 0, 1], [0.5, 0, -1, -0.2]],
            "C": [[1, 0, 0, 0], [0, 0, 1, 0]],
            "f": ["0", "-sin(x1) + 0.1*x2*x3", "0", "-sin(x3) + u1"],
            "region": {"lower": [-1, -1, -1, -1], "upper": [1, 1, 1, 1]},
            "input_region": {"lower": [-0.2], "upper": [0.2]},
            "T": 0.1,
        }
    )


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
