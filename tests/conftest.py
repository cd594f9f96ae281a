"""Shared fixtures, finite-difference and matrix-exponential oracles, and
the pair-quotient Lipschitz estimates of f and of F_T."""

import math

import numpy as np
import pytest

from lipdisc import SamplingConfig, SystemSpec, benchmarks
from lipdisc.constants import sample_pairs, sup_pair_quotient


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
    images = map_batch(pairs.x1, pairs.u), map_batch(pairs.x2, pairs.u)
    return sup_pair_quotient(pairs, images, one_sided)


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
