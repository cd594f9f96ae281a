"""Region constant estimators: examples, invariants, failure policy,
and the grid norm reduction with its power-iteration re-rank."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lipdisc import (
    BoxRegion,
    NumericalError,
    SamplingConfig,
    SystemSpec,
    estimate_all,
    estimate_beta_and_m,
    estimate_gamma_c,
    estimate_rho_c,
    parse,
)
from lipdisc import constants
from lipdisc.constants import _norm_rows, grid_points, sup_pair_quotient
from lipdisc.discretize import _CHUNK_ROWS as _CHUNK
from lipdisc.expr import ExprError
from lipdisc.linalg import _power_iteration

from conftest import float_bits, whole_array_pair_quotient


def _scalar_spec(f_text, lower, upper, name="scalar"):
    return SystemSpec(
        name=name,
        a=[[0.0]],
        c=[[1.0]],
        f=(parse(f_text),),
        region=BoxRegion([lower], [upper]),
        sampling_time=0.1,
    )


def _with_region(spec, factor):
    import dataclasses

    return dataclasses.replace(spec, region=spec.region.scaled(factor))


def _dense_grid_sup(fn, lower, upper, count=100_000):
    xs = np.linspace(lower, upper, count)
    return float(np.max(fn(xs)))


# ---------------------------------------------------------------------------
# gamma_c

def test_gamma_sin_peaks_at_origin(fast_cfg):
    spec = _scalar_spec("-sin(x1)", -1.5, 2.0)
    value, witness = estimate_gamma_c(spec, fast_cfg)
    oracle = _dense_grid_sup(lambda x: np.abs(-np.cos(x)), -1.5, 2.0)
    assert value == pytest.approx(oracle, abs=1e-3)
    assert abs(witness["x"][0]) <= 1e-6


def test_gamma_linear_system_is_zero(bench, fast_cfg):
    value, _ = estimate_gamma_c(bench["linear-2d"], fast_cfg)
    assert value == 0.0


def test_gamma_cubic_attained_at_boundary(fast_cfg):
    spec = _scalar_spec("x1^3", -2.0, 2.0)
    value, witness = estimate_gamma_c(spec, fast_cfg)
    oracle = _dense_grid_sup(lambda x: 3.0 * x**2, -2.0, 2.0)
    assert value == pytest.approx(oracle, abs=1e-3)
    assert abs(abs(witness["x"][0]) - 2.0) <= 1e-9


def test_gamma_polish_recovers_interior_peak(fast_cfg):
    # |cos| peaks at 0.3, strictly between the 11-point mesh nodes
    spec = _scalar_spec("-sin(x1 - 0.3)", -1.0, 1.0)
    value, witness = estimate_gamma_c(spec, fast_cfg)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert witness["x"][0] == pytest.approx(0.3, abs=1e-3)


# ---------------------------------------------------------------------------
# rho_c

def test_rho_negative_cubic_approaches_zero(fast_cfg):
    spec = _scalar_spec("-x1^3", -2.0, 2.0)
    value, _ = estimate_rho_c(spec, fast_cfg)
    # quotient is -(x1^2 + x1 x2 + x2^2) <= 0 with sup 0 in the joint limit
    assert value <= 0.0
    assert value == pytest.approx(0.0, abs=1e-3)


def test_rho_linear_system_is_zero(bench, fast_cfg):
    value, _ = estimate_rho_c(bench["linear-2d"], fast_cfg)
    assert value == 0.0


def test_rho_identity_nonlinearity(fast_cfg):
    spec = _scalar_spec("x1", -1.0, 1.0)
    value, _ = estimate_rho_c(spec, fast_cfg)
    assert value == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# beta and M

def test_beta_m_linear(bench, fast_cfg):
    beta, big_m, _ = estimate_beta_and_m(bench["linear-2d"], fast_cfg)
    assert beta == 0.0 and big_m == 0.0


def test_beta_m_cubic(fast_cfg):
    spec = _scalar_spec("x1^3", -2.0, 2.0)
    beta, big_m, witnesses = estimate_beta_and_m(spec, fast_cfg)
    assert beta == pytest.approx(12.0, abs=1e-3)  # sup |6 x|
    assert big_m == pytest.approx(8.0, abs=1e-3)  # sup |x|^3
    assert abs(abs(witnesses["beta"]["x"][0]) - 2.0) <= 1e-9


def test_beta_m_pendulum(bench, fast_cfg):
    beta, big_m, _ = estimate_beta_and_m(bench["pendulum"], fast_cfg)
    assert beta == pytest.approx(np.sin(1.0), abs=1e-3)
    assert big_m == pytest.approx(np.sin(1.0), abs=1e-3)


# ---------------------------------------------------------------------------
# invariants

def test_one_sided_never_exceeds_two_sided(bench, default_cfg):
    for name, spec in bench.items():
        gamma, _ = estimate_gamma_c(spec, default_cfg)
        rho, _ = estimate_rho_c(spec, default_cfg)
        assert rho <= gamma + 1e-9, name


def test_estimates_monotone_in_region(bench, fast_cfg):
    for name, spec in bench.items():
        previous = None
        for factor in (1.0, 0.5, 0.25):
            shrunk = _with_region(spec, factor)
            est = estimate_all(shrunk, fast_cfg)
            values = (est.gamma_c, est.rho_c, est.beta, est.big_m)
            if previous is not None:
                for before, after in zip(previous, values):
                    assert after <= before + 1e-12, (name, factor)
            previous = values


def test_grid_refinement_never_decreases(bench, fast_cfg):
    import dataclasses

    doubled = dataclasses.replace(fast_cfg, grid_per_axis=2 * fast_cfg.grid_per_axis - 1)
    for name, spec in bench.items():
        coarse_gamma, _ = estimate_gamma_c(spec, fast_cfg)
        fine_gamma, _ = estimate_gamma_c(spec, doubled)
        assert fine_gamma >= coarse_gamma - 1e-12, name
        coarse = estimate_beta_and_m(spec, fast_cfg)
        fine = estimate_beta_and_m(spec, doubled)
        assert fine[0] >= coarse[0] - 1e-12, name
        assert fine[1] >= coarse[1] - 1e-12, name


def test_determinism_across_runs_and_workers(bench, fast_cfg):
    spec = bench["van-der-pol"]
    first = estimate_all(spec, fast_cfg)
    second = estimate_all(spec, fast_cfg)
    assert first.gamma_c == second.gamma_c
    assert first.rho_c == second.rho_c
    assert first.beta == second.beta
    assert first.big_m == second.big_m
    assert first.witnesses == second.witnesses


def test_witnesses_stay_inside_the_region(bench, fast_cfg):
    for spec in bench.values():
        est = estimate_all(spec, fast_cfg)
        for key in ("gamma_c", "beta", "big_m"):
            assert spec.region.contains(est.witnesses[key]["x"])
            assert spec.input_region.contains(est.witnesses[key]["u"])
        for point in ("x1", "x2"):
            assert spec.region.contains(est.witnesses["rho_c"][point])


# ---------------------------------------------------------------------------
# failure policy and grid capping

def test_majority_domain_failures_raise(fast_cfg):
    # ln is undefined on half of [-1, 1]; far beyond the 10% skip budget
    spec = _scalar_spec("ln(x1)", -1.0, 1.0)
    with pytest.raises(NumericalError):
        estimate_rho_c(spec, fast_cfg)


def test_grid_total_is_capped(bench):
    cfg = SamplingConfig(grid_per_axis=2000, pair_budget=1000)
    pts = grid_points(bench["van-der-pol"], cfg)  # 3 axes
    assert pts.shape[0] <= 1_000_000
    assert pts.shape[1] == 3


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(grid_per_axis=1)
    with pytest.raises(ValueError):
        SamplingConfig(pair_budget=10)
    with pytest.raises(ValueError, match="^seed: must be >= 0, got -1$"):
        SamplingConfig(seed=-1)


# ---------------------------------------------------------------------------
# grid norm reduction: the Gram 2-norm plus the power iteration's re-rank
# of the near-max band

def _power_kernel(mat):
    """The power iteration on one matrix, or on an order-3 tensor's mode-1
    unfolding; NaN where it fails."""
    return float(_power_iteration(mat.reshape(1, mat.shape[0], -1))[0])


def _kernel_rows(stack):
    """``_power_kernel`` on every row (NaN where non-finite), computed once
    per distinct bit pattern since the kernel is a pure function."""
    flat = np.ascontiguousarray(stack.reshape(stack.shape[0], -1))
    keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    out = [_power_kernel(stack[i]) if np.isfinite(stack[i]).all() else np.nan for i in first]
    return np.array(out)[inverse.ravel()]


def _assert_same_sup(stack):
    got = _norm_rows(stack)
    want = _kernel_rows(stack)
    # NaN only where the kernel fails too; off the band a kernel failure
    # (power iteration not converging) keeps the Gram value
    assert not (np.isnan(got) & ~np.isnan(want)).any()
    best = int(np.nanargmax(want))
    assert int(np.nanargmax(got)) == best
    assert got[best].hex() == want[best].hex()  # same bits, not just close


def _grid_stacks(spec, grid):
    cfg = SamplingConfig(grid_per_axis=grid, pair_budget=1000)
    pts = grid_points(spec, cfg)
    x, u = pts[:, : spec.n], pts[:, spec.n :]
    return spec.jacobian_batch(x, u), spec.second_derivative_batch(x, u)


@pytest.mark.parametrize("name", ["linear-2d", "pendulum", "cubic-scalar", "van-der-pol"])
def test_screen_matches_exact_kernel_on_bundled_specs(bench, name):
    jac, hess = _grid_stacks(bench[name], SamplingConfig().grid_per_axis)
    _assert_same_sup(jac)
    _assert_same_sup(hess)


@pytest.mark.parametrize("grid", [5, 9])
def test_screen_matches_exact_kernel_on_probe_ties(probe, grid):
    jac, hess = _grid_stacks(probe, grid)
    # the x2 -> -x2 symmetry makes many exactly tied grid maxima
    _assert_same_sup(jac)
    _assert_same_sup(hess)


def _planted_ties(gap, seed=3):
    """Sign and permutation copies of a matrix with sigma2/sigma1 = 1 - gap,
    where the power iteration converges slowly, plus one smaller copy."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = u @ np.diag([2.0, 2.0 * (1.0 - gap), 0.7]) @ v.T
    copies = [0.5 * base]
    for perm in itertools.permutations(range(3)):
        for sign in (1.0, -1.0):
            copies.append(sign * base[list(perm)])
            copies.append(sign * base[:, list(perm)])
    return np.array(copies)


@pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3])
def test_screen_resolves_planted_ties_like_the_exact_kernel(gap):
    stack = _planted_ties(gap)
    _assert_same_sup(stack)
    _assert_same_sup(stack.reshape(-1, 3, 3, 1))


def _record_slices(monkeypatch, name="_power_iteration", kernel=None):
    """Record the slices given to the stacked kernel ``name`` of
    ``constants``, run on each slice by ``kernel`` if given; returns the
    list of them."""
    calls, real = [], getattr(constants, name)

    def stacked(mats):
        calls.extend(mats)
        return real(mats) if kernel is None else np.array([kernel(mat) for mat in mats])

    monkeypatch.setattr(constants, name, stacked)
    return calls


def test_screen_calls_kernel_once_per_distinct_band_matrix(monkeypatch):
    calls = _record_slices(monkeypatch)
    tied = np.array([[[3.0, 0.0], [0.0, 1.0]]] * 4 + [[[1.0, 0.0], [0.0, 1.0]]] * 3)
    vals = _norm_rows(tied)
    assert len(calls) == 1
    assert np.array_equal(vals[:4], [3.0] * 4)
    assert int(np.argmax(vals)) == 0


def test_screen_widens_band_when_kernel_falls_short(monkeypatch):
    # kernel <= 2-norm on every row, but row 0 falls far below its screen
    stack = np.array([np.diag([1.0, 0.0]), np.diag([0.9, 0.0]), np.diag([0.5, 0.0])])
    exact = {1.0: 0.8, 0.9: 0.9, 0.5: 0.5}
    slices = _record_slices(monkeypatch, kernel=lambda mat: exact[mat[0, 0]])
    monkeypatch.setattr(constants, "_SCREEN_BAND", 0.01)
    vals = _norm_rows(stack)
    calls = [mat[0, 0] for mat in slices]
    assert calls[0] == 1.0 and len(calls) == 3  # band {row 0} widened to all rows
    assert vals.tolist() == [0.8, 0.9, 0.5]


def test_screen_widening_with_a_tiny_band_keeps_the_exact_sup(monkeypatch):
    # the power iteration on ``slow`` stops about 1e-12 below its 2-norm;
    # ``fast`` screens 1e-14 lower but is exact, so it is the true argmax,
    # found only after the 1e-15 band around ``slow`` widens
    ties = _planted_ties(1e-3)
    screen = np.linalg.norm(ties, ord=2, axis=(1, 2))
    undershoot = 1.0 - _power_iteration(ties) / screen
    slow = ties[np.argmax(undershoot)]
    assert undershoot.max() > 1e-13
    fast = np.diag([np.linalg.norm(slow, ord=2) * (1.0 - 1e-14), 0.5, 0.1])
    stack = np.array([slow, fast])
    monkeypatch.setattr(constants, "_SCREEN_BAND", 1e-15)
    _assert_same_sup(stack)
    calls = _record_slices(monkeypatch)
    vals = _norm_rows(stack)
    assert len(calls) == 2 and int(np.argmax(vals)) == 1


def test_screen_all_zero_stacks():
    vals = _norm_rows(np.zeros((6, 2, 2)))
    assert vals.tolist() == [0.0] * 6
    vals = _norm_rows(np.zeros((6, 2, 2, 2)))
    assert vals.tolist() == [0.0] * 6


def test_screen_all_nonfinite_stack_fails_the_grid(fast_cfg):
    stack = np.full((5, 2, 2), np.nan)
    stack[0, 0, 0] = np.inf
    assert np.isnan(_norm_rows(stack)).all()
    spec = _scalar_spec("sqrt(x1)", -3.0, 0.0)  # J, H: NaN below 0, inf at 0
    with pytest.raises(NumericalError):
        estimate_gamma_c(spec, fast_cfg)
    with pytest.raises(NumericalError):
        estimate_beta_and_m(spec, fast_cfg)


def test_screen_keeps_finite_rows_beside_nonfinite_ones():
    stack = np.array([np.diag([2.0, 1.0]), np.full((2, 2), np.nan), np.diag([3.0, 1.0])])
    vals = _norm_rows(stack)
    assert np.isnan(vals[1])
    assert vals[2] == _power_kernel(stack[2]) and vals[0] == pytest.approx(2.0)


def _count_lipdisc_eigvalsh(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh to record the shape of each call made from
    lipdisc.linalg."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "lipdisc.linalg":
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_screen_of_one_or_two_live_rows_calls_no_lapack(bench, probe, monkeypatch):
    # every bundled f has f1 = 0 (cubic-scalar has n = 1) and the probe's f
    # is (0, ., 0, .): J and the H unfolding have at most two live rows, f
    # has one as a 1 x n matrix, and only the probe's A is dense beyond 2 x 2
    calls = _count_lipdisc_eigvalsh(monkeypatch)
    for name in ["linear-2d", "pendulum", "cubic-scalar", "van-der-pol"]:
        estimate_all(bench[name], SamplingConfig(grid_per_axis=21, pair_budget=1000))
    estimate_all(probe, SamplingConfig(grid_per_axis=5, pair_budget=1000))
    assert calls == [(1, 4, 4)]


def test_screen_of_three_live_rows_takes_lapack_and_keeps_the_2_norm(monkeypatch):
    spec = SystemSpec.from_dict({
        "name": "dense3", "A": [[0, 1, 0], [0, 0, 1], [-1, -1, -1]], "C": [[1, 0, 0]],
        "f": ["sin(x2) + x3^2", "x1*x3 - cos(x1)", "x1*x2 + 0.5*x3^3"],
        "region": {"lower": [-1, -1, -1], "upper": [1, 1, 1]}, "T": 0.1,
    })
    calls = _count_lipdisc_eigvalsh(monkeypatch)
    jac, hess = _grid_stacks(spec, 5)
    for stack in (jac, hess.reshape(len(hess), 3, 9)):
        want = np.linalg.svd(stack, compute_uv=False)[:, 0]
        np.testing.assert_allclose(constants.max_singular_values(stack), want, rtol=1e-13, atol=0.0)
    assert calls == [(125, 3, 3), (125, 3, 3)]
    estimate_all(spec, SamplingConfig(grid_per_axis=5, pair_budget=1000, polish_iters=2))
    # the gamma_c and beta grids, the polish's candidate batches and A
    assert calls.count((125, 3, 3)) == 4 and calls[-1] == (1, 3, 3) and len(calls) > 5


@pytest.mark.parametrize(
    "lower, upper, fails", [(-1.0, 19.0, False), (-2.0, 18.0, True)]
)
def test_nonfinite_grid_rows_count_toward_failure_rule(lower, upper, fails):
    # 21 integer nodes; sqrt' is NaN below 0 and inf at 0: 2/21 ok, 3/21 > 10%
    spec = _scalar_spec("sqrt(x1)", lower, upper)
    cfg = SamplingConfig(grid_per_axis=21, pair_budget=1000, polish_iters=0)
    if fails:
        with pytest.raises(NumericalError):
            estimate_gamma_c(spec, cfg)
        with pytest.raises(NumericalError):
            estimate_beta_and_m(spec, cfg)
    else:
        gamma, _ = estimate_gamma_c(spec, cfg)
        beta, _, _ = estimate_beta_and_m(spec, cfg)
        assert gamma == pytest.approx(0.5)  # 1/(2 sqrt(1))
        assert beta == pytest.approx(0.25)  # 1/(4 sqrt(1)^3)


# ---------------------------------------------------------------------------
# gamma_c polish: batched candidates, one kernel call per batch and one
# score per distinct Jacobian

def _sequential_polish(objective, start, lower, upper, steps, iters):
    # the polish one candidate at a time: the objective at every candidate
    x = start.astype(float).copy()
    best = objective(x)
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
                val = objective(cand)
                if val > best:
                    best = val
                    x = cand
        h *= 0.5
    return best, x


def _svd_sigma(spec, z):
    """||df/dx|| at z by LAPACK's SVD; -inf where J fails."""
    try:
        jac = spec.jacobian(z[: spec.n], z[spec.n :])
    except (ExprError, ValueError):
        return -np.inf
    return float(np.linalg.svd(jac, compute_uv=False)[0]) if np.isfinite(jac).all() else -np.inf


def _assert_polish_reads_the_2_norm(spec, cfg, monkeypatch):
    """The polished value is the SVD's 2-norm at its witness within 1e-13,
    and at least the grid's value (the power iteration's, within 1e-13 of
    the Gram norm it starts from); gamma_c is the greater of the two."""
    real, seen = constants._polish, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(constants, "_polish", spy)
    gamma, _ = estimate_gamma_c(spec, cfg)
    [(value, point)] = seen
    pts = grid_points(spec, cfg)
    grid = float(np.nanmax(_norm_rows(spec.jacobian_batch(pts[:, : spec.n], pts[:, spec.n :]))))
    assert value == pytest.approx(_svd_sigma(spec, point), rel=1e-13, abs=0.0), spec.name
    assert value >= grid * (1.0 - 1e-13), spec.name
    assert gamma == max(value, grid), spec.name


@pytest.mark.parametrize("grid", [2, 5, 21])
def test_screened_polish_keeps_the_unscreened_path(bench, probe, monkeypatch, grid):
    cfg = SamplingConfig(grid_per_axis=grid, pair_budget=1000)
    for spec in [*bench.values(), probe]:
        _assert_polish_reads_the_2_norm(spec, cfg, monkeypatch)


@pytest.mark.parametrize("grid", [2, 5, 11])
def test_screened_polish_keeps_the_path_to_interior_peaks(monkeypatch, grid):
    cfg = SamplingConfig(grid_per_axis=grid, pair_budget=1000)
    for spec in (_scalar_spec("-sin(x1 - 0.3)", -1.0, 1.0), _peaked_spec()):
        _assert_polish_reads_the_2_norm(spec, cfg, monkeypatch)


def test_screened_polish_keeps_the_path_through_failing_points(monkeypatch):
    # sqrt' is inf at 0, where the polish steps from the grid max at 0.05
    spec = _scalar_spec("sqrt(x1)", 0.0, 1.0)
    _assert_polish_reads_the_2_norm(
        spec, SamplingConfig(grid_per_axis=21, pair_budget=1000), monkeypatch
    )


def _peaked_spec():
    # peaks between mesh nodes: the polish accepts ever smaller gains
    return SystemSpec.from_dict({
        "name": "peaked", "A": [[0, 1], [-1, 0]], "C": [[1, 0]], "T": 0.1,
        "f": ["-sin(x1 - 0.3) * cos(x2 + 0.2) + 0.1*u1*x2", "0.5*sin(x1*x2 - 0.1)"],
        "region": {"lower": [-1, -1], "upper": [1, 1]},
        "input_region": {"lower": [-0.5], "upper": [0.5]},
    })


def test_screened_polish_scores_each_distinct_jacobian_once(probe, monkeypatch):
    slices = _record_slices(monkeypatch, "max_singular_values")
    real, start = constants._polish, []

    def spy(*args):
        start.append(len(slices))  # the slices before it are the grid's
        return real(*args)

    monkeypatch.setattr(constants, "_polish", spy)
    estimate_gamma_c(probe, SamplingConfig(grid_per_axis=2, pair_budget=1000))
    polish = [mat.tobytes() for mat in slices[start[0]:]]
    assert polish and len(polish) == len(set(polish))
    assert len(polish) <= 160  # 151 distinct of the 289 Jacobians it evaluates


@pytest.mark.parametrize("grid", [5, 11])
def test_batched_polish_evaluates_at_most_twice_the_sequential_jacobians(monkeypatch, grid):
    spec, cfg = _peaked_spec(), SamplingConfig(grid_per_axis=grid, pair_budget=1000)
    real_polish, real_jacobian, counts = constants._polish, SystemSpec.jacobian, []

    def counting_jacobian(self, x, u=()):
        counts[-1] += 1
        return real_jacobian(self, x, u)

    def spy(s, start, lower, upper, steps, iters):
        counts.append(0)  # the sequential polish: one Jacobian per candidate
        _sequential_polish(lambda z: _svd_sigma(spec, z), start, lower, upper, steps, iters)
        counts.append(0)
        return real_polish(s, start, lower, upper, steps, iters)

    monkeypatch.setattr(SystemSpec, "jacobian", counting_jacobian)
    monkeypatch.setattr(constants, "_polish", spy)
    estimate_gamma_c(spec, cfg)
    sequential, batched = counts
    assert sequential > 100
    assert batched <= 2 * sequential


def _exp_spec(upper):
    return SystemSpec.from_dict({
        "name": "overflowing",
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "C": [[1.0, 0.0]],
        "f": ["exp(x1) - x2", "x1"],
        "region": {"lower": [0.0, -1.0], "upper": [upper, 1.0]},
        "T": 0.1,
    })


def test_m_grid_counts_only_non_finite_f_as_failed():
    # exp(x1) overflows only at x1 = 715 (21 of 441 points); at the 210
    # points with x1 in [357.5, 679.25] ||f||^2 overflows but ||f|| does not
    spec = _exp_spec(715.0)
    _, big_m, witnesses = estimate_beta_and_m(spec, SamplingConfig(pair_budget=1000))
    assert big_m == pytest.approx(math.exp(679.25), rel=1e-15)
    assert witnesses["big_m"]["x"] == [679.25, -1.0]
    # rows whose square sum is finite keep the plain norm's bits
    _, small_m, _ = estimate_beta_and_m(_exp_spec(350.0), SamplingConfig(pair_budget=1000))
    f = spec.eval_f_batch(np.array([[350.0, -1.0]]), np.zeros((1, 0)))
    assert small_m == np.sqrt(np.einsum("ij,ij->i", f, f))[0]


def _twin_spec(g):
    # f = (g, g) on [-1, 1]^2: J has two equal rows, so ||J|| = sqrt(2) ||dg/dx||
    return SystemSpec.from_dict({
        "name": "twin", "A": [[0, 0], [0, 0]], "C": [[1, 0]], "T": 0.1, "f": [g, g],
        "region": {"lower": [-1, -1], "upper": [1, 1]},
    })


def test_gamma_c_grid_norm_above_the_largest_float_raises_naming_it():
    # ||J|| = 2e308 at the corners, with every J finite
    with pytest.raises(NumericalError, match="^gamma_c: a grid norm overflows to inf$"):
        estimate_gamma_c(_twin_spec("1e308*x1*x2"), SamplingConfig())


def test_gamma_c_polish_reaching_a_norm_above_the_largest_float_raises():
    # g' = 1.2e308 (1 + 0.1 cos(10 pi (x1 - 0.3))) is 0.9 x 1.2e308 at every
    # node of the 11-point mesh and 1.1 x 1.2e308 between them: the grid
    # supremum is finite, and the polish steps onto a norm of 1.87e308
    g = "1.2e308*(x1 + sin(31.41592653589793*(x1 - 0.3))/314.1592653589793)"
    spec = _twin_spec(g)
    cfg = SamplingConfig(grid_per_axis=11, pair_budget=1000)
    values = _norm_rows(spec.jacobian_batch(grid_points(spec, cfg), np.zeros((121, 0))))
    assert np.isfinite(values).all()
    with pytest.raises(NumericalError, match="^gamma_c: a grid norm overflows to inf$"):
        estimate_gamma_c(spec, cfg)


def test_probe_pairs_of_an_overflowing_gram_matrix_emit_no_warning():
    # at the center x1 = 357.5, J^T J overflows; pytest turns a RuntimeWarning
    # into an error, and the rescaled J still gives a finite probe direction
    spec = _exp_spec(715.0)
    pairs = constants.sample_pairs(spec, SamplingConfig(pair_budget=1000))
    probes = pairs.x1[1000:], pairs.x2[1000:]
    assert probes[0].shape[0] >= 2
    assert np.isfinite(probes[1]).all()
    assert [357.5, 0.0] in probes[0].tolist()


def _per_anchor_probe_pairs(s):
    """The probe pairs one anchor and one eigh call at a time, with the
    count of anchors whose J raises, is non-finite or has an overflowing
    J^T J, and of the pairs that the clip leaves at x1."""
    rows, counts = [], {"raises": 0, "non_finite": 0, "rescaled": 0, "dropped": 0}
    for xa in constants._box_anchors(s.region.lower, s.region.upper, 1e-5):
        for ua in constants._box_anchors(s.input_region.lower, s.input_region.upper, 0.0):
            try:
                jac = s.jacobian(xa, ua)
            except ExprError:
                counts["raises"] += 1
                continue
            if not np.isfinite(jac).all():
                counts["non_finite"] += 1
                continue
            with np.errstate(over="ignore"):
                gram = jac.T @ jac
            if not np.isfinite(gram).all():
                counts["rescaled"] += 1
                jac = np.ldexp(jac, -math.frexp(float(np.abs(jac).max()))[1])
                gram = jac.T @ jac
            for mat in (0.5 * (jac + jac.T), gram):
                v = np.linalg.eigh(mat)[1][:, -1]
                xb = np.clip(xa + 1e-5 * v, s.region.lower, s.region.upper)
                if (xb != xa).any():
                    rows.append((xa, xb, ua))
                else:
                    counts["dropped"] += 1
    return rows, counts


def _wide_spec(n, m):
    # n > 10 states: the x-anchors are the center and the 2n axis points
    f = [f"sin(x{i + 1}) * x{(i + 1) % n + 1}" + (f" + u{i % m + 1} * x{i + 1}" if m else "")
         for i in range(n)]
    return SystemSpec.from_dict({
        "name": f"wide-{n}", "A": np.eye(n).tolist(), "C": [[1.0] * n], "T": 0.1, "f": f,
        "region": {"lower": [-1.0] * n, "upper": [0.5 + 0.1 * i for i in range(n)]},
        **({"input_region": {"lower": [-1.0] * m, "upper": [1.0] * m}} if m else {}),
    })


_RAISING = {  # sqrt raises for x1 < 0, at half the corners
    "name": "raising", "A": [[0, 1], [-1, 0]], "C": [[1, 0]], "T": 0.1,
    "f": ["sqrt(x1 + 0.5) + x2^2", "x1*x2 + u1*x1"],
    "region": {"lower": [-1, -1], "upper": [1, 1]},
    "input_region": {"lower": [-1], "upper": [1]},
}


_PINNED = {  # x1 is pinned at 0: where u1 = 2 the top direction e1 moves no probe
    "name": "pinned", "A": [[0, 1], [-1, 0]], "C": [[1, 0]], "T": 0.1, "f": ["u1*x1", "x2"],
    "region": {"lower": [0, -1], "upper": [0, 1]},
    "input_region": {"lower": [0], "upper": [2]},
}


@pytest.mark.parametrize("case, exercised", [
    ("raising", "raises"),
    ("pinned", "dropped"),
    ("overflowing", "non_finite"),  # exp(x1) is inf at x1 = 800
    ("overflowing", "rescaled"),  # J^T J overflows at the center x1 = 400
    ("wide-11", None),  # m = 0
    ("wide-12", None),
    ("bundled", None),
])
def test_stacked_probe_pairs_keep_the_bits_of_one_eigh_call_per_anchor(bench, probe, case,
                                                                        exercised):
    specs = {
        "raising": [SystemSpec.from_dict(_RAISING)],
        "pinned": [SystemSpec.from_dict(_PINNED)],
        "overflowing": [_exp_spec(800.0)],
        "wide-11": [_wide_spec(11, 0)],
        "wide-12": [_wide_spec(12, 2)],
        "bundled": [*bench.values(), probe],
    }[case]
    for spec in specs:
        rows, counts = _per_anchor_probe_pairs(spec)
        if exercised:
            assert counts[exercised] > 0
        x1, x2, u = constants._probe_pairs(spec)
        assert (x1.shape, x2.shape, u.shape) == ((len(rows), spec.n),) * 2 + ((len(rows), spec.m),)
        for got, want in zip((x1, x2, u), zip(*rows)):
            assert got.tobytes() == np.array(want).tobytes(), spec.name
        assert len(rows) > (2 * spec.n if spec.n > 10 else 0)  # the axis anchors probe too


# ---------------------------------------------------------------------------
# grid cap and metamorphic scaling

def test_capped_grid_warns_once_and_keeps_the_requested_grid(bench, probe, monkeypatch):
    monkeypatch.setattr(constants, "estimate_gamma_c", lambda s, cfg: (0.0, {}))
    monkeypatch.setattr(constants, "estimate_rho_c", lambda s, cfg, pairs=None: (0.0, {}))
    monkeypatch.setattr(constants, "estimate_beta_and_m", lambda s, cfg: (0.0, 0.0, {}))
    cfg = SamplingConfig(grid_per_axis=21, pair_budget=1000)
    with pytest.warns(UserWarning) as record:
        est = estimate_all(probe, cfg)  # 21^5 > 1e6: runs at 15^5
    assert len(record) == 1
    assert "21 points per axis" in str(record[0].message)
    assert "at 15 points per axis" in str(record[0].message)
    assert est.to_jsonable()["sample_budget"]["grid_per_axis"] == 21
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in bench.values():
            estimate_all(spec, cfg)


def _scaled(spec, factor):
    data = spec.to_dict()
    data["f"] = [f"{factor}*({text})" for text in data["f"]]
    return SystemSpec.from_dict(data)


_METAMORPHIC_CFG = SamplingConfig(grid_per_axis=5, pair_budget=2000, seed=3)


def _assert_scales_exactly(spec, factor):
    base = estimate_all(spec, _METAMORPHIC_CFG)
    scaled = estimate_all(_scaled(spec, factor), _METAMORPHIC_CFG)
    for key in ("gamma_c", "rho_c", "beta", "big_m"):
        assert getattr(scaled, key) == factor * getattr(base, key), key
    assert scaled.witnesses == base.witnesses


@pytest.mark.parametrize("name", ["linear-2d", "pendulum", "cubic-scalar", "van-der-pol"])
def test_scaling_f_by_four_scales_the_constants_exactly(bench, name):
    _assert_scales_exactly(bench[name], 4)


def test_scaling_the_probe_by_four_scales_the_constants_exactly(probe):
    _assert_scales_exactly(probe, 4)


@pytest.mark.xfail(
    strict=True,
    reason="_power_iteration stops on an absolute change of 1e-14 when lambda < 1, so "
    "the grid's band re-rank of a quarter of the probe's J reads other last digits and "
    "picks another tied witness",
)
def test_scaling_the_probe_by_a_quarter_scales_the_constants_exactly(probe):
    _assert_scales_exactly(probe, 0.25)


def _quotient_case(rng, rows, n, bad_rows, coincident, image_scale=1.0):
    x1 = rng.standard_normal((rows, n))
    x2 = x1 + rng.standard_normal((rows, n))
    x2[coincident] = x1[coincident]
    m1, m2 = (image_scale * rng.standard_normal((rows, n)) for _ in range(2))
    for r in bad_rows:
        (m1 if r % 2 else m2)[r, rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
    u = np.arange(rows, dtype=float)[:, None]  # names the row in a witness
    return constants.PairSample(x1, x2, u), (m1, m2)


def _streamed(pairs, images, one_sided):
    """The reducer of the chunked pass over ``images``."""
    m1, m2 = images
    (sup,) = sup_pair_quotient(pairs, lambda rows: [(m1[rows], m2[rows])], (one_sided,))
    return sup


def _plant(pairs, images, rows, source):
    """Copy the pair and the images of row ``source`` into ``rows``,
    leaving their u, which names the row."""
    for array in (pairs.x1, pairs.x2, *images):
        array[rows] = array[source]


@pytest.mark.parametrize("one_sided", [False, True])
def test_pair_quotient_keeps_the_value_and_first_witness(one_sided):
    """The chunked pass against the whole-array reduction, bit for bit."""
    rng = np.random.default_rng(77)
    cases = []
    for n in (1, 2, 4):
        for rows in (1, 7, 500, _CHUNK + 1, 2 * _CHUNK + 333):
            bad = rng.choice(rows, size=rows // 10, replace=False)
            coincident = rng.choice(rows, size=rows // 5, replace=False)
            cases.append((*_quotient_case(rng, rows, n, bad, coincident), None))
    # planted exact ties: the best quotient repeats on both sides of each
    # chunk boundary, and the first index wins
    for first in (5, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1):
        pairs, images = _quotient_case(rng, 3 * _CHUNK + 10, 2, [], [])
        images[0][first] = images[1][first] + 1e9 * (pairs.x1[first] - pairs.x2[first])
        _plant(pairs, images, [first + 1, _CHUNK * (first // _CHUNK + 1), 3 * _CHUNK + 9], first)
        cases.append((pairs, images, first))
    # images of 1e300: some products overflow, their quotients do not; a
    # non-finite row is skipped
    cases.append((*_quotient_case(rng, 2 * _CHUNK + 20, 2, [3, _CHUNK + 4], [0, 1], 1e300), None))
    # quotients of finite images above the largest float (2e308), first in
    # the second chunk, again in the third: inf, and the first one wins
    pairs, images = _quotient_case(rng, 3 * _CHUNK, 2, [], [])
    pairs.x2[:] = pairs.x1 - 1.0
    images[0][_CHUNK + 7], images[1][_CHUNK + 7] = (1e308, 1e308), (-1e308, -1e308)
    _plant(pairs, images, [2 * _CHUNK + 2], _CHUNK + 7)
    cases.append((pairs, images, _CHUNK + 7))
    # every valid quotient is -inf (one-sided) or inf, and the first chunk
    # holds only coincident pairs: the first valid pair of the second chunk
    x1 = np.full((2 * _CHUNK + 4, 1), 1e-3)
    x1[: _CHUNK + 2] = 0.0
    u = np.arange(x1.shape[0], dtype=float)[:, None]
    pairs = constants.PairSample(x1, np.zeros_like(x1), u)
    cases.append((pairs, (np.full_like(x1, -1e308), np.full_like(x1, 1e308)), _CHUNK + 2))
    for pairs, images, row in cases:
        want = whole_array_pair_quotient(pairs, images, one_sided)
        # the raw value and witness row, before result() refuses an inf
        sup = _streamed(pairs, images, one_sided)
        assert not math.isnan(sup.value)
        assert float_bits([sup.value]) == float_bits([want[0]])
        assert [sup.best] == want[1]["u"]  # u names the row
        if row is not None:
            assert sup.best == row


def test_pair_quotient_whose_product_overflows_reads_the_exact_value():
    # images of about 1e300 and, 10 apart per axis, 1e307: the squared
    # difference overflows, and for the 1e307 pair <dm, dx> too
    rng = np.random.default_rng(12)
    pairs, (m1, m2) = _quotient_case(rng, 60, 3, [], [], 1e300)
    pairs.x2[7] = pairs.x1[7] + 10.0
    m1[7], m2[7] = (-1e307, -1e307, -3e306), (1e307, 1e307, 3e306)
    for one_sided in (False, True):
        got, witness = _streamed(pairs, (m1, m2), one_sided).result("q")
        quotients = []
        for a, b, c, d in zip(m1, m2, pairs.x1, pairs.x2):
            dm = [Fraction(p) - Fraction(q) for p, q in zip(a, b)]
            dx = [Fraction(p) - Fraction(q) for p, q in zip(c, d)]
            dist = sum(v * v for v in dx)
            if one_sided:
                quotients.append(sum(p * q for p, q in zip(dm, dx)) / dist)
            else:  # the square of the two-sided quotient
                quotients.append(sum(v * v for v in dm) / dist)
        best = max(quotients)
        assert quotients.index(best) == witness["u"][0] == 7
        exact = Fraction(got) / best if one_sided else Fraction(got) ** 2 / best
        assert float(exact) == pytest.approx(1.0, rel=1e-14)


def test_pair_quotient_shares_one_pass_between_quotients():
    """Several quotients in one pass equal each taken on its own."""
    rng = np.random.default_rng(3)
    pairs, (m1, m2) = _quotient_case(rng, 2 * _CHUNK + 50, 3, [10, _CHUNK + 3], [4, _CHUNK])
    calls = []

    def images(rows):
        calls.append(rows)
        return [(m1[rows], m2[rows]), (m2[rows], m1[rows]), (m1[rows], m2[rows])]

    sups = sup_pair_quotient(pairs, images, (True, True, False))
    assert [(r.start, r.stop) for r in calls] == [
        (0, _CHUNK), (_CHUNK, 2 * _CHUNK), (2 * _CHUNK, 3 * _CHUNK)
    ]
    for sup, swap, side in zip(sups, (False, True, False), (True, True, False)):
        want = whole_array_pair_quotient(pairs, (m2, m1) if swap else (m1, m2), side)
        assert sup.result("q") == want


def test_pair_quotient_failure_rule_and_no_valid_pairs():
    rng = np.random.default_rng(5)
    pairs, images = _quotient_case(rng, 100, 3, range(11), [])
    with pytest.raises(NumericalError, match="^q: 11/100 pair evaluations failed$"):
        _streamed(pairs, images, one_sided=False).result("q")
    pairs, images = _quotient_case(rng, 100, 3, range(10), range(10, 100))
    with pytest.raises(NumericalError, match="^q: no valid pair samples$"):
        _streamed(pairs, images, one_sided=True).result("q")
    # failures counted over every chunk: 10% passes, one more fails
    rows = 3 * _CHUNK
    spread = np.linspace(0, rows - 1, rows // 10).astype(int)
    pairs, images = _quotient_case(rng, rows, 2, spread, [])
    for one_sided in (False, True):
        assert _streamed(pairs, images, one_sided).result("q") == whole_array_pair_quotient(
            pairs, images, one_sided
        )
    images[0][np.setdiff1d(np.arange(rows), spread)[-1], 0] = np.nan
    with pytest.raises(NumericalError, match=f"^q: {rows // 10 + 1}/{rows} pair evaluations"):
        _streamed(pairs, images, one_sided=False).result("q")
    # no valid pair in any chunk
    pairs, images = _quotient_case(rng, 2 * _CHUNK + 1, 1, [], range(2 * _CHUNK + 1))
    with pytest.raises(NumericalError, match="^q: no valid pair samples$"):
        _streamed(pairs, images, one_sided=False).result("q")


# ---------------------------------------------------------------------------
# one reducer: the grid and the pair pass under the same planted cases

_ROWS = 30_000  # two chunks of pairs; 10% of it is 3000 rows
_TIED = [_CHUNK - 1, _CHUNK, _ROWS - 1]  # the planted maximum, across a chunk boundary


def _planted(case):
    """Per-row values of a planted case: NaN marks a failed row, inf a
    finite evaluation above the largest float."""
    values = np.arange(_ROWS) % 97 * 0.5  # exact ties below the planted maximum
    values[_TIED] = 100.0
    if case in ("ten_percent", "one_more"):
        values[7::10] = np.nan
    if case == "one_more":
        values[4] = np.nan
    if case == "overflow":
        values[_CHUNK + 3] = np.inf
    return values


def _reduced(path, values):
    """The reducer of ``values`` through the grid or the pair pass.  A
    pair's one-sided quotient over x1 - x2 = 1 is m1 - m2 = value, and
    the images 1e308 and -1e308 give a quotient of 2e308."""
    rows = np.arange(_ROWS, dtype=float)[:, None]  # the witness's x (grid) or u (pair)
    if path == "grid":
        return constants._grid_sup(_scalar_spec("x1", 0.0, float(_ROWS)), rows, values)
    half = np.where(np.isinf(values), 1e308, 0.5 * values)[:, None]
    pairs = constants.PairSample(np.ones((_ROWS, 1)), np.zeros((_ROWS, 1)), rows)
    return _streamed(pairs, (half, -half), one_sided=True)


@pytest.mark.parametrize("case", ["tie", "ten_percent", "one_more", "overflow"])
@pytest.mark.parametrize("path, name", [("grid", "big_m"), ("pair", "rho_c")])
def test_one_reducer_rules_on_the_grid_and_the_pair_pass(path, name, case):
    sup = _reduced(path, _planted(case))
    if case == "one_more":
        with pytest.raises(NumericalError, match=f"^{name}: 3001/30000 {path} evaluations failed$"):
            sup.result(name)
    elif case == "overflow":
        assert (sup.value, sup.best) == (math.inf, _CHUNK + 3)
        with pytest.raises(NumericalError, match=f"^{name}: a {path} \\w+ overflows to inf$"):
            sup.result(name)
    else:
        value, witness = sup.result(name)
        assert (value, sup.best) == (100.0, _TIED[0])  # the first maximum wins
        assert witness["x" if path == "grid" else "u"] == [_TIED[0]]
        assert sup.failures == (3000 if case == "ten_percent" else 0)
