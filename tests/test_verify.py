"""Empirical verification: tightness identities, reports, convergence,
and the chunked pair pass against a whole-array reference."""

import tracemalloc
import warnings

import numpy as np
import pytest

from lipdisc import (
    BoxRegion,
    IntegrationError,
    NumericalError,
    SamplingConfig,
    SpecValidationError,
    SystemSpec,
    convergence_study,
    parse,
    verify_bounds,
)
from lipdisc import constants, discretize
from lipdisc import expr as ex
from lipdisc.constants import sample_pairs
from lipdisc.discretize import _CHUNK_ROWS, DiscreteModel, ExactMap
from lipdisc.verify import _CONVERGENCE_POINTS, verify_tolerance

from conftest import (
    PROBE,
    empirical_gamma_c,
    empirical_lipschitz,
    empirical_one_sided,
    pair_quotient,
    rho_c_of,
    sample_points,
    whole_array_pair_quotient,
)
from test_discretize import _reference_exact_step


def test_euler_two_sided_is_scaled_continuous_estimate(bench, default_cfg):
    for name, spec in bench.items():
        pairs = sample_pairs(spec, default_cfg)
        mdl = DiscreteModel(spec, 1)
        discrete, _ = empirical_lipschitz(mdl, spec, default_cfg, pairs=pairs)
        continuous, _ = empirical_gamma_c(spec, default_cfg, pairs=pairs)
        scaled = spec.sampling_time * continuous
        if scaled == 0.0:
            assert discrete == 0.0, name
        else:
            assert abs(discrete - scaled) <= 1e-9 * scaled, name


def test_euler_one_sided_is_scaled_continuous_estimate(bench, default_cfg):
    for name, spec in bench.items():
        pairs = sample_pairs(spec, default_cfg)
        mdl = DiscreteModel(spec, 1)
        discrete, _ = empirical_one_sided(mdl, spec, default_cfg, pairs=pairs)
        continuous, _ = rho_c_of(spec, default_cfg)
        scaled = spec.sampling_time * continuous
        assert abs(discrete - scaled) <= 1e-9 * max(1e-12, abs(scaled)), name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_shared_pair_pass_matches_separate_estimators(bench, probe, order):
    """verify_bounds draws one pair sample and evaluates F_T once per pair
    endpoint; every quotient must equal the one computed on its own."""
    cfg = SamplingConfig(grid_per_axis=3, pair_budget=2000, seed=7, polish_iters=2)
    for spec in [*bench.values(), probe]:
        report = verify_bounds(spec, order, cfg)
        mdl = DiscreteModel(spec, order)
        gamma, gamma_wit = empirical_lipschitz(mdl, spec, cfg)
        rho, rho_wit = empirical_one_sided(mdl, spec, cfg)
        full, _ = pair_quotient(
            lambda x, u: x @ mdl.a_d.T + mdl.f_t_batch(x, u), spec, cfg, one_sided=False
        )
        rho_c, rho_c_wit = rho_c_of(spec, cfg)
        assert report.empirical["gamma_d"][0].hex() == gamma.hex(), spec.name
        assert report.empirical["rho_d"][0].hex() == rho.hex(), spec.name
        assert report.full_map_gamma_d.hex() == full.hex(), spec.name
        assert report.constants.rho_c.hex() == rho_c.hex(), spec.name
        assert report.empirical["gamma_d"][1] == gamma_wit
        assert report.empirical["rho_d"][1] == rho_wit
        assert report.constants.witnesses["rho_c"] == rho_c_wit


def _whole_array_pair_pass(spec, order, cfg):
    """verify's four pair quotients over whole image arrays: f for rho_c
    on every row at once, F_T through f_t_batch (which evaluates f
    again) and the full map as one matrix product."""
    pairs = sample_pairs(spec, cfg)
    x1, x2, u = pairs.x1, pairs.x2, pairs.u
    mdl = DiscreteModel(spec, order)
    f = spec.eval_f_batch(x1, u), spec.eval_f_batch(x2, u)
    f_t = mdl.f_t_batch(x1, u), mdl.f_t_batch(x2, u)
    full = x1 @ mdl.a_d.T + f_t[0], x2 @ mdl.a_d.T + f_t[1]
    return [
        whole_array_pair_quotient(pairs, images, side)
        for images, side in ((f, True), (f_t, False), (f_t, True), (full, False))
    ]


def _probe_count(spec):
    return sample_pairs(spec, SamplingConfig(pair_budget=1000)).x1.shape[0] - 1000


@pytest.mark.parametrize(
    "chunks, orders, specs",
    [(1, (1, 2, 3), ("pendulum", "probe")), (2, (1, 2, 3), ("van-der-pol", "probe")),
     (13, (3,), ("probe",))],
)
def test_streamed_pair_pass_equals_the_whole_array_reference(bench, probe, chunks, orders, specs):
    """The chunked pass at 1, 2 and 13 chunks plus a tail of 777 rows."""
    for spec in (probe if name == "probe" else bench[name] for name in specs):
        budget = chunks * _CHUNK_ROWS + 777 - _probe_count(spec)
        cfg = SamplingConfig(grid_per_axis=2, pair_budget=budget, seed=11, polish_iters=1)
        for order in orders:
            report = verify_bounds(spec, order, cfg)
            rho_c, gamma_d, rho_d, full = _whole_array_pair_pass(spec, order, cfg)
            got = [
                (report.constants.rho_c, report.constants.witnesses["rho_c"]),
                report.empirical["gamma_d"],
                report.empirical["rho_d"],
                (report.full_map_gamma_d, full[1]),  # its witness is not reported
            ]
            want = [rho_c, gamma_d, rho_d, full]
            assert [(v.hex(), w) for v, w in got] == [(v.hex(), w) for v, w in want], (
                spec.name, order
            )


def test_verify_evaluates_f_once_per_pair_endpoint(probe, monkeypatch):
    rows = []
    eval_f_batch = SystemSpec.eval_f_batch

    def counted(self, x, u):
        rows.append(x.shape[0])
        return eval_f_batch(self, x, u)

    cfg = SamplingConfig(grid_per_axis=2, pair_budget=2 * _CHUNK_ROWS)
    pair_rows = sample_pairs(probe, cfg).x1.shape[0]
    monkeypatch.setattr(SystemSpec, "eval_f_batch", counted)
    for order in (1, 2, 3):
        rows.clear()
        verify_bounds(probe, order, cfg)
        # both endpoints of every pair, plus the M grid of 2^5 points
        assert sum(rows) == 2 * pair_rows + 2**5, order


def test_the_pair_pass_and_f_t_batch_read_one_chunk_size(probe, monkeypatch):
    # discretize._CHUNK_ROWS owns the chunk size: setting it sets the rows
    # of the pair pass's chunks and of F_T's batch chunks alike
    chunk = 100
    monkeypatch.setattr(discretize, "_CHUNK_ROWS", chunk)
    quotient_rows, series_rows = [], []
    quotients, series = constants._quotients, DiscreteModel._series

    def counted_quotients(m1, *args):
        quotient_rows.append(m1.shape[0])
        return quotients(m1, *args)

    def counted_series(self, x, u, f):
        series_rows.append(x.shape[0])
        return series(self, x, u, f)

    monkeypatch.setattr(constants, "_quotients", counted_quotients)
    monkeypatch.setattr(DiscreteModel, "_series", counted_series)
    cfg = SamplingConfig(grid_per_axis=2, pair_budget=1000)
    full, tail = divmod(sample_pairs(probe, cfg).x1.shape[0], chunk)
    chunks = [chunk] * full + [tail] * bool(tail)
    verify_bounds(probe, 3, cfg)
    assert quotient_rows == [rows for rows in chunks for _ in range(4)]  # four quotients each
    assert series_rows == [rows for rows in chunks for _ in range(2)]  # both pair endpoints
    series_rows.clear()
    xs, us = sample_points(probe, 250, seed=3)
    DiscreteModel(probe, 3).f_t_batch(xs, us)
    assert series_rows == [100, 100, 50]


def test_verify_memory_is_bounded_by_the_pair_sample(probe):
    cfg = SamplingConfig(grid_per_axis=2, pair_budget=200_000)
    pairs = sample_pairs(probe, cfg)
    sample_bytes = pairs.x1.nbytes + pairs.x2.nbytes + pairs.u.nbytes
    del pairs
    verify_bounds(probe, 3, SamplingConfig(grid_per_axis=2, pair_budget=1000))  # build kernels
    tracemalloc.start()
    try:
        verify_bounds(probe, 3, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sample_bytes + 12 * 2**20


def test_zero_nonlinearity_yields_zero_everything(bench, fast_cfg):
    spec = bench["linear-2d"]
    for order in (1, 2, 3):
        report = verify_bounds(spec, order, fast_cfg)
        assert report.bounds["gamma_d"] == 0.0
        assert report.empirical["gamma_d"][0] == 0.0
        assert report.empirical["rho_d"][0] == 0.0
        assert report.all_passed


def test_negative_cubic_order1_one_sided_near_zero(fast_cfg, bench):
    spec = bench["cubic-scalar"]
    mdl = DiscreteModel(spec, 1)
    value, _ = empirical_one_sided(mdl, spec, fast_cfg)
    assert value <= 0.0
    assert abs(value) <= 1e-3


def test_pendulum_order2_bound_dominates(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 2, fast_cfg)
    assert report.empirical["gamma_d"][0] <= report.bounds["gamma_d"]
    assert report.empirical["rho_d"][0] <= report.bounds["rho_d"]
    assert report.all_passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: the paper's order-2 rho_d, T rho_c + (T^2/2) sigma_A (rho_c + "
    "gamma_c + rho_c gamma_c), has no gamma_c^2 term, so with A = 0 it falls below the "
    "one-sided constant of F_T = T f + (T^2/2) J f",
)
def test_order2_rho_d_formula_dominates_with_a_zero_a(fast_cfg):
    # f = x1: F_T = 0.105 x1 at T = 0.1, whose one-sided constant is 0.105
    spec = SystemSpec(
        name="identity", a=[[0.0]], c=[[1.0]], f=(parse("x1"),),
        region=BoxRegion([-1.0], [1.0]), sampling_time=0.1,
    )
    report = verify_bounds(spec, 2, fast_cfg)
    assert report.empirical["rho_d"][0] == pytest.approx(0.105, rel=1e-9)
    assert report.bounds["rho_d"] >= report.empirical["rho_d"][0]


def test_order3_report_has_no_rho_formula(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 3, fast_cfg)
    assert report.bounds["rho_d"] is None
    assert report.passed["rho_d"] is None
    assert report.margins["rho_d"] is None
    assert report.tolerances["rho_d"] is None
    assert np.isfinite(report.empirical["rho_d"][0])


def test_report_is_deterministic_for_fixed_seed(bench, fast_cfg):
    first = verify_bounds(bench["van-der-pol"], 2, fast_cfg)
    second = verify_bounds(bench["van-der-pol"], 2, fast_cfg)
    a = first.to_jsonable()
    b = second.to_jsonable()
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_margins_are_exact_differences(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 2, fast_cfg)
    for key in ("gamma_d", "rho_d"):
        assert report.margins[key] == report.bounds[key] - report.empirical[key][0]
        assert report.tolerances[key] == verify_tolerance(report.bounds[key])


def test_witnesses_reported(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 2, fast_cfg)
    for witness in (report.empirical["gamma_d"][1], report.empirical["rho_d"][1]):
        assert set(witness) == {"x1", "x2", "u"}
        assert len(witness["x1"]) == 2


def test_verify_tolerance_combines_absolute_and_relative():
    assert verify_tolerance(0.0) == 1e-9
    assert verify_tolerance(2.0) == pytest.approx(1e-9 + 2e-6)
    assert verify_tolerance(-2.0) == pytest.approx(1e-9 + 2e-6)


def test_convergence_study_linear_system(bench, fast_cfg):
    study = convergence_study(
        bench["linear-2d"], (1, 2, 3), (0.2, 0.1, 0.05, 0.025), fast_cfg.seed
    )
    for k in (1, 2, 3):
        assert abs(study.slopes[k] - (k + 1)) <= 0.3


def test_convergence_study_needs_three_sampling_times(bench, fast_cfg):
    with pytest.raises(ValueError):
        convergence_study(bench["pendulum"], (1,), (0.1, 0.05), fast_cfg.seed)


def test_convergence_study_needs_three_distinct_sampling_times_and_an_order(bench, fast_cfg):
    with pytest.raises(ValueError, match="distinct"):
        convergence_study(bench["pendulum"], (1,), (0.1, 0.1, 0.05), fast_cfg.seed)
    with pytest.raises(ValueError, match="order"):
        convergence_study(bench["pendulum"], (), (0.2, 0.1, 0.05), fast_cfg.seed)


@pytest.mark.parametrize("bad", [0.0, -0.05, np.nan, np.inf])
def test_convergence_study_rejects_sampling_times_that_are_not_positive_and_finite(
    bench, fast_cfg, bad
):
    # NaN and inf are named on t_values too, not on the spec's T
    with pytest.raises(SpecValidationError) as err:
        convergence_study(bench["pendulum"], (1,), (0.2, 0.1, bad), fast_cfg.seed)
    assert (err.value.path, err.value.message) == (
        "t_values", f"must be positive and finite, got {bad!r}"
    )


# A = [[0, 1], [0, 0]] and f = 0: every order-k map is the flow x + T A x
NILPOTENT = {
    "name": "nilpotent", "A": [[0.0, 1.0], [0.0, 0.0]], "C": [[1.0, 0.0]], "f": ["0", "0"],
    "region": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "T": 0.1,
}


@pytest.mark.parametrize(
    "name, t_values, t",
    [
        ("pendulum", (0.2, 0.1, 1e-13), 1e-13),
        ("pendulum", (0.2, 0.1, 1e-300), 1e-300),  # the gap is exactly 0
        ("nilpotent", (0.2, 0.1, 0.05), 0.2),  # at every T
    ],
)
def test_convergence_study_rejects_a_gap_at_rounding_level(bench, name, t_values, t):
    s = SystemSpec.from_dict(NILPOTENT) if name == "nilpotent" else bench[name]
    level = 64 * float(np.finfo(float).eps)  # every exact state lies in [-1, 1]
    with pytest.raises(NumericalError) as err:
        convergence_study(s, (1, 2, 3), t_values)
    head = f"order 1 at T={t!r}: the gap to the exact map, "
    assert str(err.value).startswith(head)
    gap = float(str(err.value)[len(head):].split(",")[0])
    assert 0.0 <= gap <= level
    assert str(err.value) == f"{head}{gap!r}, is at rounding level (<= {level!r})"


def test_convergence_study_integrates_at_the_default_tolerance_of_exact_map(bench):
    spec, t_values = bench["pendulum"], (0.2, 0.1, 0.05)
    got = convergence_study(spec, (1, 2, 3), t_values)
    want = convergence_study(spec, (1, 2, 3), t_values, seed=42, tol=1e-10)
    assert (ExactMap.tol, SamplingConfig.seed) == (1e-10, 42)
    for k in (1, 2, 3):
        assert [v.hex() for v in got.errors[k]] == [v.hex() for v in want.errors[k]]
    assert got.errors != convergence_study(spec, (1, 2, 3), t_values, tol=1e-12).errors


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
def test_convergence_study_checks_the_seed_by_the_sampling_rule(bench, monkeypatch, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("a map was stepped before the seed was checked")

    monkeypatch.setattr(ExactMap, "__call__", no_work)
    with pytest.raises(SpecValidationError) as err:
        convergence_study(bench["pendulum"], (1,), (0.2, 0.1, 0.05), seed=seed)
    with pytest.raises(SpecValidationError) as want:
        SamplingConfig(seed=seed)
    assert (err.value.path, err.value.message) == ("seed", want.value.message)


# two drawn specs on which the exact map cannot reach T: x blows up inside
# T on the first, and the box of the second holds many poles of tan
BLOWUP = {
    "name": "blowup", "A": [[2.56, -756.36], [-83.54, -7.27]], "C": [[1.0, 0.0]], "T": 0.1,
    "f": ["x1^2", "x1^2"], "region": {"lower": [0.0, 0.0], "upper": [699.7, 1e-13]},
    "input_region": {"lower": [0.0], "upper": [0.0]},
}
TAN_POLES = {
    "name": "drawn",
    "A": [[-7.409651741929423, 6.2448645811896775, 1e-10],
          [-7.054685363931629, 1.175494351e-38, -2.9835346477420845],
          [2.2885300331189047, 9.999999999999998, 9.0]],
    "C": [[-3.923190159620659, 5.06022271005163e-125, 0.9]],
    "f": ["(0.5 + 1e3)", "tan(((x3 + 3) - (x2 - x1)))", "(1 * 1e3)"],
    "region": {"lower": [155.53318540875762, 1e-10, 155.53318540875762],
               "upper": [1000.0, 155.53318540875762, 1000.0]},
    "T": 0.1,
}


@pytest.mark.parametrize("data", [BLOWUP, TAN_POLES], ids=["blowup", "tan-poles"])
def test_convergence_study_stops_on_a_step_size_underflow(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tan box misses the origin
        spec = SystemSpec.from_dict(data)
    with pytest.raises(IntegrationError, match=r"^step size underflow \(t="):
        convergence_study(spec, (1, 2, 3), (0.2, 0.1, 0.05), tol=1e-6)


@pytest.mark.parametrize(
    "path, orders, t_values, tol",
    [
        ("t_values", (1,), (0.1, 0.1, 0.05), 1e-10),
        ("t_values", (1,), (0.2, 0.1, np.nan), 1e-10),
        ("orders", (), (0.2, 0.1, 0.05), 1e-10),
        ("orders", (1, 4), (0.2, 0.1, 0.05), 1e-10),
        ("tol", (1,), (0.2, 0.1, 0.05), 1e-3),
        # the model's order rule per order: no bool, no non-integer
        ("orders", (2.7, True), (0.2, 0.1, 0.05), 1e-10),
        ("orders", (1, True), (0.2, 0.1, 0.05), 1e-10),
        ("orders", (2, 2.0), (0.2, 0.1, 0.05), 1e-10),
    ],
)
def test_convergence_study_names_a_bad_argument_before_any_work(
    bench, fast_cfg, monkeypatch, path, orders, t_values, tol
):
    def no_work(*args, **kwargs):
        raise AssertionError("a map was stepped before the arguments were checked")

    monkeypatch.setattr(ExactMap, "__call__", no_work)
    monkeypatch.setattr(DiscreteModel, "__call__", no_work)
    with pytest.raises(SpecValidationError) as err:
        convergence_study(bench["pendulum"], orders, t_values, fast_cfg.seed, tol)
    assert err.value.path == path


def test_convergence_study_compiles_one_lie_kernel_per_order(monkeypatch):
    spec = SystemSpec.from_dict(PROBE)  # no point kernel built yet
    compiled = []
    point_kernel = ex.point_kernel

    def counted(live):
        compiled.append(len(live))
        return point_kernel(live)

    monkeypatch.setattr(ex, "point_kernel", counted)
    convergence_study(spec, [1, 2, 3], [0.2, 0.1, 0.05, 0.025])
    # one Lie kernel per order, shared by all four T; the field's template
    # feeds the integrator, whose kernel is built only for a fallback
    cache = spec._discretize_cache
    assert set(cache) == {0, 1, 2, 3, "integrator"}
    assert len(compiled) == 3 and cache[0].kernel is None
    # and one integrator, generated into the cache that the copies share


def _reference_local_errors(s, orders, t_values, seed, tol):
    """The convergence study's max local errors from the same seeded
    sample, stepped on arrays: a_d @ x + F_T for the order-k model and
    the list-sum Dormand-Prince reference for the exact map."""
    rng = np.random.default_rng(seed)
    inner = s.region.scaled(0.5)
    xs = inner.lower + rng.random((_CONVERGENCE_POINTS, s.n)) * inner.width
    us = s.input_region.lower + rng.random((_CONVERGENCE_POINTS, s.m)) * s.input_region.width
    errors = {k: [] for k in orders}
    for t in t_values:
        s_t = s.with_sampling_time(t)
        exact = np.stack([_reference_exact_step(s_t, x, u, tol) for x, u in zip(xs, us)])
        for k in orders:
            mdl = DiscreteModel(s_t, k)
            approx = np.stack([mdl.a_d @ x + np.asarray(mdl.f_t(x, u)) for x, u in zip(xs, us)])
            gap = np.max(np.linalg.norm(exact - approx, axis=1))
            errors[k].append(float(gap))
    return errors


def test_convergence_errors_keep_the_bits_of_the_array_steps(bench, probe):
    t_values = (0.2, 0.1, 0.05, 0.025)
    for spec in [*bench.values(), probe]:
        study = convergence_study(spec, (1, 2, 3), t_values, seed=7, tol=1e-12)
        want = _reference_local_errors(spec, (1, 2, 3), t_values, seed=7, tol=1e-12)
        for k in (1, 2, 3):
            assert [v.hex() for v in study.errors[k]] == [v.hex() for v in want[k]], (spec.name, k)
