"""Empirical verification: tightness identities, reports, convergence."""

import numpy as np
import pytest

from lipdisc import (
    SamplingConfig,
    build_taylor_model,
    convergence_study,
    estimate_rho_c,
    verify_bounds,
)
from lipdisc.constants import sample_pairs
from lipdisc.verify import verify_tolerance

from conftest import empirical_gamma_c, empirical_lipschitz, empirical_one_sided, pair_quotient


def test_euler_two_sided_is_scaled_continuous_estimate(bench, default_cfg):
    for name, spec in bench.items():
        pairs = sample_pairs(spec, default_cfg)
        mdl = build_taylor_model(spec, 1)
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
        mdl = build_taylor_model(spec, 1)
        discrete, _ = empirical_one_sided(mdl, spec, default_cfg, pairs=pairs)
        continuous, _ = estimate_rho_c(spec, default_cfg)
        scaled = spec.sampling_time * continuous
        assert abs(discrete - scaled) <= 1e-9 * max(1e-12, abs(scaled)), name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_shared_pair_pass_matches_separate_estimators(bench, probe, order):
    """verify_bounds draws one pair sample and evaluates F_T once per pair
    endpoint; every quotient must equal the one computed on its own."""
    cfg = SamplingConfig(grid_per_axis=3, pair_budget=2000, seed=7, polish_iters=2)
    for spec in [*bench.values(), probe]:
        report = verify_bounds(spec, order, cfg)
        mdl = build_taylor_model(spec, order)
        gamma, gamma_wit = empirical_lipschitz(mdl, spec, cfg)
        rho, rho_wit = empirical_one_sided(mdl, spec, cfg)
        full, _ = pair_quotient(
            lambda x, u: x @ mdl.a_d.T + mdl.f_t_batch(x, u), spec, cfg, one_sided=False
        )
        rho_c, rho_c_wit = estimate_rho_c(spec, cfg)
        assert report.empirical_gamma_d.hex() == gamma.hex(), spec.name
        assert report.empirical_rho_d.hex() == rho.hex(), spec.name
        assert report.full_map_gamma_d.hex() == full.hex(), spec.name
        assert report.constants.rho_c.hex() == rho_c.hex(), spec.name
        assert report.empirical_gamma_witness == gamma_wit
        assert report.empirical_rho_witness == rho_wit
        assert report.constants.witnesses["rho_c"] == rho_c_wit


def test_zero_nonlinearity_yields_zero_everything(bench, fast_cfg):
    spec = bench["linear-2d"]
    for order in (1, 2, 3):
        report = verify_bounds(spec, order, fast_cfg)
        assert report.formula_gamma_d == 0.0
        assert report.empirical_gamma_d == 0.0
        assert report.empirical_rho_d == 0.0
        assert report.all_passed


def test_negative_cubic_order1_one_sided_near_zero(fast_cfg, bench):
    spec = bench["cubic-scalar"]
    mdl = build_taylor_model(spec, 1)
    value, _ = empirical_one_sided(mdl, spec, fast_cfg)
    assert value <= 0.0
    assert abs(value) <= 1e-3


def test_pendulum_order2_bound_dominates(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 2, fast_cfg)
    assert report.empirical_gamma_d <= report.formula_gamma_d
    assert report.empirical_rho_d <= report.formula_rho_d
    assert report.all_passed


def test_order3_report_has_no_rho_formula(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 3, fast_cfg)
    assert report.formula_rho_d is None
    assert report.rho_pass is None
    assert report.rho_margin is None
    assert np.isfinite(report.empirical_rho_d)


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
    assert report.gamma_margin == report.formula_gamma_d - report.empirical_gamma_d
    assert report.rho_margin == report.formula_rho_d - report.empirical_rho_d


def test_witnesses_reported(bench, fast_cfg):
    report = verify_bounds(bench["pendulum"], 2, fast_cfg)
    for witness in (report.empirical_gamma_witness, report.empirical_rho_witness):
        assert set(witness) == {"x1", "x2", "u"}
        assert len(witness["x1"]) == 2


def test_verify_tolerance_combines_absolute_and_relative():
    assert verify_tolerance(0.0) == 1e-9
    assert verify_tolerance(2.0) == pytest.approx(1e-9 + 2e-6)
    assert verify_tolerance(-2.0) == pytest.approx(1e-9 + 2e-6)


def test_convergence_study_linear_system(bench, fast_cfg):
    study = convergence_study(
        bench["linear-2d"], (1, 2, 3), (0.2, 0.1, 0.05, 0.025), fast_cfg
    )
    for k in (1, 2, 3):
        assert abs(study.slopes[k] - (k + 1)) <= 0.3


def test_convergence_study_needs_three_sampling_times(bench, fast_cfg):
    with pytest.raises(ValueError):
        convergence_study(bench["pendulum"], (1,), (0.1, 0.05), fast_cfg)


def test_convergence_study_needs_three_distinct_sampling_times_and_an_order(bench, fast_cfg):
    with pytest.raises(ValueError, match="distinct"):
        convergence_study(bench["pendulum"], (1,), (0.1, 0.1, 0.05), fast_cfg)
    with pytest.raises(ValueError, match="order"):
        convergence_study(bench["pendulum"], (), (0.2, 0.1, 0.05), fast_cfg)
