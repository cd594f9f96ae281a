"""Formula constants: transcription vectors and structural properties."""

import numpy as np
import pytest

from lipdisc import (
    ConstantEstimates,
    SpecValidationError,
    UnsupportedOrderError,
    build_taylor_model,
    evaluate_bounds,
    gamma_d,
    rho_d,
)


def _c(gamma=0.0, rho=0.0, beta=0.0, big_m=0.0, sigma=0.0):
    return ConstantEstimates(
        gamma_c=gamma, rho_c=rho, beta=beta, big_m=big_m, sigma_bar_a=sigma
    )


def test_gamma_order1_unit_vector():
    assert gamma_d(1, 0.1, _c(gamma=2.0)) == 0.2


def test_gamma_order2_unit_vector():
    assert gamma_d(2, 0.1, _c(gamma=1.0, sigma=2.0)) == pytest.approx(0.125, rel=1e-15)


def test_gamma_order2_pendulum_sigma():
    sigma = np.sqrt(1.25)
    expected = 0.1 + 0.01 * (sigma + 0.5)
    assert gamma_d(2, 0.1, _c(gamma=1.0, sigma=sigma)) == pytest.approx(expected, rel=1e-15)


def test_gamma_order3_frozen_golden_value():
    # 4733/24000, evaluated once with exact rational arithmetic
    # (T=1/10, gamma=3/2, sigma=2, beta=1/2, M=3) and frozen
    golden = 0.19720833333333335
    got = gamma_d(3, 0.1, _c(gamma=1.5, sigma=2.0, beta=0.5, big_m=3.0))
    assert got == pytest.approx(golden, rel=1e-15)


def test_gamma_order3_vanishes_at_t_zero():
    assert gamma_d(3, 0.0, _c(gamma=3.0, rho=1.0, beta=2.0, big_m=4.0, sigma=5.0)) == 0.0


def test_rho_order1_unit_vector():
    assert rho_d(1, 0.1, _c(rho=-1.0)) == pytest.approx(-0.1, rel=1e-15)


def test_rho_order2_unit_vectors():
    assert rho_d(2, 0.1, _c(gamma=1.0, rho=0.0, sigma=2.0)) == pytest.approx(0.01, rel=1e-15)
    assert rho_d(2, 0.1, _c(gamma=1.0, rho=1.0, sigma=1.0)) == pytest.approx(0.115, rel=1e-15)


def test_rho_order3_is_unsupported():
    with pytest.raises(UnsupportedOrderError):
        rho_d(3, 0.1, _c(gamma=1.0))


def test_gamma_unsupported_order(bench):
    with pytest.raises(UnsupportedOrderError):
        gamma_d(0, 0.1, _c(gamma=1.0))
    # the path and message of build_taylor_model's order check
    with pytest.raises(UnsupportedOrderError) as ours:
        gamma_d(4, 0.1, _c(gamma=1.0))
    with pytest.raises(SpecValidationError) as model:
        build_taylor_model(bench["pendulum"], 4)
    for err in (ours.value, model.value):
        assert (err.path, err.message) == ("order", "must be one of (1, 2, 3), got 4")


def test_negative_sampling_time_names_t():
    for formula in (gamma_d, rho_d):
        with pytest.raises(SpecValidationError) as err:
            formula(1, -0.1, _c(gamma=1.0))
        assert (err.value.path, err.value.message) == ("t", "must be nonnegative, got -0.1")


def test_gamma_order3_requires_beta_and_m():
    c = ConstantEstimates(gamma_c=1.0, rho_c=0.0, beta=None, big_m=None, sigma_bar_a=1.0)
    with pytest.raises(ValueError, match="beta"):
        gamma_d(3, 0.1, c)


def test_leading_term_is_t_gamma_c():
    c = _c(gamma=2.5, beta=1.0, big_m=1.0, sigma=3.0)
    t = 1e-8
    for order in (1, 2, 3):
        assert abs(gamma_d(order, t, c) / t - c.gamma_c) <= 1e-6 * c.gamma_c + 1e-12


def test_order2_dominates_order1():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = _c(gamma=rng.uniform(0, 5), sigma=rng.uniform(0, 5))
        t = rng.uniform(0.001, 1.0)
        assert gamma_d(2, t, c) >= gamma_d(1, t, c)


def test_gamma_monotone_in_every_constant():
    grid = [0.0, 0.5, 2.0]
    t_grid = [0.01, 0.1, 1.0]
    for t in t_grid:
        for gamma in grid:
            for sigma in grid:
                for beta in grid:
                    for big_m in grid:
                        base = gamma_d(3, t, _c(gamma=gamma, sigma=sigma, beta=beta, big_m=big_m))
                        bumped = [
                            gamma_d(3, t, _c(gamma=gamma + 0.1, sigma=sigma, beta=beta, big_m=big_m)),
                            gamma_d(3, t, _c(gamma=gamma, sigma=sigma + 0.1, beta=beta, big_m=big_m)),
                            gamma_d(3, t, _c(gamma=gamma, sigma=sigma, beta=beta + 0.1, big_m=big_m)),
                            gamma_d(3, t, _c(gamma=gamma, sigma=sigma, beta=beta, big_m=big_m + 0.1)),
                            gamma_d(3, t + 0.01, _c(gamma=gamma, sigma=sigma, beta=beta, big_m=big_m)),
                        ]
                        assert all(v >= base for v in bumped)


def test_rho_order1_odd_in_rho_c():
    for rho in (0.0, 0.25, 1.5, 7.0):
        assert rho_d(1, 0.1, _c(rho=-rho)) == -rho_d(1, 0.1, _c(rho=rho))


def test_evaluate_bounds_bundle():
    c = _c(gamma=1.0, rho=0.5, beta=1.0, big_m=1.0, sigma=1.0)
    r2 = evaluate_bounds(2, 0.1, c)
    assert r2.rho_d is not None
    r3 = evaluate_bounds(3, 0.1, c)
    assert r3.rho_d is None
    assert r3.gamma_d > r2.gamma_d
