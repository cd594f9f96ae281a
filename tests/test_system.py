"""SystemSpec validation, evaluation and derivative caching."""

import numpy as np
import pytest

from lipdisc import BoxRegion, SpecValidationError, SystemSpec, differentiate, parse
from lipdisc.expr import evaluate_batch

from conftest import central_diff, sample_points


def _scalar_spec(f_text, lower=-2.0, upper=2.0, a=0.0):
    return SystemSpec(
        name="scalar",
        a=[[a]],
        c=[[1.0]],
        f=(parse(f_text),),
        region=BoxRegion([lower], [upper]),
        sampling_time=0.1,
    )


def test_from_dict_happy_path(bench):
    pend = bench["pendulum"]
    assert pend.n == 2 and pend.m == 0 and pend.p == 1
    assert pend.sampling_time == 0.1


@pytest.mark.parametrize(
    "mutation, path",
    [
        ({"A": [[0.0, 1.0]]}, "A"),
        ({"C": [[1.0, 0.0, 0.0]]}, "C"),
        ({"f": ["0"]}, "f"),
        ({"f": ["0", "x3"]}, "f[1]"),
        ({"f": ["0", "u1"]}, "f[1]"),
        ({"f": ["0", "sin(x1"]}, "f[1]"),
        ({"T": -0.5}, "T"),
        ({"T": "fast"}, "T"),
        ({"region": {"lower": [-1.0], "upper": [1.0]}}, "region"),
        ({"region": {"lower": [1.0, 1.0], "upper": [-1.0, -1.0]}}, "region"),
        ({"A": [[0.0, "x"], [0.0, 0.0]]}, "A[0][1]"),
    ],
)
def test_from_dict_validation_errors_name_the_field(mutation, path):
    data = {
        "name": "broken",
        "A": [[0.0, 1.0], [0.0, -0.5]],
        "C": [[1.0, 0.0]],
        "f": ["0", "-sin(x1)"],
        "region": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "T": 0.1,
    }
    data.update(mutation)
    with pytest.raises(SpecValidationError) as err:
        SystemSpec.from_dict(data)
    assert err.value.path == path


def test_region_without_origin_warns():
    with pytest.warns(UserWarning, match="origin"):
        _scalar_spec("x1^2", lower=1.0, upper=2.0)


def test_eval_f_examples(bench):
    pend = bench["pendulum"]
    np.testing.assert_allclose(pend.eval_f([0.0, 1.0]), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pend.eval_f([np.pi / 2, 0.0]), [0.0, -1.0], rtol=1e-15)

    forced = SystemSpec(
        name="forced",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("u1*x1"),),
        region=BoxRegion([-3.0], [3.0]),
        input_region=BoxRegion([-5.0], [5.0]),
        sampling_time=0.1,
    )
    np.testing.assert_allclose(forced.eval_f([2.0], [3.0]), [6.0], rtol=1e-15)


def test_jacobian_examples(bench):
    pend = bench["pendulum"]
    np.testing.assert_allclose(
        pend.jacobian([0.0, 0.0]), [[0.0, 0.0], [-1.0, 0.0]], atol=1e-15
    )
    quad = SystemSpec(
        name="quad",
        a=np.zeros((2, 2)),
        c=np.eye(2),
        f=(parse("x1^2"), parse("x1*x2")),
        region=BoxRegion([-2.0, -2.0], [2.0, 2.0]),
        sampling_time=0.1,
    )
    np.testing.assert_allclose(
        quad.jacobian([1.0, 2.0]), [[2.0, 0.0], [2.0, 1.0]], rtol=1e-15
    )


def test_second_derivative_examples(bench):
    linear = bench["linear-2d"]
    assert not linear.second_derivative([0.3, -0.4]).any()

    cubic = _scalar_spec("x1^3")
    np.testing.assert_allclose(cubic.second_derivative([2.0]), [[[12.0]]], rtol=1e-15)

    pend = bench["pendulum"]
    assert pend.second_derivative([0.0, 0.7])[1, 0, 0] == 0.0


def test_jacobian_matches_finite_differences(bench):
    for name, spec in bench.items():
        xs, us = sample_points(spec, 100, seed=13)
        for x, u in zip(xs, us):
            jac = spec.jacobian(x, u)
            for i in range(spec.n):
                for j in range(spec.n):
                    fd = central_diff(lambda pt: spec.eval_f(pt, u)[i], x, j)
                    assert abs(jac[i, j] - fd) <= 1e-6 * max(1.0, abs(jac[i, j])), name


def test_second_derivative_symmetry(bench):
    for spec in bench.values():
        xs, us = sample_points(spec, 20, seed=5)
        for x, u in zip(xs, us):
            hess = spec.second_derivative(x, u)
            np.testing.assert_allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-12)


def test_batch_evaluation_matches_pointwise(bench, probe):
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 40, seed=21)
        f_batch = spec.eval_f_batch(xs, us)
        j_batch = spec.jacobian_batch(xs, us)
        h_batch = spec.second_derivative_batch(xs, us)
        for i in range(40):
            np.testing.assert_allclose(f_batch[i], spec.eval_f(xs[i], us[i]), rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(j_batch[i], spec.jacobian(xs[i], us[i]), rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(
                h_batch[i], spec.second_derivative(xs[i], us[i]), rtol=1e-14, atol=1e-300
            )


def _per_entry_stacks(spec, x, u):
    """J and H with every entry evaluated on its own, constants included."""
    names = [f"x{j + 1}" for j in range(spec.n)]
    n, cnt = spec.n, x.shape[0]
    jac, hess = np.empty((cnt, n, n)), np.empty((cnt, n, n, n))
    for i, comp in enumerate(spec.f):
        for j in range(n):
            dj = differentiate(comp, names[j])
            jac[:, i, j] = evaluate_batch(dj, x, u)
            for k in range(n):
                hess[:, i, j, k] = evaluate_batch(differentiate(dj, names[k]), x, u)
    return jac, hess


def _domain_error_spec():
    # nonzero constant entries (J[0,1] = 3, H[1,0,0] = -1) beside live
    # entries that are NaN wherever x1 < 0 or x2 < 0
    return SystemSpec.from_dict(
        {
            "name": "domain-errors",
            "A": [[0, 1], [-1, 0]],
            "C": [[1, 0]],
            "f": ["sqrt(x1) + 3*x2", "ln(x2)*u1 - 0.5*x1^2 + 2*x1"],
            "region": {"lower": [-1, -1], "upper": [1, 1]},
            "input_region": {"lower": [-1], "upper": [1]},
            "T": 0.1,
        }
    )


@pytest.mark.parametrize("rows", [0, 1, 37])
def test_templated_batch_derivatives_equal_per_entry_evaluation(bench, probe, rows):
    for spec in [*bench.values(), probe, _domain_error_spec()]:
        xs, us = sample_points(spec, rows, seed=5)
        want_j, want_h = _per_entry_stacks(spec, xs, us)
        got_j, got_h = spec.jacobian_batch(xs, us), spec.second_derivative_batch(xs, us)
        assert got_j.shape == want_j.shape and got_h.shape == want_h.shape
        # same bits: signed zeros and NaN included
        assert got_j.tobytes() == want_j.tobytes(), spec.name
        assert got_h.tobytes() == want_h.tobytes(), spec.name


def test_templated_batch_keeps_constants_beside_domain_errors():
    spec = _domain_error_spec()
    xs, us = sample_points(spec, 200, seed=9)
    jac, hess = spec.jacobian_batch(xs, us), spec.second_derivative_batch(xs, us)
    bad = (xs[:, 0] < 0) | (xs[:, 1] < 0)
    assert bad.any() and (~bad).any()
    assert np.isnan(jac[bad]).any() and np.isnan(hess[bad]).any()
    assert np.isfinite(jac[~bad]).all() and np.isfinite(hess[~bad]).all()
    np.testing.assert_array_equal(jac[:, 0, 1], 3.0)
    np.testing.assert_array_equal(hess[:, 1, 0, 0], -1.0)
    np.testing.assert_array_equal(hess[:, 0, 1, :], 0.0)


def test_round_trip_through_dict(bench):
    for spec in bench.values():
        clone = SystemSpec.from_dict(spec.to_dict())
        assert clone.name == spec.name
        np.testing.assert_array_equal(clone.a, spec.a)
        np.testing.assert_array_equal(clone.c, spec.c)
        assert clone.f == spec.f
        assert clone.sampling_time == spec.sampling_time


def test_with_sampling_time(bench):
    pend = bench["pendulum"]
    fast = pend.with_sampling_time(0.05)
    assert fast.sampling_time == 0.05
    assert pend.sampling_time == 0.1
    np.testing.assert_array_equal(fast.a, pend.a)
