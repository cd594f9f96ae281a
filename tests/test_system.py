"""SystemSpec validation, evaluation and derivative caching."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

from lipdisc import BoxRegion, SpecValidationError, SystemSpec, differentiate, parse
from lipdisc import discretize
from lipdisc import expr as ex
from lipdisc.expr import ExprEvalError, evaluate

from conftest import (
    batch_column, central_diff, expr_points, expr_trees, float_bits, point_array, sample_points
)


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


@pytest.mark.parametrize("text, shown", [("0", "0.0"), ("-1", "-1.0"), ("NaN", "nan")])
def test_spec_sampling_time_that_is_not_positive_and_finite_names_t(text, shown):
    # json.load reads the NaN literal; the one rule serves the spec and with_sampling_time
    data = json.loads(
        '{"name": "t", "A": [[0]], "C": [[1]], "f": ["0"], '
        '"region": {"lower": [-1], "upper": [1]}, "T": %s}' % text
    )
    with pytest.raises(SpecValidationError) as err:
        SystemSpec.from_dict(data)
    assert (err.value.path, err.value.message) == ("T", f"must be positive and finite, got {shown}")
    data["T"] = 0.1
    with pytest.raises(SpecValidationError) as err:
        SystemSpec.from_dict(data).with_sampling_time(0.0)
    assert (err.value.path, err.value.message) == ("T", "must be positive and finite, got 0.0")


@pytest.mark.parametrize("key", ["region", "input_region"])
@pytest.mark.parametrize(
    "box, message",
    [
        ({"lower": [1.0], "upper": [-1.0]}, "lower bound exceeds upper bound"),
        ({"lower": [1.0, 0.0], "upper": [2.0]}, "lower and upper must be equal-length vectors"),
    ],
)
def test_box_errors_name_the_box_once(key, box, message):
    data = {
        "name": "box", "A": [[0.0]], "C": [[1.0]], "f": ["0"], "T": 0.1,
        "region": {"lower": [-1.0], "upper": [1.0]},
        key: box,
    }
    with pytest.raises(SpecValidationError) as err:
        SystemSpec.from_dict(data)
    assert str(err.value) == f"{key}: {message}"
    assert (err.value.path, err.value.message) == (key, message)


def test_zero_state_plant_is_rejected():
    with pytest.raises(SpecValidationError, match="^A: must have at least one state") as err:
        SystemSpec(
            name="empty",
            a=np.zeros((0, 0)),
            c=np.zeros((1, 0)),
            f=(),
            region=BoxRegion.empty(),
        )
    assert err.value.path == "A"


def test_region_without_origin_warns():
    with pytest.warns(UserWarning, match="origin") as record:
        _scalar_spec("x1^2", lower=1.0, upper=2.0)
    assert record[0].filename == __file__  # the frame that built the spec


def _f(spec, x, u=()):
    """f at one point through the spec's point kernel."""
    return point_array(spec._f_template, x, u)


def _hess(spec, x, u=()):
    """d^2 f/dx^2 at one point through the spec's point kernel."""
    return point_array(spec._hess_template, x, u)


def test_eval_f_examples(bench):
    pend = bench["pendulum"]
    np.testing.assert_allclose(_f(pend, [0.0, 1.0]), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(_f(pend, [np.pi / 2, 0.0]), [0.0, -1.0], rtol=1e-15)

    forced = SystemSpec(
        name="forced",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("u1*x1"),),
        region=BoxRegion([-3.0], [3.0]),
        input_region=BoxRegion([-5.0], [5.0]),
        sampling_time=0.1,
    )
    np.testing.assert_allclose(_f(forced, [2.0], [3.0]), [6.0], rtol=1e-15)


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
    assert not _hess(linear, [0.3, -0.4]).any()

    cubic = _scalar_spec("x1^3")
    np.testing.assert_allclose(_hess(cubic, [2.0]), [[[12.0]]], rtol=1e-15)

    pend = bench["pendulum"]
    assert _hess(pend, [0.0, 0.7])[1, 0, 0] == 0.0


def test_jacobian_matches_finite_differences(bench):
    for name, spec in bench.items():
        xs, us = sample_points(spec, 100, seed=13)
        for x, u in zip(xs, us):
            jac = spec.jacobian(x, u)
            for i in range(spec.n):
                for j in range(spec.n):
                    fd = central_diff(lambda pt: _f(spec, pt, u)[i], x, j)
                    assert abs(jac[i, j] - fd) <= 1e-6 * max(1.0, abs(jac[i, j])), name


def test_second_derivative_symmetry(bench):
    for spec in bench.values():
        xs, us = sample_points(spec, 20, seed=5)
        for x, u in zip(xs, us):
            hess = _hess(spec, x, u)
            np.testing.assert_allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-12)


def test_batch_evaluation_matches_pointwise(bench, probe):
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 40, seed=21)
        f_batch = spec.eval_f_batch(xs, us)
        j_batch = spec.jacobian_batch(xs, us)
        h_batch = spec.second_derivative_batch(xs, us)
        for i in range(40):
            np.testing.assert_allclose(f_batch[i], _f(spec, xs[i], us[i]), rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(j_batch[i], spec.jacobian(xs[i], us[i]), rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(
                h_batch[i], _hess(spec, xs[i], us[i]), rtol=1e-14, atol=1e-300
            )


def _entry_trees(spec):
    """f, J and H as flat lists of trees in C order, with their shapes."""
    names = [f"x{j + 1}" for j in range(spec.n)]
    n = spec.n
    jac = [differentiate(comp, name) for comp in spec.f for name in names]
    hess = [differentiate(dj, name) for dj in jac for name in names]
    return [(list(spec.f), (n,)), (jac, (n, n)), (hess, (n, n, n))]


def _per_entry_stack(trees, shape, x, u):
    """Every entry evaluated on its own over the batch, constants included."""
    cols = [batch_column(tree, x, u) for tree in trees]
    return np.stack(cols, axis=-1).reshape((x.shape[0],) + shape)


def _per_entry_point(trees, shape, x, u):
    """Every entry evaluated on its own at one point, or the domain error
    of the first failing entry in C order."""
    try:
        return np.array([evaluate(tree, x, u) for tree in trees]).reshape(shape)
    except ExprEvalError as err:
        return err


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
    raised = 0
    for spec in [*bench.values(), probe, _domain_error_spec()]:
        xs, us = sample_points(spec, rows, seed=5)
        batch = (spec.eval_f_batch, spec.jacobian_batch, spec.second_derivative_batch)
        point = (partial(_f, spec), spec.jacobian, partial(_hess, spec))
        for (trees, shape), of_batch, of_point in zip(_entry_trees(spec), batch, point):
            want = _per_entry_stack(trees, shape, xs, us)
            got = of_batch(xs, us)
            assert got.shape == want.shape
            # same bits: signed zeros and NaN included
            assert got.tobytes() == want.tobytes(), spec.name
            for x, u in zip(xs, us):
                want = _per_entry_point(trees, shape, x, u)
                if isinstance(want, ExprEvalError):
                    raised += 1
                    with pytest.raises(ExprEvalError) as err:
                        of_point(x, u)
                    assert err.value.node == want.node, spec.name
                else:
                    assert of_point(x, u).tobytes() == want.tobytes(), spec.name
    assert raised > 0 or rows < 37


def _assert_point_matches_walk(spec, x, u):
    """f, J and H at one point have the bits of the walk over every
    entry, or raise the walk's error for the first failing entry."""
    point = (partial(_f, spec), spec.jacobian, partial(_hess, spec))
    for (trees, shape), of_point in zip(_entry_trees(spec), point):
        want = _per_entry_point(trees, shape, x, u)
        if isinstance(want, ExprEvalError):
            with pytest.raises(ExprEvalError) as err:
                of_point(x, u)
            assert str(err.value) == str(want)
        else:
            assert float_bits(of_point(x, u)) == float_bits(want), spec.name


def test_point_evaluation_of_the_specs_runs_kernels_with_the_walks_bits(
    bench, probe, monkeypatch
):
    cases = []
    for spec in [*bench.values(), probe]:
        entries = _entry_trees(spec)
        xs, us = sample_points(spec, 200, seed=31)
        xs[0], us[0] = -0.0, -0.0
        for x, u in zip(xs, us):
            want = [_per_entry_point(trees, shape, x, u) for trees, shape in entries]
            cases.append((spec, x, u, want))

    def walk(*args):
        raise AssertionError("the walk ran on a point without an error")

    monkeypatch.setattr(ex, "evaluate", walk)
    for spec, x, u, (f, jac, hess) in cases:
        assert _f(spec, x, u).tobytes() == f.tobytes(), spec.name
        assert spec.jacobian(x, u).tobytes() == jac.tobytes(), spec.name
        assert _hess(spec, x, u).tobytes() == hess.tobytes(), spec.name


@pytest.mark.parametrize(
    "text, x1",
    [("ln(x1)", 0.0), ("ln(x1)", -1.0), ("sqrt(x1)", -4.0), ("1/(x1-x1)", 0.5)],
)
def test_point_domain_errors_match_the_walk(text, x1):
    spec = _scalar_spec(text)
    with pytest.raises(ExprEvalError):
        _f(spec, [x1])
    _assert_point_matches_walk(spec, [x1], [])


@pytest.mark.parametrize("text, x1", [("exp(1000)", 0.0), ("x1^400", 1e3), ("-x1^401", 1e3)])
def test_point_overflow_saturates_as_the_walk_does(text, x1):
    spec = _scalar_spec(text)
    assert np.isinf(_f(spec, [x1])[0])
    _assert_point_matches_walk(spec, [x1], [])


@settings(max_examples=150, deadline=None)
@given(expr_trees, expr_points, expr_points)
def test_point_evaluation_of_random_trees_matches_the_walk(tree, x, u):
    spec = SystemSpec(
        name="random",
        a=np.zeros((2, 2)),
        c=np.eye(2),
        f=(tree, differentiate(tree, "x2")),
        region=BoxRegion([-1.0, -1.0], [1.0, 1.0]),
        input_region=BoxRegion([-1.0, -1.0], [1.0, 1.0]),
    )
    _assert_point_matches_walk(spec, x, u)


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


def test_with_sampling_time_shares_the_templates(bench, probe):
    for spec in [*bench.values(), probe]:
        (x,), (u,) = sample_points(spec, 1, seed=3)
        _f(spec, x, u)  # f's kernel exists before the copy, J's and H's after
        fast = spec.with_sampling_time(0.05)
        assert fast.sampling_time == 0.05 and spec.sampling_time != 0.05
        for name in ("_f_template", "_jac_template", "_hess_template"):
            assert getattr(fast, name) is getattr(spec, name)
        # the point templates too, whichever side builds them
        assert fast._discretize_cache is spec._discretize_cache
        assert discretize._lie_template(fast, 0) is discretize._lie_template(spec, 0)
        for order in (1, 2, 3):
            assert discretize._lie_template(spec, order) is discretize._lie_template(fast, order)
        for point in (_f, SystemSpec.jacobian, _hess):
            assert point(fast, x, u).tobytes() == point(spec, x, u).tobytes()
    for t in (0.0, -0.1, float("nan")):
        with pytest.raises(SpecValidationError, match="^T:"):
            probe.with_sampling_time(t)


def test_with_sampling_time(bench):
    pend = bench["pendulum"]
    fast = pend.with_sampling_time(0.05)
    assert fast.sampling_time == 0.05
    assert pend.sampling_time == 0.1
    np.testing.assert_array_equal(fast.a, pend.a)
