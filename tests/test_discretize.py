"""Taylor-Lie maps, the reference integrator and trajectory simulation."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from lipdisc import (
    BoxRegion,
    DiscreteModel,
    ExactMap,
    IntegrationError,
    SpecValidationError,
    SystemSpec,
    benchmarks,
    parse,
    simulate,
)

from lipdisc import discretize
from lipdisc import expr as ex
from lipdisc.expr import ExprEvalError

from conftest import expm, float_bits, point_array, sample_points


def _linear_spec(a, t=0.1):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return SystemSpec(
        name="linear",
        a=a,
        c=np.eye(n),
        f=tuple(parse("0") for _ in range(n)),
        region=BoxRegion(-np.ones(n), np.ones(n)),
        sampling_time=t,
    )


def _truncated_series(a, t, order):
    # independent oracle: sum_{l<=k} (t^l / l!) A^l accumulated term by term
    n = a.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for l in range(1, order + 1):
        term = term @ a * (t / l)
        result = result + term
    return result


def test_linear_part_matches_truncated_exponential_series():
    rng = np.random.default_rng(100)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        for t in (0.01, 0.1):
            spec = _linear_spec(a, t)
            for order in (1, 2, 3):
                mdl = DiscreteModel(spec, order)
                oracle = _truncated_series(a, t, order)
                np.testing.assert_allclose(mdl.a_d, oracle, rtol=1e-14, atol=1e-14)


def test_linear_system_has_zero_nonlinear_part(bench):
    spec = bench["linear-2d"]
    x = np.array([0.3, -0.7])
    for order in (1, 2, 3):
        mdl = DiscreteModel(spec, order)
        np.testing.assert_array_equal(mdl.f_t(x), np.zeros(2))
        np.testing.assert_allclose(np.asarray(mdl(x)), mdl.a_d @ x, rtol=1e-15)


def test_order1_pendulum_nonlinear_part(bench):
    mdl = DiscreteModel(bench["pendulum"], 1)
    np.testing.assert_allclose(mdl.f_t([np.pi / 2, 0.0]), [0.0, -0.1], rtol=1e-15)


def test_order2_scalar_hand_computed_value():
    # A = 0, f = x1^2, T = 0.1, x = 1:
    #   F_T = T f + (T^2/2)(J A x + J f) = 0.1 + 0.005 * (0 + 2) = 0.11
    spec = SystemSpec(
        name="quad",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("x1^2"),),
        region=BoxRegion([-2.0], [2.0]),
        sampling_time=0.1,
    )
    mdl = DiscreteModel(spec, 2)
    np.testing.assert_allclose(mdl.f_t([1.0]), [0.11], rtol=1e-14)


def test_step_examples(bench):
    pend = bench["pendulum"]
    mdl = DiscreteModel(pend, 1)
    np.testing.assert_allclose(np.asarray(mdl([0.0, 1.0])), [0.1, 0.95], rtol=1e-15)
    np.testing.assert_array_equal(np.asarray(mdl([0.0, 0.0])), [0.0, 0.0])


def test_unsupported_order():
    spec = _linear_spec(np.zeros((1, 1)))
    for order in (0, 4, 2.0, True, "2"):  # a bool or a non-integer is no order either
        with pytest.raises(SpecValidationError) as err:
            DiscreteModel(spec, order)
        assert (err.value.path, err.value.message) == (
            "order", f"must be one of (1, 2, 3), got {order!r}"
        )


def test_model_order_is_an_int_and_a_d_is_no_argument(bench):
    mdl = DiscreteModel(bench["pendulum"], np.int64(3))
    assert mdl.order == 3 and type(mdl.order) is int
    with pytest.raises(TypeError):
        DiscreteModel(bench["pendulum"], 2, np.eye(2))


def test_a_d_keeps_the_bits_of_the_sum_term_by_term(bench, probe):
    for spec in [*bench.values(), probe]:
        for t in (0.025, 0.1, 1.0):
            s = spec.with_sampling_time(t)
            a = s.a
            terms = (t * a, (t * t / 2.0) * (a @ a), (t**3 / 6.0) * (a @ a @ a))
            total = np.eye(s.n)
            for order, term in enumerate(terms, start=1):
                total = total + term
                got = DiscreteModel(s, order).a_d
                assert got.tobytes() == total.tobytes(), (spec.name, t, order)


def _assert_near(got, want, what):
    """Norm-wise relative agreement at 1e-13: one point sums the Lie trees,
    the numpy series sums the written-out terms, in another order."""
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (what, got, want)


def test_f_t_batch_matches_pointwise(bench, probe):
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 30, seed=77)
        for order in (1, 2, 3):
            mdl = DiscreteModel(spec, order)
            batch = mdl.f_t_batch(xs, us)
            for i in range(30):
                _assert_near(mdl.f_t(xs[i], us[i]), batch[i], (spec.name, order, i))


@pytest.mark.parametrize("rows", [0, 5, 30])
def test_f_t_batch_chunks_match_one_batch(bench, probe, monkeypatch, rows):
    specs = [*bench.values(), probe]
    whole = {}
    for spec in specs:
        xs, us = sample_points(spec, rows, seed=13)
        for order in (1, 2, 3):
            whole[spec.name, order] = DiscreteModel(spec, order).f_t_batch(xs, us)
    monkeypatch.setattr(discretize, "_CHUNK_ROWS", 7)  # 30 = 4 * 7 + 2
    for spec in specs:
        xs, us = sample_points(spec, rows, seed=13)
        for order in (1, 2, 3):
            chunked = DiscreteModel(spec, order).f_t_batch(xs, us)
            assert chunked.shape == (rows, spec.n)
            assert chunked.tobytes() == whole[spec.name, order].tobytes(), (spec.name, order)


def _dense_bilinear(hess, support, va, vb):
    return np.einsum("...ijk,...j,...k->...i", hess, va, vb)


@pytest.mark.parametrize("n", range(1, 7))
def test_sparse_contraction_is_bit_equal_to_the_dense_einsum(n):
    rng = np.random.default_rng(400 + n)
    rows = 400
    hess = rng.standard_normal((rows, n, n, n)) * 10.0 ** rng.integers(-6, 7, (rows, n, n, n))
    skipped = rng.random((n, n, n)) < 0.5
    skipped.flat[-1] = False  # at least one live entry
    hess[:, skipped] = np.where(rng.random(int(skipped.sum())) < 0.5, 0.0, -0.0)
    support = tuple(zip(*(ix.tolist() for ix in np.nonzero(~skipped))))
    va, vb = (
        rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, n)) for _ in range(2)
    )
    # the last 40 rows get a non-finite entry in va or vb
    for r in range(rows - 40, rows):
        (va if r % 2 else vb)[r, rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
    # where a skipped entry meets a non-finite va_j or vb_k, its term
    # (+-0 * va_j) * vb_k is NaN in the dense sum and absent in the sparse one
    meets = np.zeros((rows, n), bool)
    for i, j, k in zip(*np.nonzero(skipped)):
        meets[:, i] |= ~np.isfinite(va[:, j]) | ~np.isfinite(vb[:, k])
    columns = [hess[:, i, j, k] for i, j, k in support]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf
        got = discretize._bilinear(columns, support, va.T, vb.T, np.zeros((n, rows))).T
        assert float_bits(np.where(meets, np.nan, got)) == float_bits(
            _dense_bilinear(hess, support, va, vb)
        )
        for r in range(rows):
            # one point: floats and lists of floats
            entries = [float(hess[r, i, j, k]) for i, j, k in support]
            got = discretize._bilinear(entries, support, va[r].tolist(), vb[r].tolist(), [0.0] * n)
            want = _dense_bilinear(hess[r], support, va[r], vb[r])
            assert float_bits(np.where(meets[r], np.nan, got)) == float_bits(want), r


_EINSUM_ORDER = (
    "discretize._matvec assumes numpy's two-operand einsum sums J v in two "
    "float64 lanes (column j on lane j mod 2, full blocks of 8 in descending "
    "order, the last n mod 8 columns ascending, lane 0 + lane 1, multiply "
    "then add); this numpy build sums in another order"
)


@pytest.mark.parametrize("density", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("n", range(1, 21))
def test_matvec_keeps_the_bits_of_the_einsum(n, density):
    rng = np.random.default_rng(500 + n)
    rows = 300
    jac = rng.standard_normal((rows, n, n)) * 10.0 ** rng.integers(-6, 7, (rows, n, n))
    v = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, n))
    skipped = rng.random((n, n)) >= density  # density 0: an empty support, as in linear-2d
    jac[:, skipped] = np.where(rng.random(int(skipped.sum())) < 0.5, 0.0, -0.0)
    support = tuple(zip(*(ix.tolist() for ix in np.nonzero(~skipped))))
    # some entries are positive constants, passed as one float for the stack
    constant = [rng.random() < 0.3 for _ in support]
    varying = ~skipped
    for (i, j), c in zip(support, constant):
        if c:
            jac[:, i, j] = abs(jac[0, i, j])
            varying[i, j] = False
    # signed-zero products: varying entries at +-0.0, v of +-0.0, both at once
    jac[-30:-20, varying] = np.where(rng.random((10, int(varying.sum()))) < 0.5, 0.0, -0.0)
    v[-20:-10] = np.where(rng.random((10, n)) < 0.5, 0.0, -0.0)
    v[-10:] = -0.0
    jac[-5:, varying] = np.abs(jac[-5:, varying])  # every product is -0.0
    lanes = discretize._einsum_lanes(support, n)
    columns = [
        float(jac[0, i, j]) if c else jac[:, i, j] for (i, j), c in zip(support, constant)
    ]
    got = discretize._matvec(columns, lanes, v.T, np.empty((n, rows))).T
    want = np.einsum("...ij,...j->...i", jac, v)
    assert float_bits(want[-10:]) == float_bits(np.zeros((10, n))), _EINSUM_ORDER
    assert float_bits(got) == float_bits(want), _EINSUM_ORDER
    for r in range(rows):
        entries = [float(jac[r, i, j]) for i, j in support]
        got = discretize._matvec(entries, lanes, v[r].tolist(), [0.0] * n)
        want = np.einsum("ij,j->i", jac[r], v[r])
        assert float_bits(got) == float_bits(want), (r, _EINSUM_ORDER)


def _reference_series(mdl, x, u, bilinear):
    """F_T as one numpy series on a point (n,) or a stack (N, n), with f,
    J and the whole H from the spec's templates and H(a, b) from
    ``bilinear(hess, support, va, vb)``: the bit-level reference for the
    batch series over the support, and the reference to rounding for one
    point, which sums the Lie trees instead."""
    s = mdl.spec
    if x.ndim == 1:
        f_of = lambda x, u: point_array(s._f_template, x, u)
        hess_of = lambda x, u: point_array(s._hess_template, x, u)
        jac_of = s.jacobian
    else:
        f_of, jac_of, hess_of = s.eval_f_batch, s.jacobian_batch, s.second_derivative_batch
    t, at = s.sampling_time, s.a.T
    f = f_of(x, u)
    out = t * f
    if mdl.order == 1:
        return out
    jac = jac_of(x, u)
    ax = x @ at
    mv = lambda mats, vecs: np.einsum("...ij,...j->...i", mats, vecs)
    fa, jax, jf = f @ at, mv(jac, ax), mv(jac, f)
    out = out + (t * t / 2.0) * (fa + jax + jf)
    if mdl.order == 2:
        return out
    hess, support = hess_of(x, u), s._hess_template.support
    bil = lambda va, vb: bilinear(hess, support, va, vb)
    bracket = (
        fa @ at
        + jax @ at
        + jf @ at
        + mv(jac, ax @ at)
        + mv(jac, fa)
        + mv(jac, jax)
        + mv(jac, jf)
        + bil(ax, ax)
        + 2.0 * bil(ax, f)
        + bil(f, f)
    )
    return out + (t**3 / 6.0) * bracket


def _sparse_bilinear(hess, support, va, vb):
    """H(va, vb) over the support entries of a whole H, in C order."""
    hess, va, vb = hess.T, va.T, vb.T
    acc = np.zeros(va.shape)
    for i, j, k in support:
        term = hess[k, j, i] * va[j]
        term *= vb[k]
        acc[i] += term
    return acc.T


def test_order3_series_keeps_the_bits_of_the_dense_contraction(bench, probe):
    for spec in [*bench.values(), probe]:
        mdl = DiscreteModel(spec, 3)
        xs, us = sample_points(spec, 200, seed=21)
        want = _reference_series(mdl, xs, us, _dense_bilinear)
        assert mdl.f_t_batch(xs, us).tobytes() == want.tobytes(), spec.name
        for x, u in zip(xs[:20], us[:20]):
            want = _reference_series(mdl, x, u, _dense_bilinear)
            _assert_near(mdl.f_t(x, u), want, spec.name)


def _signed_zero_points(spec, count, seed):
    xs, us = sample_points(spec, count, seed)
    alternating = [(-0.0, 0.0)[i % 2] for i in range(spec.n)]
    zeros_x = np.array([[-0.0] * spec.n, [0.0] * spec.n, alternating])
    zeros_u = np.array([[-0.0] * spec.m, [0.0] * spec.m, [0.0] * spec.m])
    return np.vstack([xs, zeros_x]), np.vstack([us, zeros_u])


def _lie_tree_sum(mdl, x, u):
    """F_T at one point from ``expr.evaluate`` over every entry of the
    spec's Lie terms N_1..N_k, summed as T N_1 + (T^2/2) N_2 + (T^3/6) N_3."""
    template = discretize._lie_template(mdl.spec, mdl.order)
    values = template.const_list.copy()
    for tree, j in template.live:
        values[j] = ex.evaluate(tree, x, u)
    t, n = mdl.spec.sampling_time, mdl.spec.n
    out = [t * v for v in values[:n]]
    if mdl.order >= 2:
        out = [o + (t * t / 2.0) * v for o, v in zip(out, values[n : 2 * n])]
    if mdl.order == 3:
        out = [o + (t**3 / 6.0) * v for o, v in zip(out, values[2 * n :])]
    return np.array(out)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_point_f_t_sums_the_lie_trees_near_the_numpy_series(bench, probe, order):
    # on the synthetic spec every H(a, b) term is nonzero (on the others
    # H(Ax, f) or H(f, f) vanishes), and at T = 1.5 the order-3 bracket
    # weighs in F_T; the n = 9 spec has a full J and a dense A, and one
    # walk of its order-3 trees takes about 0.1 s, so there the walk runs
    # at the first 20 points and the three signed-zero ones
    for spec in [*bench.values(), probe, _synthetic_spec(3, t=1.5), _full_jacobian_spec(9)]:
        mdl = DiscreteModel(spec, order)
        xs, us = _signed_zero_points(spec, 200, seed=41 + order)
        walked = range(203) if spec.n < 9 else [*range(20), 200, 201, 202]
        for i, (x, u) in enumerate(zip(xs, us)):
            got = np.asarray(mdl.f_t(x, u))
            _assert_near(got, _reference_series(mdl, x, u, _sparse_bilinear), (spec.name, x, u))
            step = np.asarray(mdl(x, u))
            assert step.tobytes() == (mdl.a_d @ x + got).tobytes(), (spec.name, x, u)
            if i in walked:
                want = _lie_tree_sum(mdl, x, u)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (spec.name, x, u)
        batch = mdl.f_t_batch(xs, us)
        want = _reference_series(mdl, xs, us, _sparse_bilinear)
        assert batch.tobytes() == want.tobytes(), spec.name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_batch_rows_where_f_fails_stay_non_finite(order):
    # J = diag(exp(x1) + 3 x1^2, 1/(2 sqrt(x2)) + 1): J v skips the
    # constant zeros J[0, 1] and J[1, 0], whose dense terms 0 * inf are
    # NaN where the other component of f is not finite
    spec = SystemSpec(
        name="split",
        a=[[-0.5, 0.2], [0.1, -0.3]],
        c=np.eye(2),
        f=(parse("exp(x1) + x1^3"), parse("sqrt(x2) + x2")),
        region=BoxRegion([-1e3, -1e3], [1e3, 1e3]),
        sampling_time=0.1,
    )
    mdl = DiscreteModel(spec, order)
    xs = np.array(
        [[0.5, 0.25], [710.0, 0.25], [720.0, 4.0], [-1e120, 1.0], [0.5, -1.0], [1.0, -3.0],
         [710.0, -1.0], [-0.0, 0.25], [2.0, 9.0]]
    )
    us = np.zeros((xs.shape[0], 0))
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf in both series
        got = mdl.f_t_batch(xs, us)
        want = _reference_series(mdl, xs, us, _dense_bilinear)
    failed = ~np.isfinite(spec.eval_f_batch(xs, us)).all(axis=1)
    assert failed.tolist() == [False, True, True, True, True, True, True, False, False]
    assert (~np.isfinite(got).all(axis=1)).tolist() == failed.tolist()
    assert (~np.isfinite(want).all(axis=1)).tolist() == failed.tolist()
    assert float_bits(got[~failed]) == float_bits(want[~failed])


def _scalar_plant(text, a=0.0):
    return SystemSpec(
        name="scalar",
        a=[[a]],
        c=[[1.0]],
        f=(parse(text),),
        region=BoxRegion([-1e3], [1e3]),
        sampling_time=0.1,
    )


@pytest.mark.parametrize("order", [1, 2, 3])
def test_point_series_overflowing_f_saturates_as_before(order):
    spec = _scalar_plant("exp(x1) + x1^3", a=-0.5)
    mdl = DiscreteModel(spec, order)
    for x in (710.0, 720.0, -1e120):
        point = np.array([x])
        assert not np.isfinite(spec._f_template.point(point, ())).all()
        with np.errstate(all="ignore"):  # inf - inf and 0 * inf in the numpy series
            want = _reference_series(mdl, point, (), _sparse_bilinear)
        got = mdl.f_t(point)
        assert not np.isfinite(got).all()
        assert np.isfinite(got).tolist() == np.isfinite(want).tolist(), (order, x)
        assert float_bits(got) == float_bits(_lie_tree_sum(mdl, point, ())), (order, x)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_point_series_domain_error_raises_as_before(order):
    mdl = DiscreteModel(_scalar_plant("sqrt(x1) + ln(2 + x1)"), order)
    for x in (-1.0, -3.0):
        want = _raised(_reference_series, mdl, np.array([x]), (), _sparse_bilinear)
        got = _raised(mdl.f_t, [x])
        assert isinstance(got, ExprEvalError)
        assert str(got) == str(want) and got.node == want.node


def test_hessian_support_lists_the_entries_that_are_not_constant_zeros(bench, probe):
    assert bench["linear-2d"]._hess_template.support == ()
    assert bench["pendulum"]._hess_template.support == ((1, 0, 0),)
    # -sin(x1) + 0.1*x2*x3 and -sin(x3) + u1: H[1,1,2] = H[1,2,1] = 0.1
    assert probe._hess_template.support == ((1, 0, 0), (1, 1, 2), (1, 2, 1), (3, 2, 2))


# ---------------------------------------------------------------------------
# exact discretization

def test_exact_step_linear_matches_matrix_exponential():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=(3, 3))
        spec = _linear_spec(a, t=0.1)
        x = rng.uniform(-1, 1, size=3)
        np.testing.assert_allclose(
            ExactMap(spec)(x), expm(a, 0.1) @ x, rtol=1e-9, atol=1e-9
        )


def test_exact_step_scalar_decay():
    spec = SystemSpec(
        name="decay",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("-x1"),),
        region=BoxRegion([-2.0], [2.0]),
        sampling_time=0.3,
    )
    got = ExactMap(spec)([1.5])
    np.testing.assert_allclose(got, [1.5 * np.exp(-0.3)], rtol=1e-9)


def test_exact_step_tolerance_self_consistency(bench):
    pend = bench["pendulum"]
    x = np.array([0.5, 0.0])
    for tol in (1e-8, 1e-10):
        coarse = np.array(ExactMap(pend, tol)(x))
        fine = np.array(ExactMap(pend, tol / 10)(x))
        assert np.linalg.norm(coarse - fine) <= 20 * tol


def _reference_exact_step(s, x, u=(), tol=1e-10):
    """Dormand-Prince with the stage sums as Python sums over lists of
    vectors, term by term in stage order from 0, each stage from the
    spec's field template F = A x + f, and the error norm's mean of
    squares summed left to right: the bit-level reference for ExactMap's
    generated stages."""
    t_end = s.sampling_time
    y = np.asarray(x, dtype=float).copy()

    def rhs(state):
        return point_array(discretize._lie_template(s, 0), state, u)

    t = 0.0
    h = t_end
    while True:
        remaining = t_end - t
        if remaining <= 4.0 * np.finfo(float).eps * t_end:
            return y
        h = min(h, remaining)
        if h < remaining and h <= 1e-6 * t_end:  # the last step is exempt
            raise IntegrationError("step size underflow", t, y, h)
        k = [rhs(y)]
        for stage in range(1, 7):
            incr = sum(c * k[j] for j, c in enumerate(discretize._DP_A[stage]))
            k.append(rhs(y + h * incr))
        y_new = y + h * sum(b * ki for b, ki in zip(discretize._DP_B5, k))
        err_vec = h * sum(e * ki for e, ki in zip(discretize._DP_E, k))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        squares = 0.0  # left to right, as generated: builtin sum compensates on 3.12+
        for q in (err_vec / scale).tolist():
            squares += q * q
        err = math.sqrt(squares / y.size)
        if err <= 1.0:
            t += h
            y = y_new
        factor = 5.0 if err == 0.0 else discretize._SAFETY * err ** (-0.2)
        h = h * min(5.0, max(0.2, factor))


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13, 1e-6])
def test_exact_step_keeps_the_bits_of_list_stage_sums(bench, probe, tol):
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 200, seed=17)
        for x, u in zip(xs, us):
            got = np.array(ExactMap(spec, tol)(x, u))
            assert got.tobytes() == _reference_exact_step(spec, x, u, tol).tobytes(), spec.name


def test_exact_step_keeps_the_bits_at_zero_states(bench):
    linear = bench["linear-2d"]
    origin = np.zeros(2)
    got = np.array(ExactMap(linear)(origin))
    assert got.tobytes() == _reference_exact_step(linear, origin).tobytes()
    pend = bench["pendulum"]
    signed = np.array([-0.0, 0.0])
    got = np.array(ExactMap(pend)(signed))
    assert got.tobytes() == _reference_exact_step(pend, signed).tobytes()


def test_exact_step_underflow_message_is_unchanged():
    # dx/dt = x^2 from x = 1 blows up at t = 1, inside T = 5
    spec = SystemSpec(
        name="blowup", a=[[0.0]], c=[[1.0]], f=(parse("x1^2"),),
        region=BoxRegion([0.0], [2.0]), sampling_time=5.0,
    )
    with pytest.raises(IntegrationError) as want:
        _reference_exact_step(spec, [1.0])
    with pytest.raises(IntegrationError) as got:
        ExactMap(spec)([1.0])
    assert str(got.value) == str(want.value)
    assert "step size underflow" in str(got.value) and got.value.t < 1.0


def _synthetic_spec(n, t=0.1):
    """A random A plus sin and product terms that couple neighbours."""
    rng = np.random.default_rng(600 + n)
    f = tuple(
        parse(f"0.3*sin(x{(i + 1) % n + 1}) - 0.2*x{i + 1}*x{(i + 2) % n + 1}") for i in range(n)
    )
    return SystemSpec(
        name=f"synthetic-{n}",
        a=rng.uniform(-1.0, 1.0, size=(n, n)),
        c=np.eye(n),
        f=f,
        region=BoxRegion(-np.ones(n), np.ones(n)),
        sampling_time=t,
    )


def _full_jacobian_spec(n, t=0.5):
    """Every f_i depends on every state through a sine of a weighted sum,
    so no entry of J is a constant zero."""
    rng = np.random.default_rng(700 + n)
    weights = rng.uniform(0.1, 1.0, size=(n, n)).round(2)
    f = tuple(
        parse(
            "0.3*sin(" + " + ".join(f"{float(w)!r}*x{j + 1}" for j, w in enumerate(row)) + ")"
            + f" - 0.2*x{i + 1}*x{(i + 1) % n + 1}"
        )
        for i, row in enumerate(weights)
    )
    return SystemSpec(
        name=f"full-jacobian-{n}",
        a=rng.uniform(-1.0, 1.0, size=(n, n)) / 3.0,
        c=np.eye(n),
        f=f,
        region=BoxRegion(-np.ones(n), np.ones(n)),
        sampling_time=t,
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_generated_step_keeps_the_bits_for_every_dimension(n):
    spec = _synthetic_spec(n)
    xs, us = sample_points(spec, 40, seed=n)
    for x, u in zip(xs, us):
        got = np.array(ExactMap(spec)(x, u))
        assert got.tobytes() == _reference_exact_step(spec, x, u).tobytes()


def test_exact_step_keeps_the_bits_over_a_long_chained_run(probe):
    _, us = sample_points(probe, 2000, seed=23)
    exact = ExactMap(probe)
    got = want = 0.5 * probe.region.upper
    for k, u in enumerate(us):
        got, want = np.array(exact(got, u)), _reference_exact_step(probe, want, u)
        assert got.tobytes() == want.tobytes(), k


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


def test_exact_step_overflowing_stage_saturates_and_underflows_as_before():
    # exp(700) is finite, the first stage state is not: f saturates to inf
    spec = SystemSpec(
        name="overflow",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("exp(x1)"),),
        region=BoxRegion([0.0], [800.0]),
        sampling_time=0.1,
    )
    assert spec._f_template.point([710.0], ()) == [np.inf]
    with np.errstate(all="ignore"):  # inf - inf in the reference's stage sums
        got = _raised(ExactMap(spec), [700.0])
        want = _raised(_reference_exact_step, spec, [700.0])
    assert isinstance(got, IntegrationError)
    assert "step size underflow" in str(got)
    assert str(got) == str(want)
    assert (got.t, got.h, got.x.tobytes()) == (want.t, want.h, want.x.tobytes())


def test_exact_step_stage_outside_the_domain_raises_as_before():
    # sqrt is fine at x = 1e-3; the first stage state is negative
    spec = SystemSpec(
        name="domain",
        a=[[-100.0]],
        c=[[1.0]],
        f=(parse("sqrt(x1)"),),
        region=BoxRegion([0.0], [1.0]),
        sampling_time=0.1,
    )
    got = _raised(ExactMap(spec), [1e-3])
    want = _raised(_reference_exact_step, spec, [1e-3])
    assert isinstance(got, ExprEvalError)
    assert type(got) is type(want) and str(got) == str(want)
    assert got.node == want.node


def test_exact_step_generates_one_integrator_per_spec(bench):
    pend = bench["pendulum"]
    fresh = benchmarks.load("pendulum")
    early = fresh.with_sampling_time(0.05)  # copied before the integrator exists
    assert fresh._discretize_cache == {}
    for spec in (fresh, early, fresh.with_sampling_time(0.3), pend, bench["van-der-pol"]):
        ExactMap(spec)(0.5 * spec.region.upper, 0.5 * spec.input_region.upper)
    integrate = fresh._discretize_cache["integrator"]
    assert discretize._integrator(fresh) is integrate
    assert discretize._integrator(early) is integrate
    assert discretize._integrator(fresh.with_sampling_time(0.2)) is integrate
    # every spec has its own, also one of the same dimension and field
    assert discretize._integrator(pend) is not integrate
    assert discretize._integrator(bench["van-der-pol"]) is not discretize._integrator(pend)
    assert set(fresh._discretize_cache) == {0, "integrator"}  # the field's template only


def test_exact_map_binds_its_integrator_once(bench, monkeypatch):
    vdp, integrator, bound = bench["van-der-pol"], discretize._integrator, []

    def counted(s):
        bound.append(s)
        return integrator(s)

    monkeypatch.setattr(discretize, "_integrator", counted)
    step = ExactMap(vdp)
    assert bound == []  # nothing is bound before the first step
    traj = simulate(step, vdp, [0.1, 0.2], np.zeros((20, 1)))
    assert np.array(step([0.1, 0.2], [0.0])).tobytes() == traj.states[1].tobytes()
    assert bound == [vdp]


def _plant_counters(monkeypatch, spec):
    """Count the work of ExactMap on ``spec`` through the names its
    generated code looks up: calls of the field kernel (the first try of
    a fallback, since every stage is written out), calls of ``sin`` in the
    kernel and in the integrator (the same number in every stage), and
    trials and accepted trials through the error norm's ``root``.  With
    ``log["fail_after_accept"]`` set, ``sin`` raises OverflowError from
    each accepted trial on until ``log["fail_next"]`` is cleared, and
    ``log["failed"]`` counts the written-out stages that raised."""
    field = discretize._lie_template(spec, 0)
    field.point(0.5 * spec.region.upper, 0.5 * spec.input_region.upper)  # builds the kernel
    kernel, integrate = field.kernel, discretize._integrator(spec)
    log = dict(kernel=0, sin=0, trials=0, accepted=0, failed=0)
    log.update(fail_after_accept=False, fail_next=False)

    def counted_kernel(x, u, out):
        log["kernel"] += 1
        return kernel(x, u, out)

    def planted_sin(written_out):
        def sin(a):
            log["sin"] += 1
            if log["fail_next"]:
                log["failed"] += written_out
                raise OverflowError("planted")
            return math.sin(a)

        return sin

    def root(a):
        err = math.sqrt(a)
        log["trials"] += 1
        log["accepted"] += err <= 1.0
        log["fail_next"] = log["fail_after_accept"] and err <= 1.0
        return err

    monkeypatch.setattr(field, "kernel", counted_kernel)
    monkeypatch.setitem(kernel.__globals__, "sin", planted_sin(False))
    monkeypatch.setitem(integrate.__globals__, "sin", planted_sin(True))
    monkeypatch.setitem(integrate.__globals__, "root", root)
    return log


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_exact_step_evaluates_the_first_stage_once_per_call(bench, probe, monkeypatch, tol):
    rejected = reused = counted = 0
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 50, seed=61)
        with monkeypatch.context() as patch:
            log = _plant_counters(patch, spec)
            log["sin"] = 0
            discretize._lie_template(spec, 0).point(xs[0], us[0])
            per_stage = log["sin"]  # sin calls of one evaluation of F
            for x, u in zip(xs, us):
                log.update(kernel=0, sin=0, trials=0, accepted=0)
                got = np.array(ExactMap(spec, tol)(x, u))
                # every stage is written out: the first, then six per trial
                assert log["kernel"] == 0, spec.name
                assert log["sin"] == per_stage * (1 + 6 * log["trials"]), spec.name
                counted += per_stage > 0
                rejected += log["trials"] - log["accepted"]
                reused += log["accepted"] - 1
                want = _reference_exact_step(spec, x, u, tol)
                assert got.tobytes() == want.tobytes(), spec.name
    assert rejected > 0 and reused > 0 and counted > 0


def test_exact_step_falls_back_when_a_stage_fails_right_after_an_accepted_step(
    probe, monkeypatch
):
    # the first stage after each accepted trial raises in its written-out
    # field and again in the kernel, so the walk must give it, with the
    # same bits
    log = _plant_counters(monkeypatch, probe)
    log["fail_after_accept"] = True
    walked = []
    evaluate = ex.evaluate

    def walk(*args):
        walked.append(1)
        log["fail_next"] = False
        return evaluate(*args)

    monkeypatch.setattr(ex, "evaluate", walk)
    xs, us = sample_points(probe, 30, seed=67)
    failed = 0
    for x, u in zip(xs, us):
        log.update(failed=0, accepted=0, fail_next=False)
        got = np.array(ExactMap(probe)(x, u))
        # every accepted trial but the last is followed by a failing stage
        assert log["failed"] == log["accepted"] - 1 and log["fail_next"]
        failed += log["failed"]
        log["fail_next"] = False
        assert got.tobytes() == _reference_exact_step(probe, x, u).tobytes()
    assert failed > 0 and len(walked) >= failed


def test_exact_step_on_a_missing_input_raises_as_before(probe):
    x = 0.5 * probe.region.upper
    got = _raised(ExactMap(probe), x, ())
    want = _raised(_reference_exact_step, probe, x, ())
    assert isinstance(got, ExprEvalError)
    assert type(got) is type(want) and str(got) == str(want)
    assert str(got).startswith("variable u1 is out of range for dimension 0")


@pytest.mark.parametrize("u1", [np.nan, np.inf])
def test_exact_step_on_a_non_finite_input_fails_as_before(probe, u1):
    # nan: every error norm is nan, so every trial is rejected until the
    # step underflows; inf: a later stage takes sin(inf), a domain error
    x = 0.5 * probe.region.upper
    with np.errstate(all="ignore"):  # inf - inf in the reference's stage sums
        got = _raised(ExactMap(probe), x, [u1])
        want = _raised(_reference_exact_step, probe, x, [u1])
    assert type(got) is type(want) and str(got) == str(want)
    if isinstance(want, IntegrationError):
        assert (got.t, got.h, got.x.tobytes()) == (want.t, want.h, want.x.tobytes())
    else:
        assert isinstance(want, ExprEvalError) and got.node == want.node


def test_exact_step_makes_no_dot_call(bench, probe):
    # every stage is one call of the field kernel, with A as constants
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "dot":
            calls.append(arg)

    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 5, seed=71)
        sys.setprofile(profile)
        try:
            spec.a.dot(xs[0])  # the profile sees a gemv
            seen = len(calls)
            for x, u in zip(xs, us):
                ExactMap(spec)(x, u)
        finally:
            sys.setprofile(None)
        assert seen == 1 and len(calls) == 1, spec.name
        calls.clear()


def test_exact_step_validates_tolerance(bench):
    with pytest.raises(ValueError):
        ExactMap(bench["pendulum"], 1e-3)
    with pytest.raises(ValueError):
        ExactMap(bench["pendulum"], 1e-14)
    with pytest.raises(SpecValidationError, match=r"^tol: must lie in \[1e-13, 1e-6\]") as err:
        ExactMap(bench["pendulum"], tol=1e-3)  # before any trajectory runs
    assert (err.value.path, err.value.message) == ("tol", "must lie in [1e-13, 1e-6], got 0.001")


@pytest.mark.parametrize("t", [1e-13, 1e-300, 5e-324])
def test_exact_map_integrates_any_positive_sampling_time(t):
    # the step floor is 1e-6 T and the last step is exempt, so no T > 0 is
    # too small, down to the smallest subnormal
    tiny = _linear_spec([[-1.0, 0.5], [0.0, -2.0]], t=t)
    x = [0.5, -0.25]
    got = np.array(ExactMap(tiny)(x))
    assert got.tobytes() == _reference_exact_step(tiny, x).tobytes()


def test_exact_map_underflows_where_the_floor_rounds_to_zero():
    # at T = 1e-320, 1e-6 T is 0.0: a NaN field rejects every trial until
    # h itself reaches 0.0, which the floor counts as below it
    spec = SystemSpec(
        name="nan-field", a=[[0.0]], c=[[1.0]], f=(parse("x1*1e999 - x1*1e999"),),
        region=BoxRegion([-1.0], [1.0]), sampling_time=1e-320,
    )
    with pytest.raises(IntegrationError) as got:
        ExactMap(spec)([0.5])
    assert str(got.value) == "step size underflow (t=0.0, h=0.0, x=[0.5])"
    want = _raised(_reference_exact_step, spec, [0.5])
    assert str(want) == str(got.value)


def test_library_checks_name_their_parameter(bench):
    vdp = bench["van-der-pol"]  # n = 2, m = 1
    mdl = DiscreteModel(vdp, 1)
    cases = [
        ("order", lambda: DiscreteModel(vdp, 4), "must be one of (1, 2, 3), got 4"),
        ("x0", lambda: simulate(mdl, vdp, [0.1], [0.0]), "must have shape (2,), got (1,)"),
        ("u_seq", lambda: simulate(mdl, vdp, [0.1, 0.2], [[0.1, 0.2]]),
         "expected rows of m = 1 numbers, got shape (1, 2)"),
        ("u_seq", lambda: simulate(mdl, vdp, [0.1, 0.2], [["a"]]),
         "could not convert string to float: 'a'"),
    ]
    for path, call, message in cases:
        with pytest.raises(SpecValidationError) as err:
            call()
        assert (err.value.path, err.value.message) == (path, message)


def test_local_error_shrinks_with_order(bench):
    pend = bench["pendulum"].with_sampling_time(0.05)
    x = np.array([0.5, 0.2])
    exact = np.array(ExactMap(pend, 1e-12)(x))
    errors = [
        np.linalg.norm(exact - np.asarray(DiscreteModel(pend, k)(x))) for k in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# simulation

def test_simulate_zero_steps(bench):
    pend = bench["pendulum"]
    traj = simulate(DiscreteModel(pend, 1), pend, [0.1, 0.2], np.zeros((0, 0)))
    assert traj.states.shape == (1, 2)
    np.testing.assert_array_equal(traj.states[0], [0.1, 0.2])
    assert traj.first_exit is None


@pytest.mark.parametrize(
    "x0, u_seq, path, message",
    [
        ([np.nan, 0.0], [[0.0]], "x0", "must be finite, got [nan, 0.0]"),
        ([0.1, np.inf], [[0.0]], "x0", "must be finite, got [0.1, inf]"),
        ([0.1, 0.2], [[0.0], [np.nan], [-np.inf]], "u_seq", "must be finite, got [nan] at step 1"),
        ([0.1, 0.2], [-np.inf], "u_seq", "must be finite, got [-inf] at step 0"),
    ],
    ids=["nan-x0", "inf-x0", "nan-input-row", "inf-input"],
)
def test_simulate_rejects_a_non_finite_state_or_input_before_any_step(
    bench, x0, u_seq, path, message
):
    def no_work(*args):
        raise AssertionError("a step ran before the arguments were checked")

    with pytest.raises(SpecValidationError) as err:
        simulate(no_work, bench["van-der-pol"], x0, u_seq)  # n = 2, m = 1
    assert (err.value.path, err.value.message) == (path, message)


def test_simulate_linear_matches_matrix_powers(bench):
    spec = bench["linear-2d"]
    mdl = DiscreteModel(spec, 1)
    x0 = np.array([0.2, -0.1])
    traj = simulate(mdl, spec, x0, np.zeros((5, 0)))
    expected = x0.copy()
    for k in range(5):
        expected = mdl.a_d @ expected
        np.testing.assert_allclose(traj.states[k + 1], expected, rtol=1e-14)
    np.testing.assert_allclose(traj.outputs, traj.states @ spec.c.T, rtol=1e-15)


def test_simulate_order2_beats_order1(bench):
    pend = bench["pendulum"].with_sampling_time(0.05)
    x0 = np.array([0.5, 0.0])
    u_seq = np.zeros((50, 0))
    exact = simulate(ExactMap(pend, 1e-12), pend, x0, u_seq)
    err = {}
    for order in (1, 2):
        approx = simulate(DiscreteModel(pend, order), pend, x0, u_seq)
        err[order] = np.max(np.linalg.norm(approx.states - exact.states, axis=1))
    assert err[2] < err[1]


def _reference_f_t(mdl, x, u):
    """DiscreteModel.f_t's float sum of the Lie terms, as an array."""
    n, t = mdl.spec.n, mdl.spec.sampling_time
    terms = discretize._lie_template(mdl.spec, mdl.order).point(x, u)
    out = [t * v for v in terms[:n]]
    for l, c in ((1, t * t / 2.0), (2, t**3 / 6.0))[: mdl.order - 1]:
        out = [o + c * v for o, v in zip(out, terms[l * n : l * n + n])]
    return np.array(out)


def _reference_model_step(mdl):
    return lambda x, u: mdl.a_d @ x + _reference_f_t(mdl, x, u)


def _reference_states(step_fn, spec, x0, u_seq):
    """The row loop simulate ran before: each step reads a row of the
    states array and its result is stored into the next."""
    states = np.empty((len(u_seq) + 1, spec.n))
    states[0] = x0
    for k in range(len(u_seq)):
        states[k + 1] = step_fn(states[k], u_seq[k])
    return states


def _trajectory_inputs(spec, steps, seed):
    xs, us = sample_points(spec, steps + 1, seed)
    return xs[0], us[1:]


def test_model_step_and_f_t_keep_the_bits_of_the_array_sum(bench, probe):
    zeros = set()  # the signs of the zero components of F_T met
    for spec, t in itertools.product([*bench.values(), probe], (0.025, 0.1, 0.2)):
        spec = spec.with_sampling_time(t)
        xs, us = sample_points(spec, 200, seed=23)
        # rows of +-0.0 states and inputs, whole or in part, where F_T has
        # zero components whose sign the one-pass sum must keep
        rng = np.random.default_rng(5)
        signed = np.where(rng.random((40, spec.n)) < 0.5, 0.0, -0.0)
        part = rng.random((40, spec.n)) < 0.5
        part[:20] = True
        xs[:40] = np.where(part, signed, xs[:40])
        us[:20] = np.copysign(0.0, us[:20])
        for order in (1, 2, 3):
            mdl = DiscreteModel(spec, order)
            want_step = _reference_model_step(mdl)
            for x, u in zip(xs, us):
                got = mdl.f_t(x, u)
                assert float_bits(got) == float_bits(_reference_f_t(mdl, x, u))
                assert float_bits(np.asarray(mdl(x, u))) == float_bits(want_step(x, u))
                assert float_bits(mdl.f_t(x.tolist(), u.tolist())) == float_bits(got)
                zeros.update(math.copysign(1.0, v) for v in got if v == 0.0)
    assert zeros == {1.0, -1.0}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_simulate_keeps_the_bits_of_the_row_loop(bench, probe, order):
    specs = [*bench.values(), probe]
    assert any(spec.m == 0 for spec in specs)  # input-free specs are among them
    for spec in specs:
        x0, u_seq = _trajectory_inputs(spec, 200, seed=order)
        mdl = DiscreteModel(spec, order)
        traj = simulate(mdl, spec, x0, u_seq)
        want = _reference_states(_reference_model_step(mdl), spec, x0, u_seq)
        assert float_bits(traj.states) == float_bits(want), spec.name
        assert float_bits(traj.outputs) == float_bits(want @ spec.c.T), spec.name


def test_simulate_exact_map_keeps_the_bits_of_chained_exact_steps(bench, probe):
    for spec in [*bench.values(), probe]:
        x0, u_seq = _trajectory_inputs(spec, 200, seed=5)
        for tol in (1e-10, 1e-6):
            traj = simulate(ExactMap(spec, tol), spec, x0, u_seq)
            want = _reference_states(ExactMap(spec, tol), spec, x0, u_seq)
            assert traj.states.tobytes() == want.tobytes(), (spec.name, tol)


def test_simulate_makes_no_exact_step_call(bench, monkeypatch):
    # the exact trajectory is one integrator call per step on lists of
    # floats, with no array wrapper around the map
    vdp = bench["van-der-pol"]
    integrate, calls = discretize._integrator(vdp), []

    def counted(y, u, tol, t_end):
        calls.append((type(y), type(u)))
        return integrate(y, u, tol, t_end)

    monkeypatch.setattr(discretize, "_integrator", lambda s: counted)
    traj = simulate(ExactMap(vdp), vdp, [0.1, 0.2], np.zeros((20, 1)))
    assert calls == [(list, list)] * 20 and traj.states.shape == (21, 2)


def test_simulate_zero_steps_for_every_stepper(probe):
    x0 = [0.3, -0.0, 0.1, 0.2]
    for stepper in (DiscreteModel(probe, 3), ExactMap(probe), lambda x, u: x + 1.0):
        for u_seq in (np.zeros((0, 1)), [], np.zeros(0)):
            traj = simulate(stepper, probe, x0, u_seq)
            assert float_bits(traj.states) == float_bits([x0])
            assert traj.first_exit is None


def test_simulate_rejects_input_rows_of_the_wrong_width(bench):
    vdp = bench["van-der-pol"]  # m = 1
    mdl = DiscreteModel(vdp, 2)
    for u_seq in (np.zeros((3, 2)), np.zeros((5, 0)), np.zeros((2, 1, 1)), 0.5):
        with pytest.raises(ValueError, match="expected rows of m = 1 numbers"):
            simulate(mdl, vdp, [0.1, 0.2], u_seq)
    # a flat sequence is one input a step only for m = 1
    flat = simulate(mdl, vdp, [0.1, 0.2], [0.1, -0.1, 0.0])
    rows = simulate(mdl, vdp, [0.1, 0.2], [[0.1], [-0.1], [0.0]])
    assert float_bits(flat.states) == float_bits(rows.states) and len(rows.states) == 4
    pend = bench["pendulum"]  # m = 0
    with pytest.raises(ValueError, match="expected rows of m = 0 numbers"):
        simulate(DiscreteModel(pend, 1), pend, [0.1, 0.2], [0.1, 0.2])


def test_simulate_leaves_a_region_exit_to_its_caller():
    # first_exit is the report; the CLI names the trajectory in its warning
    drift = SystemSpec(
        name="drift",
        a=[[1.0]],
        c=[[1.0]],
        f=(parse("0"),),
        region=BoxRegion([-1.0], [1.0]),
        sampling_time=0.5,
    )
    leave = SystemSpec(
        name="leave", a=[[1.0]], c=[[1.0]], f=(parse("0.1*x1^2"),), region=BoxRegion([-1.0], [1.0])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(DiscreteModel(drift, 1), drift, [0.9], np.zeros((3, 0)))
        assert traj.first_exit is not None
        traj = simulate(DiscreteModel(leave, 1), leave, [0.9], np.zeros((5, 0)))
        assert traj.first_exit == 2


def _per_step_first_exit(region, states):
    for k, row in enumerate(states):
        if not (np.all(row >= region.lower) and np.all(row <= region.upper)):
            return k
    return None


def test_first_exit_matches_the_per_step_check():
    rng = np.random.default_rng(31)
    spec = SystemSpec(
        name="box",
        a=np.zeros((3, 3)),
        c=np.eye(3),
        f=(parse("0"),) * 3,
        region=BoxRegion([-1.0, -2.0, 0.0], [1.0, 2.0, 0.5]),
    )
    lower, upper = spec.region.lower, spec.region.upper
    edge = np.array([lower, upper, [np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]])
    cases = [edge, edge[[3, 0]], edge[:2], edge[:1]]  # [3, 0]: x0 outside D
    for trial in range(300):
        states = rng.uniform(-1.2, 1.2, size=(int(rng.integers(1, 12)), 3)) * [1.0, 2.0, 0.5]
        nan = rng.random(states.shape) < 0.05
        states[1:][nan[1:]] = np.nan  # simulate rejects a NaN x0
        if trial % 3 == 0:
            states = np.clip(states, lower, upper)  # NaN rows stay
        cases.append(states)
    for states in cases:
        rows = iter(states[1:])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = simulate(lambda x, u: next(rows), spec, states[0], np.zeros((len(states) - 1, 0)))
        want = _per_step_first_exit(spec.region, states)
        assert traj.first_exit == want, states
        assert not caught  # the caller reports the exit
    assert [_per_step_first_exit(spec.region, c) for c in cases[:4]] == [2, 0, None, None]
    with pytest.raises(SpecValidationError, match="must be finite"):
        simulate(lambda x, u: x, spec, [0.0, np.nan, 0.0], np.zeros((1, 0)))


def test_integrator_error_carries_state():
    # finite-time blowup of dx/dt = x^2 forces a step-size underflow
    spec = SystemSpec(
        name="blowup",
        a=[[0.0]],
        c=[[1.0]],
        f=(parse("x1^2"),),
        region=BoxRegion([0.0], [2.0]),
        sampling_time=5.0,
    )
    with pytest.raises(IntegrationError):
        ExactMap(spec, 1e-9)([1.0])
