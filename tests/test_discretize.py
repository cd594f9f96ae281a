"""Taylor-Lie maps, the reference integrator and trajectory simulation."""

import numpy as np
import pytest

from lipdisc import (
    BoxRegion,
    IntegrationError,
    SystemSpec,
    build_taylor_model,
    exact_step,
    parse,
    simulate,
)

from lipdisc import discretize

from conftest import expm, float_bits, sample_points


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
                mdl = build_taylor_model(spec, order)
                oracle = _truncated_series(a, t, order)
                np.testing.assert_allclose(mdl.a_d, oracle, rtol=1e-14, atol=1e-14)


def test_linear_system_has_zero_nonlinear_part(bench):
    spec = bench["linear-2d"]
    x = np.array([0.3, -0.7])
    for order in (1, 2, 3):
        mdl = build_taylor_model(spec, order)
        np.testing.assert_array_equal(mdl.f_t(x), np.zeros(2))
        np.testing.assert_allclose(mdl.step(x), mdl.a_d @ x, rtol=1e-15)


def test_order1_pendulum_nonlinear_part(bench):
    mdl = build_taylor_model(bench["pendulum"], 1)
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
    mdl = build_taylor_model(spec, 2)
    np.testing.assert_allclose(mdl.f_t([1.0]), [0.11], rtol=1e-14)


def test_step_examples(bench):
    pend = bench["pendulum"]
    mdl = build_taylor_model(pend, 1)
    np.testing.assert_allclose(mdl.step([0.0, 1.0]), [0.1, 0.95], rtol=1e-15)
    np.testing.assert_array_equal(mdl.step([0.0, 0.0]), [0.0, 0.0])


def test_unsupported_order():
    spec = _linear_spec(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="order"):
        build_taylor_model(spec, 4)


def test_f_t_batch_matches_pointwise(bench, probe):
    # f, J and H of these specs use only + - * sin cos, where math and
    # numpy give the same bits (x^3, exp and tanh differ in the last bit).
    # The products with A still go through BLAS gemv for one point and
    # gemm for a stack: on the probe these differ in the last bit of F_T
    # at about 1 (order 2) and 6 (order 3) of 3,000 random points, not
    # at these 30.
    bitwise = {"linear-2d", "pendulum", probe.name}
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 30, seed=77)
        for order in (1, 2, 3):
            mdl = build_taylor_model(spec, order)
            batch = mdl.f_t_batch(xs, us)
            for i in range(30):
                point = mdl.f_t(xs[i], us[i])
                if spec.name in bitwise:
                    assert point.tobytes() == batch[i].tobytes(), (spec.name, order, i)
                else:
                    np.testing.assert_allclose(batch[i], point, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("rows", [0, 5, 30])
def test_f_t_batch_chunks_match_one_batch(bench, probe, monkeypatch, rows):
    specs = [*bench.values(), probe]
    whole = {}
    for spec in specs:
        xs, us = sample_points(spec, rows, seed=13)
        for order in (1, 2, 3):
            whole[spec.name, order] = build_taylor_model(spec, order).f_t_batch(xs, us)
    monkeypatch.setattr(discretize, "_CHUNK_ROWS", 7)  # 30 = 4 * 7 + 2
    for spec in specs:
        xs, us = sample_points(spec, rows, seed=13)
        for order in (1, 2, 3):
            chunked = build_taylor_model(spec, order).f_t_batch(xs, us)
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
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf
        got = discretize._bilinear(hess, support, va, vb)
        assert float_bits(np.where(meets, np.nan, got)) == float_bits(
            _dense_bilinear(hess, support, va, vb)
        )
        for r in range(rows):
            got = discretize._bilinear(hess[r], support, va[r], vb[r])
            want = _dense_bilinear(hess[r], support, va[r], vb[r])
            assert float_bits(np.where(meets[r], np.nan, got)) == float_bits(want), r


def test_order3_series_keeps_the_bits_of_the_dense_contraction(bench, probe, monkeypatch):
    specs = [*bench.values(), probe]
    points = {spec.name: sample_points(spec, 200, seed=21) for spec in specs}

    def f_t_all(spec):
        mdl = build_taylor_model(spec, 3)
        xs, us = points[spec.name]
        return [mdl.f_t_batch(xs, us)] + [mdl.f_t(x, u) for x, u in zip(xs[:20], us[:20])]

    sparse = {spec.name: f_t_all(spec) for spec in specs}
    monkeypatch.setattr(discretize, "_bilinear", _dense_bilinear)
    for spec in specs:
        for got, want in zip(sparse[spec.name], f_t_all(spec)):
            assert got.tobytes() == want.tobytes(), spec.name


def test_hessian_support_lists_the_entries_that_are_not_constant_zeros(bench, probe):
    assert bench["linear-2d"].hessian_support == ()
    assert bench["pendulum"].hessian_support == ((1, 0, 0),)
    # -sin(x1) + 0.1*x2*x3 and -sin(x3) + u1: H[1,1,2] = H[1,2,1] = 0.1
    assert probe.hessian_support == ((1, 0, 0), (1, 1, 2), (1, 2, 1), (3, 2, 2))


# ---------------------------------------------------------------------------
# exact discretization

def test_exact_step_linear_matches_matrix_exponential():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=(3, 3))
        spec = _linear_spec(a, t=0.1)
        x = rng.uniform(-1, 1, size=3)
        np.testing.assert_allclose(
            exact_step(spec, x), expm(a, 0.1) @ x, rtol=1e-9, atol=1e-9
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
    got = exact_step(spec, [1.5])
    np.testing.assert_allclose(got, [1.5 * np.exp(-0.3)], rtol=1e-9)


def test_exact_step_tolerance_self_consistency(bench):
    pend = bench["pendulum"]
    x = np.array([0.5, 0.0])
    for tol in (1e-8, 1e-10):
        coarse = exact_step(pend, x, tol=tol)
        fine = exact_step(pend, x, tol=tol / 10)
        assert np.linalg.norm(coarse - fine) <= 20 * tol


def _reference_exact_step(s, x, u=(), tol=1e-10):
    """Dormand-Prince with the stage sums as Python sums over lists of
    vectors, term by term in stage order from 0: the bit-level reference
    for exact_step's stacked stages."""
    t_end = s.sampling_time
    y = np.asarray(x, dtype=float).copy()

    def rhs(state):
        return s.a @ state + s.eval_f(state, u)

    t = 0.0
    h = t_end
    for _ in range(discretize._MAX_STEPS):
        remaining = t_end - t
        if remaining <= 4.0 * np.finfo(float).eps * t_end:
            return y
        h = min(h, remaining)
        k = [rhs(y)]
        for stage in range(1, 7):
            incr = sum(c * k[j] for j, c in enumerate(discretize._DP_A[stage]))
            k.append(rhs(y + h * incr))
        y_new = y + h * sum(b * ki for b, ki in zip(discretize._DP_B5, k))
        err_vec = h * sum(e * ki for e, ki in zip(discretize._DP_E, k))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y_new
        factor = 5.0 if err == 0.0 else discretize._SAFETY * err ** (-0.2)
        h = h * min(5.0, max(0.2, factor))
        h = min(h, t_end)
        if h < discretize._MIN_STEP:
            raise IntegrationError("step size underflow", t, y, h)
    raise IntegrationError("step budget exhausted", t, y, h)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_exact_step_keeps_the_bits_of_list_stage_sums(bench, probe, tol):
    for spec in [*bench.values(), probe]:
        xs, us = sample_points(spec, 200, seed=17)
        for x, u in zip(xs, us):
            got = exact_step(spec, x, u, tol=tol)
            assert got.tobytes() == _reference_exact_step(spec, x, u, tol).tobytes(), spec.name


def test_exact_step_keeps_the_bits_at_zero_states(bench):
    linear = bench["linear-2d"]
    origin = np.zeros(2)
    assert exact_step(linear, origin).tobytes() == _reference_exact_step(linear, origin).tobytes()
    pend = bench["pendulum"]
    signed = np.array([-0.0, 0.0])
    assert exact_step(pend, signed).tobytes() == _reference_exact_step(pend, signed).tobytes()


def test_exact_step_underflow_message_is_unchanged(bench):
    tiny = bench["pendulum"].with_sampling_time(1e-300)
    with pytest.raises(IntegrationError) as want:
        _reference_exact_step(tiny, [0.5, 0.2])
    with pytest.raises(IntegrationError) as got:
        exact_step(tiny, [0.5, 0.2])
    assert str(got.value) == str(want.value)
    assert "step size underflow" in str(got.value)


def test_exact_step_validates_tolerance(bench):
    with pytest.raises(ValueError):
        exact_step(bench["pendulum"], [0.0, 0.0], tol=1e-3)
    with pytest.raises(ValueError):
        exact_step(bench["pendulum"], [0.0, 0.0], tol=1e-14)


def test_local_error_shrinks_with_order(bench):
    pend = bench["pendulum"].with_sampling_time(0.05)
    x = np.array([0.5, 0.2])
    exact = exact_step(pend, x, tol=1e-12)
    errors = [
        np.linalg.norm(exact - build_taylor_model(pend, k).step(x)) for k in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# simulation

def test_simulate_zero_steps(bench):
    pend = bench["pendulum"]
    traj = simulate(build_taylor_model(pend, 1), pend, [0.1, 0.2], np.zeros((0, 0)))
    assert traj.states.shape == (1, 2)
    np.testing.assert_array_equal(traj.states[0], [0.1, 0.2])
    assert traj.first_exit is None


def test_simulate_linear_matches_matrix_powers(bench):
    spec = bench["linear-2d"]
    mdl = build_taylor_model(spec, 1)
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
    exact = simulate(lambda x, u: exact_step(pend, x, u, tol=1e-12), pend, x0, u_seq)
    err = {}
    for order in (1, 2):
        approx = simulate(build_taylor_model(pend, order), pend, x0, u_seq)
        err[order] = np.max(np.linalg.norm(approx.states - exact.states, axis=1))
    assert err[2] < err[1]


def test_simulate_warns_on_region_exit():
    spec = SystemSpec(
        name="drift",
        a=[[1.0]],
        c=[[1.0]],
        f=(parse("0"),),
        region=BoxRegion([-1.0], [1.0]),
        sampling_time=0.5,
    )
    mdl = build_taylor_model(spec, 1)
    with pytest.warns(UserWarning, match="leaves the region"):
        traj = simulate(mdl, spec, [0.9], np.zeros((3, 0)))
    assert traj.first_exit is not None


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
        exact_step(spec, [1.0], tol=1e-9)
