"""Norm and matrix exponential kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipdisc import NumericalError, SamplingConfig, SystemSpec, estimate_all
from lipdisc.linalg import _power_iteration, max_singular_values

from conftest import expm


def _msv(a):
    """The 2-norm of one matrix: the one-slice stack of the kernel."""
    return float(max_singular_values(np.asarray(a, dtype=float)[None])[0])


def _sigma_bar_a_of(a):
    """estimate_all on A = a and f = 0, where A is the one matrix whose
    2-norm can fail."""
    n = a.shape[0]
    spec = SystemSpec.from_dict({
        "name": "a-only", "A": a.tolist(), "C": [[1.0] * n], "T": 0.1, "f": ["0"] * n,
        "region": {"lower": [-1.0] * n, "upper": [1.0] * n},
    })
    return estimate_all(spec, SamplingConfig(grid_per_axis=2, pair_budget=1000)).sigma_bar_a


def _unfolding_norm(t3):
    """The norm surrogate of an order-3 tensor that beta reads: the 2-norm
    of its (1, d1, d2*d3) mode-1 unfolding."""
    return float(max_singular_values(t3.reshape(1, t3.shape[0], -1))[0])


def test_msv_identity():
    assert _msv(np.eye(2)) == pytest.approx(1.0, rel=1e-10)


def test_msv_diagonal():
    assert _msv(np.diag([2.0, 3.0])) == pytest.approx(3.0, rel=1e-10)


def test_msv_pendulum_drift():
    # eigenvalues of A^T A are 0 and 1.25, worked by hand
    a = np.array([[0.0, 1.0], [0.0, -0.5]])
    assert _msv(a) == pytest.approx(np.sqrt(1.25), rel=1e-10)


def test_msv_transpose_and_scaling_properties():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(n, m))
        sigma = _msv(a)
        assert _msv(a.T) == pytest.approx(sigma, rel=1e-9)
        alpha = float(rng.uniform(-3, 3))
        assert _msv(alpha * a) == pytest.approx(abs(alpha) * sigma, rel=1e-9, abs=1e-12)


def test_msv_agrees_with_svd():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        assert _msv(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)


def _one_power_iteration(a):
    return float(_power_iteration(a[None])[0])


def _power_iteration_with_np_norm(a):
    # the power iteration as it read with np.linalg.norm for the vector norms
    n = a.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n)) + 1.0 / (np.arange(n) + 1.0)
    v /= np.linalg.norm(v)
    lam_prev = None
    for _ in range(10_000):
        av = a @ v
        lam = float(av @ av)
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-14 * max(1.0, lam):
            return float(np.sqrt(lam))
        lam_prev = lam
        w = a.T @ av
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("shape", [(4, 4), (4, 16)])
def test_msv_keeps_the_bits_of_the_np_norm_loop(shape):
    rng = np.random.default_rng(31)
    for _ in range(300):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        assert _one_power_iteration(a).hex() == _power_iteration_with_np_norm(a).hex()


def test_msv_rejects_bad_input():
    assert math.isnan(_msv(np.array([[np.nan, 0.0], [0.0, 1.0]])))
    with pytest.raises(ValueError):
        _msv(np.zeros((0, 0)))


def test_expm_zero_matrix():
    np.testing.assert_allclose(expm(np.zeros((3, 3)), 0.37), np.eye(3), atol=1e-15)


def test_expm_rotation_generator():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for t in (0.1, 1.0, 3.7):
        want = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(expm(a, t), want, rtol=1e-12, atol=1e-12)


def test_expm_diagonal():
    d = expm(np.diag([0.3, -1.2]), 1.0)
    np.testing.assert_allclose(d, np.diag(np.exp([0.3, -1.2])), rtol=1e-12)


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        t1, t2 = rng.uniform(0.05, 0.8, size=2)
        lhs = expm(a, t1) @ expm(a, t2)
        rhs = expm(a, t1 + t2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_expm_requires_square():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_tensor_surrogate_trivial_cases():
    assert _unfolding_norm(np.zeros((2, 2, 2))) == 0.0
    single = np.zeros((2, 3, 3))
    single[1, 2, 0] = 5.0
    assert _unfolding_norm(single) == pytest.approx(5.0, rel=1e-10)
    # scalar second derivative of x^3 at x = 2
    assert _unfolding_norm(np.full((1, 1, 1), 12.0)) == pytest.approx(12.0, rel=1e-10)


def test_tensor_surrogate_bounds_bilinear_action():
    rng = np.random.default_rng(8)
    t3 = rng.normal(size=(3, 4, 5))
    bound = _unfolding_norm(t3)
    worst = 0.0
    for _ in range(1000):
        y = rng.normal(size=4)
        z = rng.normal(size=5)
        y /= np.linalg.norm(y)
        z /= np.linalg.norm(z)
        worst = max(worst, float(np.linalg.norm(np.einsum("ijk,j,k->i", t3, y, z))))
    assert bound >= worst - 1e-12


@pytest.mark.parametrize(
    "a, sigma",
    [
        ([[1e150]], 1e150),  # sigma^2 is finite, ||A^T A v||^2 is not
        ([[1e100, 1e100], [1e100, 1e100]], 2e100),
        ([[1e200]], 1e200),  # sigma^2 overflows too
        ([[1e300, -1e300], [1e300, 1e300]], 2.0**0.5 * 1e300),
        ([[3e307, 0.0, 1.0], [0.0, 4e307, 0.0]], 4e307),
    ],
)
def test_msv_of_an_overflowing_power_reads_the_true_scale(a, sigma):
    # no RuntimeWarning either: pytest turns one into an error
    assert _msv(np.array(a)) == pytest.approx(sigma, rel=1e-12)
    assert _unfolding_norm(np.array(a)[:, :, None]) == pytest.approx(sigma, rel=1e-12)


def test_msv_rescaled_rerun_agrees_with_the_unscaled_matrix():
    rng = np.random.default_rng(91)
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        big = np.ldexp(a, 1000)
        want = np.ldexp(_msv(a), 1000)
        assert _msv(big) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [[[1e308, 1e308], [1e308, 1e308]], [[1.5e308, 1.5e308]]])
def test_msv_above_the_largest_float_raises_numerical_error(a):
    # sigma = 2e308 and 2.1e308: finite entries, a 2-norm no float holds.
    # The kernel reads inf; sigma_bar_a, on A with a zero row added if
    # need be (which leaves the 2-norm), raises
    a = np.array(a)
    assert _msv(a) == math.inf
    square = np.zeros((2, 2))
    square[: a.shape[0]] = a
    with pytest.raises(NumericalError, match="^sigma_bar_a: the 2-norm overflows$"):
        _sigma_bar_a_of(square)


@pytest.mark.parametrize(
    "a, sigma",
    [
        ([[1e-150]], 1e-150),  # ||A^T A v||^2 underflows to zero
        ([[1e-200]], 1e-200),  # sigma^2 underflows too
        ([[1e-170, 0.0], [0.0, 2e-170]], 2e-170),
        ([[5e-324]], 5e-324),  # the smallest subnormal
        ([[6.5e-79]], 6.5e-79),  # ||A^T A v||^2 is subnormal: its root loses bits
        ([[6.5e-79, 0.0], [0.0, 1e-79]], 6.5e-79),
    ],
)
def test_msv_of_an_underflowing_power_reads_the_true_scale(a, sigma):
    a = np.array(a)
    assert _msv(a) == pytest.approx(sigma, rel=1e-15)
    e = np.frexp(np.max(np.abs(a)))[1]
    assert _msv(a) == np.ldexp(_msv(np.ldexp(a, -e)), e)


def test_msv_where_lapack_fails_is_nan_for_the_stack(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    assert np.isnan(max_singular_values(np.ones((2, 3, 3)))).all()
    # two live rows take the closed form, which calls no LAPACK
    assert max_singular_values(np.ones((2, 2, 3))).tolist() == [math.sqrt(6.0)] * 2
    # A is the one matrix with three live rows: sigma_bar_a names the failure
    with pytest.raises(NumericalError, match="^sigma_bar_a: LAPACK eigvalsh failed$"):
        _sigma_bar_a_of(np.ones((3, 3)))


def test_msv_of_a_zero_matrix_is_zero():
    # frexp(0) gives exponent 0: the rescale must not run again
    for shape in ((1, 1), (2, 3)):
        assert _msv(np.zeros(shape)) == 0.0


# ---------------------------------------------------------------------------
# the stacked power iteration (the grid band's re-rank): lockstep matmuls
# keep every slice's bits

def _near_degenerate(rng, shape, gap):
    """A matrix with sigma2 / sigma1 = 1 - gap, where the iteration is slow
    (gap 1e-2 converges, 1e-5 does not within its 10,000 steps)."""
    r, c = shape
    u, _ = np.linalg.qr(rng.normal(size=(r, r)))
    v, _ = np.linalg.qr(rng.normal(size=(c, c)))
    sigma = np.zeros(shape)
    sigma[0, 0], sigma[1, 1] = 2.0, 2.0 * (1.0 - gap)
    return u @ sigma @ v.T


_STACK_SHAPES = [(1, 1), (2, 2), (2, 4), (4, 4), (4, 16), (9, 9)]


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_stacked_msv_keeps_the_bits_of_each_slice(shape):
    rng = np.random.default_rng(sum(shape))
    mats = [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
    mats += [np.zeros(shape), np.full(shape, 1e308), np.full(shape, np.nan)]
    mats += [np.ldexp(rng.normal(size=shape), e) for e in (1000, -1000, 1000, -1000)]
    if min(shape) > 1:
        mats += [_near_degenerate(rng, shape, gap) for gap in (1e-2, 1e-4, 1e-5)]
    stack = np.array(mats)
    got = _power_iteration(stack)
    assert got.shape == (len(mats),)
    assert [float(v).hex() for v in got] == [_one_power_iteration(mat).hex() for mat in mats]
    # inf for a 2-norm above the largest float (1e308 sqrt(r c), matrix 41),
    # NaN for non-finite entries (matrix 42) and no convergence (gap 1e-5)
    assert got[41] == (math.inf if shape[0] * shape[1] >= 4 else 1e308)
    assert np.isnan(got[42])
    if min(shape) > 1:
        assert np.isnan(got[-1]) and not np.isnan(got[-3])


@pytest.mark.parametrize("shape", [(4, 4), (4, 16)])
def test_stacked_msv_slices_match_the_two_dimensional_loop(shape):
    # pins "a stacked matmul runs the per-slice BLAS call" against a loop
    # over single matrices that never builds a stack
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(100, *shape)) * 10.0 ** rng.integers(-3, 4, size=(100, 1, 1))
    got = _power_iteration(stack)
    want = [_power_iteration_with_np_norm(mat) for mat in stack]
    assert [float(v).hex() for v in got] == [w.hex() for w in want]


def test_stacked_msv_rejects_empty_matrices_and_takes_an_empty_stack():
    with pytest.raises(ValueError):
        max_singular_values(np.zeros((3, 0, 2)))
    with pytest.raises(ValueError):
        max_singular_values(np.zeros((2, 2)))
    assert max_singular_values(np.zeros((0, 3, 3))).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(_STACK_SHAPES + [(3, 1), (1, 5), (5, 3), (2, 7), (6, 2), (6, 1)]),
    st.integers(-1020, 1020),
)
def test_gram_screen_never_falls_below_the_kernel(seed, shape, exponent):
    rng = np.random.default_rng(seed)
    stack = np.ldexp(rng.normal(size=(8, *shape)), exponent)
    stack[0] = 0.0
    stack[1, 0] = 0.0  # a zero row
    stack[2] *= np.ldexp(1.0, -60)  # scales apart by 2^60 within the stack
    kernel = _power_iteration(stack)
    screen = max_singular_values(stack)
    ok = ~np.isnan(kernel)
    assert (screen[ok] >= kernel[ok] * (1.0 - 1e-12)).all()
    assert screen[0] == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-1020, 1020),
    st.booleans(),
)
def test_gram_screen_is_the_2_norm_on_the_stack_live_block(seed, k, shape, live, exponent, equal):
    """Rows and columns zero in every matrix are dropped, those zero in only
    some are kept; the live block's smaller side picks the sum of squares
    (1), the closed form (2) or LAPACK (3 or more)."""
    rng = np.random.default_rng(seed)
    (r, c), (live_r, live_c) = shape, live
    rows, cols = rng.permutation(r)[:live_r], rng.permutation(c)[:live_c]
    block = rng.normal(size=(k, rows.size, cols.size))
    if equal and block.size:  # equal singular values: orthonormal rows or columns
        for i in range(k):
            q, _ = np.linalg.qr(rng.normal(size=(max(block.shape[1:]), min(block.shape[1:]))))
            block[i] = q if rows.size >= cols.size else q.T
    stack = np.zeros((k, r, c))
    stack[:, rows[:, None], cols] = block
    stack[rng.random((k, r)) < 0.2] = 0.0  # rows zero in some matrices only
    stack.transpose(0, 2, 1)[rng.random((k, c)) < 0.2] = 0.0  # and columns
    stack = np.ldexp(stack, np.clip(exponent + rng.integers(-60, 61, size=(k, 1, 1)), -1020, 1020))
    # the reference on each matrix scaled by a power of two to max |entry| < 1
    _, e = np.frexp(np.max(np.abs(stack), axis=(1, 2), initial=0.0))
    with np.errstate(over="ignore"):  # a 2-norm above the largest float: inf
        want = np.ldexp(np.linalg.svd(np.ldexp(stack, -e[:, None, None]), compute_uv=False)[:, 0], e)
    got = max_singular_values(stack)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.lists(st.integers(-1074, 1023), min_size=1, max_size=6),
    st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3),
)
def test_msv_is_nan_on_nonfinite_inf_above_the_largest_float_and_the_svd_elsewhere(
    seed, shape, exponents, bad
):
    rng = np.random.default_rng(seed)
    scale = np.array(exponents)[:, None, None]
    with np.errstate(over="ignore"):  # an entry may overflow to inf: a non-finite matrix
        stack = np.ldexp(rng.normal(size=(len(exponents), *shape)), scale)
    for value in bad:  # into one entry of one matrix
        stack[rng.integers(len(exponents)), rng.integers(shape[0]), rng.integers(shape[1])] = value
    finite = np.isfinite(stack).all(axis=(1, 2))
    got = max_singular_values(stack)
    assert np.array_equal(np.isnan(got), ~finite)
    # the reference on each matrix scaled by a power of two to max |entry| < 1
    _, e = np.frexp(np.max(np.abs(stack[finite]), axis=(1, 2), initial=0.0))
    scaled = np.ldexp(stack[finite], -e[:, None, None])
    with np.errstate(over="ignore"):  # a 2-norm above the largest float: inf
        want = np.ldexp(np.linalg.svd(scaled, compute_uv=False)[:, 0], e) if scaled.size else []
    np.testing.assert_allclose(got[finite], want, rtol=1e-13, atol=0.0)
