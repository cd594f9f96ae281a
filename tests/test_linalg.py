"""Norm and matrix exponential kernels."""

import numpy as np
import pytest

from lipdisc.linalg import NumericalError, max_singular_value, tensor3_norm_surrogate

from conftest import expm


def test_msv_identity():
    assert max_singular_value(np.eye(2)) == pytest.approx(1.0, rel=1e-10)


def test_msv_diagonal():
    assert max_singular_value(np.diag([2.0, 3.0])) == pytest.approx(3.0, rel=1e-10)


def test_msv_pendulum_drift():
    # eigenvalues of A^T A are 0 and 1.25, worked by hand
    a = np.array([[0.0, 1.0], [0.0, -0.5]])
    assert max_singular_value(a) == pytest.approx(np.sqrt(1.25), rel=1e-10)


def test_msv_transpose_and_scaling_properties():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(n, m))
        sigma = max_singular_value(a)
        assert max_singular_value(a.T) == pytest.approx(sigma, rel=1e-9)
        alpha = float(rng.uniform(-3, 3))
        assert max_singular_value(alpha * a) == pytest.approx(abs(alpha) * sigma, rel=1e-9, abs=1e-12)


def test_msv_agrees_with_svd():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        assert max_singular_value(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)


def _power_iteration_with_np_norm(a):
    # max_singular_value as it read with np.linalg.norm for the vector norms
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
        assert max_singular_value(a).hex() == _power_iteration_with_np_norm(a).hex()


def test_msv_rejects_bad_input():
    with pytest.raises(ValueError):
        max_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        max_singular_value(np.zeros((0, 0)))


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
    assert tensor3_norm_surrogate(np.zeros((2, 2, 2))) == 0.0
    single = np.zeros((2, 3, 3))
    single[1, 2, 0] = 5.0
    assert tensor3_norm_surrogate(single) == pytest.approx(5.0, rel=1e-10)
    # scalar second derivative of x^3 at x = 2
    assert tensor3_norm_surrogate(np.full((1, 1, 1), 12.0)) == pytest.approx(12.0, rel=1e-10)


def test_tensor_surrogate_bounds_bilinear_action():
    rng = np.random.default_rng(8)
    t3 = rng.normal(size=(3, 4, 5))
    bound = tensor3_norm_surrogate(t3)
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
    assert max_singular_value(np.array(a)) == pytest.approx(sigma, rel=1e-12)
    assert tensor3_norm_surrogate(np.array(a)[:, :, None]) == pytest.approx(sigma, rel=1e-12)


def test_msv_rescaled_rerun_agrees_with_the_unscaled_matrix():
    rng = np.random.default_rng(91)
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        big = np.ldexp(a, 1000)
        want = np.ldexp(max_singular_value(a), 1000)
        assert max_singular_value(big) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [[[1e308, 1e308], [1e308, 1e308]], [[1.5e308, 1.5e308]]])
def test_msv_above_the_largest_float_raises_numerical_error(a):
    # sigma = 2e308 and 2.1e308: finite entries, a 2-norm no float holds
    with pytest.raises(NumericalError, match="2-norm overflows"):
        max_singular_value(np.array(a))


@pytest.mark.parametrize(
    "a, sigma",
    [
        ([[1e-150]], 1e-150),  # ||A^T A v||^2 underflows to zero
        ([[1e-200]], 1e-200),  # sigma^2 underflows too
        ([[1e-170, 0.0], [0.0, 2e-170]], 2e-170),
        ([[5e-324]], 5e-324),  # the smallest subnormal
    ],
)
def test_msv_of_an_underflowing_power_reads_the_true_scale(a, sigma):
    a = np.array(a)
    assert max_singular_value(a) == pytest.approx(sigma, rel=1e-15)
    e = np.frexp(np.max(np.abs(a)))[1]
    assert max_singular_value(a) == np.ldexp(max_singular_value(np.ldexp(a, -e)), e)


def test_msv_of_a_zero_matrix_is_zero():
    # frexp(0) gives exponent 0: the rescale must not run again
    for shape in ((1, 1), (2, 3)):
        assert max_singular_value(np.zeros(shape)) == 0.0
