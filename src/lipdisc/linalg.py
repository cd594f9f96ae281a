"""Dense linear algebra kernels: induced 2-norm, order-3 tensor norm
surrogate, symmetric top eigenpair.

Matrices and order-3 tensors are plain float ndarrays of shape (n, m)
and (d1, d2, d3).  All functions are pure and deterministic: the power
iteration uses a fixed start vector, no RNG.
"""

from __future__ import annotations

import math

import numpy as np

_POWER_MAX_ITER = 10_000
_POWER_TOL = 1e-14  # relative change of the Rayleigh quotient at convergence


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


def max_singular_value(a: np.ndarray) -> float:
    """Induced 2-norm (largest singular value) of a real matrix.

    Shifted power iteration on A^T A with a deterministic start vector
    (normalized all-ones perturbed by 1/(i+1) per coordinate), stopping
    when the Rayleigh quotient changes by less than _POWER_TOL relative
    to max(1, lambda), and failing after _POWER_MAX_ITER iterations.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("matrix is empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    n = a.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n)) + 1.0 / (np.arange(n) + 1.0)
    v /= math.sqrt(v @ v)  # the expression np.linalg.norm evaluates for a vector
    lam_prev = None
    for _ in range(_POWER_MAX_ITER):
        av = a @ v
        lam = float(av @ av)
        if lam_prev is not None and abs(lam - lam_prev) <= _POWER_TOL * max(1.0, lam):
            return math.sqrt(lam)
        lam_prev = lam
        w = a.T @ av
        norm_w = math.sqrt(w @ w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    raise NumericalError(
        f"power iteration did not converge within {_POWER_MAX_ITER} iterations"
    )


def tensor3_norm_surrogate(t3: np.ndarray) -> float:
    """Upper bound on the bilinear induced norm of an order-3 tensor.

    Returns the induced 2-norm of the mode-1 unfolding (d1 x d2*d3).
    For unit y, z: ||T(., y, z)|| = ||unfold(T) (y kron z)|| <= sigma_max,
    since ||y kron z|| = ||y|| ||z|| = 1, so the bound is conservative.
    The exact bilinear norm is NP-hard in general.
    """
    t3 = np.asarray(t3, dtype=float)
    if t3.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got shape {t3.shape}")
    if not np.all(np.isfinite(t3)):
        raise ValueError("tensor has non-finite entries")
    d1 = t3.shape[0]
    return max_singular_value(t3.reshape(d1, -1))


def sym_max_eig(s: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest (algebraic) eigenvalue and eigenvector of a symmetric matrix."""
    w, v = np.linalg.eigh(np.asarray(s, dtype=float))
    return float(w[-1]), v[:, -1]
