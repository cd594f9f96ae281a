"""Dense linear algebra kernels: induced 2-norm, order-3 tensor norm
surrogate, symmetric top eigenpair.

Matrices and order-3 tensors are plain float ndarrays of shape (n, m)
and (d1, d2, d3).  All functions are pure and deterministic: the power
iteration uses a fixed start vector, no RNG.  There is one power
iteration, ``max_singular_values``, which steps a (k, n, m) stack of
matrices in lockstep; ``max_singular_value`` and
``tensor3_norm_surrogate`` are its one-matrix cases.
"""

from __future__ import annotations

import math

import numpy as np

_POWER_MAX_ITER = 10_000
_POWER_TOL = 1e-14  # relative change of the Rayleigh quotient at convergence
_TINY = np.finfo(float).tiny  # the smallest normal float


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


def max_singular_value(a: np.ndarray) -> float:
    """Induced 2-norm (largest singular value) of a real matrix: the
    one-slice case of ``max_singular_values``, which raises
    NumericalError where that gives NaN or inf."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("matrix is empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    value = float(max_singular_values(a[None])[0])
    if not math.isfinite(value):
        raise NumericalError("power iteration did not converge, or the 2-norm overflows")
    return value


def max_singular_values(stack: np.ndarray) -> np.ndarray:
    """Induced 2-norms of the matrices of a (k, r, c) stack; NaN for a
    matrix with non-finite entries or one whose iteration does not
    converge, inf for one whose 2-norm is above the largest float.

    Shifted power iteration on A^T A with a deterministic start vector
    (normalized all-ones perturbed by 1/(i+1) per coordinate), stopping
    when the Rayleigh quotient changes by less than _POWER_TOL relative
    to max(1, lambda), and failing after _POWER_MAX_ITER iterations.
    Where lambda or ||A^T A v|| overflows, or ||A^T A v||^2 falls below
    the smallest normal float (where its root loses bits, or is zero),
    it runs again on A scaled by an exact power of two to max |a_ij| in
    [0.5, 1) and scales back.  On A so scaled (or zero), such an
    A^T A v means a zero 2-norm.

    All matrices step in lockstep through stacked matmuls, which numpy
    runs as the same per-matrix BLAS calls (gemv, ddot) as a single
    matrix, so every matrix gets the bits it would get alone.
    """
    full = np.ascontiguousarray(stack, dtype=float)
    if full.ndim != 3 or full.shape[1] == 0 or full.shape[2] == 0:
        raise ValueError(f"expected a stack of nonempty matrices, got shape {full.shape}")
    out = np.full(full.shape[0], np.nan)
    rows = np.flatnonzero(np.isfinite(full).all(axis=(1, 2)))  # full's index of a's matrices
    a = full if rows.size == full.shape[0] else full[rows]
    n = a.shape[2]
    v0 = np.full(n, 1.0 / math.sqrt(n)) + 1.0 / (np.arange(n) + 1.0)
    v0 /= math.sqrt(v0 @ v0)  # the expression np.linalg.norm evaluates for a vector
    v = np.repeat(v0[None, :, None], rows.size, axis=0)
    lam_prev = np.full(rows.size, np.nan)  # no convergence test at the first step
    redo = [rows[:0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POWER_MAX_ITER):
            if not rows.size:
                break
            av = a @ v
            lam = (av.transpose(0, 2, 1) @ av).ravel()
            w = a.transpose(0, 2, 1) @ av
            norm_w_sq = (w.transpose(0, 2, 1) @ w).ravel()
            done = np.abs(lam - lam_prev) <= _POWER_TOL * np.maximum(1.0, lam)
            # lambda or A^T A v overflows, or ||A^T A v||^2 is zero or subnormal
            stop = ~(np.isfinite(lam) & (norm_w_sq >= _TINY) & np.isfinite(norm_w_sq))
            if done.any() or stop.any():
                done &= np.isfinite(lam)
                out[rows[done]] = np.sqrt(lam[done])
                stop &= ~done
                redo.append(rows[stop])
                keep = ~(done | stop)
                rows, a, lam, w, norm_w_sq = rows[keep], a[keep], lam[keep], w[keep], norm_w_sq[keep]
            lam_prev = lam
            v = w / np.sqrt(norm_w_sq)[:, None, None]
    redo = np.concatenate(redo)
    _, e = np.frexp(np.max(np.abs(full[redo]), axis=(1, 2)))
    out[redo[e == 0]] = 0.0  # already scaled, or zero (frexp(0) = (0, 0))
    redo, e = redo[e != 0], e[e != 0]
    if redo.size:
        with np.errstate(over="ignore"):  # a 2-norm above the largest float: inf
            out[redo] = np.ldexp(max_singular_values(np.ldexp(full[redo], -e[:, None, None])), e)
    return out


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
