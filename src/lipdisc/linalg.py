"""Dense linear algebra kernels: the induced 2-norm.

Matrices are plain float ndarrays of shape (n, m).  All functions are
pure and deterministic.  There is one 2-norm entry point,
``max_singular_values`` over a (k, n, m) stack; one matrix ``a`` is the
stack ``a[None]``.  It reports a failure as NaN and an overflow as inf,
and each caller names the constant in the NumericalError it raises.
``_power_iteration`` has one job left: the grid's band re-rank in
``constants._norm_rows``.
"""

from __future__ import annotations

import math

import numpy as np

_POWER_MAX_ITER = 10_000
_POWER_TOL = 1e-14  # relative change of the Rayleigh quotient at convergence
_TINY = np.finfo(float).tiny  # the smallest normal float


class NumericalError(RuntimeError):
    """A numerical routine failed or a value overflowed."""


def max_singular_values(stack: np.ndarray) -> np.ndarray:
    """Induced 2-norms of a (k, r, c) stack within about 1e-15; NaN for a
    matrix with non-finite entries (and for all if LAPACK fails), inf for
    one whose 2-norm is above the largest float.  Each is the root of the
    top eigenvalue of the smaller Gram matrix, formed after scaling by a
    power of two, of the rows and columns nonzero in some finite matrix
    of the stack (sigma_max ignores the others): in closed form for up to
    two of them, else by one batched LAPACK ``eigvalsh``."""
    mats = np.asarray(stack, dtype=float)
    if mats.ndim != 3 or mats.shape[1] == 0 or mats.shape[2] == 0:
        raise ValueError(f"expected a stack of nonempty matrices, got shape {mats.shape}")
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        out = np.full(mats.shape[0], np.nan)
        out[finite] = max_singular_values(mats[finite])
        return out
    live = np.any(mats, axis=0)
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if rows.size < mats.shape[1] or cols.size < mats.shape[2]:
        mats = mats[:, rows[:, None], cols]
    if mats.shape[1] > mats.shape[2]:
        mats = mats.transpose(0, 2, 1)  # the Gram matrix of the rows is the smaller
    _, e = np.frexp(np.max(np.abs(mats), axis=(1, 2), initial=0.0))
    scaled = np.ldexp(mats, -e[:, None, None])
    if scaled.shape[1] <= 1:  # the sum of squares, 0 for no live row
        lam = np.einsum("kij,kij->k", scaled, scaled)
    elif scaled.shape[1] == 2:  # the top eigenvalue of [[a, b], [b, c]]: two terms >= 0
        r0, r1 = scaled[:, 0], scaled[:, 1]
        a, b, c = (np.einsum("ij,ij->i", p, q) for p, q in ((r0, r0), (r0, r1), (r1, r1)))
        lam = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    else:
        try:
            lam = np.linalg.eigvalsh(scaled @ scaled.transpose(0, 2, 1))[:, -1]
        except np.linalg.LinAlgError:
            return np.full(mats.shape[0], np.nan)
    with np.errstate(over="ignore"):  # a 2-norm above the largest float: inf
        return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e)


def _power_iteration(stack: np.ndarray) -> np.ndarray:
    """The 2-norms of a (k, r, c) stack by power iteration; NaN for a
    matrix with non-finite entries or one whose iteration does not
    converge, inf for one whose 2-norm is above the largest float.

    It stays only because ``perfbench/reference/`` pins probe witnesses
    that the grid's band re-rank chose among exact ties by these bits;
    it goes, with the band, when those references are regenerated.

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
            out[redo] = np.ldexp(_power_iteration(np.ldexp(full[redo], -e[:, None, None])), e)
    return out
