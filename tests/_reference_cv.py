"""Frozen reference of the leave-one-out bandwidth scan.

This is the per-bandwidth scan the stacked ``(G, n, n)`` scan in
:mod:`repro.estimation.cross_validation` replaced: one ``loo_mse`` call,
and one kernel matrix, per grid candidate.  It is kept verbatim (with the
Gaussian kernel of :mod:`repro.estimation.kernels` inlined) so the oracle
test can assert that the stacked scan returns exactly the same
``(bandwidth, mse)`` (``==``, not approximately).  Do not "improve" it:
its value is that it does not change.  One change was made on purpose: a
NaN grid candidate is skipped (``not h > 0``), where it used to be scored
by nearest neighbours and could be returned as the bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BandwidthSelectionError

__all__ = ["reference_loo_mse", "reference_default_bandwidth_grid", "reference_loo_bandwidth"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gaussian_kernel(sq_dist: np.ndarray, h: float) -> np.ndarray:
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return _INV_SQRT_2PI * np.exp(-sq_dist / (2.0 * h * h))


def _pairwise_sq_dists(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def reference_loo_mse(
    X: np.ndarray,
    Y_norm: np.ndarray,
    h: float,
    d2: np.ndarray | None = None,
) -> float:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y_norm, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise BandwidthSelectionError("LOO needs at least two points")
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    W = _gaussian_kernel(d2, h)
    np.fill_diagonal(W, 0.0)
    totals = W.sum(axis=1)
    preds = np.empty_like(Y)
    ok = totals > 1e-300
    if ok.any():
        preds[ok] = (W[ok] @ Y) / totals[ok, None]
    if (~ok).any():
        d2_masked = d2.copy()
        np.fill_diagonal(d2_masked, np.inf)
        nearest = np.argmin(d2_masked[~ok], axis=1)
        preds[~ok] = Y[nearest]
    return float(((preds - Y) ** 2).mean())


def reference_default_bandwidth_grid(
    X: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    masked = d2.copy()
    np.fill_diagonal(masked, np.inf)
    nearest = np.sqrt(masked.min(axis=1))
    finite = nearest[np.isfinite(nearest)]
    lo = max(1e-3, float(np.min(finite)) * 0.25) if finite.size else 1e-3
    hi = max(
        lo * 4,
        float(np.sqrt(masked[np.isfinite(masked)].max()))
        if np.isfinite(masked).any()
        else 1.0,
    )
    return np.geomspace(lo, hi, num=17)


def reference_loo_bandwidth(
    X: np.ndarray,
    Y_norm: np.ndarray,
    grid: np.ndarray | None = None,
    d2: np.ndarray | None = None,
) -> tuple[float, float]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    if grid is None:
        grid = reference_default_bandwidth_grid(X, d2=d2)
    best_h: float | None = None
    best_mse = np.inf
    for h in np.asarray(grid, dtype=float):
        if not h > 0:  # NaN too (changed on purpose: it used to be kept)
            continue
        mse = reference_loo_mse(X, Y_norm, float(h), d2=d2)
        if np.isfinite(mse) and mse < best_mse:
            best_mse = mse
            best_h = float(h)
    if best_h is None:
        raise BandwidthSelectionError("no bandwidth in the grid produced a finite MSE")
    return best_h, best_mse
