"""Leave-one-out cross-validation for bandwidth selection.

The paper: "We adopt Leave-One-Out cross-validation given the small size
of the dataset and the NWM cheap computational cost", with bandwidth as
the single free parameter.  LOO for kernel regression vectorizes cleanly:
with the full pairwise kernel matrix W (diagonal zeroed), every held-out
prediction is one row-normalized matrix product.

:func:`loo_bandwidth` scores the whole grid at once: the kernels of every
candidate form one ``(G, n, n)`` tensor, built with
:func:`~repro.estimation.kernels.gaussian_kernel`'s elementwise formula,
so the row totals, the held-out predictions and the per-candidate means
are each one stacked numpy call.  Every slice holds exactly the numbers
:func:`loo_mse` computes for its bandwidth, so the scan returns the same
``(h, mse)`` bit for bit.  A slice where some held-out point's weights
all underflow is re-scored by the per-bandwidth path, which falls back
to that point's nearest neighbour.  The grid is scored in blocks of at
most :data:`_BLOCK_ELEMENTS` doubles, so a large dataset never holds the
whole tensor at once.

The squared-distance matrix is the shared input of the whole scan: every
public function accepts a precomputed ``d2`` (e.g. the dataset's
:class:`~repro.estimation.distance_cache.DistanceCache` matrix), and
:func:`loo_bandwidth` masks its diagonal once for both the default grid
and the nearest-neighbour fallback.  The from-scratch builder uses the
Gram-matrix identity ``‖xᵢ−xⱼ‖² = ‖xᵢ‖² + ‖xⱼ‖² − 2·xᵢ·xⱼ``, which needs
only an (n×n) product instead of the O(n²·d) broadcast difference tensor.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BandwidthSelectionError
from repro.estimation.kernels import _INV_SQRT_2PI, gaussian_kernel
from repro.observe import current_telemetry

__all__ = ["loo_mse", "loo_bandwidth", "default_bandwidth_grid"]

#: Most float64 elements one block of the stacked kernel tensor holds
#: (8 MiB): the grid is scored ``max(1, _BLOCK_ELEMENTS // n²)``
#: bandwidths at a time.  Each slice's numbers do not depend on it.
_BLOCK_ELEMENTS = 1 << 20


def _pairwise_sq_dists(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    # The Gram form can go slightly negative from cancellation; distances
    # are non-negative by definition and the diagonal is exactly zero.
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _off_diagonal(d2: np.ndarray) -> np.ndarray:
    """A copy of ``d2`` with an infinite diagonal (no point is its own neighbour)."""
    masked = d2.copy()
    np.fill_diagonal(masked, np.inf)
    return masked


def _kernel_loo_mse(
    W: np.ndarray, Y: np.ndarray, d2: np.ndarray, masked: np.ndarray | None = None
) -> float:
    """LOO MSE from one zero-diagonal kernel matrix ``W``.

    Held-out points whose weights all underflow take their nearest
    neighbour's value; ``masked`` (``d2`` with an infinite diagonal) is
    built from ``d2`` only when such a point exists and none was passed.
    """
    totals = W.sum(axis=1)
    preds = np.empty_like(Y)
    ok = totals > 1e-300
    if ok.any():
        preds[ok] = (W[ok] @ Y) / totals[ok, None]
    if (~ok).any():
        if masked is None:
            masked = _off_diagonal(d2)
        nearest = np.argmin(masked[~ok], axis=1)
        preds[~ok] = Y[nearest]
    return float(((preds - Y) ** 2).mean())


def loo_mse(
    X: np.ndarray,
    Y_norm: np.ndarray,
    h: float,
    d2: np.ndarray | None = None,
) -> float:
    """Mean LOO squared error (averaged over points and metric columns).

    ``Y_norm`` should already be normalized so columns are comparable.
    ``d2`` optionally supplies the pairwise squared-distance matrix (it is
    not mutated).  Held-out points whose every kernel weight underflows
    fall back to the nearest neighbour (matching the estimator's own
    fallback).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y_norm, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise BandwidthSelectionError("LOO needs at least two points")
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    W = gaussian_kernel(d2, h)
    np.fill_diagonal(W, 0.0)
    return _kernel_loo_mse(W, Y, d2)


def _grid_from_masked(masked: np.ndarray) -> np.ndarray:
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


def default_bandwidth_grid(
    X: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    """Geometric bandwidth grid spanning the dataset's distance scales."""
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    return _grid_from_masked(_off_diagonal(d2))


def loo_bandwidth(
    X: np.ndarray,
    Y_norm: np.ndarray,
    grid: np.ndarray | None = None,
    d2: np.ndarray | None = None,
) -> tuple[float, float]:
    """Select the bandwidth minimizing LOO MSE.

    Returns ``(bandwidth, mse)``: the first grid candidate with the
    lowest finite score.  Candidates that are not ``> 0`` (zero, negative
    or NaN) are skipped.  The pairwise squared-distance matrix is computed
    once (or taken from ``d2``) and shared across the whole grid scan.
    Raises :class:`~repro.errors.BandwidthSelectionError` when no
    candidate yields a finite score.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y_norm, dtype=float))
    if d2 is None:
        d2 = _pairwise_sq_dists(X)
    masked = None
    if grid is None:
        masked = _off_diagonal(d2)
        grid = _grid_from_masked(masked)
    grid = np.asarray(grid, dtype=float)
    # NaN fails ``> 0`` too: it is no bandwidth, though its nearest-
    # neighbour score could be the lowest.
    hs = grid[grid > 0]
    n = X.shape[0]
    if n < 2 and hs.size:
        raise BandwidthSelectionError("LOO needs at least two points")
    scores = np.empty(hs.size)
    fallbacks = 0
    neg_d2 = -d2
    per_block = max(1, _BLOCK_ELEMENTS // max(1, n * n))
    # Rows whose totals underflow divide by zero here; those slices are
    # re-scored below, so the stacked values are discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, hs.size, per_block):
            block = hs[start : start + per_block]
            # gaussian_kernel's formula, one slice per bandwidth.
            K = neg_d2 / (2.0 * block * block)[:, None, None]
            np.exp(K, out=K)
            K *= _INV_SQRT_2PI
            K.reshape(block.size, n * n)[:, :: n + 1] = 0.0
            totals = K.sum(axis=2)
            preds = (K @ Y) / totals[:, :, None]
            scores[start : start + block.size] = ((preds - Y) ** 2).mean(axis=(1, 2))
            for g in np.flatnonzero(~(totals > 1e-300).all(axis=1)):
                if masked is None:
                    masked = _off_diagonal(d2)
                scores[start + g] = _kernel_loo_mse(K[g], Y, d2, masked)
                fallbacks += 1
    if fallbacks:
        tel = current_telemetry()
        if tel is not None:
            tel.counters.inc("estimation.loo_fallback_slices", fallbacks)
    finite = np.isfinite(scores)
    if not finite.any():
        raise BandwidthSelectionError("no bandwidth in the grid produced a finite MSE")
    best = int(np.argmin(np.where(finite, scores, np.inf)))
    return float(hs[best]), float(scores[best])
