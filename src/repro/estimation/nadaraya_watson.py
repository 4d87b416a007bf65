"""The Nadaraya-Watson estimator (Eq. 2).

A weighted average of dataset values with Gaussian-kernel weights::

    ŷ = Σ K_h(x, x_i)·y_i / Σ K_h(x, x_i)

Multi-output: the same weights apply to every metric column.  Metric
columns are min-max normalized at fit time so (a) the bandwidth search is
scale-free across metrics and (b) reported MSE matches the paper's ~1e-2
magnitude; predictions are denormalized on the way out.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmptyDatasetError
from repro.estimation.kernels import gaussian_kernel, squared_distances

__all__ = ["NadarayaWatson"]


class NadarayaWatson:
    """Fit/predict wrapper around Eq. 2 with a fixed bandwidth."""

    def __init__(self, bandwidth: float = 1.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        self._X: np.ndarray | None = None
        self._Y_norm: np.ndarray | None = None
        self._y_min: np.ndarray | None = None
        self._y_span: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self._X is not None

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "NadarayaWatson":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y row counts differ")
        if X.shape[0] == 0:
            raise EmptyDatasetError("cannot fit on an empty dataset")
        self._X = X
        self._y_min = Y.min(axis=0)
        span = Y.max(axis=0) - self._y_min
        self._y_span = np.where(span > 0, span, 1.0)
        self._Y_norm = (Y - self._y_min) / self._y_span
        return self

    # ------------------------------------------------------------------

    def predict_normalized(self, x: np.ndarray) -> np.ndarray:
        """Prediction in normalized metric space (used for MSE reporting)."""
        if self._X is None or self._Y_norm is None:
            raise EmptyDatasetError("model is not fitted")
        w = gaussian_kernel(squared_distances(x, self._X), self.bandwidth)
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            # All weights underflowed: fall back to the nearest neighbour,
            # the h→0 limit of the estimator.
            idx = int(np.argmin(squared_distances(x, self._X)))
            return self._Y_norm[idx].copy()
        return (w @ self._Y_norm) / total

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Prediction in raw metric units."""
        y_norm = self.predict_normalized(x)
        assert self._y_min is not None and self._y_span is not None
        return y_norm * self._y_span + self._y_min

    # ------------------------------------------------------------------

    def normalize(self, Y: np.ndarray) -> np.ndarray:
        """Map raw metric rows into the fitted normalization (for MSE)."""
        if self._y_min is None or self._y_span is None:
            raise EmptyDatasetError("model is not fitted")
        return (np.atleast_2d(np.asarray(Y, dtype=float)) - self._y_min) / self._y_span
