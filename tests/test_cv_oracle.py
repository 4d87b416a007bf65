"""Differential test: the stacked LOO bandwidth scan against the frozen reference.

``tests/_reference_cv.py`` is the per-bandwidth scan the stacked
``(G, n, n)`` scan replaced.  On every input the two must return the same
``(bandwidth, mse)`` — exact ``==`` on both floats, NaN only where the
reference gives NaN — or raise the same exception with the same message.
The stacked matmul is one BLAS call per slice, so a BLAS that rounds a
slice of a stacked product differently from the same matrix alone fails
this test; the fix then is to take the product slice by slice, never to
compare approximately.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BandwidthSelectionError
from repro.estimation import ControlModel, Dataset
from repro.estimation import cross_validation as cv
from repro.estimation.distance_cache import DistanceCache
from repro.observe import telemetry_session
from tests import _reference_cv as ref

#: Grid entries beyond the positive range: skipped (<= 0, NaN), kept (inf)
#: or so small that every off-diagonal weight underflows.
ODD_BANDWIDTHS = (0.0, -0.0, -1.0, math.nan, math.inf, 1e-300, 1e-12)


def _outcome(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return f"{type(exc).__name__}: {exc}"


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same(new, old) -> None:
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert _same_float(new[0], old[0]) and _same_float(new[1], old[1]), (new, old)


def _cached_d2(X: np.ndarray) -> np.ndarray:
    """The dataset's view: a non-contiguous slice of a growing buffer."""
    cache = DistanceCache(X.shape[1], initial_capacity=4)
    for x in X:
        cache.append(x)
    return cache.matrix()


@st.composite
def datasets(draw, max_n: int = 60):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A small lattice makes duplicate points; a wide scale makes rows
    # whose weights all underflow at the small end of the grid.
    levels = draw(st.sampled_from([2, 3, 16, 1024]))
    scale = 10.0 ** draw(st.integers(-3, 4))
    X = rng.integers(0, levels, size=(n, d)).astype(float) * scale
    Y = rng.normal(size=(n, m))
    return X, Y


grids = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.sampled_from(ODD_BANDWIDTHS),
            st.floats(1e-4, 1e4, allow_nan=False, allow_infinity=False),
        ),
        min_size=0,
        max_size=20,
    ).map(lambda hs: np.array(hs, dtype=float)),
)


class TestAgainstReference:
    @given(data=datasets(), grid=grids, cached=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scan_is_bit_identical(self, data, grid, cached):
        X, Y = data
        d2 = _cached_d2(X) if cached else None
        assert_same(
            _outcome(cv.loo_bandwidth, X, Y, grid=grid, d2=d2),
            _outcome(ref.reference_loo_bandwidth, X, Y, grid=grid, d2=d2),
        )

    @given(data=datasets(max_n=30), grid=grids, block=st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    def test_any_block_size_gives_the_same_scan(self, data, grid, block):
        X, Y = data
        expected = _outcome(ref.reference_loo_bandwidth, X, Y, grid=grid)
        with mock.patch.object(cv, "_BLOCK_ELEMENTS", block):
            assert_same(_outcome(cv.loo_bandwidth, X, Y, grid=grid), expected)

    @given(data=datasets(), cached=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_default_grid_and_loo_mse_are_unchanged(self, data, cached):
        X, Y = data
        d2 = _cached_d2(X) if cached else None
        grid = cv.default_bandwidth_grid(X, d2=d2)
        assert np.array_equal(grid, ref.reference_default_bandwidth_grid(X, d2=d2))
        for h in (grid[0], grid[8], grid[-1]):
            new = _outcome(cv.loo_mse, X, Y, float(h), d2=d2)
            old = _outcome(ref.reference_loo_mse, X, Y, float(h), d2=d2)
            assert _same_float(new, old)

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_grid_split_into_blocks(self, cached):
        rng = np.random.default_rng(7)
        n = 300
        assert cv._BLOCK_ELEMENTS // (n * n) < 17  # more than one block
        X = rng.integers(0, 64, size=(n, 3)).astype(float)
        X[1] = X[0]  # a duplicate point
        Y = rng.normal(size=(n, 3))
        d2 = _cached_d2(X) if cached else None
        for grid in (None, np.array([1e-3, 0.0, 0.5, math.nan, 2.0, 8.0, 1e-300])):
            assert_same(
                _outcome(cv.loo_bandwidth, X, Y, grid=grid, d2=d2),
                _outcome(ref.reference_loo_bandwidth, X, Y, grid=grid, d2=d2),
            )

    def test_rows_just_under_the_fallback_threshold(self):
        """Row totals of ~3e-305 are normal floats a weighted mean could
        use, but the reference takes the nearest neighbour there: for the
        middle point, 0.0 rather than the mean 2.5 of its two neighbours."""
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([[0.0], [1.0], [5.0]])
        h = math.sqrt(1.0 / (2.0 * 701.0))
        middle_total = 2 * ref._gaussian_kernel(np.array([1.0]), h)[0]
        assert 1e-310 < middle_total <= 1e-300
        grid = np.array([h, 2 * h, 1.0])
        for g in (grid, grid[:1]):
            assert_same(
                _outcome(cv.loo_bandwidth, X, Y, grid=g),
                _outcome(ref.reference_loo_bandwidth, X, Y, grid=g),
            )

    @pytest.mark.parametrize(
        "X, grid",
        [
            (np.zeros((1, 2)), None),
            (np.zeros((0, 2)), None),
            (np.zeros((1, 2)), np.array([0.0, -1.0])),
            (np.array([[0.0], [1.0]]), np.array([], dtype=float)),
            (np.array([[0.0], [1.0]]), np.array([0.0, -2.0])),
        ],
    )
    def test_errors_are_unchanged(self, X, grid):
        Y = np.ones((X.shape[0], 2))
        assert_same(
            _outcome(cv.loo_bandwidth, X, Y, grid=grid),
            _outcome(ref.reference_loo_bandwidth, X, Y, grid=grid),
        )


class TestNanGrid:
    """A NaN grid entry is not a bandwidth: it is skipped like ``<= 0``."""

    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    Y = np.array([[0.0], [0.0], [0.0], [5.0]])

    def test_nan_entry_cannot_win(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            h, mse = cv.loo_bandwidth(self.X, self.Y, grid=np.array([math.nan, 5.0, 50.0]))
        assert (h, mse) == cv.loo_bandwidth(self.X, self.Y, grid=np.array([5.0, 50.0]))
        assert not math.isnan(h)

    def test_all_nan_grid_raises(self):
        with pytest.raises(BandwidthSelectionError, match="no bandwidth"):
            cv.loo_bandwidth(self.X, self.Y, grid=np.array([math.nan, math.nan]))


class TestFallbackCounter:
    X = np.array([[0.0], [1.0], [3.0]])
    Y = np.array([[0.0], [1.0], [2.0]])
    # At 0.05 every weight of the point at 3 underflows (exp(-800)); at
    # 1e-300 every weight of every point does.
    GRID = np.array([0.05, 1e-300, 1.0, 10.0])

    def test_counts_the_slices_that_take_the_per_bandwidth_path(self):
        with telemetry_session() as tel:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cv.loo_bandwidth(self.X, self.Y, grid=self.GRID)
        assert tel.counters.get("estimation.loo_fallback_slices") == 2

    def test_no_fallback_no_counter(self):
        with telemetry_session() as tel:
            cv.loo_bandwidth(self.X, self.Y, grid=np.array([1.0, 10.0]))
        assert "estimation.loo_fallback_slices" not in tel.counters.as_dict()

    def test_counted_inside_the_refit_span(self):
        control = ControlModel(dataset=Dataset(1, ("m",)))
        open_spans: list[list[str]] = []
        with telemetry_session() as tel:
            inc = tel.counters.inc

            def spy(name: str, by: int = 1) -> None:
                open_spans.append(list(tel.tracer._stack))
                inc(name, by)

            tel.counters.inc = spy  # type: ignore[method-assign]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                # The default grid starts at a quarter of the closest
                # pair's distance: the isolated point underflows there.
                control.pretrain(np.array([[0.0], [1.0], [1000.0]]), self.Y)
        assert tel.counters.get("estimation.loo_fallback_slices") > 0
        assert open_spans == [["estimation.refit"]]
