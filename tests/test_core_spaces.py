"""Tests for parameter spaces and encodings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spaces import (
    BoolParam,
    IntRange,
    ParameterSpace,
    PowerOfTwoRange,
)
from repro.errors import InvalidSpaceError


class TestDimensions:
    def test_int_range_identity(self):
        d = IntRange("N", 4, 10)
        assert d.decode(7) == 7
        assert d.encode(7) == 7
        assert d.cardinality() == 7
        assert d.values() == list(range(4, 11))

    def test_inverted_bounds(self):
        with pytest.raises(InvalidSpaceError):
            IntRange("N", 10, 4)

    def test_pow2_decode_encode(self):
        d = PowerOfTwoRange("MEM", 12, 16)
        assert d.decode(13) == 8192
        assert d.encode(8192) == 13
        assert d.values() == [4096, 8192, 16384, 32768, 65536]

    def test_pow2_rejects_non_power(self):
        d = PowerOfTwoRange("MEM", 0, 4)
        with pytest.raises(InvalidSpaceError):
            d.encode(3)

    def test_pow2_over_values(self):
        d = PowerOfTwoRange.over_values("MEM", 8, 64)
        assert (d.low, d.high) == (3, 6)
        with pytest.raises(InvalidSpaceError):
            PowerOfTwoRange.over_values("MEM", 7, 64)

    def test_pow2_negative_exponent(self):
        with pytest.raises(InvalidSpaceError):
            PowerOfTwoRange("X", -1, 4)

    def test_bool_param(self):
        d = BoolParam("EN")
        assert d.values() == [0, 1]

    def test_pow2_over_values_below_one(self):
        with pytest.raises(InvalidSpaceError, match="below 1"):
            PowerOfTwoRange.over_values("MEM", 0, 64)
        with pytest.raises(InvalidSpaceError, match="below 1"):
            PowerOfTwoRange.over_values("MEM", -8, 64)

    def test_round_trip_validated_at_boundaries(self):
        for d in (IntRange("N", -4, 10), PowerOfTwoRange("MEM", 0, 6), BoolParam("EN")):
            d.validate_round_trip()

    def test_broken_codec_rejected(self):
        class Lossy(IntRange):
            def decode(self, encoded):
                return int(encoded) // 2 * 2  # not injective

        with pytest.raises(InvalidSpaceError, match="round-trip"):
            ParameterSpace([Lossy("N", 1, 9)])


class TestParameterSpace:
    def _space(self):
        return ParameterSpace([
            IntRange("OPS", 8, 40),
            PowerOfTwoRange("MEM", 3, 6),
            BoolParam("EN"),
        ])

    def test_cardinality_product(self):
        assert self._space().cardinality() == 33 * 4 * 2

    def test_decode_roundtrip(self):
        space = self._space()
        params = space.decode([16, 4, 1])
        assert params == {"OPS": 16, "MEM": 16, "EN": 1}
        assert space.encode(params).tolist() == [16, 4, 1]

    def test_decode_clips_out_of_bounds(self):
        space = self._space()
        assert space.decode([100, 0, 5]) == {"OPS": 40, "MEM": 8, "EN": 1}

    def test_encode_missing_dimension(self):
        with pytest.raises(InvalidSpaceError, match="missing"):
            self._space().encode({"OPS": 10})

    def test_encode_case_insensitive(self):
        space = self._space()
        v = space.encode({"ops": 9, "mem": 8, "en": 0})
        assert v.tolist() == [9, 3, 0]

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidSpaceError, match="duplicate"):
            ParameterSpace([IntRange("A", 0, 1), IntRange("a", 0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpaceError):
            ParameterSpace([])

    def test_wrong_vector_length(self):
        with pytest.raises(InvalidSpaceError):
            self._space().decode([1, 2])

    def test_bounds_arrays(self):
        space = self._space()
        assert space.lows().tolist() == [8, 3, 0]
        assert space.highs().tolist() == [40, 6, 1]

    def test_decode_many(self):
        space = self._space()
        out = space.decode_many(np.array([[8, 3, 0], [40, 6, 1]]))
        assert out[0]["MEM"] == 8 and out[1]["MEM"] == 64


def _np_clip_decode(space, encoded):
    """The decode expression ``ParameterSpace.decode`` used before: one
    ``np.clip`` per scalar."""
    encoded = np.asarray(encoded).ravel()
    return {
        d.name: d.decode(int(np.clip(e, d.low, d.high)))
        for d, e in zip(space.dimensions, encoded)
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return f"{type(exc).__name__}: {exc}"


_SPACE = ParameterSpace([
    IntRange("A", -3, 40),
    PowerOfTwoRange("B", 0, 6),
    BoolParam("C"),
])

_scalars = st.one_of(
    st.integers(-100, 100),                                   # in and out of range
    st.integers(-(2**62), 2**62),
    st.floats(-100, 100),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300]),
)


class TestDecodeMatchesNpClip:
    @given(row=st.lists(_scalars, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_python_scalars(self, row):
        assert _outcome(_SPACE.decode, row) == _outcome(_np_clip_decode, _SPACE, row)

    @given(row=st.lists(st.integers(-(2**62), 2**62), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_int64_rows(self, row):
        X = np.array([row], dtype=np.int64)
        assert _SPACE.decode_many(X) == [_np_clip_decode(_SPACE, X[0])]
        assert _SPACE.decode(X[0]) == _np_clip_decode(_SPACE, X[0])

    @given(row=st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(math.nan)), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_float64_rows(self, row):
        x = np.array(row, dtype=float)
        assert _outcome(_SPACE.decode, x) == _outcome(_np_clip_decode, _SPACE, x)

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            _SPACE.decode([math.nan, 0, 0])


class TestFromDesign:
    def test_tirex_space(self, tirex_design):
        space = ParameterSpace.from_design(tirex_design)
        assert space.names() == [
            "NCLUSTER", "STACK_SIZE", "INSTR_MEM_SIZE", "DATA_MEM_SIZE"
        ]
        assert isinstance(space.dimension("NCLUSTER"), PowerOfTwoRange)
        assert space.decode(space.lows())["NCLUSTER"] == 1

    def test_fifo_space_bool_dimension(self, fifo_design):
        space = ParameterSpace.from_design(fifo_design)
        assert isinstance(space.dimension("FALL_THROUGH"), BoolParam)
        # Paper: "The parameter range comprised 500 possible values".
        assert space.dimension("DEPTH").cardinality() == 500

    def test_restricted_names(self, fifo_design):
        space = ParameterSpace.from_design(fifo_design, names=["DEPTH"])
        assert space.names() == ["DEPTH"]
