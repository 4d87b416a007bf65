"""The scalar placer is bit-identical to the numpy formulation it replaced.

Three layers of evidence: :func:`pairwise_sum` reproduces numpy's float64
summation order exactly (a property test over lengths crossing both the
8-term unroll and the 128-term block size); ``place`` returns the same
coordinates and cost (``==``) as the frozen numpy reference in
``tests/_reference_placer.py`` on every bundled design's mapped netlist;
and on drawn netlists every Metropolis test sees the reference's delta
bit for bit, which pins the placer's cached local costs.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import all_designs
from repro.devices import get_device
from repro.errors import UtilizationOverflowError
from repro.netlist import Block, Netlist
from repro.pnr.placer import pairwise_sum, place
from repro.synth.mapper import MappedDesign, map_to_device
from repro.synth.synthesis import synthesize
from tests._reference_placer import reference_place

_finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
# Mostly exact zeros, like the overlap terms of a settled placement.
_sparse_term = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), _finite)


def _numpy_sum(terms: list[float]) -> float:
    return float(np.asarray(terms, dtype=float).sum())


class TestPairwiseSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_sparse_term, min_size=0, max_size=300))
    def test_matches_numpy_bit_for_bit(self, terms):
        assert pairwise_sum(terms).hex() == _numpy_sum(terms).hex()

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 256, 300])
    def test_boundary_lengths(self, n):
        rng = np.random.default_rng(n)
        terms = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)).tolist()
        assert pairwise_sum(terms).hex() == _numpy_sum(terms).hex()

    @pytest.mark.parametrize("n", [3, 10, 200])
    def test_negative_zeros(self, n):
        assert pairwise_sum([-0.0] * n).hex() == _numpy_sum([-0.0] * n).hex()


def _design_mapped() -> list[tuple[str, MappedDesign]]:
    device = get_device("XC7K70T")
    out = []
    for name, gen in sorted(all_designs().items()):
        result = synthesize(gen.module(), device, gen.default_overrides())
        out.append((name, result.mapped))
    return out


def _ring_netlist(blocks: int) -> Netlist:
    """A ring with chords: enough blocks to exercise the lane/halving paths."""
    netlist = Netlist(top=f"ring{blocks}")
    for k in range(blocks):
        netlist.add_block(Block(name=f"b{k}", logic_terms=40 + 7 * (k % 5), ff_bits=16))
    for k in range(blocks):
        for dst, width in (((k + 1) % blocks, 1 + k % 9), ((k * 7 + 3) % blocks, 4)):
            if dst != k:
                netlist.connect(f"b{k}", f"b{dst}", width=width)
    netlist.set_ports(4, 4)
    return netlist


_MAPPED = _design_mapped()
_IDS = [name for name, _ in _MAPPED]


def _assert_same(design: MappedDesign, **kwargs) -> None:
    # Each side gets its own copy: a Generator seed is consumed by use.
    try:
        expected = reference_place(design, **copy.deepcopy(kwargs))
    except UtilizationOverflowError:
        with pytest.raises(UtilizationOverflowError):
            place(design, **kwargs)
        return
    got = place(design, **kwargs)
    assert got.coords == expected.coords
    assert got.cost == expected.cost
    assert got.iterations == expected.iterations
    assert got.seeded_from_checkpoint == expected.seeded_from_checkpoint


class TestScalarPlacerEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 2021])
    @pytest.mark.parametrize("name,design", _MAPPED, ids=_IDS)
    def test_bundled_designs_cold_and_warm(self, name, design, seed):
        _assert_same(design, seed=seed)
        cold = reference_place(design, seed=seed)
        _assert_same(design, seed=seed + 1, initial=cold.coords)
        partial = dict(list(cold.coords.items())[::2])
        _assert_same(design, seed=seed + 2, initial=partial, effort=1.5)

    @pytest.mark.parametrize("name,design", _MAPPED, ids=_IDS)
    def test_generator_seed(self, name, design):
        _assert_same(design, seed=np.random.default_rng(11))
        cold = reference_place(design, seed=np.random.default_rng(12))
        _assert_same(design, seed=np.random.default_rng(13), initial=cold.coords)

    @pytest.mark.parametrize("blocks", [1, 9, 20, 140])
    def test_synthetic_sizes(self, blocks):
        design = map_to_device(_ring_netlist(blocks), get_device("XCVU9P-FLGA2104-2"))
        _assert_same(design, seed=3, effort=0.2 if blocks > 100 else 1.0)


# --- The cached local cost ---------------------------------------------------
#
# ``place`` reuses a block's local cost as the next move's "before" value
# until a move may have changed one of its terms.  A stale cache entry, a
# missing invalidation or an inexact shortcut sum changes a move's delta; a
# delta off by one ulp rarely flips an accept decision, so each case below
# also records every Metropolis argument ``-delta / temperature`` (the
# placer and the reference both call ``np.exp`` on it) and requires the
# two traces to be equal bit for bit.

_KINTEX = get_device("XC7K70T")


@st.composite
def _placement_cases(draw, blocks: st.SearchStrategy[int], efforts: st.SearchStrategy[float]):
    """A random netlist on a small part, with a seed, an effort and a warm start.

    Some blocks carry thousands of flip-flops, so their footprints span a
    fifth of the grid and three or more overlap terms are nonzero at once;
    warm starts can pile blocks into one corner.  A hub block wired both
    ways to up to thirteen others has eight or more incident nets.  The
    totals stay within the part, so every case places.
    """
    n = draw(blocks)
    big = draw(st.integers(0, min(n, 6)))
    netlist = Netlist(top=f"drawn{n}")
    for k in range(n):
        ff = draw(st.integers(3000, 12000)) if k < big else draw(st.integers(0, 64))
        netlist.add_block(Block(name=f"b{k}", logic_terms=draw(st.integers(1, 200)), ff_bits=ff))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 64))
    for a, b, width in draw(st.lists(pairs, max_size=2 * n)):
        if a != b:
            netlist.connect(f"b{a}", f"b{b}", width=width)
    hub = draw(st.integers(0, n - 1))
    if n > 1 and draw(st.booleans()):
        for k in range(min(n, 13)):
            if k != hub:
                netlist.connect(f"b{hub}", f"b{k}", width=draw(st.integers(1, 64)))
                netlist.connect(f"b{k}", f"b{hub}")
    netlist.set_ports(4, 4)
    design = map_to_device(netlist, _KINTEX)

    kwargs: dict = {"effort": draw(efforts)}
    seed = draw(st.integers(0, 2**32 - 1))
    kwargs["seed"] = np.random.default_rng(seed) if draw(st.booleans()) else seed
    start = draw(st.sampled_from(["cold", "partial", "full"]))
    if start != "cold":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        span = draw(st.sampled_from([6.0, 20.0, 80.0]))
        spots = rng.uniform(0.0, span, size=(n, 2)).tolist()
        kept = range(n) if start == "full" else range(0, n, 2)
        kwargs["initial"] = {f"b{k}": tuple(spots[k]) for k in kept}
    return design, kwargs


def _traced(placer, design: MappedDesign, kwargs: dict):
    """``placer(design, **kwargs)`` and the hex of every ``np.exp`` argument."""
    seen: list[str] = []
    real_exp = np.exp

    def exp(x):
        seen.append(float(x).hex())
        return real_exp(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "exp", exp)
        result = placer(design, **copy.deepcopy(kwargs))
    return result, seen


def _assert_same_moves(case) -> None:
    design, kwargs = case
    expected, expected_trace = _traced(reference_place, design, kwargs)
    got, trace = _traced(place, design, kwargs)
    assert trace == expected_trace
    assert got.coords == expected.coords
    assert got.cost == expected.cost
    assert got.iterations == expected.iterations
    assert got.seeded_from_checkpoint == expected.seeded_from_checkpoint


class TestCachedLocalCost:
    @settings(max_examples=200, deadline=None)
    @given(_placement_cases(st.integers(1, 24), st.floats(0.2, 1.5)))
    def test_every_move_sees_the_reference_delta(self, case):
        _assert_same_moves(case)

    @settings(max_examples=10, deadline=None)
    @given(_placement_cases(st.integers(124, 134), st.floats(0.2, 0.3)))
    def test_rows_crossing_the_block_size(self, case):
        _assert_same_moves(case)
