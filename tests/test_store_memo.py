"""Differential tests for the result store's decoded-segment memo.

A handle that reads a segment from offset 0 goes through a per-process
memo of decoded segments (``repro.cache.store._MEMO``), reusing it when
the text just read starts with the memoised text.  Such a handle must be
indistinguishable from one that decoded every line itself: same index,
offsets, record count, corrupt-line tally and stats.  Each case below
opens a store through the memo ("warm") and with the memo switched off
("cold") and compares the two.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from typing import Iterator

import pytest

from tests._sanitize_support import SRC_BASE, lock_order_guard, service_lock_graph

from repro.cache import (
    FULL_RANK,
    KIND_POINT,
    ResultStore,
    ShardedResultStore,
    StoredResult,
)
from repro.cache import store as store_mod
from repro.cache.store import _MEMO_MAX_CHARS, _SegmentMemo


@pytest.fixture(autouse=True)
def memo(monkeypatch) -> _SegmentMemo:
    """A fresh memo at the module's bound for every test."""
    fresh = _SegmentMemo(_MEMO_MAX_CHARS)
    monkeypatch.setattr(store_mod, "_MEMO", fresh)
    return fresh


@pytest.fixture()
def decoded(monkeypatch) -> list[int]:
    """Lengths of the texts handed to the line decoder: what a memo did
    not answer."""
    seen: list[int] = []
    real = store_mod._decode_lines

    def spy(text: str):
        seen.append(len(text))
        return real(text)

    monkeypatch.setattr(store_mod, "_decode_lines", spy)
    return seen


@contextmanager
def memo_off() -> Iterator[None]:
    """Every read decodes in full: a memo that can hold nothing."""
    saved = store_mod._MEMO
    store_mod._MEMO = _SegmentMemo(0)
    try:
        yield
    finally:
        store_mod._MEMO = saved


def _flat(root):
    return ResultStore(root)


def _sharded(root):
    return ShardedResultStore(root, shards=3)


def _state(store):
    shards = store._stores if isinstance(store, ShardedResultStore) else [store]
    per_shard = [
        (dict(s._index), dict(s._offsets), s._records_seen, s.corrupt_lines)
        for s in shards
    ]
    return per_shard, store.stats()


def assert_warm_equals_cold(root, opener=_flat):
    """Open ``root`` through the memo and without it; the two handles
    must agree.  Returns the warm handle."""
    warm = opener(root)
    with memo_off():
        cold_state = _state(opener(root))
    assert _state(warm) == cold_state
    return warm


def _segment_text(root) -> str:
    (path,) = ResultStore(root)._segment_paths()
    return path.read_text(encoding="utf-8")


def _append_raw(root, text: str) -> None:
    (path,) = ResultStore(root)._segment_paths()
    with path.open("a", encoding="utf-8") as fh:
        fh.write(text)


def _line(key: str, payload, rank: int = FULL_RANK) -> str:
    """An encoded record line, appended raw to stage duplicates that
    ``put`` would skip."""
    record = StoredResult(key=key, kind=KIND_POINT, payload=payload, rank=rank)
    return store_mod._encode_record(record) + "\n"


class TestWarmEqualsCold:
    def test_appends_between_opens_decode_only_the_new_lines(
        self, tmp_path, decoded
    ):
        root = tmp_path / "store"
        writer = ResultStore(root)
        for i in range(5):
            writer.put(f"k-{i}", KIND_POINT, {"i": i})
        assert_warm_equals_cold(root)
        before = len(_segment_text(root))

        decoded.clear()
        assert_warm_equals_cold(root)
        # The warm open decoded nothing; the cold one the whole segment.
        assert decoded == [before]

        for i in range(5, 8):
            writer.put(f"k-{i}", KIND_POINT, {"i": i})
        decoded.clear()
        warm = assert_warm_equals_cold(root)
        after = len(_segment_text(root))
        assert decoded == [after - before, after]
        assert len(warm) == 8

    def test_torn_final_line(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        writer.put("a", KIND_POINT, {"i": 1})
        line = '{"key":"b","kind":"point","payload":{"i":2}}\n'
        _append_raw(root, line[:20])
        warm = assert_warm_equals_cold(root)
        assert warm.keys() == ["a"]
        assert_warm_equals_cold(root)  # the memo holds whole lines only

        _append_raw(root, line[20:])
        warm = assert_warm_equals_cold(root)
        assert sorted(warm.keys()) == ["a", "b"]

    def test_corrupt_complete_lines(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        writer.put("good-1", KIND_POINT, {"i": 1})
        _append_raw(root, "{not json\n")
        _append_raw(root, '{"key": 1, "kind": 2, "payload": "not-a-mapping"}\n')
        writer.put("good-2", KIND_POINT, {"i": 2})
        warm = assert_warm_equals_cold(root)
        assert warm.corrupt_lines == 2

        _append_raw(root, '{"no_key": true}\n')
        warm = assert_warm_equals_cold(root)
        assert warm.corrupt_lines == 3
        assert sorted(warm.keys()) == ["good-1", "good-2"]

    def test_rank_supersession(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        writer.put("k", KIND_POINT, {"fidelity": "probe"}, rank=0)
        _append_raw(root, _line("k", {"fidelity": "probe-again"}, rank=0))
        warm = assert_warm_equals_cold(root)
        assert warm.get("k").payload == {"fidelity": "probe"}

        writer.put("k", KIND_POINT, {"fidelity": "full"})
        _append_raw(root, _line("k", {"fidelity": "late"}, rank=1))
        warm = assert_warm_equals_cold(root)
        record = warm.get("k")
        assert (record.rank, record.payload) == (FULL_RANK, {"fidelity": "full"})
        assert warm.stats().duplicates == 3

    def test_compact_and_clear_by_another_handle(self, tmp_path, decoded):
        root = tmp_path / "store"
        writer = ResultStore(root)
        for i in range(4):
            writer.put(f"k-{i}", KIND_POINT, {"fidelity": "probe"}, rank=0)
            writer.put(f"k-{i}", KIND_POINT, {"fidelity": "full", "i": i})
        assert_warm_equals_cold(root)

        ResultStore(root).compact()
        decoded.clear()
        warm = assert_warm_equals_cold(root)
        # The rewritten segment does not start with the memoised text.
        assert decoded == [len(_segment_text(root))] * 2
        assert warm.stats().duplicates == 0

        # More text after the clear than the memo holds, none shared.
        ResultStore(root).clear()
        refill = ResultStore(root)
        for i in range(6):
            refill.put(f"fresh-{i}", KIND_POINT, {"after": "clear"})
        warm = assert_warm_equals_cold(root)
        assert sorted(warm.keys()) == [f"fresh-{i}" for i in range(6)]

    def test_directory_recreated_at_the_same_path(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put("k", KIND_POINT, {"v": "old"})
        assert_warm_equals_cold(root)

        # A longer segment at the same path that does not start with the
        # memoised text.
        shutil.rmtree(root)
        second = ResultStore(root)
        for key in ("k", "x", "y"):
            second.put(key, KIND_POINT, {"v": "new"})
        warm = assert_warm_equals_cold(root)
        assert sorted(warm.keys()) == ["k", "x", "y"]
        assert warm.get("k").payload == {"v": "new"}

    def test_recreated_store_sharing_a_prefix_reuses_it(self, tmp_path, decoded):
        root = tmp_path / "store"
        ResultStore(root).put("k", KIND_POINT, {"v": 1})
        assert_warm_equals_cold(root)
        prefix = len(_segment_text(root))

        shutil.rmtree(root)
        again = ResultStore(root)
        again.put("k", KIND_POINT, {"v": 1})  # byte-identical first line
        again.put("j", KIND_POINT, {"v": 2})
        decoded.clear()
        warm = assert_warm_equals_cold(root)
        assert decoded[0] == len(_segment_text(root)) - prefix
        assert sorted(warm.keys()) == ["j", "k"]

    def test_lru_bound_evicts_the_least_recently_opened(
        self, tmp_path, monkeypatch, decoded
    ):
        roots = [tmp_path / f"store-{i}" for i in range(3)]
        for i, root in enumerate(roots):
            ResultStore(root).put(f"k-{i}", KIND_POINT, {"pad": "x" * 200})
        size = len(_segment_text(roots[0]))
        memo = _SegmentMemo(2 * size)
        monkeypatch.setattr(store_mod, "_MEMO", memo)

        for root in roots:
            assert_warm_equals_cold(root)
        assert memo._chars <= memo.max_chars
        assert len(memo._entries) == 2
        # roots[0] was evicted: a warm open decodes it again.
        decoded.clear()
        assert_warm_equals_cold(roots[0])
        assert decoded == [size, size]
        # roots[2] is still memoised.
        decoded.clear()
        assert_warm_equals_cold(roots[2])
        assert decoded == [size]

    def test_a_segment_over_the_bound_is_never_memoised(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        ResultStore(root).put("k", KIND_POINT, {"pad": "x" * 200})
        memo = _SegmentMemo(50)
        monkeypatch.setattr(store_mod, "_MEMO", memo)
        assert_warm_equals_cold(root)
        assert memo._entries == {} and memo._chars == 0

    def test_sharded_store(self, tmp_path):
        root = tmp_path / "store"
        writer = _sharded(root)
        for i in range(12):
            writer.put(f"k-{i}", KIND_POINT, {"i": i}, rank=i % 2 + 1)
        assert_warm_equals_cold(root, _sharded)
        for i in range(12, 20):
            writer.put(f"k-{i}", KIND_POINT, {"i": i})
        writer.put("k-0", KIND_POINT, {"i": "probe"}, rank=0)
        warm = assert_warm_equals_cold(root, _sharded)
        assert len(warm) == 20

    def test_fresh_segment_read_under_the_writer_lock(self, tmp_path):
        """A put that meets a segment it has not read yet decodes it under
        the store flock; the runtime order flock -> memo lock must be one
        the static lock graph predicts."""
        root = tmp_path / "store"
        with lock_order_guard() as sanitizer:
            store_mod._MEMO = _SegmentMemo(_MEMO_MAX_CHARS)
            early = ResultStore(root)
            ResultStore(root).put("a", KIND_POINT, {"i": 1})
            assert early.put("b", KIND_POINT, {"i": 2}) is True
        graph = service_lock_graph()
        observed = {
            (graph.node_at(*a), graph.node_at(*b))
            for a, b in sanitizer.edges_relative(SRC_BASE)
        }
        assert (
            "repro/cache/store.py::ResultStore.<flock>",
            "repro/cache/store.py::_SegmentMemo._lock",
        ) in observed


def test_replay_session_leaves_memoised_payloads_untouched(tmp_path, memo):
    """A replay adopts store records through ``decode_point``; the
    payload dicts it reads are the memo's own, so every memoised record
    must still equal a fresh decode of the memoised text."""
    from repro.core.session import DseSession
    from repro.designs import get_design

    store = str(tmp_path / "store")

    def session():
        s = DseSession(
            get_design("cv32e40p-fifo"),
            seed=5,
            use_model=True,
            pretrain_size=4,
            result_store=store,
        )
        try:
            s.explore(generations=2, population=6)
            return s
        finally:
            s.close()

    session()
    replay = session()
    assert replay.fitness.result_store.hits > 0
    assert memo._entries
    for entry in memo._entries.values():
        assert store_mod._decode_lines(entry.text) == (
            entry.records,
            entry.corrupt_lines,
        )
