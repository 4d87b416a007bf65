"""Cross-process correctness regressions for the result store.

Each class pins one of the service-blocking bugs fixed alongside
``repro.serve`` (all three would fail on the pre-fix store):

- ``clear()`` left *other* processes permanently stale: their per-segment
  offsets exceeded the recreated segments' sizes, so ``refresh()`` never
  re-read anything and their index kept serving deleted records.
- a ``get()`` hit on a low-rank probe record never refreshed, so a
  full-route record appended by another process was ignored forever.
- ``refresh()`` silently swallowed corrupt JSONL lines, and foreign
  ``seg-*.jsonl`` filenames crashed segment rotation with ``ValueError``.

Plus the offline compaction pass those fixes make safe: rewriting
segments to index winners only, under the generation stamp, so compacted
stores stay readable from every process.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tests._sanitize_support import lock_order_guard

from repro.cache import FULL_RANK, KIND_POINT, ResultStore, ShardedResultStore


@pytest.fixture(autouse=True)
def _lock_order_sanitizer():
    """Record lock/flock ordering in every test and cross-check it
    against the static S003 graph (runtime must be a subgraph)."""
    with lock_order_guard():
        yield

_ENV = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
# The checkout this suite lives in: child processes import its ``src``.
ROOT = Path(__file__).resolve().parents[1]


def _run_child(snippet: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        cwd=ROOT,
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_CLEAR_AND_REWRITE = """
import sys
from repro.cache import ResultStore, KIND_POINT

store = ResultStore(sys.argv[1])
store.clear()
store.put("fresh", KIND_POINT, {"v": "after-clear"})
print(len(store))
"""

_APPEND_FULL_RANK = """
import sys
from repro.cache import ResultStore, KIND_POINT, FULL_RANK

store = ResultStore(sys.argv[1])
store.put(sys.argv[2], KIND_POINT, {"fidelity": "full"}, rank=FULL_RANK)
"""


class TestClearStalenessAcrossProcesses:
    def test_reader_recovers_after_another_process_clears(self, tmp_path):
        """The generation stamp forces a full re-read after clear().

        The reader indexes several fat records (so its offsets point deep
        into the segment), then a *different process* clears the store
        and writes one small record.  The reader's offsets now exceed the
        recreated segment's size; without the generation check its next
        refresh reads nothing and it keeps serving the deleted records.
        """
        root = str(tmp_path / "store")
        writer = ResultStore(root)
        for i in range(5):
            writer.put(f"old-{i}", KIND_POINT, {"pad": "x" * 200, "i": i})

        reader = ResultStore(root)
        reader.refresh()
        assert len(reader) == 5
        assert reader.get("old-0") is not None

        assert _run_child(_CLEAR_AND_REWRITE, root).strip() == "1"

        reader.refresh()
        assert reader.get("old-0") is None, "deleted record still served"
        fresh = reader.get("fresh")
        assert fresh is not None and fresh.payload["v"] == "after-clear"
        assert len(reader) == 1

    def test_generation_is_stamped_and_visible(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.stats().generation == 0
        store.put("k", KIND_POINT, {})
        store.clear()
        assert store.stats().generation == 1
        store.compact()
        assert store.stats().generation == 2

    def test_same_instance_clear_does_not_self_invalidate(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("a", KIND_POINT, {})
        store.clear()
        store.put("b", KIND_POINT, {})
        assert store.get("b") is not None
        assert len(store) == 1


class TestProbeSupersessionAcrossProcesses:
    def test_low_rank_hit_refreshes_and_adopts_full_route(self, tmp_path):
        """A probe-rank hit must look for a newer full-rank record.

        The reader indexes a rank-0 probe; another process then appends
        the full-route record for the same key.  Pre-fix, ``get()``
        answered from the stale index hit and the full record was
        ignored indefinitely — violating the "higher rank supersedes"
        contract for every process but the writer.
        """
        root = str(tmp_path / "store")
        writer = ResultStore(root)
        key = "contested-key"
        writer.put(key, KIND_POINT, {"fidelity": "probe"}, rank=0)

        reader = ResultStore(root)
        probe = reader.get(key)
        assert probe is not None and probe.rank == 0

        _run_child(_APPEND_FULL_RANK, root, key)

        record = reader.get(key)
        assert record is not None
        assert record.rank == FULL_RANK, "stale probe served over full-route"
        assert record.payload["fidelity"] == "full"

    def test_full_rank_hit_does_not_trigger_refresh(self, tmp_path):
        """Full-rank hits stay O(1): nothing can supersede them."""
        store = ResultStore(tmp_path / "store")
        store.put("k", KIND_POINT, {}, rank=FULL_RANK)
        store.get("k")
        # A second instance's appends must stay invisible until a miss or
        # an explicit refresh — the hit path must not have scanned disk.
        other = ResultStore(store.root)
        other.put("k2", KIND_POINT, {})
        assert store.get("k").rank == FULL_RANK
        assert "k2" not in store._index


class TestDefensiveReads:
    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("good-1", KIND_POINT, {"i": 1})
        store.put("good-2", KIND_POINT, {"i": 2})
        segment = store._segment_paths()[0]
        with segment.open("a", encoding="utf-8") as fh:
            fh.write("{this is not json\n")
            fh.write('{"key": 1, "kind": 2, "payload": "not-a-mapping"}\n')
            fh.write('{"no_key": true}\n')

        fresh = ResultStore(store.root)
        fresh.refresh()
        assert sorted(fresh.keys()) == ["good-1", "good-2"]
        assert fresh.corrupt_lines == 3
        assert fresh.stats().corrupt_lines == 3

    def test_foreign_segment_names_are_ignored(self, tmp_path):
        """``seg-zzz.jsonl`` crashed ``_active_segment`` (int("zzz"))."""
        store = ResultStore(tmp_path / "store")
        store.put("k1", KIND_POINT, {})
        # Foreign files that *sort after* real segments are the killer:
        # rotation parsed the last sorted name's ordinal.
        foreign = store._segments_dir / "seg-zzz.jsonl"
        foreign.write_text('{"key": "ghost", "kind": "point", "payload": {}}\n')
        (store._segments_dir / "seg-1.jsonl.bak").write_text("junk\n")

        fresh = ResultStore(store.root)
        fresh.refresh()
        assert fresh.keys() == ["k1"], "foreign file leaked into the index"
        # Rotation still works: this would raise ValueError pre-fix.
        assert fresh.put("k2", KIND_POINT, {}) is True
        assert len(fresh) == 2


class TestCompaction:
    def test_round_trip_preserves_the_index_exactly(self, tmp_path):
        """compact() rewrites segments; the index must be identical."""
        store = ResultStore(tmp_path / "store", segment_max_bytes=256)
        for i in range(10):
            key = f"key-{i}"
            store.put(key, KIND_POINT, {"fidelity": "probe", "i": i}, rank=0)
            store.put(key, KIND_POINT, {"fidelity": "full", "i": i})
        before = {
            r.key: (r.kind, r.rank, dict(r.payload)) for r in store.records()
        }
        stats_before = store.stats()
        assert stats_before.duplicates == 10  # superseded probes on disk

        result = store.compact()
        assert result.records_before == 20
        assert result.records_after == 10
        assert result.bytes_after < result.bytes_before

        after = {
            r.key: (r.kind, r.rank, dict(r.payload)) for r in store.records()
        }
        assert after == before
        stats_after = store.stats()
        assert stats_after.duplicates == 0
        assert stats_after.unique_keys == 10

    def test_other_processes_reset_cleanly_after_compact(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ResultStore(root)
        for i in range(6):
            writer.put(f"k-{i}", KIND_POINT, {"pad": "y" * 100}, rank=0)
            writer.put(f"k-{i}", KIND_POINT, {"pad": "y" * 100})
        reader = ResultStore(root)
        reader.refresh()
        assert len(reader) == 6

        _run_child(
            "import sys\nfrom repro.cache import ResultStore\n"
            "print(ResultStore(sys.argv[1]).compact().records_after)",
            root,
        )

        reader.refresh()
        assert len(reader) == 6
        assert all(r.rank == FULL_RANK for r in reader.records())

    def test_compact_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = store.compact()
        assert result.records_before == result.records_after == 0
        assert store.put("k", KIND_POINT, {}) is True


def _race_after_glob(store: ResultStore, action) -> None:
    """Run ``action`` once, right after ``store``'s next segment glob —
    the window between listing the segments and reading them."""
    glob = store._segment_paths
    fired = []

    def racing():
        paths = glob()
        if not fired:
            fired.append(True)
            action()
        return paths

    store._segment_paths = racing


def _fill(root, opener) -> None:
    """Probe + full-route records for 12 keys over many small segments,
    so a compaction leaves fewer segments than it found."""
    writer = opener(root)
    for i in range(12):
        writer.put(f"k-{i}", KIND_POINT, {"fidelity": "probe", "i": i}, rank=0)
        writer.put(f"k-{i}", KIND_POINT, {"fidelity": "full", "i": i})


def _flat(root):
    return ResultStore(root, segment_max_bytes=256)


def _sharded(root):
    return ShardedResultStore(root, shards=2, segment_max_bytes=256)


def _shard_of(store, key: str) -> ResultStore:
    if isinstance(store, ShardedResultStore):
        return store._store_for(key)
    return store


class TestRefreshRacingMaintenance:
    """A lockless ``get()`` refresh can list the segments, then lose them
    to another handle's ``clear()``/``compact()`` before reading them;
    that raised ``FileNotFoundError`` out of ``get()``."""

    @pytest.mark.parametrize("opener", [_flat, _sharded], ids=["flat", "sharded"])
    def test_get_after_a_racing_clear_misses(self, tmp_path, opener):
        root = tmp_path / "store"
        _fill(root, opener)
        reader = opener(root)
        assert len(reader) == 12
        opener(root).put("late", KIND_POINT, {"v": 1})
        _race_after_glob(_shard_of(reader, "late"), lambda: opener(root).clear())

        assert reader.get("late") is None
        # len() refreshes every shard; a hit is served from the index
        # until a refresh, so check the other keys only after it.
        assert len(reader) == 0
        assert reader.get("k-0") is None
        assert reader.keys() == opener(root).keys() == []

    @pytest.mark.parametrize("opener", [_flat, _sharded], ids=["flat", "sharded"])
    def test_get_after_a_racing_compact_hits(self, tmp_path, opener):
        root = tmp_path / "store"
        _fill(root, opener)
        reader = opener(root)
        assert len(reader) == 12
        opener(root).put("late", KIND_POINT, {"v": 1})
        shard = _shard_of(reader, "late")
        segments_before = len(shard._segment_paths())
        _race_after_glob(shard, lambda: opener(root).compact())

        record = reader.get("late")
        assert record is not None and record.payload == {"v": 1}
        assert len(shard._segment_paths()) < segments_before
        fresh = opener(root)
        assert {r.key: r for r in reader.records()} == {
            r.key: r for r in fresh.records()
        }
        assert all(r.rank == FULL_RANK for r in reader.records())


class TestStatsRacingMaintenance:
    """``stats()`` listed the segments, then ``stat()``-ed them without
    the writer lock; another handle's ``clear()`` in between raised
    ``FileNotFoundError`` out of ``cache stats``."""

    @pytest.mark.parametrize("opener", [_flat, _sharded], ids=["flat", "sharded"])
    def test_stats_racing_a_clear_returns_the_pre_clear_counts(
        self, tmp_path, opener
    ):
        root = tmp_path / "store"
        _fill(root, opener)
        reader = opener(root)
        before = reader.stats()
        assert before.unique_keys == 12 and before.segments > 1
        # The last shard's stats() runs last, so every shard is read
        # before the clear can start.
        shard = reader._stores[-1] if isinstance(reader, ShardedResultStore) else reader
        clearer = threading.Thread(target=opener(root).clear)
        glob = shard._segment_paths
        globs = []

        def racing():
            # stats() globs twice: once in its refresh(), once to size
            # the segments.  After the second, give the clear half a
            # second: enough to finish unless the writer lock holds it.
            paths = glob()
            globs.append(paths)
            if len(globs) == 2:
                clearer.start()
                clearer.join(timeout=0.5)
            return paths

        shard._segment_paths = racing
        during = reader.stats()
        clearer.join(timeout=10.0)
        assert not clearer.is_alive()

        assert during == before
        after = reader.stats()
        assert after.unique_keys == after.segments == after.size_bytes == 0
