"""Tests for the sharded result store and the layout-sniffing opener.

The sharded store must be indistinguishable from the flat store through
the ``get``/``put`` surface (the evaluator layers are layout-blind),
route every key to the same shard from every process, and survive the
same maintenance operations (clear/compact) shard by shard.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tests._sanitize_support import lock_order_guard

from repro.cache import (
    FULL_RANK,
    KIND_POINT,
    ResultStore,
    ShardedResultStore,
    open_store,
    point_key,
    run_identity,
)

# The checkout this suite lives in: child processes import its ``src``.
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _lock_order_sanitizer():
    """Record lock/flock ordering in every test and cross-check it
    against the static S003 graph (runtime must be a subgraph)."""
    with lock_order_guard():
        yield


def _keys(n: int) -> list[str]:
    identity = run_identity(
        source="module m(input wire c); endmodule",
        top="m",
        part="XC7K70T",
        step="FlowStep.IMPLEMENTATION",
        synth_directive="Default",
        impl_directive="Default",
        target_period_ns=1.0,
        seed=3,
        metrics=(("LUT", "min"),),
    )
    return [point_key(identity, {"DEPTH": i}) for i in range(n)]


class TestSharding:
    def test_round_trip_across_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        keys = _keys(40)
        for i, key in enumerate(keys):
            assert store.put(key, KIND_POINT, {"i": i}) is True
        assert len(store) == 40
        for i, key in enumerate(keys):
            record = store.get(key)
            assert record is not None and record.payload["i"] == i
            assert key in store
        # Real digests spread over every shard.
        populated = {store.shard_for(k) for k in keys}
        assert populated == {0, 1, 2, 3}

    def test_recorded_shard_count_wins_on_reopen(self, tmp_path):
        """Reopening with a different count would misroute every key."""
        root = tmp_path / "store"
        ShardedResultStore(root, shards=4).put("00ff" * 16, KIND_POINT, {})
        reopened = ShardedResultStore(root, shards=16)
        assert reopened.shards == 4
        assert len(reopened) == 1

    def test_routing_is_stable_across_instances(self, tmp_path):
        a = ShardedResultStore(tmp_path / "store", shards=8)
        b = ShardedResultStore(tmp_path / "store")
        for key in _keys(30):
            assert a.shard_for(key) == b.shard_for(key)

    def test_non_hex_keys_still_route_deterministically(self, tmp_path):
        a = ShardedResultStore(tmp_path / "store", shards=8)
        assert a.put("not-a-digest", KIND_POINT, {"v": 1}) is True
        b = ShardedResultStore(tmp_path / "store")
        assert b.get("not-a-digest").payload["v"] == 1

    def test_rank_supersession_within_a_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        key = _keys(1)[0]
        assert store.put(key, KIND_POINT, {"f": "probe"}, rank=0) is True
        assert store.put(key, KIND_POINT, {"f": "full"}) is True
        assert store.put(key, KIND_POINT, {"f": "probe2"}, rank=0) is False
        assert store.get(key).rank == FULL_RANK

    def test_stats_aggregate_and_expose_shard_count(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        for i, key in enumerate(_keys(20)):
            store.put(key, KIND_POINT, {"i": i})
        store.get(_keys(1)[0])
        stats = store.stats()
        assert stats.shards == 4
        assert stats.unique_keys == 20
        assert stats.records == 20
        assert stats.hits == 1
        assert len(store.shard_stats()) == 4
        assert sum(s.unique_keys for s in store.shard_stats()) == 20

    def test_clear_and_compact_apply_to_every_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        keys = _keys(24)
        for key in keys:
            store.put(key, KIND_POINT, {"f": "probe"}, rank=0)
            store.put(key, KIND_POINT, {"f": "full"})
        result = store.compact()
        assert result.records_before == 48
        assert result.records_after == 24
        assert {r.key for r in store.records()} == set(keys)
        assert store.clear() == 24
        assert len(store) == 0

    def test_export_merges_all_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        keys = _keys(12)
        for i, key in enumerate(keys):
            store.put(key, KIND_POINT, {"i": i})
        out = store.export(tmp_path / "export.jsonl")
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert {line["key"] for line in lines} == set(keys)

    def test_cross_process_visibility(self, tmp_path):
        root = str(tmp_path / "store")
        parent = ShardedResultStore(root, shards=4)
        keys = _keys(10)
        snippet = (
            "import sys\n"
            "from repro.cache import open_store, KIND_POINT\n"
            "store = open_store(sys.argv[1])\n"
            "for key in sys.argv[2:]:\n"
            "    store.put(key, KIND_POINT, {'who': 'child'})\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet, root, *keys],
            cwd=ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for key in keys:
            record = parent.get(key)
            assert record is not None and record.payload["who"] == "child"


class TestOpenStore:
    def test_sniffs_sharded_layout(self, tmp_path):
        root = tmp_path / "store"
        ShardedResultStore(root, shards=4)
        opened = open_store(root)
        assert isinstance(opened, ShardedResultStore)
        assert opened.shards == 4

    def test_sniffs_flat_layout(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        # Even with a shards hint, an existing flat store stays flat.
        assert isinstance(open_store(root, shards=8), ResultStore)

    def test_fresh_path_defaults_to_flat(self, tmp_path):
        assert isinstance(open_store(tmp_path / "new"), ResultStore)

    def test_fresh_path_with_shards_creates_sharded(self, tmp_path):
        opened = open_store(tmp_path / "new", shards=8)
        assert isinstance(opened, ShardedResultStore)
        assert opened.shards == 8
