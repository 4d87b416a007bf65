"""Tests for the persistent cross-run result store (repro.cache).

Covers the three layers on their own terms — content-addressed keys, the
bounded in-memory LRU, and the on-disk JSONL store (including two real
processes appending concurrently) — plus the CI-grade equivalence
contract: a warm store changes tool-run counts, never answers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import (
    FLOW_VERSION,
    KIND_POINT,
    LruCache,
    ResultStore,
    identity_key,
    point_key,
    run_identity,
)
from repro.designs import get_design

# The checkout this suite lives in: child processes import its ``src``.
ROOT = Path(__file__).resolve().parents[1]


def _identity(**kw):
    defaults = dict(
        source="module m(input wire c); endmodule",
        top="m",
        part="XC7K70T",
        step="FlowStep.IMPLEMENTATION",
        synth_directive="Default",
        impl_directive="Default",
        target_period_ns=1.0,
        seed=3,
        metrics=(("LUT", "min"), ("frequency", "max")),
    )
    defaults.update(kw)
    return run_identity(**defaults)


class TestKeys:
    def test_point_key_ignores_param_order_and_case(self):
        identity = _identity()
        a = point_key(identity, {"DEPTH": 8, "WIDTH": 16})
        b = point_key(identity, {"width": 16, "depth": 8})
        assert a == b

    def test_point_key_separates_bindings(self):
        identity = _identity()
        assert point_key(identity, {"DEPTH": 8}) != point_key(identity, {"DEPTH": 9})

    def test_identity_covers_the_full_run_configuration(self):
        base = identity_key(_identity())
        for change in (
            dict(source="module m2(input wire c); endmodule"),
            dict(seed=4),
            dict(part="ZU3EG"),
            dict(target_period_ns=2.0),
            dict(impl_directive="Explore"),
            dict(metrics=(("LUT", "min"),)),
            dict(boxed=False),
            dict(language="vhdl"),
        ):
            assert identity_key(_identity(**change)) != base, change

    def test_flow_version_bump_invalidates_everything(self):
        old = identity_key(_identity(flow_version="veda-2"))
        assert identity_key(_identity(flow_version=FLOW_VERSION)) != old


class TestLruCache:
    def test_capacity_bound_and_eviction_order(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # evicts "a", the least recently used
        assert len(lru) == 2
        assert lru.evictions == 1
        assert lru.get("a") is None
        assert lru.get("b") == 2

    def test_get_refreshes_recency(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # "b" is now the eviction candidate
        lru.put("c", 3)
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_unbounded_never_evicts(self):
        lru = LruCache(None)
        for i in range(1000):
            lru.put(i, i)
        assert len(lru) == 1000
        assert lru.evictions == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = point_key(_identity(), {"DEPTH": 8})
        assert store.put(key, KIND_POINT, {"metrics": {"LUT": 42.0}}) is True
        record = store.get(key)
        assert record is not None
        assert record.kind == KIND_POINT
        assert record.payload["metrics"]["LUT"] == 42.0

    def test_duplicate_put_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = point_key(_identity(), {"DEPTH": 8})
        assert store.put(key, KIND_POINT, {"v": 1}) is True
        assert store.put(key, KIND_POINT, {"v": 2}) is False
        assert store.get(key).payload == {"v": 1}  # first writer wins
        assert store.stats().skipped_puts == 1

    def test_floats_roundtrip_bitwise(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        value = 123.456789012345e-7
        store.put("k", KIND_POINT, {"f": value})
        reader = ResultStore(tmp_path / "store")
        assert reader.get("k").payload["f"] == value

    def test_second_instance_sees_appends(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        reader = ResultStore(tmp_path / "store")
        writer.put("k1", KIND_POINT, {"v": 1})
        # The reader was opened before the append: the lookup miss
        # triggers a tail refresh that folds it in.
        assert reader.get("k1") is not None
        assert reader.hits == 1

    def test_segment_rotation(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_max_bytes=200)
        for i in range(20):
            store.put(f"key-{i:04d}", KIND_POINT, {"i": i})
        stats = store.stats()
        assert stats.segments > 1
        assert stats.unique_keys == 20
        # A fresh instance reassembles the index across all segments.
        assert len(ResultStore(tmp_path / "store")) == 20

    def test_clear_and_export(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for i in range(5):
            store.put(f"key-{i}", KIND_POINT, {"i": i})
        out = store.export(tmp_path / "export.jsonl")
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert {l["key"] for l in lines} == {f"key-{i}" for i in range(5)}
        assert store.clear() == 5
        assert len(store) == 0
        assert store.get("key-0") is None


_WRITER_SNIPPET = """
import sys
from repro.cache import ResultStore, KIND_POINT

root, start, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ResultStore(root)
written = 0
for i in range(start, start + count):
    if store.put(f"key-{i:05d}", KIND_POINT, {"i": i}):
        written += 1
print(written)
"""


class TestConcurrentWriters:
    def test_two_processes_no_lost_or_duplicated_records(self, tmp_path):
        """Two real processes race on an overlapping key range.

        Every key must land exactly once in the index (first writer
        wins), and no append may be lost: the union of both ranges is
        fully present afterwards.
        """
        root = str(tmp_path / "store")
        # Ranges [0, 60) and [40, 100) — 20 contested keys in the middle.
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SNIPPET, root, str(start), "60"],
                stdout=subprocess.PIPE,
                cwd=ROOT,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            )
            for start in (0, 40)
        ]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)

        store = ResultStore(root)
        assert sorted(store.keys()) == [f"key-{i:05d}" for i in range(100)]
        for record in store.records():
            assert record.payload["i"] == int(record.key.split("-")[1])
        # Successful put() calls across both writers cover each key at
        # most once: the flock + tail-refresh recheck resolves races.
        total_written = sum(int(o) for o in outs)
        assert total_written == 100


class TestWarmStoreEquivalence:
    """CI-grade contract: the store changes pricing, never answers."""

    @staticmethod
    def _no_store_cold_warm(store_dir, seed, generations, population):
        """The same exploration without a store, then cold and warm over
        one fresh store; asserts all three fronts are identical."""
        from repro.core.session import DseSession

        def explore(store):
            with DseSession(
                design=get_design("cv32e40p-fifo"),
                part="XC7K70T",
                use_model=False,
                seed=seed,
                result_store=store,
            ) as s:
                return s.explore(generations=generations, population=population)

        runs = explore(None), explore(store_dir), explore(store_dir)

        def front(result):
            return sorted(
                (tuple(sorted(p.parameters.items())),
                 tuple(sorted(p.metrics.items())))
                for p in result.pareto
            )

        reference, cold, warm = runs
        assert front(cold) == front(reference)
        assert front(warm) == front(reference)
        assert cold.evaluations == warm.evaluations == reference.evaluations
        return runs

    def test_warm_session_replays_everything_identically(self, tmp_path):
        _, cold, warm = self._no_store_cold_warm(tmp_path / "store", 5, 2, 6)
        # The warm run never touched the tool.
        assert cold.tool_runs > 0
        assert warm.tool_runs == 0

    def test_warm_store_cuts_tool_runs_at_least_fivefold(self, tmp_path):
        _, cold, warm = self._no_store_cold_warm(tmp_path / "store", 2021, 4, 10)
        assert cold.tool_runs / max(warm.tool_runs, 1) >= 5.0
        assert warm.tool_runs == 0
