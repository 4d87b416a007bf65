"""Fidelity-ranked records in the persistent result store (satellite).

The supersede contract: within one key, a full-route record overwrites a
lower-fidelity probe, equal ranks keep first-writer-wins, and a
warm-store read never answers a full-fidelity question with a
low-fidelity record — including when two real processes race on the same
key with different ranks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cache import (
    FIDELITY_RANKS,
    FULL_RANK,
    KIND_POINT,
    ResultStore,
    decode_point,
    encode_point,
)
from repro.core.point import EvaluatedPoint

# The checkout this suite lives in: child processes import its ``src``.
ROOT = Path(__file__).resolve().parents[1]


def _point(fidelity: str, lut: float = 100.0) -> EvaluatedPoint:
    return EvaluatedPoint(
        parameters={"W": 8},
        metrics={"LUT": lut, "frequency": 400.0},
        source="tool",
        simulated_seconds=10.0,
        fidelity=fidelity,
    )


class TestRankSupersede:
    def test_full_route_supersedes_probe(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        probe = _point("synth-estimate", lut=90.0)
        assert store.put(
            "k1", KIND_POINT, encode_point(probe),
            rank=FIDELITY_RANKS["synth-estimate"],
        )
        full = _point("full-route", lut=100.0)
        assert store.put("k1", KIND_POINT, encode_point(full))
        got = store.get("k1")
        assert got.rank == FULL_RANK
        assert decode_point(got.payload).fidelity == "full-route"
        assert decode_point(got.payload).metrics["LUT"] == 100.0

    def test_probe_never_shadows_full(self, tmp_path):
        """A low-fidelity write after a full record is refused, and a
        fresh process's index still answers with the full record."""
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("k1", KIND_POINT, encode_point(_point("full-route")))
        assert not store.put(
            "k1", KIND_POINT,
            encode_point(_point("placed-estimate", lut=50.0)),
            rank=FIDELITY_RANKS["placed-estimate"],
        )
        got = ResultStore(root).get("k1")  # fresh index, same directory
        assert got.rank == FULL_RANK
        assert decode_point(got.payload).fidelity == "full-route"

    def test_equal_rank_first_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        rank = FIDELITY_RANKS["synth-estimate"]
        assert store.put(
            "k1", KIND_POINT, encode_point(_point("synth-estimate", lut=1.0)),
            rank=rank,
        )
        assert not store.put(
            "k1", KIND_POINT, encode_point(_point("synth-estimate", lut=2.0)),
            rank=rank,
        )
        assert decode_point(store.get("k1").payload).metrics["LUT"] == 1.0

    def test_supersede_visible_across_processes(self, tmp_path):
        """A reader that saw the probe picks up the full-route supersede
        on its next tail refresh."""
        root = tmp_path / "store"
        writer = ResultStore(root)
        reader = ResultStore(root)
        writer.put(
            "k1", KIND_POINT, encode_point(_point("synth-estimate")),
            rank=FIDELITY_RANKS["synth-estimate"],
        )
        assert reader.get("k1").rank == FIDELITY_RANKS["synth-estimate"]
        writer.put("k1", KIND_POINT, encode_point(_point("full-route")))
        reader.refresh()
        assert reader.get("k1").rank == FULL_RANK

    def test_full_rank_lines_keep_pre_ladder_byte_format(self, tmp_path):
        """Full-fidelity records serialize without a ``rank`` key, so
        stores written by this version round-trip byte-identically with
        pre-ladder readers (and vice versa)."""
        store = ResultStore(tmp_path / "store")
        store.put("kf", KIND_POINT, encode_point(_point("full-route")))
        store.put(
            "kp", KIND_POINT, encode_point(_point("synth-estimate")),
            rank=FIDELITY_RANKS["synth-estimate"],
        )
        lines = []
        for seg in sorted((tmp_path / "store" / "segments").glob("*.jsonl")):
            lines += [json.loads(s) for s in seg.read_text().splitlines()]
        by_key = {line["key"]: line for line in lines}
        assert "rank" not in by_key["kf"]
        assert by_key["kp"]["rank"] == FIDELITY_RANKS["synth-estimate"]

    def test_export_preserves_ranks(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(
            "kp", KIND_POINT, encode_point(_point("placed-estimate")),
            rank=FIDELITY_RANKS["placed-estimate"],
        )
        store.put("kf", KIND_POINT, encode_point(_point("full-route")))
        out = store.export(tmp_path / "export.jsonl")
        lines = {  # key -> parsed line
            json.loads(s)["key"]: json.loads(s)
            for s in out.read_text().splitlines()
        }
        assert lines["kp"]["rank"] == FIDELITY_RANKS["placed-estimate"]
        assert "rank" not in lines["kf"]


_RACER_SNIPPET = """
import sys
from repro.cache import FIDELITY_RANKS, KIND_POINT, ResultStore

root, fidelity = sys.argv[1], sys.argv[2]
store = ResultStore(root)
written = 0
for i in range(50):
    payload = {
        "parameters": {"W": i},
        "metrics": {"LUT": float(FIDELITY_RANKS[fidelity])},
        "source": "tool",
        "simulated_seconds": 1.0,
    }
    if fidelity != "full-route":
        payload["fidelity"] = fidelity
    if store.put(f"key-{i:04d}", KIND_POINT, payload,
                 rank=FIDELITY_RANKS[fidelity]):
        written += 1
print(written)
"""


class TestConcurrentRankRace:
    def test_two_processes_race_probe_vs_full(self, tmp_path):
        """A probe writer and a full-route writer race on the same keys.

        Whatever the interleaving, every key must end up answering at
        FULL_RANK: either the full record landed first (the probe put was
        refused) or it superseded the probe afterwards.
        """
        root = str(tmp_path / "store")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER_SNIPPET, root, fidelity],
                stdout=subprocess.PIPE,
                cwd=ROOT,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            )
            for fidelity in ("synth-estimate", "full-route")
        ]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)

        store = ResultStore(root)
        assert len(store) == 50
        for record in store.records():
            assert record.rank == FULL_RANK
            assert record.payload["metrics"]["LUT"] == float(FULL_RANK)
        # The full-route writer always lands all 50; the probe writer's
        # successful puts are the keys it reached first.
        full_written = int(outs[1])
        assert full_written == 50
