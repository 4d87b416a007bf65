"""The persistent, process-safe, on-disk result store.

Layout (one directory per store)::

    <root>/MANIFEST.json        # store format + flow version it was created under
    <root>/.lock                # writer mutual exclusion (flock)
    <root>/segments/seg-000001.jsonl
    <root>/segments/seg-000002.jsonl
    ...

Records are append-only JSONL lines ``{"key": <hex>, "kind": ..,
"payload": {..}}``; a segment rotates once it crosses the byte cap, so no
single file grows unboundedly and ``clear``/``export`` stream segment by
segment.

Concurrency model — many readers, many writers, zero coordination beyond
the lock file:

- **Appends** happen under an exclusive ``flock`` on ``<root>/.lock``
  and are preceded by a tail refresh, so two processes racing to store
  the same key write it once (first-writer-wins; results are
  content-addressed and deterministic, so the loser's record would have
  been byte-identical anyway).
- **Reads** go through a per-process in-memory index.  A lookup miss
  triggers a *tail refresh*: each segment is re-read only from the byte
  offset this process has already consumed, so picking up another
  process's appends costs O(new records), not O(store).
- Keys are content-addressed (:mod:`repro.cache.keys`), so duplicate
  keys across segments are benign: the first record wins and later ones
  are counted as duplicates in :meth:`ResultStore.stats`.
- **Fidelity ranks**: records may carry a rank (flow-ladder rung; absent
  means full fidelity).  Within a key, a *higher*-rank record supersedes
  a lower one — a full-route result overwrites the synth-estimate probe
  stored for the same design hash — while equal ranks keep
  first-writer-wins.  The index therefore always answers with the most
  trustworthy record the store holds for a key.  Because a low-rank hit
  may have been superseded by another process since it was indexed,
  :meth:`ResultStore.get` refreshes the tail *before* answering from a
  below-full-rank record — a hit on a probe never shadows a full-route
  record some other process already appended.
- **Generation stamp**: destructive maintenance (:meth:`ResultStore.clear`,
  :meth:`ResultStore.compact`) bumps a generation counter in MANIFEST
  under the writer lock.  ``refresh()`` compares it against the
  generation this process last saw and, on mismatch, resets its offsets
  and index before re-reading — otherwise a process that indexed the old
  segments would keep serving deleted records forever (its byte offsets
  exceed the recreated segments' sizes, so the tail scan finds nothing).
- **Decoded-segment memo**: a handle that reads a segment from offset 0
  (a fresh open, or the re-read after a generation reset) consults a
  per-process memo of that segment's last decoded text.  The memo is
  reused only when the text just read *starts with* the memoised text,
  and then only the rest is decoded; the handle still folds every
  record into its own index in file order.  Decoding is a pure function
  of the text, so a memo-built index equals a cold-decoded one whatever
  happened to the file in between (appends, a clear, a directory
  deleted and recreated at the same path).  The memo holds at most
  :data:`_MEMO_MAX_CHARS` characters of text, least recently used out
  first.  Memoised records — payload dicts included — are shared by
  every handle that reads them and must never be mutated.
- **Vanishing segments**: a lockless refresh can race another process's
  ``clear()``/``compact()``; a segment that disappears between the glob
  and its read ends that pass, and the generation is checked again
  before a second pass, so a lookup hits or misses but never raises.
- **Defensive reads**: segment scans only consider files named
  ``seg-<digits>.jsonl``; foreign files dropped into the segments
  directory are ignored rather than crashing rotation, and complete
  lines that fail to decode are skipped and tallied in
  ``corrupt_lines`` (surfaced by ``cache stats``).

The lock degrades to a no-op on platforms without ``fcntl`` — the store
stays correct for a single writer, which is the only configuration those
platforms get.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.cache.keys import FLOW_VERSION

try:  # pragma: no branch
    import fcntl

    _HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    _HAVE_FLOCK = False

__all__ = [
    "FULL_RANK",
    "CompactResult",
    "ResultStore",
    "StoredResult",
    "StoreStats",
]

_STORE_VERSION = 1
_SEGMENT_PREFIX = "seg-"
_SEGMENT_NAME = re.compile(rf"^{_SEGMENT_PREFIX}(\d+)\.jsonl$")
_DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Bound on the decoded-segment memo, in characters of memoised text
#: (store lines are ASCII JSON, so characters are bytes): four full
#: default-sized segments.
_MEMO_MAX_CHARS = 4 * _DEFAULT_SEGMENT_BYTES

#: Rank of records written without one (pre-ladder stores): they came from
#: the full flow and must stay authoritative over low-fidelity probes.
FULL_RANK = 2


@dataclass(frozen=True)
class StoredResult:
    """One decoded store record."""

    key: str
    kind: str
    payload: dict[str, Any]
    rank: int = FULL_RANK


def _encode_record(record: StoredResult) -> str:
    """The canonical JSONL line for a record (full-rank lines keep the
    pre-ladder byte format)."""
    obj: dict[str, Any] = {
        "key": record.key,
        "kind": record.kind,
        "payload": record.payload,
    }
    if record.rank != FULL_RANK:
        obj["rank"] = record.rank
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _decode_lines(text: str) -> tuple[tuple[StoredResult, ...], int]:
    """The records of some whole JSONL lines, in order, plus how many
    complete lines did not decode to a record."""
    records: list[StoredResult] = []
    corrupt = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            records.append(
                StoredResult(
                    key=str(obj["key"]),
                    kind=str(obj["kind"]),
                    payload=dict(obj.get("payload", {})),
                    rank=int(obj.get("rank", FULL_RANK)),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A complete line that does not decode to a record: corruption
            # from a crashed/foreign writer.  Skip it but keep count —
            # silent data loss is how stale-cache bugs hide.
            corrupt += 1
    return tuple(records), corrupt


@dataclass(frozen=True)
class _DecodedSegment:
    """A segment's consumed text (whole lines from offset 0) decoded."""

    text: str
    records: tuple[StoredResult, ...]
    corrupt_lines: int


class _SegmentMemo:
    """Per-process LRU of decoded segments, keyed by segment path and
    bounded by the total length of the memoised text."""

    def __init__(self, max_chars: int) -> None:
        self.max_chars = int(max_chars)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _DecodedSegment] = OrderedDict()
        self._chars = 0

    def decode(
        self, key: str, text: str
    ) -> tuple[tuple[StoredResult, ...], int]:
        """:func:`_decode_lines` of ``text``, reusing the memo for ``key``
        when ``text`` starts with the memoised text (only the rest is
        decoded then)."""
        with self._lock:
            memo = self._entries.get(key)
            if memo is not None:
                self._entries.move_to_end(key)
        if memo is not None and text.startswith(memo.text):
            if len(text) == len(memo.text):
                return memo.records, memo.corrupt_lines
            records, corrupt = _decode_lines(text[len(memo.text):])
            entry = _DecodedSegment(
                text, memo.records + records, memo.corrupt_lines + corrupt
            )
        else:
            entry = _DecodedSegment(text, *_decode_lines(text))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._chars -= len(old.text)
            if len(entry.text) <= self.max_chars:
                self._entries[key] = entry
                self._chars += len(entry.text)
            while self._chars > self.max_chars:
                _, evicted = self._entries.popitem(last=False)
                self._chars -= len(evicted.text)
        return entry.records, entry.corrupt_lines


_MEMO = _SegmentMemo(_MEMO_MAX_CHARS)


@dataclass(frozen=True)
class StoreStats:
    """Store shape plus this process's hit/miss/put tallies."""

    path: str
    segments: int
    records: int
    unique_keys: int
    duplicates: int
    size_bytes: int
    hits: int
    misses: int
    puts: int
    skipped_puts: int
    corrupt_lines: int = 0
    generation: int = 0
    shards: int = 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "segments": self.segments,
            "records": self.records,
            "unique_keys": self.unique_keys,
            "duplicates": self.duplicates,
            "size_bytes": self.size_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "skipped_puts": self.skipped_puts,
            "corrupt_lines": self.corrupt_lines,
            "generation": self.generation,
            "shards": self.shards,
        }


@dataclass(frozen=True)
class CompactResult:
    """Outcome of one offline compaction pass."""

    records_before: int
    records_after: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "records_before": self.records_before,
            "records_after": self.records_after,
            "segments_before": self.segments_before,
            "segments_after": self.segments_after,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }

    def merged(self, other: "CompactResult") -> "CompactResult":
        return CompactResult(
            records_before=self.records_before + other.records_before,
            records_after=self.records_after + other.records_after,
            segments_before=self.segments_before + other.segments_before,
            segments_after=self.segments_after + other.segments_after,
            bytes_before=self.bytes_before + other.bytes_before,
            bytes_after=self.bytes_after + other.bytes_after,
        )


class ResultStore:
    """Content-addressed on-disk result store shared across processes."""

    def __init__(
        self,
        root: str | Path,
        segment_max_bytes: int = _DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self.root = Path(root)
        self.segment_max_bytes = int(segment_max_bytes)
        self._segments_dir = self.root / "segments"
        self._lock_path = self.root / ".lock"
        self._manifest_path = self.root / "MANIFEST.json"
        self._index: dict[str, StoredResult] = {}
        self._offsets: dict[str, int] = {}  # segment name -> bytes consumed
        self._records_seen = 0
        self._generation = 0  # manifest generation this index was built from
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.skipped_puts = 0
        self.corrupt_lines = 0
        self._ensure_layout()
        self.refresh()

    # -- layout & locking ------------------------------------------------

    def _ensure_layout(self) -> None:
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        if not self._manifest_path.exists():
            with self._locked():
                if not self._manifest_path.exists():
                    self._write_manifest({"generation": 0})

    def _write_manifest(self, extra: Mapping[str, Any]) -> None:
        """(Re)write MANIFEST (call under the lock for shared stores)."""
        payload: dict[str, Any] = {
            "store_version": _STORE_VERSION,
            "flow_version": FLOW_VERSION,
        }
        payload.update(extra)
        tmp = self._manifest_path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path)

    def _read_manifest(self) -> dict[str, Any]:
        try:
            return dict(
                json.loads(self._manifest_path.read_text(encoding="utf-8"))
            )
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            return {}

    def _stored_generation(self) -> int:
        """The generation stamp currently in MANIFEST (0 when absent)."""
        try:
            return int(self._read_manifest().get("generation", 0))
        except (TypeError, ValueError):
            return 0

    def _bump_generation(self) -> int:
        """Advance the generation stamp (call under the lock)."""
        manifest = self._read_manifest()
        try:
            generation = int(manifest.get("generation", 0)) + 1
        except (TypeError, ValueError):
            generation = 1
        manifest["generation"] = generation
        self._write_manifest(manifest)
        return generation

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive writer lock on the store (no-op without fcntl)."""
        self._lock_path.touch(exist_ok=True)
        with self._lock_path.open("r+") as fh:
            if _HAVE_FLOCK:
                fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                if _HAVE_FLOCK:
                    fcntl.flock(fh, fcntl.LOCK_UN)

    def _segment_paths(self) -> list[Path]:
        # Only files matching seg-<digits>.jsonl are store segments; foreign
        # files (editor droppings, exports copied in by hand) are ignored so
        # neither the tail scan nor rotation trips over them.
        return sorted(
            p
            for p in self._segments_dir.glob(f"{_SEGMENT_PREFIX}*.jsonl")
            if _SEGMENT_NAME.match(p.name)
        )

    def _active_segment(self) -> Path:
        """The segment new appends go to (rotating past the byte cap)."""
        segments = self._segment_paths()
        if segments:
            last = segments[-1]
            if last.stat().st_size < self.segment_max_bytes:
                return last
            match = _SEGMENT_NAME.match(last.name)
            assert match is not None  # _segment_paths only yields conforming names
            ordinal = int(match.group(1)) + 1
        else:
            ordinal = 1
        return self._segments_dir / f"{_SEGMENT_PREFIX}{ordinal:06d}.jsonl"

    # -- index maintenance -----------------------------------------------

    def refresh(self) -> int:
        """Fold appends from other processes into the index.

        Reads only the unseen tail of each segment; returns the number of
        new records indexed (duplicate keys count as records but do not
        displace the first-seen entry).  When another process has cleared
        or compacted the store since this process last looked (MANIFEST
        generation mismatch), the local offsets and index are reset first
        — the old byte offsets are meaningless against recreated segments
        and the old index entries may reference deleted records.  A
        segment read from offset 0 is decoded through the per-process
        memo; a segment that vanishes mid-pass ends it, and the pass is
        redone once if the generation moved meanwhile.
        """
        self._sync_generation()
        for _ in range(2):
            added = 0
            for path in self._segment_paths():
                name = path.name
                offset = self._offsets.get(name, 0)
                try:
                    if path.stat().st_size <= offset:
                        continue
                    with path.open("r", encoding="utf-8") as fh:
                        fh.seek(offset)
                        tail = fh.read()
                except FileNotFoundError:
                    break  # another process is clearing or compacting
                # Only consume whole lines: a concurrent writer may be
                # mid-append.
                consumed = tail.rfind("\n") + 1
                if consumed <= 0:
                    continue
                if offset == 0:
                    records, corrupt = _MEMO.decode(str(path), tail[:consumed])
                else:
                    records, corrupt = _decode_lines(tail[:consumed])
                self.corrupt_lines += corrupt
                index = self._index
                for record in records:
                    existing = index.get(record.key)
                    if existing is None or record.rank > existing.rank:
                        index[record.key] = record
                self._records_seen += len(records)
                added += len(records)
                self._offsets[name] = offset + consumed
            else:
                return added
            # A segment vanished mid-pass: redo the pass once if its
            # clear()/compact() has published a new generation by now.
            if not self._sync_generation():
                return added
        return added

    def _sync_generation(self) -> bool:
        """Reset offsets and index if MANIFEST's generation moved;
        returns whether it did."""
        stored_generation = self._stored_generation()
        if stored_generation == self._generation:
            return False
        self._index.clear()
        self._offsets.clear()
        self._records_seen = 0
        self._generation = stored_generation
        return True

    # -- API ---------------------------------------------------------------

    def get(self, key: str) -> StoredResult | None:
        """Look up one key, refreshing the tail on a miss.

        A hit on a *below-full-rank* record also refreshes first: the
        cached entry is a low-fidelity probe, and a higher-rank record
        appended by another process since the last refresh must supersede
        it ("higher rank supersedes" is the store's contract for hits,
        not just for misses).
        """
        record = self._index.get(key)
        if record is None or record.rank < FULL_RANK:
            self.refresh()
            record = self._index.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def __contains__(self, key: str) -> bool:
        if key not in self._index:
            self.refresh()
        return key in self._index

    def __len__(self) -> int:
        self.refresh()
        return len(self._index)

    def keys(self) -> list[str]:
        self.refresh()
        return list(self._index)

    def records(self) -> Iterator[StoredResult]:
        self.refresh()
        return iter(list(self._index.values()))

    def put(
        self,
        key: str,
        kind: str,
        payload: Mapping[str, Any],
        rank: int = FULL_RANK,
    ) -> bool:
        """Append one record; returns False when it would not win the index.

        First-writer-wins within a rank; a *higher*-rank record (a
        full-route result superseding a stored low-fidelity probe) is
        appended even when the key exists and displaces the lower record
        in every process's index on its next refresh.  The append runs
        under the writer lock with a fresh tail read, so concurrent
        writers racing on one (key, rank) store it exactly once.
        """
        rank = int(rank)
        existing = self._index.get(key)
        if existing is not None and existing.rank >= rank:
            self.skipped_puts += 1
            return False
        line = _encode_record(
            StoredResult(key=key, kind=str(kind), payload=dict(payload), rank=rank)
        )
        with self._locked():
            self.refresh()
            existing = self._index.get(key)
            if existing is not None and existing.rank >= rank:
                self.skipped_puts += 1
                return False
            path = self._active_segment()
            with path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            # Index our own append without re-reading the file (still under
            # the lock, so the segment tail is exactly our line).
            self._offsets[path.name] = path.stat().st_size
        record = StoredResult(key=key, kind=str(kind), payload=dict(payload), rank=rank)
        self._index[key] = record
        self._records_seen += 1
        self.puts += 1
        return True

    def clear(self) -> int:
        """Delete every record; returns how many unique keys were dropped.

        Bumps the MANIFEST generation stamp under the lock so every other
        process's next ``refresh()`` resets its offsets and index instead
        of serving deleted records forever.
        """
        with self._locked():
            self.refresh()
            dropped = len(self._index)
            for path in self._segment_paths():
                path.unlink()
            self._index.clear()
            self._offsets.clear()
            self._records_seen = 0
            self._generation = self._bump_generation()
        return dropped

    def compact(self) -> CompactResult:
        """Rewrite the segments keeping only index winners.

        Duplicate appends (two processes racing on one key) and
        superseded low-rank probe records accumulate as dead lines the
        tail scan pays for on every fresh open; this offline pass rewrites
        the store to exactly one line per unique key — the record the
        index answers with — and bumps the generation stamp so other
        processes re-read cleanly.  Runs entirely under the writer lock.
        """
        with self._locked():
            self.refresh()
            old_segments = self._segment_paths()
            before = CompactResult(
                records_before=self._records_seen,
                records_after=0,
                segments_before=len(old_segments),
                segments_after=0,
                bytes_before=sum(p.stat().st_size for p in old_segments),
                bytes_after=0,
            )
            lines = [
                _encode_record(record) for record in self._index.values()
            ]
            for path in old_segments:
                path.unlink()
            self._offsets.clear()
            ordinal = 0
            written = 0
            fh = None
            try:
                for line in lines:
                    if fh is None or written >= self.segment_max_bytes:
                        if fh is not None:
                            fh.flush()
                            os.fsync(fh.fileno())
                            fh.close()
                        ordinal += 1
                        path = (
                            self._segments_dir
                            / f"{_SEGMENT_PREFIX}{ordinal:06d}.jsonl"
                        )
                        fh = path.open("w", encoding="utf-8")
                        written = 0
                    fh.write(line + "\n")
                    written += len(line) + 1
                if fh is not None:
                    fh.flush()
                    os.fsync(fh.fileno())
                    fh.close()
                    fh = None
            finally:
                if fh is not None:
                    fh.close()
            # This process wrote every surviving line itself: offsets point
            # at the segment ends and the index is already the winner set.
            for path in self._segment_paths():
                self._offsets[path.name] = path.stat().st_size
            self._records_seen = len(self._index)
            self._generation = self._bump_generation()
            segments = self._segment_paths()
            return CompactResult(
                records_before=before.records_before,
                records_after=len(lines),
                segments_before=before.segments_before,
                segments_after=len(segments),
                bytes_before=before.bytes_before,
                bytes_after=sum(p.stat().st_size for p in segments),
            )

    def export(self, path: str | Path) -> Path:
        """Write one merged JSONL file (one line per unique key)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(_encode_record(record) + "\n")
        return path

    def stats(self) -> StoreStats:
        # Locked: no clear()/compact() may delete a segment before its stat().
        with self._locked():
            self.refresh()
            sizes = [p.stat().st_size for p in self._segment_paths()]
        return StoreStats(
            path=str(self.root),
            segments=len(sizes),
            records=self._records_seen,
            unique_keys=len(self._index),
            duplicates=self._records_seen - len(self._index),
            size_bytes=sum(sizes),
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            skipped_puts=self.skipped_puts,
            corrupt_lines=self.corrupt_lines,
            generation=self._generation,
        )
