"""Incremental-flow checkpoints.

Vivado's incremental design flow "writes some archives, called checkpoints"
per run and reuses them so re-runs skip work on unchanged design parts.
VEDA's checkpoint captures the placed coordinates keyed by the netlist's
*structure* fingerprint: a re-parameterized design with the same block/net
topology warm-starts placement from the stored coordinates, shortening both
the annealing schedule and the simulated wall clock in proportion to the
unchanged-cell fraction.

:class:`CheckpointStore` is an LRU-bounded in-memory archive with optional
JSON persistence, mirroring the on-disk ``.dcp`` files of the real flow.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError
from repro.netlist import Netlist
from repro.pnr.placer import Placement

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class Checkpoint:
    """One stored placement."""

    structure_fingerprint: int
    content_fingerprint: int
    coords: dict[str, tuple[float, float]]
    block_summary: dict[str, int]  # name -> approximate cells (for reporting)

    @classmethod
    def from_run(cls, netlist: Netlist, placement: Placement) -> "Checkpoint":
        return cls(
            structure_fingerprint=netlist.structure_fingerprint(),
            content_fingerprint=netlist.content_fingerprint(),
            coords=dict(placement.coords),
            block_summary={
                b.name: b.approximate_cells() for b in netlist.blocks()
            },
        )

    def matches_content(self, netlist: Netlist) -> bool:
        return self.content_fingerprint == netlist.content_fingerprint()


class CheckpointStore:
    """LRU archive of checkpoints keyed by structure fingerprint."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store: OrderedDict[int, Checkpoint] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def save(self, checkpoint: Checkpoint) -> None:
        key = checkpoint.structure_fingerprint
        if key in self._store:
            self._store.pop(key)
        self._store[key] = checkpoint
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def lookup(self, netlist: Netlist) -> Checkpoint | None:
        """Find a structurally matching checkpoint (LRU-refreshing)."""
        key = netlist.structure_fingerprint()
        ckpt = self._store.get(key)
        if ckpt is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return ckpt

    # -- persistence ---------------------------------------------------------

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            {
                "structure_fingerprint": c.structure_fingerprint,
                "content_fingerprint": c.content_fingerprint,
                "coords": {k: list(v) for k, v in c.coords.items()},
                "block_summary": c.block_summary,
            }
            for c in self._store.values()
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: str | Path, capacity: int = 64) -> "CheckpointStore":
        store = cls(capacity=capacity)
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint archive {path}: {exc}") from exc
        if not isinstance(payload, list):
            raise CheckpointError(f"malformed checkpoint archive {path}")
        for entry in payload:
            try:
                store.save(
                    Checkpoint(
                        structure_fingerprint=int(entry["structure_fingerprint"]),
                        content_fingerprint=int(entry["content_fingerprint"]),
                        coords={
                            k: (float(v[0]), float(v[1]))
                            for k, v in entry["coords"].items()
                        },
                        block_summary={
                            k: int(v) for k, v in entry["block_summary"].items()
                        },
                    )
                )
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise CheckpointError(
                    f"malformed checkpoint entry in {path}: {exc}"
                ) from exc
        return store
