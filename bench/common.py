"""Helpers shared by the benchmark's runner, child, comparer and tests.

Nothing here imports the program: ``compare.py`` and the runner's
parent process use it without ``src/`` on the path.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import time
from pathlib import Path
from typing import Any, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, server roots and traces; inside the checkout.
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 2021

#: Probe time on the reference host (a shared 2-vCPU x86 VM) running at
#: full speed; a run's ``host_calib_ratio`` is its median probe over this.
HOST_PROBE_NOMINAL_S = 0.0017
#: Seconds of work between two host probes (a probe costs ~5 ms).
PROBE_EVERY_S = 0.15


def load_spec() -> dict[str, Any]:
    """The benchmark's own definition: ``BENCHMARK.json`` at the root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def derive_seed(*parts: Any) -> int:
    """A stable 31-bit seed from any printable parts (workload seed first)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON encoding of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of *values*."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


_PROBE_TEXT = " ".join(
    f"wire [W{i}-1:0] n{i} = a{i} + (b{i} << {i % 7});" for i in range(40)
)


def _probe_kernel() -> float:
    """A fixed mix of the program's kinds of work, none of its code:
    string tokenizing, dict and object churn, small numpy arrays."""
    import numpy as np

    counts: dict[str, int] = {}
    for _ in range(8):
        for token in _PROBE_TEXT.replace(";", " ; ").split():
            counts[token] = counts.get(token, 0) + len(token)
    rows = [(k, v, (v * 31) % 17) for k, v in counts.items()]
    rows.sort(key=lambda r: (r[2], r[0]))
    a = np.arange(48, dtype=np.float64)
    acc = 0.0
    for i in range(360):
        d = np.abs(a - float(i % 48))
        acc += float(np.maximum(0.0, 6.0 - d).sum())
    return acc + len(rows)


def probe(repeats: int = 3) -> float:
    """Fastest of *repeats* runs of the probe kernel, in seconds.

    Over :data:`HOST_PROBE_NOMINAL_S` it is the host's current slowdown:
    a shared host runs whole minutes well below its usual speed.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - started)
    return best


class HostProbe:
    """Host-speed samples taken between units of work.

    :meth:`tick` probes when :data:`PROBE_EVERY_S` has passed since the last sample;
    :meth:`factor` is the host's slowdown over one unit: the mean of the
    samples taken during it and just before and after it, over the nominal.
    Dividing a unit's time by its factor reads it at the host's full
    speed, so minutes-long slow phases of a shared host cancel out.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        seconds = probe()
        self.times.append(time.perf_counter())
        self.samples.append(seconds)

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        window = self.samples[lo:hi + 1]
        return sum(window) / len(window) / HOST_PROBE_NOMINAL_S

    def ratio(self) -> float:
        """The run's typical slowdown: median sample over the nominal."""
        return median(self.samples) / HOST_PROBE_NOMINAL_S


def read_records(directory: str | Path) -> list[dict[str, Any]]:
    """Every run record (``*.json`` written by ``run.py --out``) in a directory."""
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(record, dict) and "workload" in record:
            record["_path"] = str(path)
            out.append(record)
    return out
