"""CI perf-regression gate over the perf-engine benchmark payload.

Reads ``BENCH_perf_engine.json`` (written by ``benchmarks/
test_perf_engine.py``) and compares the host-independent ratios against
the recorded thresholds in ``benchmarks/perf_thresholds.json``:

- **floors** — dot-path metrics that must stay *at or above* the
  recorded value (warm-store replay ratio, incremental-refit speedup,
  fidelity-gate simulated-seconds reduction, static-estimate soundness,
  serve speedup);
- **ceilings** — metrics that must stay *at or below* it (the gate's
  hypervolume regret).

Exit code 0 when every metric holds, 1 with a per-metric report when any
regresses — so the perf job *fails* on a regression instead of silently
uploading a worse trajectory.

Usage::

    python benchmarks/check_perf_regression.py [BENCH_perf_engine.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

THRESHOLDS = Path(__file__).parent / "perf_thresholds.json"
DEFAULT_PAYLOAD = Path(__file__).parent.parent / "BENCH_perf_engine.json"


def resolve(payload: dict, dotted: str):
    """Walk a dot-separated path through nested dicts; None when absent."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(payload: dict, thresholds: dict) -> list[str]:
    """All threshold violations (empty = pass)."""
    problems: list[str] = []
    for path, floor in thresholds.get("floors", {}).items():
        value = resolve(payload, path)
        if value is None:
            problems.append(f"{path}: missing from the benchmark payload")
        elif float(value) < float(floor):
            problems.append(f"{path}: {value} regressed below the floor {floor}")
    for path, ceiling in thresholds.get("ceilings", {}).items():
        value = resolve(payload, path)
        if value is None:
            problems.append(f"{path}: missing from the benchmark payload")
        elif float(value) > float(ceiling):
            problems.append(f"{path}: {value} exceeded the ceiling {ceiling}")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    payload_path = Path(argv[0]) if argv else DEFAULT_PAYLOAD
    if not payload_path.exists():
        print(f"error: benchmark payload not found: {payload_path}", file=sys.stderr)
        return 1
    payload = json.loads(payload_path.read_text(encoding="utf-8"))
    if payload.get("smoke"):
        print(
            "error: payload was written by a smoke run — thresholds only "
            "apply to the full benchmark",
            file=sys.stderr,
        )
        return 1
    thresholds = json.loads(THRESHOLDS.read_text(encoding="utf-8"))
    problems = check(payload, thresholds)
    if problems:
        print("perf regression detected:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    checked = len(thresholds.get("floors", {})) + len(thresholds.get("ceilings", {}))
    print(f"perf thresholds hold ({checked} metric(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
