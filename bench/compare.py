"""Compare two sets of benchmark runs (the parent's and a change's).

Usage::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``bench/run.py --out DIR`` wrote;
run at least ten of each, alternating which side runs first.  Runs pair
up in order, per workload.  For every end-to-end metric of
BENCHMARK.json this prints both sides' median and quartiles, the share
of pairs the change wins (ties count for neither) and a verdict:

- ``improved``   — the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
- ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the metric's bound, unless every change run beats every
  parent run;
- ``regressed``  — the change's median is worse by more than the bound;
- ``unchanged``  — otherwise.

A run whose ``host_calib_ratio`` is more than 5% off its set's median ran
on a busier (or quieter) host than its peers: it is flagged.  Its times
were already read at the host's full speed, so it stays in the
statistics; a verdict that rests on flagged runs deserves a rerun.  Any
rise in the failed share is reported.  Traced runs (``--trace 1``) get a
per-layer table of medians, without verdicts.  Exit code 1 when a metric
regressed or the failed share rose.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from typing import Any

from common import load_spec, median, read_records

HOST_NOISE_LIMIT = 0.05


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def flagged(records: list[dict[str, Any]]) -> set[str]:
    """Paths of runs whose host sentinel sits >5% off their set's median."""
    if not records:
        return set()
    mid = median([r["host_calib_ratio"] for r in records])
    return {
        r["_path"] for r in records
        if abs(r["host_calib_ratio"] / mid - 1.0) > HOST_NOISE_LIMIT
    }


def better(a: float, b: float, direction: str) -> bool:
    """True when *b* reads strictly better than *a*."""
    return b < a if direction == "lower" else b > a


def verdict(parent: list[float], change: list[float], metric: dict[str, Any]) -> tuple[str, float, float]:
    """(verdict, worsening share of the median, win fraction)."""
    direction, bound = metric["better"], metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(a, b, direction) for a, b in pairs) / len(pairs)
    worse = (cm - pm) / pm if pm else 0.0
    if direction == "higher":
        worse = -worse
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(better(a, b, direction) for a in parent for b in change)
    if wins >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "improved", worse, wins
    if spread > bound and not all_better:
        return "unresolved", worse, wins
    if worse > bound:
        return "regressed", worse, wins
    return "unchanged", worse, wins


def _fmt_q(values: list[float]) -> str:
    q1, m, q3 = quartiles(values)
    return f"{m:.5g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_dir: str, change_dir: str) -> int:
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": read_records(parent_dir), "change": read_records(change_dir)}
    status = 0
    for trace in (0, 1):
        groups: dict[str, dict[str, list[dict[str, Any]]]] = defaultdict(lambda: defaultdict(list))
        for side, records in sides.items():
            for r in records:
                if r["trace"] == trace:
                    groups[r["workload"]][side].append(r)
        for workload in [w["name"] for w in spec["workloads"]]:
            group = groups.get(workload)
            if not group or not group["parent"] or not group["change"]:
                continue
            pairs = list(zip(group["parent"], group["change"]))
            title = "per-layer medians" if trace else "end-to-end"
            print(f"\n== {workload} ({title}): {len(pairs)} pairs")
            for path in sorted(flagged(group["parent"]) | flagged(group["change"])):
                print(f"   host-noise flag: {path}")
            for side, index in (("parent", 0), ("change", 1)):
                runs = [p[index] for p in pairs]
                attempted = sum(r["attempted"] for r in runs)
                failed = sum(r["failed"] for r in runs)
                print(f"   {side}: failed {failed}/{attempted}")
            share = [
                sum(p[i]["failed"] for p in pairs) / max(1, sum(p[i]["attempted"] for p in pairs))
                for i in (0, 1)
            ]
            if share[1] > share[0]:
                print(f"   FAILED SHARE ROSE: {share[0]:.4g} -> {share[1]:.4g}")
                status = 1
            names = pairs[0][0]["metrics"].keys()
            for name in names:
                parent = [p[0]["metrics"][name] for p in pairs]
                change = [p[1]["metrics"][name] for p in pairs]
                line = f"   {name:<30} {_fmt_q(parent):>32} -> {_fmt_q(change):>32}"
                if trace or name not in e2e:
                    print(line)
                    continue
                result, worse, wins = verdict(parent, change, e2e[name])
                print(f"{line}  {-worse:+7.2%} better, wins {wins:.0%}  {result}")
                if result == "regressed":
                    status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="run records of the parent commit")
    parser.add_argument("change", help="run records of the change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
