"""The repository benchmark: four real-compute workloads of the DSE flow.

Usage (from the root of a checkout)::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out DIR] [--smoke]

Each workload runs in its own child process for about ``--seconds``
seconds of measured work (default: ``run_seconds`` of BENCHMARK.json)
and checks its outputs.  Without ``--trace`` (or with ``--trace 0``)
every end-to-end metric of BENCHMARK.json is printed; with ``--trace 1``
a separate traced pass reports every per-layer metric and writes a trace
file.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With several workloads, metric names are prefixed ``<workload>.``.
``--out DIR`` also keeps each run's full record (and trace) in DIR for
``bench/compare.py``.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, DEFAULT_SEED, ROOT, SRC, WORK_DIR, load_spec

CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced pass, per-layer metrics and a trace file")
    parser.add_argument("--out", help="directory that keeps run records and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two rounds (for the test suite)")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def _record_path(out: Path, workload: str, args: argparse.Namespace) -> Path:
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    n = 0
    while (out / f"{stem}-{n:03d}.json").exists():
        n += 1
    return out / f"{stem}-{n:03d}.json"


def run_child(workload: str, args: argparse.Namespace, work: Path) -> dict:
    out = Path(args.out) if args.out else ROOT / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    record_path = _record_path(out, workload, args)
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), "workload",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--sizes", "smoke" if args.smoke else "full",
        "--max-rounds", "2" if args.smoke else "0",
        "--work-dir", str(work), "--result", str(record_path),
        "--trace-file", str(record_path.with_suffix(".trace.jsonl")),
    ]
    # Its own process group, so a timeout also stops the servers and
    # probes the child started.
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0 or not record_path.exists():
        state = "timed out" if code is None else f"exited with {code}"
        raise RuntimeError(f"{workload}: child {state}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if not args.out and not args.trace:
        record_path.unlink()
    return record


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    records = []
    try:
        for workload in args.workload:
            records.append(run_child(workload, args, work))
    except RuntimeError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    single = len(records) == 1
    metrics: dict[str, dict[str, float | str]] = {}
    for record in records:
        name = record["workload"]
        state = "ok" if record["correct"] else "OUTPUT CHECK FAILED"
        print(f"== {name}: {record['rounds']} rounds of {record['units']} units, "
              f"{record['attempted']} attempted, {record['failed']} failed, {state}")
        for problem in record["problems"]:
            print(f"   problem: {problem}")
        for metric, value in record["metrics"].items():
            print(f"   {metric:<34} {value:>14.6g} {units[metric]}")
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
        print(f"   {'host_calib_ratio':<34} {record['host_calib_ratio']:>14.6g}")
        if record.get("fixture_s"):
            print(f"   {'fixture_s (unbounded)':<34} {record['fixture_s']:>14.6g} s")
        if record.get("trace_file"):
            print(f"   trace: {record['trace_file']}")
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
