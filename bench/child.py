"""Child processes of the benchmark (started by ``run.py``, never by hand).

- ``workload``     — one workload's run: set-up probes, fixture, timed
  rounds (each followed by a traced round with ``--trace 1``), output
  checks; writes the run record as JSON to ``--result``.
- ``setup``        — a set-up probe: import and prepare one workload,
  print ``ready`` and exit.  Its parent times start → ``ready``.
- ``serve-server`` — a ``DseServer`` for the serve workload; prints
  ``ready`` once it accepts jobs, drains on its root's ``STOP`` file and
  writes its stats (and, traced, its spans) to ``--stats``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

from common import DEFAULT_SEED, SRC, HostProbe, digest
from common import load_spec, median, quantile


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"benchmark: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# serve-server


def serve_server(args: argparse.Namespace) -> int:
    use_checkout_source()
    import layers
    import repro.core.session  # noqa: F401 - bound before the wrappers go in
    import repro.designs  # noqa: F401
    from repro.serve import DseServer

    recorder = layers.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    server = DseServer(
        args.root, capacity=2, shards=4, slots_per_job=2,
        admission="adaptive", coalesce=True,
    )
    print("ready", flush=True)
    # Nothing reads this pipe after the handshake.
    sys.stdout = sys.stderr
    stats = server.serve_forever()
    if recorder is not None:
        recorder.uninstall()
    payload: dict[str, Any] = {
        "stats": stats,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        samples = recorder.samples["repro.core.evaluate:PointEvaluator.evaluate"]
        payload["spans"] = recorder.snapshot()
        payload["counts"] = dict(recorder.counts)
        payload["evaluate_s"] = samples
    tmp = Path(args.stats).with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, default=str), encoding="utf-8")
    os.replace(tmp, args.stats)
    return 0


# ---------------------------------------------------------------------------
# setup probe


def setup(args: argparse.Namespace) -> int:
    use_checkout_source()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.sizes, Path(args.work_dir))
    workload.prepare()
    print("ready", flush=True)
    workload.close()
    return 0


# ---------------------------------------------------------------------------
# workload run


#: Repeated rounds need at least two to check that outputs repeat.
MIN_ROUNDS = 2


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ms(values: list[float], q: float) -> float:
    return quantile(values, q) * 1e3 if values else 0.0


def summarize(workload: Any, rounds: list[Any], host: Any = None) -> tuple[list[float], float, float]:
    """(unit times, round wall, points answered per round) over the rounds.

    With *host* (a ``HostProbe``) every time is read at the host's full
    speed: divided by the slowdown probed around it.  Repeated rounds
    give each unit its median time; fresh rounds pool every unit and
    average the rounds.
    """
    def factor(span: tuple[float, float]) -> float:
        return host.factor(*span) if host is not None else 1.0

    per_round = [{u: t / factor(r.at[u]) for u, t in r.units.items()} for r in rounds]
    if workload.repeats:
        units = [median([times[u] for times in per_round if u in times]) for u in per_round[0]]
        return units, sum(units), rounds[0].evaluations
    if workload.concurrent:
        walls = [r.wall_s / factor(r.at["round"]) for r in rounds]
    else:
        walls = [sum(times.values()) for times in per_round]
    units = [t for times in per_round for t in times.values()]
    return units, sum(walls) / len(walls), sum(r.evaluations for r in rounds) / len(rounds)


def end_to_end(
    workload: Any, plain: list[Any], setup_s: list[float], rss_mb: float, host: Any
) -> dict[str, float]:
    """The end-to-end metrics, every time read at the host's full speed."""
    times, wall, evaluations = summarize(workload, plain, host)
    return {
        "setup_s": median(setup_s) / host.ratio(),
        "wall_s": wall,
        "evals_per_s": _ratio(evaluations, wall),
        "latency_p50_ms": _ms(times, 0.50),
        "latency_p90_ms": _ms(times, 0.90),
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    workload: Any,
    plain: list[Any],
    traced: list[Any],
    spans: dict[str, dict[str, float]],
    counts: dict[str, int],
) -> dict[str, float]:
    import layers

    traced_wall = sum(r.wall_s for r in traced)
    values: dict[str, float] = {}
    for layer in layers.LAYERS:
        t = spans.get(layer, {"calls": 0, "self_s": 0.0})
        kind = "wait_pct" if layer in layers.WAIT_LAYERS else "self_pct"
        values[f"{layer}.{kind}"] = 100.0 * _ratio(t["self_s"], traced_wall)
        values[f"{layer}.calls"] = float(t["calls"])

    def total(name: str) -> float:
        return sum(r.counters.get(name, 0.0) for r in traced)

    decisions = total("model.cached") + total("model.estimated") + total("model.evaluated")
    values["flow.run_cache_hit_ratio"] = _ratio(
        counts.get("flow.run_cache_hits", 0), counts.get("flow.run_cache_hits.of", 0)
    )
    values["cache.hit_ratio"] = _ratio(
        counts.get("cache.get_hits", 0), counts.get("cache.get_hits.of", 0)
    )
    values["memo.hit_ratio"] = _ratio(total("model.cached"), decisions)
    values["estimation.estimated_ratio"] = _ratio(total("model.estimated"), decisions)
    values["estimation.refits"] = total("model.refits")
    fleet = {"dispatched": 0, "memo_hits": 0, "store_hits": 0, "coalesced": 0}
    for r in traced:
        stats = r.server.get("stats", {})
        for name in ("dispatched", "memo_hits", "store_hits"):
            fleet[name] += stats.get("fleet", {}).get(name, 0)
        fleet["coalesced"] += stats.get("coalesced_hits", 0)
    served = sum(fleet.values())
    values["serve.memo_ratio"] = _ratio(fleet["memo_hits"], served)
    values["serve.coalesced_ratio"] = _ratio(fleet["coalesced"], served)
    values["trace.coverage"] = _ratio(layers.busy_self_s(spans), traced_wall)
    values["trace.overhead"] = _ratio(
        summarize(workload, traced)[1], summarize(workload, plain[: len(traced)])[1]
    )
    return values


def run_rounds(
    workload: Any, args: argparse.Namespace, recorder: Any, host: HostProbe
) -> tuple[list[Any], list[Any]]:
    """Plain (and, traced, alternating traced) rounds until the budget is spent.

    The host is probed around every plain round and between its units;
    traced rounds carry no probes (they would read as uncovered time).
    """
    plain: list[Any] = []
    traced: list[Any] = []
    started = time.perf_counter()
    while True:
        host.sample()
        workload.host_probe = host
        plain.append(workload.run_round(len(plain), traced=False))
        workload.host_probe = None
        host.sample()
        if recorder is not None:
            if workload.concurrent:
                # The layers run in the server process; here only the
                # clients' own spans are recorded.
                traced.append(workload.run_round(len(traced), traced=True, recorder=recorder))
            else:
                with recorder.installed():
                    traced.append(
                        workload.run_round(len(traced), traced=True, recorder=recorder)
                    )
        done = len(plain)
        elapsed = time.perf_counter() - started
        if (args.max_rounds and done >= args.max_rounds) or (
            done >= MIN_ROUNDS and elapsed + 0.5 * elapsed / done >= args.seconds
        ):
            return plain, traced


def check_outputs(
    args: argparse.Namespace, workload: Any, plain: list[Any], traced: list[Any]
) -> list[str]:
    """Every round's own checks, plus: repeated rounds and each traced
    round match their plain counterpart byte for byte, and round 0 at the
    default seed matches its pinned digest."""
    problems = [p for r in plain + traced for p in r.problems]
    digests = [digest(r.output) for r in plain]
    if workload.repeats:
        problems += [
            f"round {i}: outputs differ from round 0"
            for i, d in enumerate(digests) if d != digests[0]
        ]
    problems += [
        f"traced round {i}: outputs differ from the plain round"
        for i, r in enumerate(traced) if digest(r.output) != digests[i]
    ]
    pinned = json.loads((Path(__file__).parent / "digests.json").read_text())
    pin = pinned.get(args.sizes, {}).get(args.workload)
    if args.seed == DEFAULT_SEED and pin is not None and pin != digests[0]:
        problems.append(f"round-0 output digest {digests[0]} != pinned {pin}")
    return problems


def run_workload(args: argparse.Namespace) -> int:
    use_checkout_source()
    import layers
    import workloads

    spec = load_spec()
    workload = workloads.make(args.workload, args.seed, args.sizes, Path(args.work_dir))
    setup_s = (
        [] if args.trace
        else [workload.setup_probe() for _ in range(workload.sizes.setup_probes)]
    )
    workload.prepare()
    try:
        fixture_s = workload.fixture()
        recorder = layers.SpanRecorder() if args.trace else None
        host = HostProbe()
        plain, traced = run_rounds(workload, args, recorder, host)
    finally:
        workload.close()

    problems = check_outputs(args, workload, plain, traced)
    attempted = sum(r.attempted for r in plain + traced)
    failed = max(sum(r.failed for r in plain + traced), 1 if problems else 0)
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": args.sizes,
        "trace": int(args.trace),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": _ratio(failed, attempted),
        "problems": problems[:20],
        "rounds": len(plain),
        "units": len(plain[0].units),
        "output_digest": digest(plain[0].output),
        "fixture_s": fixture_s,
        "setup_samples_s": setup_s,
        "host_calib_ratio": host.ratio(),
        "sim_tool_s_round0": plain[0].sim_tool_s,
        "tool_runs_round0": plain[0].tool_runs,
        "evaluations_round0": plain[0].evaluations,
        "round_walls": [r.wall_s for r in plain],
        "unit_samples": [
            {u: [t, host.factor(*r.at[u])] for u, t in r.units.items()} for r in plain
        ],
    }
    if recorder is not None:
        spans = recorder.snapshot()
        counts = dict(recorder.counts)
        evaluate_s = list(recorder.samples["repro.core.evaluate:PointEvaluator.evaluate"])
        for r in traced:
            if r.server:
                layers.merge_spans(spans, r.server["spans"])
                for name, value in r.server["counts"].items():
                    counts[name] = counts.get(name, 0) + value
                evaluate_s += r.server["evaluate_s"]
        values = per_layer(workload, plain, traced, spans, counts)
        record["per_layer_all"] = values
        record["evaluate.ms_p50"] = _ms(evaluate_s, 0.50)
        record["evaluate.ms_p95"] = _ms(evaluate_s, 0.95)
        record["serve.claim_wait_ms_p50"] = _ms([w for r in traced for w in r.claim_waits], 0.50)
        record["spans"] = spans
        record["metrics"] = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
        extra = {
            k: record[k]
            for k in ("evaluate.ms_p50", "evaluate.ms_p95", "serve.claim_wait_ms_p50")
        }
        layers.write_trace(
            args.trace_file, spans,
            counters={**values, **extra, **{f"count.{k}": v for k, v in counts.items()}},
            meta={
                "workload": args.workload, "seed": args.seed, "sizes": args.sizes,
                "rounds": len(traced), "traced_wall_s": sum(r.wall_s for r in traced),
            },
        )
        record["trace_file"] = args.trace_file
    else:
        if workload.concurrent:
            rss = max(r.server["peak_rss_mb"] for r in plain)
        else:
            rss = peak_rss_mb()
        values = end_to_end(workload, plain, setup_s, rss, host)
        record["end_to_end_all"] = values
        record["metrics"] = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    Path(args.result).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)

    w = sub.add_parser("workload")
    w.add_argument("--workload", required=True)
    w.add_argument("--seed", type=int, default=DEFAULT_SEED)
    w.add_argument("--seconds", type=float, required=True)
    w.add_argument("--trace", type=int, choices=(0, 1), default=0)
    w.add_argument("--sizes", default="full")
    w.add_argument("--max-rounds", type=int, default=0)
    w.add_argument("--work-dir", required=True)
    w.add_argument("--result", required=True)
    w.add_argument("--trace-file", default="")

    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--sizes", default="full")
    s.add_argument("--work-dir", required=True)

    v = sub.add_parser("serve-server")
    v.add_argument("--root", required=True)
    v.add_argument("--trace", type=int, choices=(0, 1), default=0)
    v.add_argument("--stats", required=True)

    args = parser.parse_args(argv)
    if args.mode == "workload":
        return run_workload(args)
    if args.mode == "setup":
        return setup(args)
    return serve_server(args)


if __name__ == "__main__":
    raise SystemExit(main())
