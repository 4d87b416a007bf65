"""Perf — the evaluation pipeline (store + stage caches + scheduler).

Times five experiments on the Corundum and FIFO case studies, asserting
bitwise identity against the serial cold-cache references throughout
(the harness in ``perf_engine.py`` does the asserting):

* serial-vs-pool DSE generations (persistent worker pool),
* cold-vs-warm persistent result store (cross-run reuse),
* per-insert vs incremental control-model refits at paper-scale n=300,
* ungated vs speculative multi-fidelity gated exploration (simulated
  seconds cut vs hypervolume regret of the reported front),
* serialized (capacity 1) vs concurrent (capacity 4) DSE serving of
  overlapping tenants by the one claim loop, single-flight coalesced
  both ways (identical fronts, one combined tool-run bill,
  wall-clock throughput under emulated tool latency).

The timing payload lands in ``BENCH_perf_engine.json`` at the repo root
so future PRs have a perf trajectory to compare against.

The acceptance bars are the *host-independent* ones: the warm store must
cut tool runs ≥5×, the incremental refit policy must be ≥3× faster at n=300,
the fidelity gate must cut simulated tool seconds ≥2× at ≤1%
hypervolume regret, and serving at capacity 4 must be ≥1.3× over
serving at capacity 1 under emulated tool latency.  Pool
wall-clock speedup is recorded but not thresholded — CI
boxes with one core cannot show it, and the pool's correctness
(bitwise-identical fronts and cost accounting) is the part that must
never regress.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import emit
from perf_engine import run_perf_engine
from repro.util.tables import render_table

BENCH_JSON = Path(__file__).parent.parent / "BENCH_perf_engine.json"


def test_perf_engine(benchmark):
    payload = benchmark.pedantic(run_perf_engine, rounds=1, iterations=1)

    refit = payload["refit"]
    warm = payload["warm_store"]
    dse_rows = [
        (d["design"], d["evaluations"], d["pareto_points"],
         d["serial_wall_s"], d["pool_wall_s"], "yes")
        for d in payload["dse_pool"]
    ]
    text = render_table(
        ("Design", "Evals", "Pareto", "serial s", "pool s", "identical"),
        dse_rows,
        title="Perf — DSE generations, serial vs persistent pool (workers=2)",
    )
    text += "\n" + render_table(
        ("Design", "Evals", "cold runs", "warm runs", "ratio", "identical"),
        [(warm["design"], warm["evaluations"], warm["cold_tool_runs"],
          warm["warm_tool_runs"], f"{warm['tool_run_ratio']}x", "yes")],
        title="Perf — DSE with persistent result store, cold vs warm",
    )
    text += "\n" + render_table(
        ("n", "per-insert s", "incremental s", "speedup", "LOO scans (was)", "identical"),
        [(refit["n_points"], refit["full_s"], refit["incremental_s"],
          f"{refit['speedup']}x", f"{refit['incremental_refits']} ({refit['full_refits']})",
          "yes")],
        title="Perf — control-model refit, per-insert vs incremental policy",
    )
    gate = payload["fidelity_gate"]
    text += "\n" + render_table(
        ("Design", "full sim s", "gated sim s", "reduction", "HV regret",
         "promoted", "skipped"),
        [(gate["design"], gate["full_simulated_s"], gate["gated_simulated_s"],
          f"{gate['reduction']}x", f"{gate['hv_regret']:.4%}",
          gate["promoted"], gate["skipped"])],
        title="Perf — speculative multi-fidelity gate, off vs on",
    )
    serve = payload["serve"]
    text += "\n" + render_table(
        ("Design", "Jobs", "serial runs", "paid runs", "coalesced",
         "cap-1 s", "cap-4 s", "speedup", "identical"),
        [(serve["design"], serve["jobs"], serve["serial_tool_runs"],
          serve["combined_tool_runs"], serve["coalesced_hits"],
          serve["baseline_wall_s"], serve["concurrent_wall_s"],
          f"{serve['speedup']}x", "yes")],
        title="Perf — DSE service, capacity 1 vs capacity 4",
    )
    emit("perf_engine", text)

    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    assert all(d["identical"] for d in payload["dse_pool"])
    assert warm["identical"] and refit["identical"]
    assert warm["tool_run_ratio"] >= 5.0, (
        f"warm store must cut tool runs >=5x, got {warm['tool_run_ratio']}x"
    )
    assert refit["speedup"] >= 3.0, (
        f"incremental refit must be >=3x at n={refit['n_points']}, "
        f"got {refit['speedup']}x"
    )
    assert gate["identical_off"]
    assert gate["reduction"] >= 2.0, (
        f"fidelity gate must cut simulated seconds >=2x, got {gate['reduction']}x"
    )
    assert gate["hv_regret"] <= 0.01, (
        f"fidelity gate regret budget is 1%, got {gate['hv_regret']:.2%}"
    )
    assert serve["identical"]
    assert serve["combined_tool_runs"] == serve["serial_tool_runs"], (
        "tenants must together pay exactly one serial tool-run bill"
    )
    assert serve["speedup"] >= 1.3, (
        f"serving at capacity 4 must be >=1.3x over serving at "
        f"capacity 1, got {serve['speedup']}x"
    )
