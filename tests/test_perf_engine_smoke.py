"""Tier-1 smoke run of the perf-engine microbenchmark.

The benchmark harness (``benchmarks/perf_engine.py``) asserts the
engine's correctness contracts — bitwise-identical Pareto fronts and
cost accounting for the persistent pool, bitwise-identical final model
state for the incremental refit policy — independent of timing.  This
test runs it at smoke sizes so every tier-1 run exercises those
contracts; timings are recorded by the harness but never thresholded
here (one-core CI cannot show pool speedup).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from perf_engine import run_perf_engine  # noqa: E402


def test_perf_engine_smoke():
    payload = run_perf_engine(smoke=True)
    assert payload["smoke"] is True
    assert all(d["identical"] for d in payload["dse_pool"])
    assert payload["refit"]["identical"]
    # The smoke refit still exercises both policies end to end.
    assert payload["refit"]["incremental_refits"] < payload["refit"]["full_refits"]
    # Warm store: every smoke evaluation replays from the store (host
    # independent, so thresholded even at smoke sizes).
    warm = payload["warm_store"]
    assert warm["identical"]
    assert warm["tool_run_ratio"] >= 5.0
    # Fidelity gate: the gate-off identity and the regret budget hold at
    # smoke sizes (both are deterministic); the >=2x reduction floor only
    # applies to the full benchmark, where the run is long enough for the
    # calibration warm-up to amortize.
    gate = payload["fidelity_gate"]
    assert gate["identical_off"]
    assert gate["hv_regret"] <= 0.01
    assert gate["skipped"] > 0, "smoke run too small for the gate to ever skip"
    assert gate["gated_simulated_s"] < gate["full_simulated_s"]
    # Serve throughput: fronts and the combined tool-run bill are
    # host-independent, so both hold at smoke sizes; the >=1.3x speedup
    # floor only applies to the full benchmark.
    serve = payload["serve"]
    assert serve["identical"]
    assert serve["combined_tool_runs"] == serve["serial_tool_runs"]
