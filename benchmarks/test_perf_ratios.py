"""Wall-clock ratios of the evaluation engine, measured the way ``bench/`` is.

Two speedups are floored here.  Every other contract of the engine is a
deterministic tier-1 test (docs/performance.md maps each one):

- **refit**: 300 tool results inserted into the control model with the
  per-insert LOO rescan (``RefitPolicy(every=1)``) against the
  incremental policy (a rescan every 16 inserts or on 5% Γ drift, then
  one exact refit at the end).  The final model state must be bitwise
  identical, and the incremental side at least 3x faster.
- **serve**: three identical tenants served to completion by the claim
  loop at ``capacity=1`` and at ``capacity=4``, with 2 ms of emulated
  tool latency per simulated second.  Every served front must equal the
  standalone session's, the tenants together must pay the one serial
  tool-run bill, and capacity 4 must be at least 1.3x faster.

Each ratio is measured as ``bench/compare.py`` measures: one discarded
warm-up pair, then ``PAIRS`` pairs that alternate which side runs first.
The floor holds on the median of the per-pair ratios.  Both sides of a
pair run on the same host, so the ratio needs no host normalisation.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/test_perf_ratios.py``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import DseSession
from repro.designs import get_design
from repro.estimation import ControlModel, Dataset, RefitPolicy
from repro.serve import DseServer, JobSpec

PAIRS = 3


def median_speedup(baseline: Callable[[], float], candidate: Callable[[], float]) -> float:
    """Median baseline/candidate wall ratio; each side returns its wall."""
    ratios = []
    for i in range(PAIRS + 1):
        if i % 2:
            base_s, cand_s = baseline(), candidate()
        else:
            cand_s, base_s = candidate(), baseline()
        if i:  # pair 0 is the discarded warm-up
            ratios.append(base_s / cand_s)
    return statistics.median(ratios)


def test_incremental_refit_speedup():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 64, size=(300, 4)).astype(float)
    Y = np.stack([X.sum(axis=1) * 2.0, 400.0 - X[:, 0]], axis=1)
    Y += rng.normal(0.0, 1.0, Y.shape)
    probe = X[:16] + 0.5
    states = {}

    def insert_all(policy: RefitPolicy) -> float:
        control = ControlModel(
            dataset=Dataset(n_var=4, metric_names=("LUT", "frequency")),
            refit_policy=policy,
        )
        start = time.perf_counter()
        for x, y in zip(X, Y):
            control.record(x, y)
        control.refit()  # exact refit on demand: both policies end aligned
        wall = time.perf_counter() - start
        state = (
            control.model.bandwidth,
            control.threshold,
            control.last_loo_mse,
            np.stack([control.model.predict(q) for q in probe]).tobytes(),
        )
        assert states.setdefault("state", state) == state, (
            "incremental refit ended in a different model state"
        )
        return wall

    speedup = median_speedup(
        lambda: insert_all(RefitPolicy(every=1)),
        lambda: insert_all(RefitPolicy(every=16, gamma_drift=0.05)),
    )
    assert speedup >= 3.0, f"incremental refit is only {speedup:.2f}x faster"


def test_concurrent_serve_speedup():
    jobs = 3
    spec = JobSpec(
        design="cv32e40p-fifo", seed=2021, generations=2, population=6,
        use_model=False,
    )
    with DseSession(
        design=get_design(spec.design), part=spec.part,
        target_period_ns=spec.target_period_ns, use_model=spec.use_model,
        pretrain_size=spec.pretrain, seed=spec.seed,
    ) as session:
        reference = session.explore(
            generations=spec.generations, population=spec.population
        )
    reference_front = sorted(tuple(sorted(p.as_row().items())) for p in reference.pareto)

    def serve(capacity: int) -> float:
        root = tempfile.mkdtemp(prefix="veda-serve-ratio-")
        try:
            server = DseServer(
                root, capacity=capacity, shards=4, slots_per_job=2,
                poll_interval_s=0.05, emulate_tool_latency=0.002,
            )
            records = [server.queue.submit(spec) for _ in range(jobs)]
            start = time.perf_counter()
            stats = server.serve_forever(stop_after=jobs, max_idle_s=120.0)
            wall = time.perf_counter() - start
            assert stats["jobs_done"] == jobs, stats
            tool_runs = 0
            for record in records:
                done = server.queue.get(record.job_id)
                assert done is not None and done.error is None, done
                rows = json.loads(Path(done.result_path).read_text())["pareto"]
                assert sorted(tuple(sorted(r.items())) for r in rows) == reference_front, (
                    f"served front (capacity={capacity}) diverged from the standalone session"
                )
                tool_runs += done.stats["tool_runs"]
            assert tool_runs == reference.tool_runs, (
                f"{jobs} tenants paid {tool_runs} tool runs at capacity={capacity}; "
                f"the one serial bill is {reference.tool_runs}"
            )
            return wall
        finally:
            shutil.rmtree(root, ignore_errors=True)

    speedup = median_speedup(lambda: serve(1), lambda: serve(4))
    assert speedup >= 1.3, f"capacity 4 is only {speedup:.2f}x faster than capacity 1"
