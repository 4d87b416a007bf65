"""Fast-evaluation-engine microbenchmark (shared harness).

Six experiments prove the engine and chart its perf trajectory:

- **DSE fan-out** — the same no-model NSGA-II exploration run serially and
  over the persistent worker pool.  The assertion is *bitwise identity*:
  Pareto parameters, metric vectors, evaluation counts, and accumulated
  simulated tool seconds must match exactly (VEDA runs are pure per
  point, so the pool may not change a single bit).
- **Warm store** — the same exploration run cold (fresh persistent result
  store) and then warm (fresh session, same store).  The warm run must
  replay every configuration from the store — ≥5× fewer tool runs — and
  both runs' Pareto fronts must be bitwise identical to the no-store
  serial reference.
- **Fidelity gate** — the same no-model NSGA-II exploration with the
  speculative multi-fidelity gate off and on.  The gated run must spend
  ≤½ the simulated tool seconds, its reported front must stay within 1%
  hypervolume regret of the ungated front (exact 2-D hypervolume, shared
  reference point), and the gate-off run must be bitwise identical to a
  session constructed without any gate arguments (the pre-ladder
  reference).
- **Static estimate** — the rung-0 analytical pre-estimator evaluated
  against the full routed flow across sampled points of every bundled
  design.  The assertion is *soundness*: the utilization lower bounds
  never exceed the routed counts and the Fmax upper bound never falls
  below the routed Fmax, for every feasible compared point (``sound`` is
  1.0 exactly or the bench raises).
- **Serve throughput** — ``jobs`` identical tenants served to completion
  by the one claim loop at ``capacity=1`` (one evaluation at a time),
  then at ``capacity=4``; both runs single-flight identical points.
  Fronts must be byte-identical to the standalone session both ways and
  the tenants' combined tool-run bill must equal the one serial bill;
  the capacity-4 run must be ≥1.3× faster end to end under emulated
  tool latency.
- **Refit policy** — inserting n tool results into the control model with
  the per-insert LOO rescan (``RefitPolicy(every=1)``, the original
  behaviour) versus the incremental policy (periodic rescan + Γ-drift
  trigger + one exact refit at the end).  The final model state must be
  bitwise identical (the LOO scan is a pure function of the dataset) and
  the incremental path must be ≥3× faster at the paper-scale n=300.

``run_perf_engine(smoke=True)`` shrinks every size so the correctness
assertions run inside the tier-1 suite without timing thresholds; the
benchmark run writes the timing payload to ``BENCH_perf_engine.json`` so
future PRs can track the trajectory.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from repro.core import DseSession
from repro.designs import get_design
from repro.estimation import ControlModel, Dataset, RefitPolicy

__all__ = [
    "dse_pool_bench",
    "fidelity_gate_bench",
    "refit_bench",
    "run_perf_engine",
    "serve_bench",
    "static_estimate_bench",
    "warm_store_bench",
]


def _pareto_signature(result) -> list[tuple]:
    return sorted(
        (tuple(sorted(p.parameters.items())), tuple(sorted(p.metrics.items())))
        for p in result.pareto
    )


def _dse_run(
    design_name: str,
    workers: int,
    generations: int,
    population: int,
    result_store=None,
):
    session = DseSession(
        design=get_design(design_name),
        part="XC7K70T",
        use_model=False,
        seed=2021,
        workers=workers,
        result_store=result_store,
    )
    try:
        start = time.perf_counter()
        result = session.explore(generations=generations, population=population)
        wall = time.perf_counter() - start
    finally:
        session.close()
    return result, wall


def dse_pool_bench(
    design_name: str = "corundum-cqm",
    generations: int = 5,
    population: int = 12,
    workers: int = 2,
) -> dict:
    """Serial vs pooled DSE generations; asserts bitwise-identical results."""
    serial, serial_wall = _dse_run(design_name, 0, generations, population)
    pooled, pooled_wall = _dse_run(design_name, workers, generations, population)

    assert _pareto_signature(serial) == _pareto_signature(pooled), (
        f"{design_name}: pooled Pareto front diverged from the serial reference"
    )
    assert serial.evaluations == pooled.evaluations
    assert serial.simulated_seconds == pooled.simulated_seconds, (
        f"{design_name}: pooled cost accounting diverged"
    )
    return {
        "design": design_name,
        "workers": workers,
        "generations": generations,
        "population": population,
        "evaluations": serial.evaluations,
        "pareto_points": len(serial.pareto),
        "serial_wall_s": round(serial_wall, 4),
        "pool_wall_s": round(pooled_wall, 4),
        "speedup": round(serial_wall / pooled_wall, 3) if pooled_wall else None,
        "identical": True,
    }


def warm_store_bench(
    design_name: str = "cv32e40p-fifo",
    generations: int = 4,
    population: int = 10,
    min_ratio: float = 5.0,
) -> dict:
    """Cold vs warm persistent-store DSE; asserts replay economics.

    The cold run populates a fresh store; the warm run (new session, same
    configuration) must answer ≥``min_ratio``× more of its evaluations
    from the store than it sends to the tool, with a Pareto front bitwise
    identical to the no-store serial reference.
    """
    reference, _ = _dse_run(design_name, 0, generations, population)
    store_dir = tempfile.mkdtemp(prefix="veda-store-bench-")
    try:
        cold, cold_wall = _dse_run(
            design_name, 0, generations, population, result_store=store_dir
        )
        warm, warm_wall = _dse_run(
            design_name, 0, generations, population, result_store=store_dir
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    for label, run in (("cold", cold), ("warm", warm)):
        assert _pareto_signature(reference) == _pareto_signature(run), (
            f"{design_name}: {label}-store Pareto front diverged from the "
            "no-store serial reference"
        )
    assert reference.evaluations == cold.evaluations == warm.evaluations
    ratio = cold.tool_runs / max(warm.tool_runs, 1)
    assert ratio >= min_ratio, (
        f"{design_name}: warm store replayed too little — cold ran "
        f"{cold.tool_runs} tool runs, warm still ran {warm.tool_runs} "
        f"(ratio {ratio:.1f}x < {min_ratio}x)"
    )
    return {
        "design": design_name,
        "generations": generations,
        "population": population,
        "evaluations": reference.evaluations,
        "cold_tool_runs": cold.tool_runs,
        "warm_tool_runs": warm.tool_runs,
        "tool_run_ratio": round(ratio, 2),
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "identical": True,
    }


def _gate_run(
    design_name: str,
    gate: bool,
    generations: int,
    population: int,
    gate_risk: float,
    trickle_every: int,
):
    """One no-model exploration; returns (result, minimized front, wall)."""
    from repro.moo.problem import Sense

    session = DseSession(
        design=get_design(design_name),
        part="XC7K70T",
        use_model=False,
        seed=2021,
        fidelity_gate=gate,
        gate_risk=gate_risk,
        gate_trickle_every=trickle_every,
    )
    try:
        start = time.perf_counter()
        result = session.explore(generations=generations, population=population)
        wall = time.perf_counter() - start
        names = session.evaluator.metric_names()
        signs = np.array(
            [
                -1.0 if m.sense == Sense.MAXIMIZE else 1.0
                for m in session.evaluator.metrics
            ]
        )
    finally:
        session.close()
    front = (
        np.array([[p.metrics[n] for n in names] for p in result.pareto], dtype=float)
        * signs
    )
    return result, front, wall


def fidelity_gate_bench(
    design_name: str = "corundum-cqm",
    generations: int = 20,
    population: int = 24,
    gate_risk: float = 0.1,
    trickle_every: int = 12,
    min_reduction: float | None = 2.0,
    max_regret: float = 0.01,
) -> dict:
    """Speculative multi-fidelity gate: simulated-seconds cut vs front regret.

    The ungated run is the reference; the gated run probes every fresh
    candidate at synth-estimate fidelity and skips route+STA when the
    learned gate proves the point dominated.  Both thresholds are
    host-independent: simulated seconds and hypervolume are deterministic
    functions of the run.  The gate-off session must also match a
    session built with no gate arguments at all — turning the feature
    off must be indistinguishable from the feature not existing.
    """
    from repro.moo.indicators import hypervolume

    reference, _ = _dse_run(design_name, 0, generations, population)
    full, full_front, full_wall = _gate_run(
        design_name, False, generations, population, gate_risk, trickle_every
    )
    gated, gated_front, gated_wall = _gate_run(
        design_name, True, generations, population, gate_risk, trickle_every
    )

    assert _pareto_signature(reference) == _pareto_signature(full), (
        f"{design_name}: gate-off run diverged from the no-gate reference"
    )
    assert reference.simulated_seconds == full.simulated_seconds, (
        f"{design_name}: gate-off cost accounting diverged from the "
        "no-gate reference"
    )

    # Shared reference point: worst corner of both fronts plus a 10%
    # margin, so boundary points contribute volume for either front.
    union = np.vstack([full_front, gated_front])
    ref = union.max(axis=0) + 0.1 * (union.max(axis=0) - union.min(axis=0)) + 1e-9
    hv_full = hypervolume(full_front, ref)
    hv_gated = hypervolume(gated_front, ref)
    regret = max(0.0, (hv_full - hv_gated) / hv_full) if hv_full > 0 else 0.0
    reduction = (
        full.simulated_seconds / gated.simulated_seconds
        if gated.simulated_seconds
        else None
    )

    assert regret <= max_regret, (
        f"{design_name}: gated front lost {regret:.2%} hypervolume "
        f"(budget {max_regret:.0%})"
    )
    if min_reduction is not None and reduction is not None:
        assert reduction >= min_reduction, (
            f"{design_name}: fidelity gate must cut simulated seconds >="
            f"{min_reduction}x, got {reduction:.2f}x"
        )
    stats = gated.stats
    return {
        "design": design_name,
        "generations": generations,
        "population": population,
        "gate_risk": gate_risk,
        "trickle_every": trickle_every,
        "full_simulated_s": round(full.simulated_seconds, 2),
        "gated_simulated_s": round(gated.simulated_seconds, 2),
        "reduction": round(reduction, 3) if reduction else None,
        "hv_regret": round(regret, 6),
        "promoted": stats.get("gate_promoted", 0),
        "skipped": stats.get("gate_skipped", 0),
        "trickled": stats.get("gate_trickled", 0),
        "full_wall_s": round(full_wall, 4),
        "gated_wall_s": round(gated_wall, 4),
        "identical_off": True,
    }


def static_estimate_bench(
    points_per_design: int = 4, part: str = "XC7K70T", seed: int = 2021
) -> dict:
    """Rung-0 soundness sweep: static bounds vs the routed flow.

    Samples points of every bundled design's space (plus the default
    binding), computes the zero-cost static estimate, runs the full
    routed flow, and asserts the bounds hold: LUT/FF lower bounds at or
    under the routed counts, Fmax upper bound at or over the routed
    Fmax.  Points the router rejects (capacity overflow) are skipped —
    there is no routed number to bound.  Returns ``sound`` (1.0 or the
    assertions above raised) plus the mean bound tightness, so the
    trajectory file records how much headroom the estimator leaves.
    """
    from repro.core.evaluate import PointEvaluator
    from repro.core.spaces import ParameterSpace
    from repro.designs import all_designs
    from repro.devices import ResourceKind, get_device
    from repro.errors import ReproError
    from repro.netlist.static_estimate import static_estimate_point

    rng = np.random.default_rng(seed)
    device = get_device(part)
    compared = 0
    skipped = 0
    fmax_slack = []  # (UB - routed) / routed, >= 0 when sound
    lut_slack = []  # (routed - LB) / routed, >= 0 when sound
    start = time.perf_counter()
    for name, gen in sorted(all_designs().items()):
        space = ParameterSpace.from_design(gen)
        evaluator = PointEvaluator(
            source=gen.source(),
            language=str(gen.language),
            top=gen.top,
            part=part,
            target_period_ns=10.0,
            seed=seed,
        )
        rows = np.column_stack([
            rng.integers(lo, hi + 1, size=points_per_design)
            for lo, hi in zip(space.lows(), space.highs())
        ])
        points = [dict()] + [space.decode(row) for row in rows]
        for params in points:
            est = static_estimate_point(gen.module(), device, params)
            try:
                full = evaluator.evaluate(params)
            except ReproError:
                skipped += 1
                continue
            fmax = full.metrics["frequency"]
            lut = full.metrics["LUT"]
            assert est.fmax_ub_mhz >= fmax, (
                f"{name}@{params}: static Fmax UB {est.fmax_ub_mhz:.2f} "
                f"below routed {fmax:.2f}"
            )
            lut_lb = est.utilization_lb.get(ResourceKind.LUT)
            assert lut_lb <= lut, (
                f"{name}@{params}: static LUT LB {lut_lb} above routed {lut}"
            )
            fmax_slack.append((est.fmax_ub_mhz - fmax) / fmax)
            lut_slack.append((lut - lut_lb) / lut if lut else 0.0)
            compared += 1
    wall = time.perf_counter() - start
    assert compared > 0, "static-estimate bench compared no feasible points"
    return {
        "part": part,
        "points_per_design": points_per_design,
        "compared": compared,
        "skipped_infeasible": skipped,
        "sound": 1.0,
        "mean_fmax_headroom": round(float(np.mean(fmax_slack)), 4),
        "mean_lut_headroom": round(float(np.mean(lut_slack)), 4),
        "wall_s": round(wall, 4),
    }


def _refit_run(policy: RefitPolicy, X: np.ndarray, Y: np.ndarray):
    control = ControlModel(
        dataset=Dataset(n_var=X.shape[1], metric_names=("LUT", "frequency")),
        refit_policy=policy,
    )
    start = time.perf_counter()
    for x, y in zip(X, Y):
        control.record(x, y)
    control.refit()  # exact refit on demand: both policies end aligned
    return control, time.perf_counter() - start


def refit_bench(
    n_points: int = 300,
    n_var: int = 4,
    every: int = 16,
    gamma_drift: float = 0.05,
    seed: int = 7,
) -> dict:
    """Per-insert vs incremental refit; asserts identical final state."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 64, size=(n_points, n_var)).astype(float)
    Y = np.stack(
        [X.sum(axis=1) * 2.0, 400.0 - X[:, 0]], axis=1
    ) + rng.normal(0.0, 1.0, (n_points, 2))

    full, full_s = _refit_run(RefitPolicy(every=1), X, Y)
    incremental, incremental_s = _refit_run(
        RefitPolicy(every=every, gamma_drift=gamma_drift), X, Y
    )

    assert incremental.model.bandwidth == full.model.bandwidth
    assert incremental.threshold == full.threshold
    assert incremental.last_loo_mse == full.last_loo_mse
    probe = X[: min(16, n_points)] + 0.5
    for q in probe:
        assert (incremental.model.predict(q) == full.model.predict(q)).all(), (
            "incremental refit produced different predictions"
        )
    return {
        "n_points": n_points,
        "n_var": n_var,
        "policy": {"every": every, "gamma_drift": gamma_drift},
        "full_refits": full.refits,
        "incremental_refits": incremental.refits,
        "full_s": round(full_s, 4),
        "incremental_s": round(incremental_s, 4),
        "speedup": round(full_s / incremental_s, 2) if incremental_s else None,
        "identical": True,
    }


def _serve_session_reference(spec):
    """The standalone session a served job must match, byte for byte."""
    session = DseSession(
        design=get_design(spec.design),
        part=spec.part,
        target_period_ns=spec.target_period_ns,
        use_model=spec.use_model,
        pretrain_size=spec.pretrain,
        seed=spec.seed,
    )
    try:
        return session.explore(
            generations=spec.generations, population=spec.population
        )
    finally:
        session.close()


def serve_bench(
    design_name: str = "cv32e40p-fifo",
    jobs: int = 3,
    generations: int = 2,
    population: int = 6,
    tool_latency: float = 0.002,
    poll_interval_s: float = 0.05,
    min_speedup: float | None = 1.3,
) -> dict:
    """Serve throughput: the one claim loop at capacity 1 vs capacity 4.

    ``jobs`` identical tenants are queued up front and served to
    completion twice, each from a fresh service root: once with one
    evaluation slot (serialized serving, the baseline), once with four
    concurrent slots.  Every served point is single-flighted in both
    runs.  Emulated tool latency stands in
    for the external tool process, so schedule quality — not the
    benchmark host's core count — sets the wall clock.

    Correctness bars (both modes, host-independent): every job's front
    is byte-identical to the standalone serial session, and the tenants'
    combined tool-run bill equals the one serial bill — overlapping
    identical points resolve from memo/store/coalescing, never as a
    second tool run.  The capacity-4 run must then be ``min_speedup``×
    faster end to end.
    """
    import json as _json
    from pathlib import Path as _Path

    from repro.serve import DseServer, JobSpec

    spec = JobSpec(
        design=design_name,
        seed=2021,
        generations=generations,
        population=population,
        use_model=False,
    )
    reference = _serve_session_reference(spec)
    reference_front = sorted(
        tuple(sorted(p.as_row().items())) for p in reference.pareto
    )

    def serve_once(capacity: int) -> dict:
        root = tempfile.mkdtemp(prefix="veda-serve-bench-")
        try:
            server = DseServer(
                root,
                capacity=capacity,
                shards=4,
                slots_per_job=2,
                poll_interval_s=poll_interval_s,
                emulate_tool_latency=tool_latency,
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
                payload = _json.loads(
                    _Path(done.result_path).read_text(encoding="utf-8")
                )
                front = sorted(
                    tuple(sorted(row.items())) for row in payload["pareto"]
                )
                assert front == reference_front, (
                    f"{design_name}: served front (capacity={capacity}) "
                    "diverged from the standalone session"
                )
                tool_runs += done.stats["tool_runs"]
            assert tool_runs == reference.tool_runs, (
                f"{design_name}: {jobs} tenants paid {tool_runs} tool runs "
                f"(capacity={capacity}); the combined bill "
                f"must equal the one serial bill of {reference.tool_runs}"
            )
            return {
                "wall_s": wall,
                "tool_runs": tool_runs,
                "coalesced_hits": stats["coalesced_hits"],
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    baseline = serve_once(capacity=1)
    concurrent = serve_once(capacity=4)
    speedup = (
        baseline["wall_s"] / concurrent["wall_s"] if concurrent["wall_s"] else None
    )
    if min_speedup is not None and speedup is not None:
        assert speedup >= min_speedup, (
            f"{design_name}: serving at capacity 4 must be >="
            f"{min_speedup}x over serving at capacity 1 at "
            f"jobs={jobs}, got {speedup:.2f}x"
        )
    return {
        "design": design_name,
        "jobs": jobs,
        "generations": generations,
        "population": population,
        "tool_latency": tool_latency,
        "poll_interval_s": poll_interval_s,
        "serial_tool_runs": reference.tool_runs,
        "combined_tool_runs": concurrent["tool_runs"],
        "coalesced_hits": concurrent["coalesced_hits"],
        "baseline_wall_s": round(baseline["wall_s"], 4),
        "concurrent_wall_s": round(concurrent["wall_s"], 4),
        "speedup": round(speedup, 3) if speedup else None,
        "identical": True,
    }


def run_perf_engine(smoke: bool = False) -> dict:
    """The whole microbenchmark; smoke mode shrinks sizes for tier-1.

    Smoke mode keeps every *correctness* assertion (bitwise identity, the
    ≥5× warm-store replay ratio) but drops the wall-clock thresholds —
    the refit-speedup, gate-reduction and serve-speedup floors only apply to the
    benchmark run, which writes ``BENCH_perf_engine.json``.
    """
    if smoke:
        designs = [("cv32e40p-fifo", 2, 8)]
        refit = refit_bench(n_points=40, every=8, gamma_drift=0.05)
        warm = warm_store_bench("cv32e40p-fifo", generations=2, population=8)
        gate = fidelity_gate_bench(
            "corundum-cqm", generations=6, population=12,
            min_reduction=None,
        )
        static = static_estimate_bench(points_per_design=1)
        serve = serve_bench(
            "cv32e40p-fifo", jobs=2, generations=1, population=4,
            tool_latency=0.0005, min_speedup=None,
        )
    else:
        designs = [("corundum-cqm", 5, 12), ("cv32e40p-fifo", 5, 12)]
        refit = refit_bench(n_points=300, every=16, gamma_drift=0.05)
        warm = warm_store_bench("cv32e40p-fifo", generations=4, population=10)
        gate = fidelity_gate_bench(
            "corundum-cqm", generations=20, population=24,
            min_reduction=2.0,
        )
        static = static_estimate_bench(points_per_design=4)
        serve = serve_bench(
            "cv32e40p-fifo", jobs=3, generations=2, population=6,
            tool_latency=0.002, min_speedup=1.3,
        )
    dse = [
        dse_pool_bench(name, generations=gens, population=pop)
        for name, gens, pop in designs
    ]
    return {
        "smoke": smoke,
        "dse_pool": dse,
        "warm_store": warm,
        "refit": refit,
        "fidelity_gate": gate,
        "static_estimate": static,
        "serve": serve,
    }
