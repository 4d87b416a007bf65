"""The benchmark's workloads: explore, replay, sweep and serve.

A run repeats *rounds* of one workload until its time budget is spent.
A unit of work is what a user waits on:

- ``explore`` — one cold model-on DSE session of one design;
- ``replay``  — one fresh session of one design over a warm result store;
- ``sweep``   — one synthesis-step point evaluation;
- ``serve``   — one served job, from submit to finish.

Replay and sweep rounds *repeat* the same inputs from the same cold
state, so their outputs must repeat exactly and each unit is timed once
per round.  Explore and serve units are few and long, and their cost
depends on the NSGA-II trajectory, so each of their rounds takes *fresh*
inputs (derived from the workload seed and the round index) and a run
averages over many of them.  Either way round 0's outputs at the default
seed are pinned by digest (``digests.json``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import BENCH_DIR, derive_seed

DESIGNS = ("corundum-cqm", "cv32e40p", "cv32e40p-fifo", "neorv32", "tirex")
SERVE_DESIGNS = ("cv32e40p-fifo", "corundum-cqm", "tirex")

#: Exceptions a sweep point may legitimately end in: infeasible design
#: points (DRC rejections, device-capacity overflow) are answers.
EXPECTED_INFEASIBLE = frozenset(
    {"DrcViolationError", "FlowError", "UtilizationOverflowError"}
)


@dataclass(frozen=True)
class Sizes:
    """Work per round; ``full`` is the measured size, ``smoke`` the test size."""

    generations: int  # explore and replay sessions
    population: int
    pretrain: int
    replay_rounds: int  # explore rounds whose sessions replay re-runs
    sweep_points: int  # per design
    serve_jobs: int  # distinct job specs per design
    serve_repeats: int  # specs submitted a second time
    serve_generations: int
    serve_population: int
    serve_pretrain: int
    setup_probes: int


SIZES = {
    "full": Sizes(
        generations=3, population=8, pretrain=12, replay_rounds=3,
        sweep_points=60, serve_jobs=3, serve_repeats=3,
        serve_generations=2, serve_population=6, serve_pretrain=6,
        setup_probes=3,
    ),
    "smoke": Sizes(
        generations=2, population=8, pretrain=8, replay_rounds=1,
        sweep_points=6, serve_jobs=1, serve_repeats=1,
        serve_generations=1, serve_population=4, serve_pretrain=4,
        setup_probes=1,
    ),
}


@dataclass
class RoundResult:
    wall_s: float = 0.0
    units: dict[str, float] = field(default_factory=dict)  # unit -> seconds
    at: dict[str, tuple[float, float]] = field(default_factory=dict)  # unit -> span
    evaluations: int = 0  # design points answered, any origin
    attempted: int = 0
    failed: int = 0
    tool_runs: int = 0
    sim_tool_s: float = 0.0
    output: list[Any] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    claim_waits: list[float] = field(default_factory=list)  # serve only
    server: dict[str, Any] = field(default_factory=dict)  # serve only

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def timed(self, unit: str, started: float) -> None:
        """Record *unit* as having run from *started* until now."""
        ended = time.perf_counter()
        self.units[unit] = ended - started
        self.at[unit] = (started, ended)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def canonical_front(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Front rows in a stable order (the digest input)."""
    return sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))


def front_problems(rows: list[dict[str, Any]], where: str) -> list[str]:
    """Checks any correct Pareto front passes, whatever the seed."""
    from repro.core.metrics import default_metrics
    from repro.moo.problem import Sense

    if not rows:
        return [f"{where}: empty Pareto front"]
    specs = [(s.canonical_name(), s.sense) for s in default_metrics()]
    vectors = []
    for row in rows:
        values = [float(row[name]) for name, _ in specs]
        if not all(math.isfinite(v) for v in values):
            return [f"{where}: non-finite metric on the front"]
        vectors.append([
            -v if sense == Sense.MAXIMIZE else v
            for v, (_, sense) in zip(values, specs)
        ])
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and b != a and all(x <= y for x, y in zip(b, a)):
                return [f"{where}: front row {i} is dominated by row {j}"]
    return []


def answered(stats: dict[str, Any]) -> int:
    """Design points a session answered: history plus model-cache answers."""
    return int(stats.get("history", 0)) + int(stats.get("cached", 0))


def model_counters(result: RoundResult, stats: dict[str, Any]) -> None:
    for name in ("cached", "estimated", "evaluated", "refits"):
        result.count(f"model.{name}", float(stats.get(name, 0)))


class Workload:
    """Base: set-up probe, preparation, fixture, rounds, close."""

    name = ""
    #: Every round runs the same inputs (else round *i* derives its own).
    repeats = False
    #: Units run concurrently (the round's wall is not their sum).
    concurrent = False

    def __init__(self, seed: int, sizes: str, work_dir: Path) -> None:
        self.seed = seed
        self.size_name = sizes
        self.sizes = SIZES[sizes]
        self.work_dir = work_dir
        #: Set by the runner for measured rounds; sampled between units.
        self.host_probe: Any = None

    def tick(self) -> None:
        """Between two units: let the host probe take a sample if due."""
        if self.host_probe is not None:
            self.host_probe.tick()

    def setup_probe(self) -> float:
        """Seconds from starting a fresh process to its first timed call."""
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), "setup",
            "--workload", self.name, "--seed", str(self.seed),
            "--sizes", self.size_name, "--work-dir", str(self.work_dir),
        ]
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline() if proc.stdout else ""
                elapsed = time.perf_counter() - started
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{self.name}: set-up probe failed ({line!r})")
        return elapsed

    def prepare(self) -> None:
        """Imports and warm-up: everything before the first timed call."""

    def fixture(self) -> float:
        """Untimed state every round reads; returns its seconds."""
        return 0.0

    def run_round(self, index: int, traced: bool, recorder: Any = None) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what prepare() and fixture() made."""


# ---------------------------------------------------------------------------
# explore / replay


def warm_up(designs: dict[str, Any], store: str | None) -> None:
    """One tiny session per design: lazy imports and first-call costs."""
    from repro.core.session import DseSession

    for design in designs.values():
        session = DseSession(
            design, seed=1, use_model=True, pretrain_size=4, result_store=store
        )
        try:
            session.explore(1, 4)
        finally:
            session.close()


class Explore(Workload):
    """Cold model-on DSE sessions, the CLI ``dse`` path, no result store."""

    name = "explore"
    store: str | None = None

    def prepare(self) -> None:
        from repro.designs import get_design

        self.designs = {name: get_design(name) for name in DESIGNS}
        warm_up(self.designs, store=None)

    def sessions(self, index: int) -> list[tuple[str, int]]:
        """Round *index*: one session per design."""
        return [(name, derive_seed(self.seed, "explore", name, index)) for name in DESIGNS]

    def run_round(self, index: int, traced: bool, recorder: Any = None) -> RoundResult:
        from repro.core.session import DseSession

        result = RoundResult()
        started = time.perf_counter()
        for name, seed in self.sessions(index):
            unit = f"{name}/{seed}"
            self.tick()
            t0 = time.perf_counter()
            try:
                session = DseSession(
                    self.designs[name], seed=seed, use_model=True,
                    pretrain_size=self.sizes.pretrain, result_store=self.store,
                )
                try:
                    dse = session.explore(self.sizes.generations, self.sizes.population)
                finally:
                    session.close()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                result.timed(unit, t0)
                result.attempted += 1
                result.fail(f"{unit}: {type(exc).__name__}: {exc}")
                continue
            result.timed(unit, t0)
            result.attempted += 1
            rows = [p.as_row() for p in dse.pareto]
            for problem in front_problems(rows, unit):
                result.fail(problem)
            result.evaluations += answered(dse.stats)
            result.tool_runs += dse.tool_runs
            result.sim_tool_s += dse.simulated_seconds
            model_counters(result, dse.stats)
            result.output.append({
                "session": unit,
                "front": canonical_front(rows),
                "evaluations": dse.evaluations,
                "tool_runs": dse.tool_runs,
                "sim_tool_s": dse.simulated_seconds,
            })
        result.wall_s = time.perf_counter() - started
        return result


class Replay(Explore):
    """The first explore rounds' sessions again, fresh, over the store they filled."""

    name = "replay"
    repeats = True

    def prepare(self) -> None:
        from repro.designs import get_design

        self.designs = {name: get_design(name) for name in DESIGNS}
        self.root = Path(tempfile.mkdtemp(prefix="replay-", dir=self.work_dir))
        warm_up(self.designs, store=str(self.root / "warm-up-store"))

    def sessions(self, index: int) -> list[tuple[str, int]]:
        # Every round: the sessions of explore rounds 0..replay_rounds-1.
        return [
            session
            for i in range(self.sizes.replay_rounds)
            for session in Explore.sessions(self, i)
        ]

    def fixture(self) -> float:
        started = time.perf_counter()
        self.store = str(self.root / "store")
        self.reference = super().run_round(0, traced=False)
        if self.reference.failed:
            raise RuntimeError(
                "replay fixture failed: " + "; ".join(self.reference.problems)
            )
        return time.perf_counter() - started

    def run_round(self, index: int, traced: bool, recorder: Any = None) -> RoundResult:
        result = super().run_round(index, traced, recorder)
        fronts = {o["session"]: o["front"] for o in self.reference.output}
        for out in result.output:
            if out["tool_runs"] != 0:
                result.fail(f"{out['session']}: replay made {out['tool_runs']} tool runs")
            if out["front"] != fronts.get(out["session"]):
                result.fail(f"{out['session']}: replay front differs from the fixture's")
        # Pinned: the fixture's fronts and bill, and the replay's own bill.
        result.output = [
            {"fixture": self.reference.output},
            {"replay": [
                {k: o[k] for k in ("session", "tool_runs", "sim_tool_s")}
                for o in result.output
            ]},
        ]
        return result

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """Design-automation mode: seeded random points, synthesis step."""

    name = "sweep"
    repeats = True

    def prepare(self) -> None:
        from repro.core.spaces import ParameterSpace
        from repro.designs import get_design
        from repro.errors import ReproError

        self.designs = {name: get_design(name) for name in DESIGNS}
        self.points = {}
        for name, design in self.designs.items():
            self.points[name] = self._points(ParameterSpace.from_design(design), name)
            evaluator = self._evaluator(name, seed=1)
            for params in self.points[name][:2]:
                try:
                    evaluator.evaluate(params)
                except ReproError:
                    pass

    def _evaluator(self, name: str, seed: int) -> Any:
        from repro.core.evaluate import PointEvaluator
        from repro.flow.vivado_sim import FlowStep

        design = self.designs[name]
        return PointEvaluator(
            source=design.source(), language=design.language, top=design.top,
            step=FlowStep.SYNTHESIS, seed=seed,
        )

    def _points(self, space: Any, name: str) -> list[dict[str, int]]:
        import numpy as np

        rng = np.random.default_rng(derive_seed(self.seed, "sweep", name))
        X = rng.integers(
            space.lows(), space.highs() + 1,
            size=(self.sizes.sweep_points, len(space)),
        )
        return [space.decode(row) for row in X]

    def run_round(self, index: int, traced: bool, recorder: Any = None) -> RoundResult:
        result = RoundResult()
        started = time.perf_counter()
        for name in self.designs:
            # A fresh evaluator per round: every round pays the same runs.
            evaluator = self._evaluator(name, seed=derive_seed(self.seed, "sweep", name))
            seen: dict[str, Any] = {}
            for k, params in enumerate(self.points[name]):
                self.tick()
                t0 = time.perf_counter()
                try:
                    point = evaluator.evaluate(params)
                    outcome: dict[str, Any] = {
                        "source": point.source, "metrics": point.metrics,
                        "sim_s": point.simulated_seconds,
                    }
                except Exception as exc:  # noqa: BLE001 - classified below
                    outcome = {"error": type(exc).__name__}
                    if type(exc).__name__ not in EXPECTED_INFEASIBLE:
                        result.fail(f"{name} {params}: {type(exc).__name__}: {exc}")
                result.timed(f"{name}/{k}", t0)
                result.attempted += 1
                result.evaluations += 1
                if "error" in outcome:
                    result.count("sweep.infeasible", 1)
                else:
                    result.sim_tool_s += outcome["sim_s"]
                    result.tool_runs += outcome["source"] == "tool"
                key = json.dumps(sorted(params.items()))
                first = seen.setdefault(key, outcome)
                if first is not outcome and (
                    first.get("error") != outcome.get("error")
                    or first.get("metrics") != outcome.get("metrics")
                    or outcome.get("source", "cache") != "cache"
                ):
                    result.fail(f"{name} {params}: repeated point answered differently")
                result.output.append([name, sorted(params.items()), outcome])
        result.wall_s = time.perf_counter() - started
        return result


# ---------------------------------------------------------------------------
# serve


class ServerProcess:
    """A ``DseServer`` in its own process, started and stopped by the benchmark."""

    def __init__(self, root: Path, traced: bool) -> None:
        self.root = root
        self.stats_path = root / "server-stats.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), "serve-server",
            "--root", str(root), "--trace", "1" if traced else "0",
            "--stats", str(self.stats_path),
        ]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        self.start_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"serve: server did not start ({line!r})")

    def stop(self) -> dict[str, Any]:
        """Graceful drain via the STOP file; returns the server's exit stats."""
        (self.root / "STOP").touch()
        try:
            self.proc.wait(timeout=120)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if self.proc.stdout:
                self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.stats_path.exists():
            raise RuntimeError(f"serve: server exited with {self.proc.returncode}")
        return json.loads(self.stats_path.read_text(encoding="utf-8"))


class Serve(Workload):
    """Two closed-loop clients sending seeded jobs to a fresh server process."""

    name = "serve"
    concurrent = True
    clients = 2

    def setup_probe(self) -> float:
        root = Path(tempfile.mkdtemp(prefix="serve-probe-", dir=self.work_dir))
        try:
            server = ServerProcess(root, traced=False)
            server.stop()
            return server.start_s
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def prepare(self) -> None:
        from repro.serve import JobSpec  # noqa: F401 - imported before timing

    def jobs(self, index: int) -> list[Any]:
        """Round *index*: distinct specs per design plus a few repeated ones."""
        import numpy as np
        from repro.serve import JobSpec

        s = self.sizes
        rng = np.random.default_rng(derive_seed(self.seed, "serve", index))
        specs = [
            JobSpec(
                design=design, seed=derive_seed(self.seed, "serve", index, design, k),
                generations=s.serve_generations, population=s.serve_population,
                pretrain=s.serve_pretrain, use_model=True,
            )
            for design in SERVE_DESIGNS
            for k in range(s.serve_jobs)
        ]
        repeats = [specs[int(i)] for i in rng.choice(len(specs), s.serve_repeats, replace=False)]
        jobs = specs + repeats
        return [jobs[int(i)] for i in rng.permutation(len(jobs))]

    def run_round(self, index: int, traced: bool, recorder: Any = None) -> RoundResult:
        from repro.serve.jobs import JobState
        from repro.serve.queue import FileJobQueue

        jobs = self.jobs(index)
        root = Path(tempfile.mkdtemp(prefix="serve-", dir=self.work_dir))
        result = RoundResult()
        try:
            server = ServerProcess(root, traced=traced)
            try:
                records = self._clients(FileJobQueue(root / "queue"), jobs, recorder, result)
            finally:
                result.server = server.stop()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        fronts: dict[str, Any] = {}
        bill = 0
        for k, (spec, record) in enumerate(zip(jobs, records)):
            result.attempted += 1
            unit = f"job{k}:{spec.design}/{spec.seed}"
            if record is None or record.state is not JobState.DONE or not record.result_path:
                state = None if record is None else record.state.value
                result.fail(f"{unit} ended {state}")
                continue
            payload = record.stats.pop("result")
            rows = payload["pareto"]
            front = canonical_front(rows)
            key = json.dumps(spec.as_dict(), sort_keys=True)
            if fronts.setdefault(key, front) != front:
                result.fail(f"{unit}: front differs from an earlier job of the same spec")
            for problem in front_problems(rows, unit):
                result.fail(problem)
            result.units[unit] = record.finished_at - record.submitted_at
            result.claim_waits.append(record.started_at - record.submitted_at)
            result.evaluations += answered(payload["stats"])
            model_counters(result, payload["stats"])
            bill += int(record.stats.get("tool_runs", 0))
            result.sim_tool_s += float(payload["simulated_seconds"])
            result.output.append({"spec": spec.as_dict(), "front": front})
        result.tool_runs = bill
        # Who pays for a shared point depends on timing; the totals do not.
        result.output.append({"tool_runs": bill, "sim_tool_s": round(result.sim_tool_s, 6)})
        return result

    def _clients(
        self, queue: Any, jobs: list[Any], recorder: Any, result: RoundResult
    ) -> list[Any]:
        """Closed loop: each client submits its next job once the last one ended."""
        from repro.serve.jobs import JobRecord

        done_dir = queue.root / "done"
        records: list[Any] = [None] * len(jobs)
        lock = threading.Lock()
        cursor = iter(range(len(jobs)))

        def span(name: str) -> Any:
            return recorder.span(name) if recorder is not None else nullcontext()

        def client() -> None:
            try:
                while True:
                    with lock:
                        k = next(cursor, None)
                    if k is None:
                        return
                    t0 = time.perf_counter()
                    with span("client.submit"):
                        submitted = queue.submit(jobs[k])
                    done = done_dir / f"{submitted.job_id}.json"
                    with span("client.wait"):
                        deadline = time.monotonic() + 150
                        while not done.exists():
                            if time.monotonic() > deadline:
                                raise TimeoutError(f"{submitted.job_id} never finished")
                            time.sleep(0.01)
                    # The terminal record is published atomically; read it
                    # from done/ (the running copy may linger a moment).
                    record = JobRecord.from_dict(json.loads(done.read_text(encoding="utf-8")))
                    if record.result_path:
                        record.stats["result"] = json.loads(
                            Path(record.result_path).read_text(encoding="utf-8")
                        )
                    records[k] = record
                    spec = jobs[k]
                    with lock:
                        result.at[f"job{k}:{spec.design}/{spec.seed}"] = (t0, time.perf_counter())
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                with lock:
                    result.fail(f"client: {type(exc).__name__}: {exc}")

        started = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(self.clients)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 170
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            # The clients only wait on files; probing here reads the host
            # while the server works.
            self.tick()
            threads[0].join(timeout=0.02)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        result.wall_s = time.perf_counter() - started
        result.at["round"] = (started, started + result.wall_s)
        return records


WORKLOADS = {w.name: w for w in (Explore, Replay, Sweep, Serve)}


def make(name: str, seed: int, sizes: str, work_dir: Path) -> Workload:
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](seed, sizes, work_dir)
