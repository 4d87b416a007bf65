"""The DSE server: jobs in, Pareto fronts out, one shared fleet.

:class:`DseServer` is the long-running process behind ``dovado-repro
serve``.  Its root directory is the whole service contract::

    <root>/queue/      # FileJobQueue (clients submit/cancel here)
    <root>/store/      # the shared sharded ResultStore (all tenants)
    <root>/results/    # <job-id>/dse.json per finished job
    <root>/STOP        # touch to request a graceful drain + exit

The serve loop is one event-driven claim loop.  Each pass reaps finished
runners, polls cancel markers, and claims every queued job in one scan;
then it waits on a wake event for at most ``poll_interval_s`` (the
heartbeat).  A submit from this process and a finished job set the
event, so both are acted on at once; a submit from another process
bumps the queue's ``SUBMIT`` stamp and is claimed at the next heartbeat.
Claiming is not paced: the :class:`~repro.serve.scheduler.FairScheduler`
(per-job slots, bounded pending lanes) is what bounds evaluation work.

Each claimed job is registered with the
:class:`~repro.serve.scheduler.FairScheduler` and its session runs on a
job-runner thread.  The session itself is the stock
:class:`~repro.core.session.DseSession`; the only serve-specific wiring
is ``fitness.set_batch_evaluator`` binding it to the shared fleet, so
every tool dispatch flows through the fair scheduler and the shared
store.  The tool runs themselves happen in the fleet's worker
processes, one per scheduler slot (``capacity``).  Fronts are therefore
byte-identical to the same session run standalone — the service changes
*who pays* for each tool run, never the answers.

Cancellation: the queue's ``.cancel`` marker is polled each tick and
translated into ``scheduler.cancel_job`` — queued evaluations fail fast
with :class:`~repro.serve.scheduler.JobCancelledError`, which unwinds
that session's explore loop; in-flight runs finish and stay in the
store.  Shutdown (``STOP`` file, ``stop()``, or ``max_idle_s``) stops
claiming, drains the scheduler, joins every runner and stops the tool
workers; a killed server's workers exit on their own.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from pathlib import Path
from typing import Any

from repro.observe import current_telemetry
from repro.serve.fleet import EvaluatorFleet, SchedulerBoundEvaluator
from repro.serve.jobs import JobRecord, JobState
from repro.serve.queue import (
    FileJobQueue,
    add_submit_listener,
    remove_submit_listener,
)
from repro.serve.scheduler import FairScheduler, JobCancelledError

__all__ = ["DseServer"]


def _count(name: str, value: float = 1) -> None:
    tel = current_telemetry()
    if tel is not None:
        tel.counters.add(name, value)


class DseServer:
    """Multiplex queued DSE jobs over one scheduler + fleet + store."""

    def __init__(
        self,
        root: str | Path,
        capacity: int = 4,
        shards: int = 8,
        slots_per_job: int = 2,
        poll_interval_s: float = 0.05,
        admission: str = "adaptive",
        coalesce: bool = True,
        emulate_tool_latency: float = 0.0,
    ) -> None:
        # Checked before anything touches disk: a zero slot count would
        # otherwise leave its first claimed job in running/ forever, and
        # a zero heartbeat would busy-spin the claim loop.
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slots_per_job < 1:
            raise ValueError(f"slots_per_job must be >= 1, got {slots_per_job}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be > 0, got {poll_interval_s}")
        # ``admission`` and ``coalesce`` survive only as keywords existing
        # callers pass: there is one claim loop, and every served point
        # is single-flighted.
        if admission != "adaptive":
            raise ValueError(
                f"admission={admission!r} is not supported: the server has "
                "one event-driven claim loop"
            )
        if not coalesce:
            raise ValueError(
                "coalesce=False is not supported: every served point is "
                "single-flighted; serve with capacity=1 for serialized "
                "evaluation"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue = FileJobQueue(self.root / "queue")
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(exist_ok=True)
        self.store_root = self.root / "store"
        self.shards = shards
        self.slots_per_job = slots_per_job
        self.poll_interval_s = poll_interval_s
        #: Real seconds slept per simulated tool second on fresh runs —
        #: the serve-throughput benchmark's stand-in for external tool
        #: latency.  0 (the default) disables it.
        self.emulate_tool_latency = emulate_tool_latency
        # One tool worker per scheduler slot.  The fleet forks them, so it
        # is built before anything here starts a thread.
        self.fleet = EvaluatorFleet(
            store_root=str(self.store_root), shards=shards, workers=capacity
        )
        # Backpressure: a job may hold four requests per pool thread,
        # queued or running, before its session thread blocks.
        self.scheduler = FairScheduler(capacity=capacity, max_pending=4 * capacity)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        # Terminal-state counters are bumped on job-runner threads and read
        # by the serve loop / stats(): the lock keeps both sides atomic.
        self._counters_lock = threading.Lock()
        self._runners: dict[str, threading.Thread] = {}
        self._stop = threading.Event()
        # The claim-loop wake event: the submit listener, finished jobs
        # and stop() set it so the loop reacts immediately instead of
        # riding out the heartbeat wait.
        self._wake = threading.Event()
        self._final_fleet_stats: dict[str, Any] | None = None
        self._final_coalesced: int | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def _stop_file(self) -> Path:
        return self.root / "STOP"

    def stop(self) -> None:
        """Request a graceful drain from another thread."""
        self._stop.set()
        self._wake.set()

    def _should_stop(self) -> bool:
        return self._stop.is_set() or self._stop_file.exists()

    def _finished_jobs(self) -> int:
        with self._counters_lock:
            return self.jobs_done + self.jobs_failed + self.jobs_cancelled

    def serve_forever(
        self,
        max_idle_s: float | None = None,
        stop_after: int | None = None,
    ) -> dict[str, Any]:
        """The serve loop; returns a final stats snapshot after draining.

        ``max_idle_s`` exits once the queue has been empty (and no job
        running) for that long; ``stop_after`` exits once that many jobs
        reached a terminal state.  Both are for tests/smoke runs — a real
        service runs with neither and drains on ``STOP``.
        """
        idle_since: float | None = None
        listener = self._wake.set
        add_submit_listener(self.queue.root, listener)
        last_stamp = self.queue.submit_stamp_ns()
        try:
            while not self._should_stop():
                self._reap_runners()
                self._poll_cancels()
                if (
                    stop_after is not None
                    and self._finished_jobs() >= stop_after
                ):
                    break
                # Clear before the scan: a submit landing after the scan
                # re-sets the event and the wait below returns at once —
                # the claim is never lost, only deferred one pass.
                self._wake.clear()
                claimed = self.queue.claim_many()
                for record in claimed:
                    self._launch(record)
                if claimed:
                    idle_since = None
                elif not self._runners and max_idle_s is not None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= max_idle_s:
                        break
                # A cross-process submit can't fire the in-process
                # listener; its SUBMIT stamp bump since the last look
                # skips the wait.
                stamp = self.queue.submit_stamp_ns()
                if stamp != last_stamp:
                    last_stamp = stamp
                    continue
                self._wake.wait(self.poll_interval_s)
        finally:
            remove_submit_listener(self.queue.root, listener)
            self._drain()
        return self.stats()

    def _drain(self) -> None:
        # Graceful: nothing new is claimed past this point, but running
        # jobs keep submitting until their sessions finish — drain means
        # "no session abandoned mid-batch", not "fail fast".  The
        # scheduler (trivially idle by then) and fleet close after.
        for thread in list(self._runners.values()):
            thread.join()
        self._reap_runners()
        self._final_fleet_stats = self.fleet.stats()
        self._final_coalesced = int(self.scheduler.stats()["coalesced_hits"])
        self.scheduler.close()
        self.fleet.close()

    # -- job execution ----------------------------------------------------

    def _reap_runners(self) -> None:
        for job_id in [j for j, t in self._runners.items() if not t.is_alive()]:
            self._runners.pop(job_id).join()

    def _poll_cancels(self) -> None:
        for job_id in list(self._runners):
            if self.queue.cancel_requested(job_id):
                dropped = self.scheduler.cancel_job(job_id)
                if dropped:
                    _count("serve.requests_dropped", dropped)

    def _launch(self, record: JobRecord) -> None:
        self.scheduler.register_job(record.job_id, slots=self.slots_per_job)
        _count("serve.jobs_claimed")
        thread = threading.Thread(
            target=self._run_job,
            args=(record,),
            name=f"job-{record.job_id}",
            daemon=True,
        )
        self._runners[record.job_id] = thread
        thread.start()

    def _build_session(self, record: JobRecord) -> Any:
        from repro.core.session import DseSession
        from repro.designs import get_design

        spec = record.spec
        return DseSession(
            get_design(spec.design),
            part=spec.part,
            target_period_ns=spec.target_period_ns,
            use_model=spec.use_model,
            pretrain_size=spec.pretrain,
            seed=spec.seed,
        )

    def _run_job(self, record: JobRecord) -> None:
        job_id = record.job_id
        bound: SchedulerBoundEvaluator | None = None
        try:
            session = self._build_session(record)
            from repro.core.parallel import EvaluatorSpec

            spec = EvaluatorSpec.from_evaluator(
                session.evaluator, design_name=record.spec.design
            )
            if self.emulate_tool_latency > 0.0:
                spec = dataclasses.replace(
                    spec, emulate_tool_latency=self.emulate_tool_latency
                )
            bound = self.fleet.bind(self.scheduler, job_id, spec)
            session.fitness.set_batch_evaluator(bound)
            result = session.explore(
                generations=record.spec.generations,
                population=record.spec.population,
                soft_deadline_s=record.spec.soft_deadline_s,
                pretrain=record.spec.pretrain > 0,
                algorithm=record.spec.algorithm,
            )
            out_dir = self.results_dir / job_id
            out_dir.mkdir(parents=True, exist_ok=True)
            result_path = result.save(out_dir)
            session.close()
            self.queue.finish(
                job_id,
                JobState.DONE,
                result_path=str(result_path),
                stats={
                    "front_size": len(result.pareto),
                    "evaluations": result.evaluations,
                    "tool_runs": result.tool_runs,
                    "simulated_seconds": result.simulated_seconds,
                    **bound.tenant_stats(),
                },
            )
            with self._counters_lock:
                self.jobs_done += 1
            _count("serve.jobs_done")
        except JobCancelledError:
            self.queue.finish(
                job_id,
                JobState.CANCELLED,
                stats=bound.tenant_stats() if bound is not None else {},
            )
            with self._counters_lock:
                self.jobs_cancelled += 1
            _count("serve.jobs_cancelled")
        except Exception as exc:  # noqa: BLE001 - one job must not kill the server
            self.queue.finish(
                job_id,
                JobState.FAILED,
                error=f"{type(exc).__name__}: {exc}",
                stats=bound.tenant_stats() if bound is not None else {},
            )
            with self._counters_lock:
                self.jobs_failed += 1
            _count("serve.jobs_failed")
            traceback.print_exc()
        finally:
            self.scheduler.unregister_job(job_id)
            # A finished job may satisfy stop_after (or max_idle_s): wake
            # the claim loop so it acts now, not at the next heartbeat.
            self._wake.set()

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._counters_lock:
            done = self.jobs_done
            failed = self.jobs_failed
            cancelled = self.jobs_cancelled
        if self._final_coalesced is not None:
            coalesced = self._final_coalesced
        else:
            coalesced = int(self.scheduler.stats()["coalesced_hits"])
        return {
            "jobs_done": done,
            "jobs_failed": failed,
            "jobs_cancelled": cancelled,
            "queue_depth": self.queue.depth(),
            "coalesced_hits": coalesced,
            "fleet": self._final_fleet_stats or self.fleet.stats(),
        }
