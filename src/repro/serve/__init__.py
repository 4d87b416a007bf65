"""``repro.serve`` — DSE as a service.

The ROADMAP's north-star item: many concurrent DSE sessions, one shared
evaluation backend, so one tenant's Vivado-equivalent run is every
tenant's cache hit (the sharing economics Simopt and CRADLE motivate —
see PAPERS.md).  The pieces mirror scrapy's engine/scheduler/
downloader split:

- :mod:`repro.serve.jobs` — the job spec/record vocabulary.
- :mod:`repro.serve.queue` — :class:`FileJobQueue`, the client↔server
  handoff over atomic file renames (``submit``/``jobs``/``cancel`` CLI).
- :mod:`repro.serve.scheduler` — :class:`FairScheduler`, the lock-guarded
  round-robin multiplexer with per-job slots, bounded-lane backpressure,
  single-flight coalescing, cancel, and graceful drain.
- :mod:`repro.serve.fleet` — :class:`EvaluatorFleet`, one shared
  evaluator per spec over the sharded store, plus the
  :class:`SchedulerBoundEvaluator` facade sessions bind via
  ``ApproximateFitness.set_batch_evaluator``.  Every served point goes
  to the scheduler under its single-flight key; serialized serving is
  a ``capacity=1`` scheduler, not a separate mode.
- :mod:`repro.serve.server` — :class:`DseServer`, the one event-driven
  claim loop tying them together: each pass claims every queued job,
  and the scheduler's backpressure, not a pacing policy, bounds the
  evaluation work.

The service never changes answers: a job's front is byte-identical to
the same session run standalone; only *who pays* for each tool run
differs.
"""

from repro.serve.fleet import EvaluatorFleet, ScheduledBatch, SchedulerBoundEvaluator
from repro.serve.jobs import JobRecord, JobSpec, JobState
from repro.serve.queue import (
    FileJobQueue,
    add_submit_listener,
    remove_submit_listener,
)
from repro.serve.scheduler import FairScheduler, JobCancelledError, SchedulerClosed
from repro.serve.server import DseServer

__all__ = [
    "DseServer",
    "EvaluatorFleet",
    "FairScheduler",
    "FileJobQueue",
    "JobCancelledError",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ScheduledBatch",
    "SchedulerBoundEvaluator",
    "SchedulerClosed",
    "add_submit_listener",
    "remove_submit_listener",
]
