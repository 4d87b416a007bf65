"""The shared evaluator fleet and its per-job scheduler facade.

The server keeps one fleet member per distinct
:class:`~repro.core.parallel.EvaluatorSpec`.  Every job whose session
resolves to the same spec (same design source, part, step, directives,
period, seed, metrics) shares that member's cross-batch memo and
persistent-store binding, so the *first* tenant to evaluate a
configuration pays for it and every later tenant replays it as a cache
answer.

Every tool run goes to the fleet's one
:class:`~repro.core.parallel.WorkerPool`, shared by all members:
``workers`` processes (the server passes its ``capacity``), so distinct
configurations run on as many cores, outside the server's GIL.  A
worker keeps one evaluator per spec
(:func:`~repro.core.parallel.run_point`), runs each point without a
DRC check of its own (the member checked it), and ships the run's
ledger rows, spans and counters back with its answer.  The pool is
forked when the fleet is built, so a server builds its fleet before it
starts any thread; it has the one crash policy of every pool (see
:mod:`repro.core.parallel`): a broken pool is replaced through a fork
server, never forked from the threaded server, and the runs it lost
are retried there once.  Workers exit when the server process dies.

Members are :class:`_ConcurrentMember` evaluators: the memo, DRC gate,
store handle and counters live behind a short-critical-section
``_state_lock`` that is *never* held across a tool run — so
evaluations of distinct configurations proceed in parallel up to the
scheduler's capacity.  Identical configurations never race: the
scheduler single-flights them by evaluation cache key, turning N
concurrent tenants on one point into one executor slot plus N-1
coalesced answers.  Serialized serving is a ``capacity=1`` scheduler,
not a separate evaluation mode.  Incremental specs are refused: their
results depend on evaluation order, which a shared member cannot
promise.

:class:`SchedulerBoundEvaluator` is the facade a session binds via
``ApproximateFitness.set_batch_evaluator``: it exposes the same
``evaluate_many`` surface as ``ParallelPointEvaluator`` but routes each
point as one scheduler request tagged with the owning job, so the fair
round-robin interleaves *points*, not whole batches.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.gate import freeze_params
from repro.core.parallel import (
    EvaluationFailure,
    EvaluatorSpec,
    ParallelPointEvaluator,
    WorkerPool,
)
from repro.core.pipeline import replay, settle
from repro.observe import current_telemetry
from repro.serve.scheduler import FairScheduler

__all__ = ["EvaluatorFleet", "SchedulerBoundEvaluator", "ScheduledBatch"]


def _count(name: str, value: float = 1) -> None:
    tel = current_telemetry()
    if tel is not None:
        tel.counters.add(name, value)


class _ConcurrentMember(ParallelPointEvaluator):
    """A fleet member whose point evaluations may run on many threads.

    A :class:`~repro.core.parallel.ParallelPointEvaluator` over the
    fleet's worker pool, with a state lock: :meth:`evaluate_point` runs
    the pre-dispatch (memo → DRC gate → store) and commit steps under
    the lock and the tool run between them without it, so distinct
    configurations evaluate in parallel while the shared state stays
    single-writer.  A worker's ledger rows keep the origin its evaluator
    gave them, so a served session's ledger reads as a standalone one's.

    Identical configurations must not race through the fresh path — the
    caller (the scheduler's single-flight table, keyed on exactly this
    member's memo key) guarantees at most one in-flight evaluation per
    key.
    """

    worker_origin = None

    def __init__(self, spec: EvaluatorSpec, pool: WorkerPool, store: Any = None) -> None:
        super().__init__(spec=spec, pool=pool, store=store)
        # Guards memo/counters/gate/identity caches and the store handle.
        # Held only for bookkeeping — never across a tool run.
        self._state_lock = threading.Lock()

    def evaluate_point(
        self, params: dict[str, int]
    ) -> tuple[Any, str]:
        """Evaluate one configuration; returns ``(result, origin)``.

        ``origin`` says who answered: ``"memo"`` (cross-tenant replay,
        cache-priced), ``"store"`` (another process's run adopted from
        the persistent store), ``"drc"`` (pre-flight rejection), or
        ``"tool"`` (a fresh run this call paid for).
        """
        key = freeze_params(params)
        with self._state_lock:
            answer = self._pre_dispatch(key, params)
        if answer is not None:
            return answer
        # The tool run happens outside the lock, on a worker process:
        # parallelism across distinct configurations is the whole point.
        (result,) = self._run([params])
        with self._state_lock:
            self._commit(key, params, result)
        return result, "tool"


class EvaluatorFleet:
    """One shared evaluator per spec, and one worker pool for all of them.

    ``workers`` sizes the pool (a server passes its ``capacity``).  The
    pool's processes are forked here, so build the fleet before starting
    any thread; :meth:`close` stops them.
    """

    def __init__(
        self, store_root: str | None = None, shards: int = 8, workers: int = 1
    ) -> None:
        self.store_root = store_root
        self.shards = shards
        self._lock = threading.Lock()
        self._members: dict[EvaluatorSpec, _ConcurrentMember] = {}
        self._tools = WorkerPool(workers)

    def _member(self, spec: EvaluatorSpec) -> _ConcurrentMember:
        with self._lock:
            evaluator = self._members.get(spec)
            if evaluator is None:
                store = None
                if self.store_root is not None:
                    from repro.cache import open_store

                    # Each member opens its own handle on the shared
                    # (sharded) store: the handle's in-memory indexes are
                    # guarded by the member's state lock, while the
                    # on-disk flock keeps cross-handle appends
                    # first-writer-wins.
                    store = open_store(self.store_root, shards=self.shards)
                evaluator = _ConcurrentMember(spec, self._tools, store=store)
                self._members[spec] = evaluator
            return evaluator

    def bind(
        self, scheduler: FairScheduler, job_id: str, spec: EvaluatorSpec
    ) -> "SchedulerBoundEvaluator":
        """The facade a job's session plugs into its fitness."""
        if spec.incremental:
            raise ValueError(
                "incremental specs cannot be served: their results depend "
                "on evaluation order, which a shared fleet member cannot keep"
            )
        return SchedulerBoundEvaluator(scheduler, job_id, self._member(spec))

    def specs(self) -> list[EvaluatorSpec]:
        with self._lock:
            return list(self._members)

    def stats(self) -> dict[str, Any]:
        """Fleet-wide dedup accounting (summed over members)."""
        with self._lock:
            members = list(self._members.values())
        return {
            "members": len(members),
            "dispatched": sum(m.dispatched for m in members),
            "memo_hits": sum(m.memo_hits for m in members),
            "store_hits": sum(m.store_hits for m in members),
            "store_puts": sum(m.store_puts for m in members),
            "drc_rejections": sum(m.drc_rejections for m in members),
        }

    def close(self) -> None:
        with self._lock:
            members = list(self._members.values())
            self._members.clear()
        for member in members:
            member.close()
        self._tools.close()


class ScheduledBatch:
    """Pending results of one ``submit_many`` through the scheduler.

    :meth:`results` blocks until every point is answered and returns
    them in request order regardless of scheduler interleaving.  A
    cancelled job's pending points surface as the
    :class:`~repro.serve.scheduler.JobCancelledError` their futures
    carry.
    """

    def __init__(self, futures: Sequence[Future[Any]]) -> None:
        self._futures = list(futures)

    def results(self, on_error: str = "raise") -> list[Any]:
        finish = settle(on_error)
        return finish(future.result() for future in self._futures)


class SchedulerBoundEvaluator:
    """``ParallelPointEvaluator``-shaped facade over (scheduler, job, member).

    Owned by the server — ``close()`` here only detaches; the member
    evaluator and its memo live on for the next tenant.

    Each point is submitted under its evaluation cache key: concurrent
    duplicates across tenants coalesce onto one executor slot, and this
    tenant's copy of a run another lane paid for comes back cache-priced
    with a ``coalesced`` ledger origin.
    """

    def __init__(
        self, scheduler: FairScheduler, job_id: str, member: _ConcurrentMember
    ) -> None:
        self.scheduler = scheduler
        self.job_id = job_id
        self._member = member
        # Per-tenant attribution (the member's own counters are shared
        # across every job on the spec): what *this* job's requests cost.
        # Bumped from executor threads (own runs and coalesced transforms).
        self._stats_lock = threading.Lock()
        self.tool_runs = 0
        self.cache_hits = 0
        self.failures = 0
        self.coalesced_hits = 0

    def submit_many(self, points: Sequence[Mapping[str, int]]) -> ScheduledBatch:
        """One scheduler request per point, fair-queued under this job."""
        futures: list[Future[Any]] = []
        for p in points:
            params = {k: int(v) for k, v in p.items()}
            futures.append(
                self.scheduler.submit(
                    self.job_id,
                    self._primary(params),
                    key=(id(self._member), freeze_params(params)),
                    transform=self._coalesced(params),
                )
            )
        return ScheduledBatch(futures)

    def _tally(self, result: Any, fresh: bool) -> None:
        with self._stats_lock:
            if isinstance(result, EvaluationFailure):
                self.failures += 1
            elif fresh:
                self.tool_runs += 1
            else:
                self.cache_hits += 1

    def _primary(self, params: dict[str, int]) -> Callable[[], Any]:
        def run() -> Any:
            result, origin = self._member.evaluate_point(params)
            self._tally(result, fresh=origin == "tool")
            return result

        return run

    def _coalesced(self, params: dict[str, int]) -> Callable[[Any], Any]:
        """The follower-side transform: another lane paid for this run.

        Prices the shared result exactly like a memo replay — a
        cache-sourced copy with zero new simulated seconds — and records
        a zero-charge ledger entry with the ``coalesced`` origin so
        traces show which answers the single-flight table produced.
        """

        def transform(result: Any) -> Any:
            with self._stats_lock:
                self.coalesced_hits += 1
                if isinstance(result, EvaluationFailure):
                    self.failures += 1
                else:
                    self.cache_hits += 1
            _count("serve.coalesced_hits")
            return replay(params, result, "coalesced")

        return transform

    def evaluate_many(
        self, points: Sequence[Mapping[str, int]], on_error: str = "raise"
    ) -> list[Any]:
        return self.submit_many(points).results(on_error)

    def tenant_stats(self) -> dict[str, int | float]:
        """This job's own economics over the shared member."""
        with self._stats_lock:
            tool_runs = self.tool_runs
            cache_hits = self.cache_hits
            failures = self.failures
            coalesced = self.coalesced_hits
        answered = tool_runs + cache_hits
        return {
            "tool_runs": tool_runs,
            "cache_hits": cache_hits,
            "coalesced_hits": coalesced,
            "failures": failures,
            "cache_hit_rate": (cache_hits / answered) if answered else 0.0,
        }

    def close(self) -> None:
        """Detach only — the fleet owns the member's lifecycle."""
