"""The shared evaluator fleet and its per-job scheduler facade.

The server keeps one fleet member per distinct
:class:`~repro.core.parallel.EvaluatorSpec`.  Every job whose session
resolves to the same spec (same design source, part, step, directives,
period, seed, metrics) shares that member's cross-batch memo and
persistent-store binding, so the *first* tenant to evaluate a
configuration pays for it and every later tenant replays it as a cache
answer.

Members are :class:`_ConcurrentMember` evaluators built with
``workers=0``: each tool run executes inline on whichever scheduler pool
thread the request was dispatched to, with a thread-local tool evaluator
per pool thread.  Shared member state (memo, DRC gate, store handle,
counters) lives behind a short-critical-section ``_state_lock`` that is
*never* held across a tool run — so evaluations of distinct
configurations proceed in parallel up to the scheduler's capacity.
Identical configurations never race: the scheduler single-flights them
by evaluation cache key, turning N concurrent tenants on one point into
one executor slot plus N-1 coalesced answers.  (Earlier releases instead
serialized *every* evaluation sharing a spec behind one member mutex —
the per-spec lock convoy; that path survives as the coalescing-off
reference for benchmarks, and as the required mode for incremental
specs, whose results are order-dependent.)

:class:`SchedulerBoundEvaluator` is the facade a session binds via
``ApproximateFitness.set_batch_evaluator``: it exposes the same
``submit_many`` surface as ``ParallelPointEvaluator`` but routes each
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
    RemoteEvaluationError,
)
from repro.core.pipeline import replay, run_tool
from repro.observe import current_telemetry
from repro.serve.scheduler import FairScheduler

__all__ = ["EvaluatorFleet", "SchedulerBoundEvaluator", "ScheduledBatch"]


def _count(name: str, value: float = 1) -> None:
    tel = current_telemetry()
    if tel is not None:
        tel.counters.add(name, value)


class _ConcurrentMember(ParallelPointEvaluator):
    """A fleet member whose point evaluations may run on many threads.

    Inherits the pre-dispatch (memo → DRC gate → store) and commit steps
    of :class:`~repro.core.parallel.ParallelPointEvaluator`; what changes
    is the concurrency contract.  :meth:`evaluate_point` runs both steps
    under the state lock and the tool run between them without it, on a
    thread-local tool evaluator, so distinct configurations evaluate in
    parallel while the shared state stays single-writer.

    Identical configurations must not race through the fresh path — the
    caller (the scheduler's single-flight table, keyed on exactly this
    member's memo key) guarantees at most one in-flight evaluation per
    key.  The inherited serial ``evaluate_many`` path remains available
    for callers that hold the member lock (the legacy convoy mode and
    incremental specs).
    """

    def __init__(self, spec: EvaluatorSpec, store: Any = None) -> None:
        super().__init__(spec=spec, workers=0, store=store)
        # Guards memo/counters/gate/identity caches and the store handle.
        # Held only for bookkeeping — never across a tool run or its
        # emulated latency sleep.
        self._state_lock = threading.Lock()
        self._tool_local = threading.local()

    def _tool_evaluator(self) -> Any:
        evaluator = getattr(self._tool_local, "evaluator", None)
        if evaluator is None:
            evaluator = self.spec.build()
            self._tool_local.evaluator = evaluator
        return evaluator

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
        # The tool run happens outside the lock: parallelism across
        # distinct configurations is the whole point, and the emulated
        # tool latency must block only this pool thread.
        result = run_tool(
            self._tool_evaluator(), params, latency=self.spec.emulate_tool_latency
        )
        with self._state_lock:
            self._commit(key, params, result)
        return result, "tool"


class EvaluatorFleet:
    """One shared evaluator (plus legacy serial lock) per spec."""

    def __init__(
        self,
        store_root: str | None = None,
        shards: int = 8,
        single_flight: bool = True,
    ) -> None:
        self.store_root = store_root
        self.shards = shards
        #: When False every facade uses the legacy per-spec-lock convoy —
        #: the uncoalesced reference mode throughput benchmarks compare
        #: against.  Incremental specs use it regardless.
        self.single_flight = single_flight
        self._lock = threading.Lock()
        self._members: dict[EvaluatorSpec, _ConcurrentMember] = {}
        self._member_locks: dict[EvaluatorSpec, threading.Lock] = {}

    def _member(
        self, spec: EvaluatorSpec
    ) -> tuple[_ConcurrentMember, threading.Lock]:
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
                evaluator = _ConcurrentMember(spec, store=store)
                self._members[spec] = evaluator
                self._member_locks[spec] = threading.Lock()
            return evaluator, self._member_locks[spec]

    def bind(
        self, scheduler: FairScheduler, job_id: str, spec: EvaluatorSpec
    ) -> "SchedulerBoundEvaluator":
        """The facade a job's session plugs into its fitness."""
        evaluator, lock = self._member(spec)
        single_flight = self.single_flight and not spec.incremental
        return SchedulerBoundEvaluator(
            scheduler, job_id, evaluator, lock, single_flight=single_flight
        )

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
            self._member_locks.clear()
        for member in members:
            member.close()


class ScheduledBatch:
    """Pending results of one ``submit_many`` through the scheduler.

    Duck-types the :class:`~repro.core.parallel.PendingBatch` surface the
    fitness layer consumes (``done()`` / ``results(on_error)``); results
    come back in request order regardless of scheduler interleaving.  A
    cancelled job's pending points surface as the
    :class:`~repro.serve.scheduler.JobCancelledError` their futures
    carry.
    """

    def __init__(self, futures: Sequence[Future[Any]]) -> None:
        self._futures = list(futures)

    def __len__(self) -> int:
        return len(self._futures)

    def done(self) -> bool:
        return all(f.done() for f in self._futures)

    def results(self, on_error: str = "raise") -> list[Any]:
        if on_error not in ("raise", "return"):
            raise ValueError(
                f"on_error must be 'raise' or 'return', got {on_error!r}"
            )
        out: list[Any] = []
        for future in self._futures:
            result = future.result()
            if on_error == "raise" and isinstance(result, EvaluationFailure):
                raise RemoteEvaluationError(result.original_type, result.message)
            out.append(result)
        return out


class SchedulerBoundEvaluator:
    """``ParallelPointEvaluator``-shaped facade over (scheduler, job, member).

    Owned by the server — ``close()`` here only detaches; the member
    evaluator and its memo live on for the next tenant.

    In single-flight mode (the default for non-incremental specs) each
    point is submitted under its evaluation cache key: concurrent
    duplicates across tenants coalesce onto one executor slot, and this
    tenant's copy of a run another lane paid for comes back cache-priced
    with a ``coalesced`` ledger origin.  With ``single_flight=False`` the
    facade reproduces the legacy convoy: every evaluation on the spec
    serializes behind the member lock.
    """

    def __init__(
        self,
        scheduler: FairScheduler,
        job_id: str,
        member: _ConcurrentMember,
        member_lock: threading.Lock,
        single_flight: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.job_id = job_id
        self.single_flight = single_flight
        self._member = member
        self._member_lock = member_lock
        # Per-tenant attribution (the member's own counters are shared
        # across every job on the spec): what *this* job's requests cost.
        # Bumped from executor threads and the scheduler loop thread.
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
            if self.single_flight:
                futures.append(
                    self.scheduler.submit(
                        self.job_id,
                        self._one_concurrent(params),
                        key=(id(self._member), freeze_params(params)),
                        transform=self._coalesced(params),
                    )
                )
            else:
                futures.append(
                    self.scheduler.submit(self.job_id, self._one(params))
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

    def _one_concurrent(self, params: dict[str, int]) -> Callable[[], Any]:
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

    def _one(self, params: dict[str, int]) -> Callable[[], Any]:
        def run() -> Any:
            # Legacy convoy mode: the member's memo/in-flight/tool state
            # is treated as single-threaded, so the mutex serializes
            # every tenant sharing the spec — the first tenant's run is
            # the second tenant's memo hit, one evaluation at a time.
            with self._member_lock:
                before = self._member.dispatched
                result = self._member.evaluate_many([params], on_error="return")[0]
                self._tally(result, fresh=self._member.dispatched > before)
                return result

        return run

    def evaluate_many(
        self, points: Sequence[Mapping[str, int]], on_error: str = "raise"
    ) -> list[Any]:
        return self.submit_many(points).results(on_error)

    @property
    def memo(self) -> dict[str, Any]:
        return self._member.memo

    @property
    def store_hits(self) -> int:
        return self._member.store_hits

    @property
    def memo_hits(self) -> int:
        return self._member.memo_hits

    @property
    def dispatched(self) -> int:
        return self._member.dispatched

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
