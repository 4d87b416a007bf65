"""Parallel batch evaluation of design points.

Real Dovado runs are embarrassingly parallel across design points — each
Vivado invocation is an independent subprocess — and VEDA inherits that
structure: a run is a pure function of (source, top, part, directives,
parameters, seed), so evaluating a batch across worker processes is
*bitwise equivalent* to the serial loop.  The QoR noise being keyed on run
content (not on generator state) is what makes this safe; see
:mod:`repro.util.rng`.

Every fan-out runs on one :class:`WorkerPool`, with one crash policy.
A pool forks its workers when it is built, on the caller's thread: a
:class:`ParallelPointEvaluator` builds its own on its first fan-out
batch (a DSE session's, on the session's thread), and the serve fleet
builds one before the server starts any thread.  Workers live as long
as their pool, so per-worker tool caches stay warm across NSGA-II
generations.  A pool that breaks (a worker killed mid-run) is replaced
through a fork server, never by forking a process that may run
threads, and the lost batch runs there once more; a second loss raises.

A cross-batch memo table guarantees a configuration is never dispatched
twice: repeats — within one batch or in a later generation — replay the
memoized metrics as cache-priced answers (``source="cache"``, zero
simulated seconds), exactly what the serial reference produces when the
shared tool session answers a repeated run from its result cache.

One batch runs at a time, matching the generational search that drives
it: :meth:`ParallelPointEvaluator.evaluate_many` dispatches a batch and
waits for all of it before returning.  Workers finish in any order, but
their ledger records, spans and counters are merged — and their answers
memoized — in first-occurrence order once every run is back, and
results come back in request order, so the schedule is invisible in
every output.  A batch that raises commits nothing.

Before dispatch the parent runs each fresh configuration through the
DRC gate and, when a persistent :class:`~repro.cache.ResultStore` is
attached, the store (a hit is adopted as a cache-priced answer, ledger
``origin="store"``); every tool-produced result/failure is appended
after completion, so later *processes* — not just later batches —
replay instead of re-running the tool.  The steps themselves live in
:mod:`repro.core.pipeline`, shared with the serial fitness path and the
serve fleet.  Workers trust that verdict: they run each point without
a DRC check of their own.

Every task names its picklable :class:`EvaluatorSpec`, and a worker
builds one evaluator per spec on first use (:func:`run_point`, the one
worker entry point); built-in case-study designs are re-registered by
name, so a replacement pool's workers, which start without the parent's
state, have their architectural models too.  A worker exits when its
parent process dies.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import InitVar, dataclass, field
from typing import ClassVar, Mapping, Sequence

from repro.analysis.gate import PreflightGate, freeze_params
from repro.cache import ResultStore
from repro.core.evaluate import PointEvaluator
from repro.core.pipeline import (
    Answer,
    EvaluationFailure,
    EvaluatorSpec,
    PointStore,
    RemoteEvaluationError,
    consult,
    replay,
    run_tool,
    settle,
)
from repro.observe import current_telemetry, disable_telemetry, enable_telemetry

__all__ = [
    "EvaluatorSpec",
    "EvaluationFailure",
    "ParallelPointEvaluator",
    "RemoteEvaluationError",
    "WorkerPool",
    "run_point",
]


# Worker-process state (module globals, one copy per worker process).
_EVALUATORS: OrderedDict[EvaluatorSpec, PointEvaluator] = OrderedDict()
#: Evaluators one worker keeps, least recently used evicted first: a
#: served worker runs points of many specs, each evaluator holding its
#: parsed design and its tool session's caches.
_MAX_EVALUATORS = 8


def _watch_parent(parent: int) -> None:
    """Exit once the process that started this worker is gone.

    A pool worker blocks on its task queue, whose write end a forked
    worker holds itself, so a killed parent never wakes it; the
    parent's death shows only as the worker being re-parented.
    """
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def _init_worker() -> None:
    """Pool initializer: drop state a forked worker inherited."""
    _EVALUATORS.clear()
    # A forked worker holds a copy of the parent's bundle; each task
    # says whether to collect (see :func:`run_point`).
    disable_telemetry()
    # A terminal's Ctrl-C reaches the whole process group; the parent
    # decides what it means (a server drains, on its workers).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_watch_parent, args=(os.getppid(),), name="watch-parent", daemon=True
    ).start()


def _evaluator(spec: EvaluatorSpec) -> PointEvaluator:
    evaluator = _EVALUATORS.pop(spec, None)
    if evaluator is None:
        evaluator = spec.build()
        while len(_EVALUATORS) >= _MAX_EVALUATORS:
            _EVALUATORS.popitem(last=False)
    _EVALUATORS[spec] = evaluator
    return evaluator


def run_point(
    spec: EvaluatorSpec, params: dict[str, int], latency: float, telemetry: bool
) -> tuple[Answer, dict | None]:
    """The worker entry point: one tool run and the telemetry it made.

    Whether to collect travels with the task, so a pool that outlives
    one telemetry session follows the next.  The point was checked by
    the layer that dispatched it, so the worker's evaluator for ``spec``
    runs it unchecked and writes the run's ledger row; the row comes
    back in the delta.
    """
    tel = current_telemetry()
    if telemetry and tel is None:
        tel = enable_telemetry()
    elif not telemetry and tel is not None:
        disable_telemetry()
        tel = None
    # The sleep blocks only this worker process, so the schedule — not
    # the host's core count — sets the wall clock.
    result = run_tool(_evaluator(spec), params, latency=latency)
    return result, tel.drain_delta() if tel is not None else None


class WorkerPool:
    """Worker processes for tool runs, with one crash policy.

    The ``workers`` processes are forked here, on the caller's thread,
    so build a pool before starting any thread.  A pool that breaks is
    replaced through a fork server (the ``serve.pool_restarts``
    counter), and :meth:`run` runs a batch that lost a run there once
    more.  Safe to share between threads; :meth:`close` stops the
    workers.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._lock = threading.Lock()
        self._closed = False
        self._executor: ProcessPoolExecutor | None = self._start("fork")

    def _start(self, method: str) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
        )
        # The first submit starts every worker at once (a forking pool
        # starts them all), here on the caller's thread.
        executor.submit(int)
        return executor

    def _current(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("the worker pool is closed")
            if self._executor is None:
                # The caller may be running threads by now: start the
                # replacement through a fork server, never by forking.
                self._executor = self._start("forkserver")
            return self._executor

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._executor is not executor:
                return  # another run already replaced it
            self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)
        tel = current_telemetry()
        if tel is not None:
            tel.counters.inc("serve.pool_restarts")

    def _attempt(self, tasks: list[tuple]) -> list[tuple[Answer, dict | None]]:
        executor = self._current()
        try:
            futures = [executor.submit(run_point, *task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard(executor)
            raise

    def run(
        self, spec: EvaluatorSpec, points: Sequence[dict[str, int]], origin: str | None
    ) -> list[Answer]:
        """One tool run per point on the workers; answers in point order.

        Once every run is back, each one's telemetry lands in this
        process, in point order; ``origin`` (when not None) overrides
        the origin of the ledger rows the workers wrote.  A batch that
        loses a run to a broken pool runs again once on a fresh pool (a
        tool run is a pure function of spec and point); a second loss
        raises :class:`BrokenProcessPool`.
        """
        tel = current_telemetry()
        tasks = [(spec, p, spec.emulate_tool_latency, tel is not None) for p in points]
        try:
            done = self._attempt(tasks)
        except BrokenProcessPool:
            done = self._attempt(tasks)
        answers = []
        for answer, delta in done:
            if delta is not None and tel is not None:
                tel.merge_delta(delta, origin=origin)
            answers.append(answer)
        return answers

    def close(self) -> None:
        """Stop the workers (idempotent); later runs raise."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


@dataclass
class ParallelPointEvaluator:
    """Fan batches of configurations over a persistent worker pool.

    With ``workers=0`` (or 1) and no ``pool``, batches run serially
    in-process — the reference behaviour parallel runs must reproduce
    exactly.  ``workers > 1`` forks a :class:`WorkerPool` of this
    evaluator's own on the first batch with a point to dispatch; it is
    reused for every later batch, and ``close()`` / ``with`` stops it.
    ``pool`` hands over a pool the caller owns (the serve fleet's):
    every fresh point runs there, and ``close()`` leaves it running.

    ``memo`` is the cross-batch memo table keyed on the frozen parameter
    binding: first occurrences are dispatched, repeats replay the stored
    result as a cache-priced answer.  ``store`` optionally plugs in the
    persistent cross-process result store, consulted before dispatch and
    appended after every tool run (disabled for incremental specs, whose
    results are order-dependent; such a spec also refuses ``workers > 1``).
    ``gate`` is the DRC pre-flight gate consulted before dispatch; a
    fitness or a sweep hands over its own, and without one a gate is
    built from the spec on first use.  ``evaluator`` is the in-process
    evaluator (``workers <= 1``); a caller hands over its own so no
    second one is built, and its gate is the default ``gate``.
    ``dispatched``/``memo_hits``/``store_hits`` count the split for perf
    reporting.
    """

    #: The origin a worker's ledger rows take when they come home; None
    #: keeps the one the worker's evaluator wrote.
    worker_origin: ClassVar[str | None] = "worker"

    spec: EvaluatorSpec
    workers: int = 0
    pool: InitVar[WorkerPool | None] = None
    store: ResultStore | None = None
    gate: PreflightGate | None = None
    evaluator: InitVar[PointEvaluator | None] = None
    _serial: PointEvaluator | None = field(default=None, init=False, repr=False)
    _pool: WorkerPool | None = field(default=None, init=False, repr=False)
    _owns_pool: bool = field(default=True, init=False, repr=False)
    memo: dict[tuple, Answer] = field(default_factory=dict, init=False, repr=False)
    dispatched: int = field(default=0, init=False)
    memo_hits: int = field(default=0, init=False)
    drc_rejections: int = field(default=0, init=False)
    store_hits: int = field(default=0, init=False)
    store_puts: int = field(default=0, init=False)
    _point_store: PointStore = field(init=False, repr=False)

    def __post_init__(
        self, pool: WorkerPool | None, evaluator: PointEvaluator | None
    ) -> None:
        if self.spec.incremental and self.workers > 1:
            raise ValueError(
                "incremental specs cannot fan out over worker processes: "
                "each worker's session warm-starts from its own checkpoints, "
                "so results would depend on which worker ran which point"
            )
        self._point_store = PointStore(self.store, self.spec)
        if pool is not None:
            self._pool, self._owns_pool = pool, False
        self._serial = evaluator
        if evaluator is not None and self.gate is None:
            self.gate = evaluator.gate

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop this evaluator's own workers (idempotent; memo survives)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelPointEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the shared resolution steps --------------------------------------

    def _preflight(self) -> PreflightGate:
        """The DRC gate, built from the spec when none was handed over."""
        if self.gate is None:
            from repro.hdl.ast import HdlLanguage
            from repro.hdl.frontend import parse_source

            modules = parse_source(self.spec.source, HdlLanguage(self.spec.language))
            matches = [m for m in modules if m.name.lower() == self.spec.top.lower()]
            if not matches:
                raise LookupError(f"top {self.spec.top!r} not found in spec source")
            self.gate = PreflightGate(
                matches[0], boxed=self.spec.boxed, clock_port=self.spec.clock_port
            )
        return self.gate

    def _pre_dispatch(
        self, key: tuple, params: dict[str, int]
    ) -> tuple[Answer, str] | None:
        """Memo, then :func:`consult`: ``(answer, origin)``, or None to dispatch.

        ``origin`` says who answered: ``"memo"`` (a zero-charge replay),
        ``"drc"`` (a pre-flight rejection; the message is byte-identical
        to the error the evaluator's own gate raises) or ``"store"`` (a
        prior process's run adopted cache-priced).  Gate and store
        answers are memoized, so repeats replay without re-checking.
        """
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return replay(params, hit, "memo"), "memo"
        found = consult(self._preflight(), self._point_store, params, origin="pool")
        if found is None:
            self.dispatched += 1
            return None
        answer, record = found
        self.memo[key] = answer
        if record is None:
            self.drc_rejections += 1
            return answer, "drc"
        self.store_hits += 1
        return answer, "store"

    def _run(self, points: list[dict[str, int]]) -> list[Answer]:
        """Tool answers for checked points: on the workers, or in-process.

        All of them come back before the caller commits any, so a batch
        whose pool breaks twice raises and leaves no trace.
        """
        if self._pool is None and self.workers > 1:
            self._pool = WorkerPool(self.workers)
        if self._pool is not None:
            return self._pool.run(self.spec, points, self.worker_origin)
        if self._serial is None:
            self._serial = self.spec.build()
        # The in-process evaluator records its own ledger rows (it sees
        # the parent's telemetry bundle).
        latency = self.spec.emulate_tool_latency
        return [run_tool(self._serial, p, latency=latency) for p in points]

    def _commit(self, key: tuple, params: dict[str, int], result: Answer) -> None:
        """Memoize a tool answer and append it to the persistent store."""
        self.memo[key] = result
        if self._point_store.put(params, result):
            self.store_puts += 1

    # -- scheduling -----------------------------------------------------

    def evaluate_many(
        self,
        points: Sequence[Mapping[str, int]],
        on_error: str = "raise",
    ) -> list[Answer]:
        """Evaluate a batch, reusing the pool and the cross-batch memo.

        Each configuration the memo does not hold goes once through
        :meth:`_pre_dispatch` in the parent; the ones left to dispatch
        run through :meth:`_run` and are committed in first-occurrence
        order.  Results come back in request order, repeats replayed
        from the memo.

        ``on_error="raise"`` re-raises the first worker-side
        :class:`ReproError` (as a :class:`RemoteEvaluationError`);
        ``on_error="return"`` yields an :class:`EvaluationFailure` in that
        point's slot instead, so callers can apply their own penalty
        policy without losing the rest of the batch.
        """
        finish = settle(on_error)
        pts = [{k: int(v) for k, v in p.items()} for p in points]
        keys = [freeze_params(p) for p in pts]
        fresh: dict[tuple, dict[str, int]] = {}
        first_occurrence: dict[tuple, int] = {}
        for i, (key, p) in enumerate(zip(keys, pts)):
            if key in self.memo or key in fresh:
                continue
            first_occurrence[key] = i
            if self._pre_dispatch(key, p) is None:
                fresh[key] = p

        if fresh:
            results = self._run(list(fresh.values()))
            for (key, params), result in zip(fresh.items(), results):
                self._commit(key, params, result)

        def in_request_order():
            for i, key in enumerate(keys):
                result = self.memo[key]
                if first_occurrence.get(key) != i:
                    self.memo_hits += 1
                    result = replay(pts[i], result, "memo")
                yield result

        return finish(in_request_order())
