"""Parallel batch evaluation of design points.

Real Dovado runs are embarrassingly parallel across design points — each
Vivado invocation is an independent subprocess — and VEDA inherits that
structure: a run is a pure function of (source, top, part, directives,
parameters, seed), so evaluating a batch across worker processes is
*bitwise equivalent* to the serial loop.  The QoR noise being keyed on run
content (not on generator state) is what makes this safe; see
:mod:`repro.util.rng`.

The evaluator is built for *reuse across batches*: the process pool starts
lazily on the first multi-worker batch and then stays alive for the
evaluator's lifetime, so each worker parses the evaluator spec and builds
its :class:`~repro.core.evaluate.PointEvaluator` exactly once — per-worker
tool caches stay warm across NSGA-II generations instead of being thrown
away per batch.  Call :meth:`ParallelPointEvaluator.close` (or use the
evaluator as a context manager) to shut the pool down.

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
every output.  A batch whose pool breaks (a worker killed mid-run)
raises and commits nothing, and the broken pool is dropped: the next
call dispatches the same points afresh to a new pool.

Before dispatch the parent runs each fresh configuration through the
DRC gate and, when a persistent :class:`~repro.cache.ResultStore` is
attached, the store (a hit is adopted as a cache-priced answer, ledger
``origin="store"``); every tool-produced result/failure is appended
after completion, so later *processes* — not just later batches —
replay instead of re-running the tool.  The steps themselves live in
:mod:`repro.core.pipeline`, shared with the serial fitness path and the
serve fleet.

Every task names its picklable :class:`EvaluatorSpec`, and a worker
builds one evaluator per spec on first use (:func:`run_point`, the one
worker entry point, shared with the serve fleet's pool); built-in
case-study designs are re-registered by name inside each worker so
architectural models exist under ``spawn`` start methods too.  A worker
exits when its parent process dies.
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
from typing import Mapping, Sequence

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
    "init_worker",
    "run_point",
]


# Worker-process state (module globals, one copy per worker process).
_EVALUATORS: OrderedDict[EvaluatorSpec, PointEvaluator] = OrderedDict()
#: Evaluators one worker keeps, least recently used evicted first: a
#: served worker runs points of many specs, each evaluator holding its
#: parsed design and its tool session's caches.
_MAX_EVALUATORS = 8
_INIT_CALLS = 0


def _watch_parent(parent: int) -> None:
    """Exit once the process that started this worker is gone.

    A pool worker blocks on its task queue, whose write end a forked
    worker holds itself, so a killed parent never wakes it; the
    parent's death shows only as the worker being re-parented.
    """
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def init_worker() -> None:
    """Pool initializer: drop state a forked worker inherited."""
    global _INIT_CALLS
    _INIT_CALLS += 1
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
    one telemetry session follows the next.  The worker's evaluator for
    ``spec`` checks the point on its own DRC gate and writes the run's
    ledger row; the row comes back in the delta.
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


def _worker_probe(_: int) -> tuple[int, int]:
    """Debug task: (pid, initializer-call count) for the executing worker."""
    return os.getpid(), _INIT_CALLS


@dataclass
class ParallelPointEvaluator:
    """Fan batches of configurations over a persistent process pool.

    With ``workers=0`` (or 1) batches run serially in-process — the
    reference behaviour parallel runs must reproduce exactly.  The pool
    (and the serial fallback evaluator) is created lazily and reused for
    every subsequent batch; ``close()`` / ``with`` releases it.

    ``memo`` is the cross-batch memo table keyed on the frozen parameter
    binding: first occurrences are dispatched, repeats replay the stored
    result as a cache-priced answer.  ``store`` optionally plugs in the
    persistent cross-process result store, consulted before dispatch and
    appended after every tool run (disabled for incremental specs, whose
    results are order-dependent; such a spec also refuses ``workers > 1``).
    ``gate`` is the DRC pre-flight gate consulted before dispatch, and
    the in-process evaluator checks with it; a fitness or a sweep hands
    over its own, and without one a gate is built from the spec on first
    use.  ``evaluator`` is the in-process evaluator (``workers <= 1``);
    a caller hands over its own so no second one is built, and its gate
    is the default ``gate``.  ``dispatched``/``memo_hits``/
    ``store_hits`` count the split for perf reporting.
    """

    spec: EvaluatorSpec
    workers: int = 0
    start_method: str | None = None
    store: ResultStore | None = None
    gate: PreflightGate | None = None
    evaluator: InitVar[PointEvaluator | None] = None
    _serial: PointEvaluator | None = field(default=None, init=False, repr=False)
    _pool: ProcessPoolExecutor | None = field(default=None, init=False, repr=False)
    memo: dict[tuple, Answer] = field(default_factory=dict, init=False, repr=False)
    dispatched: int = field(default=0, init=False)
    memo_hits: int = field(default=0, init=False)
    drc_rejections: int = field(default=0, init=False)
    store_hits: int = field(default=0, init=False)
    store_puts: int = field(default=0, init=False)
    _point_store: PointStore = field(init=False, repr=False)

    def __post_init__(self, evaluator: PointEvaluator | None) -> None:
        if self.spec.incremental and self.workers > 1:
            raise ValueError(
                "incremental specs cannot fan out over worker processes: "
                "each worker's session warm-starts from its own checkpoints, "
                "so results would depend on which worker ran which point"
            )
        self._point_store = PointStore(self.store, self.spec)
        self._serial = evaluator
        if evaluator is not None and self.gate is None:
            self.gate = evaluator.gate

    # -- lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=init_worker,
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; memo table survives)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelPointEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass

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

    def _tool_evaluator(self) -> PointEvaluator:
        """The in-process evaluator (built once unless handed over),
        checking with this gate."""
        if self._serial is None:
            self._serial = self.spec.build()
            self._serial.gate = self._preflight()
        return self._serial

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
        run on the pool (or inline when ``workers <= 1``) and are
        committed in first-occurrence order.  Results come back in
        request order, repeats replayed from the memo.

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

        if fresh and self.workers <= 1:
            for key, params in fresh.items():
                # The in-process evaluator records its own ledger entries
                # (it sees the parent's telemetry bundle).
                result = run_tool(
                    self._tool_evaluator(), params, latency=self.spec.emulate_tool_latency
                )
                self._commit(key, params, result)
        elif fresh:
            pool = self._ensure_pool()
            tel = current_telemetry()
            latency = self.spec.emulate_tool_latency
            futures = [
                pool.submit(run_point, self.spec, p, latency, tel is not None)
                for p in fresh.values()
            ]
            # Every run must come back before any is committed: a broken
            # pool raises here and leaves no trace of the batch.
            try:
                answers = [future.result() for future in futures]
            except BrokenProcessPool:
                # A dead worker breaks the executor for good; drop it so
                # the next call starts a fresh pool.
                pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                raise
            for (key, params), (result, delta) in zip(fresh.items(), answers):
                if delta is not None and tel is not None:
                    tel.merge_delta(delta, origin="worker")
                self._commit(key, params, result)

        def in_request_order():
            for i, key in enumerate(keys):
                result = self.memo[key]
                if first_occurrence.get(key) != i:
                    self.memo_hits += 1
                    result = replay(pts[i], result, "memo")
                yield result

        return finish(in_request_order())

    # -- introspection --------------------------------------------------

    def worker_probes(self, samples: int | None = None) -> list[tuple[int, int]]:
        """(pid, initializer-call count) reported by pool workers.

        Dispatches ``samples`` probe tasks (default ``4 × workers``, with
        a floor of 4 so even one-worker pools get several probes); task
        placement is up to the pool, so probes may not cover every worker,
        but any worker that answers reports how often it was initialized.
        Returns an empty list when no pool has been started.
        """
        if self._pool is None:
            return []
        n = samples if samples is not None else max(4, self.workers * 4)
        return list(self._pool.map(_worker_probe, range(n)))
