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
shared tool session answers a repeated run from its result cache.  An
*in-flight* table extends the same guarantee across overlapping batches:
a configuration submitted by one batch and re-requested by another before
it completes is never dispatched a second time — the later batch waits on
the same future.

Batches are scheduled out of order: :meth:`ParallelPointEvaluator.submit_many`
returns a :class:`PendingBatch` immediately, so callers can pipeline
several batches into the pool and let workers drain them without
per-batch barriers.  Completion order only affects commutative telemetry
(spans, counters); per-point ledger records are buffered and committed in
submission order by the batch that dispatched them, and
:meth:`PendingBatch.results` returns points in request order — the
schedule is invisible in every output.

Before dispatch the parent runs each fresh configuration through the
DRC gate and, when a persistent :class:`~repro.cache.ResultStore` is
attached, the store (a hit is adopted as a cache-priced answer, ledger
``origin="store"``); every tool-produced result/failure is appended
after completion, so later *processes* — not just later batches —
replay instead of re-running the tool.  The steps themselves live in
:mod:`repro.core.pipeline`, shared with the serial fitness path and the
serve fleet.

Workers are initialized once with a picklable :class:`EvaluatorSpec` and
rebuild their own evaluator; built-in case-study designs are re-registered
by name inside each worker so architectural models exist under ``spawn``
start methods too.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
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
    replay,
    run_tool,
)
from repro.observe import current_telemetry, enable_telemetry

__all__ = [
    "EvaluatorSpec",
    "EvaluationFailure",
    "ParallelPointEvaluator",
    "PendingBatch",
    "RemoteEvaluationError",
]


# Per-worker evaluator (module globals: one build per worker process).
_WORKER: PointEvaluator | None = None
_INIT_CALLS = 0
_WORKER_LATENCY = 0.0


def _init_worker(spec: EvaluatorSpec, telemetry_enabled: bool = False) -> None:
    global _WORKER, _INIT_CALLS, _WORKER_LATENCY
    _INIT_CALLS += 1
    if telemetry_enabled:
        # The worker keeps a local bundle; every task drains it into the
        # result tuple so the parent can merge spans/records/counters.
        enable_telemetry()
    _WORKER = spec.build()
    _WORKER_LATENCY = max(0.0, float(spec.emulate_tool_latency))


def _evaluate_one_safe(params: dict[str, int]) -> tuple[Answer, dict | None]:
    assert _WORKER is not None, "worker not initialized"
    # The sleep blocks only this worker process, so the schedule — not
    # the host's core count — sets the wall clock.
    result = run_tool(_WORKER, params, latency=_WORKER_LATENCY)
    tel = current_telemetry()
    return result, tel.drain_delta() if tel is not None else None


def _worker_probe(_: int) -> tuple[int, int]:
    """Debug task: (pid, initializer-call count) for the executing worker."""
    return os.getpid(), _INIT_CALLS


@dataclass
class PendingBatch:
    """A batch accepted by :meth:`ParallelPointEvaluator.submit_many`.

    Holds the request order of its points plus the set of configurations
    this batch *owns* (it caused their dispatch).  :meth:`results` blocks
    until every point is resolved, commits the owned ledger records in
    submission order, and returns results in request order.  A batch must
    be collected exactly once; dropping one on the floor leaves its owned
    ledger records buffered on the evaluator.
    """

    _evaluator: "ParallelPointEvaluator"
    _points: list[dict[str, int]]
    _keys: list[tuple]
    _first_occurrence: dict[tuple, int]
    _owned_keys: list[tuple]
    _collected: bool = field(default=False, init=False)

    def __len__(self) -> int:
        return len(self._points)

    def done(self) -> bool:
        """True when no point of this batch is still running in a worker."""
        inflight = self._evaluator._inflight
        return all(
            key not in inflight or inflight[key].done() for key in self._keys
        )

    def results(self, on_error: str = "raise") -> list[Answer]:
        """Block until the batch is resolved; return results in request order.

        ``on_error="raise"`` re-raises the first failed point's error (as
        a :class:`RemoteEvaluationError`); ``on_error="return"`` yields an
        :class:`EvaluationFailure` in that point's slot instead.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        if self._collected:
            raise RuntimeError("PendingBatch.results() may only be consumed once")
        ev = self._evaluator
        tel = current_telemetry()
        ev._settle(self._keys)
        # Commit the worker ledger records this batch dispatched in
        # submission order — completion order stays invisible in the trace.
        for key in self._owned_keys:
            records = ev._owned_records.pop(key, None)
            if records and tel is not None:
                tel.ledger.extend_from(records, origin="worker")
        self._collected = True

        results: list[Answer] = []
        for i, key in enumerate(self._keys):
            result = ev.memo[key]
            if self._first_occurrence.get(key) != i:
                ev.memo_hits += 1
                result = replay(self._points[i], result, "memo")
            if isinstance(result, EvaluationFailure) and on_error == "raise":
                raise result.to_error()
            results.append(result)
        return results


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
    results are order-dependent).  ``gate`` is the DRC pre-flight gate
    consulted before dispatch; a fitness hands over its own (space-aware,
    optionally netlist-staged) gate, and without one a gate is built
    from the spec on first use.  ``dispatched``/``memo_hits``/
    ``store_hits`` count the split for perf reporting.
    """

    spec: EvaluatorSpec
    workers: int = 0
    start_method: str | None = None
    store: ResultStore | None = None
    gate: PreflightGate | None = None
    _serial: PointEvaluator | None = field(default=None, init=False, repr=False)
    _pool: ProcessPoolExecutor | None = field(default=None, init=False, repr=False)
    memo: dict[tuple, Answer] = field(default_factory=dict, init=False, repr=False)
    dispatched: int = field(default=0, init=False)
    memo_hits: int = field(default=0, init=False)
    drc_rejections: int = field(default=0, init=False)
    store_hits: int = field(default=0, init=False)
    store_puts: int = field(default=0, init=False)
    _point_store: PointStore = field(init=False, repr=False)
    _inflight: dict[tuple, Future] = field(
        default_factory=dict, init=False, repr=False
    )
    _inflight_params: dict[tuple, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _owned_records: dict[tuple, list] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self._point_store = PointStore(self.store, self.spec)

    # -- lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            )
            # Telemetry enablement is frozen at pool creation: workers
            # started with it off never collect (so a later enable in the
            # parent sees no worker records until the pool is rebuilt).
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self.spec, current_telemetry() is not None),
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

    def _pre_dispatch(
        self, key: tuple, params: dict[str, int]
    ) -> tuple[Answer, str] | None:
        """Memo → DRC gate → store: ``(answer, origin)``, or None to dispatch.

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
        violation = self._preflight().violation(params)
        if violation is not None:
            failure = EvaluationFailure(type(violation).__name__, str(violation))
            self.memo[key] = failure
            self.drc_rejections += 1
            # Pre-dispatch rejects never reach a tool, so this step owns
            # their ledger record.
            tel = current_telemetry()
            if tel is not None:
                tel.ledger.append(
                    params=params, outcome="drc", charge=0.0,
                    error_type=failure.original_type, origin="pool",
                )
            return failure, "drc"
        record = self._point_store.lookup(params)
        if record is not None:
            self.store_hits += 1
            answer = self.memo[key] = self._point_store.adopt(params, record)
            return answer, "store"
        self.dispatched += 1
        return None

    def _commit(self, key: tuple, params: dict[str, int], result: Answer) -> None:
        """Memoize a tool answer and append it to the persistent store."""
        self.memo[key] = result
        if self._point_store.put(params, result):
            self.store_puts += 1

    # -- scheduling -----------------------------------------------------

    def submit_many(self, points: Sequence[Mapping[str, int]]) -> PendingBatch:
        """Accept a batch for evaluation; returns without waiting.

        Fresh configurations go through :meth:`_pre_dispatch` in the
        parent, then to the pool (or inline when ``workers <= 1``).
        Configurations already memoized — or already in flight from an
        earlier batch — are never re-dispatched; their replays are
        recorded when the batch is collected.  Collect with
        :meth:`PendingBatch.results`.
        """
        pts = [{k: int(v) for k, v in p.items()} for p in points]
        keys = [freeze_params(p) for p in pts]
        fresh: dict[tuple, dict[str, int]] = {}
        first_occurrence: dict[tuple, int] = {}
        for i, (key, p) in enumerate(zip(keys, pts)):
            if key in self.memo or key in self._inflight or key in fresh:
                continue
            first_occurrence[key] = i
            if self._pre_dispatch(key, p) is None:
                fresh[key] = p

        if fresh and self.workers <= 1:
            if self._serial is None:
                self._serial = self.spec.build()
            for key, params in fresh.items():
                # The in-process evaluator records its own ledger entries
                # (it sees the parent's telemetry bundle).
                result = run_tool(
                    self._serial, params, latency=self.spec.emulate_tool_latency
                )
                self._commit(key, params, result)
        elif fresh:
            pool = self._ensure_pool()
            for key, params in fresh.items():
                self._inflight[key] = pool.submit(_evaluate_one_safe, params)
                self._inflight_params[key] = params
        return PendingBatch(self, pts, keys, first_occurrence, list(fresh))

    def _settle(self, keys: Sequence[tuple]) -> None:
        """Wait for any of *keys* still in flight, absorbing completions.

        Futures are absorbed in completion order — spans and counters
        merge immediately (they are commutative accumulations), while
        ledger records are buffered per key for the owning batch to
        commit in submission order.
        """
        waiting: dict[Future, tuple] = {}
        for key in keys:
            fut = self._inflight.get(key)
            if fut is not None:
                waiting.setdefault(fut, key)
        tel = current_telemetry()
        for fut in as_completed(waiting):
            key = waiting[fut]
            if self._inflight.get(key) is not fut:
                continue  # another batch's settle absorbed it first
            result, delta = fut.result()
            del self._inflight[key]
            params = self._inflight_params.pop(key)
            if delta is not None:
                records = delta.pop("records", ())
                if records:
                    self._owned_records[key] = list(records)
                if tel is not None:
                    tel.merge_delta(delta, origin="worker")
            self._commit(key, params, result)

    def evaluate_many(
        self,
        points: Sequence[Mapping[str, int]],
        on_error: str = "raise",
    ) -> list[Answer]:
        """Evaluate a batch, reusing the pool and the cross-batch memo.

        Equivalent to ``submit_many(points).results(on_error)`` — one
        batch submitted and collected with nothing overlapping it.

        ``on_error="raise"`` re-raises the first worker-side
        :class:`ReproError` (as a :class:`RemoteEvaluationError`);
        ``on_error="return"`` yields an :class:`EvaluationFailure` in that
        point's slot instead, so callers can apply their own penalty
        policy without losing the rest of the batch.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        return self.submit_many(points).results(on_error)

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
