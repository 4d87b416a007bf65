"""The shared steps that resolve one design point, written once.

Every evaluator layer — the serial :class:`~repro.core.fitness.
ApproximateFitness` path, the :class:`~repro.core.parallel.
ParallelPointEvaluator` parent and its pool workers, and the serve
fleet member — answers a point by the same steps, each with one owner
here:

- :class:`EvaluatorSpec` describes the evaluator, picklably; its
  :meth:`~EvaluatorSpec.identity` is the store namespace.
- :class:`PointStore` consults the persistent store, adopts a record as
  a cache-priced answer with its ``origin="store"`` ledger row, and
  appends fresh results (DRC verdicts are never persisted).
- :func:`drc_failure` answers a DRC pre-flight rejection, tool-free.
- :func:`consult` is the DRC verdict, then the store lookup/adopt: an
  answer without the tool, or None to run it.
- :func:`run_tool` runs a checked point and turns a :class:`ReproError`
  into an :class:`EvaluationFailure` carrying the failed run's charge.
- :func:`replay` answers a known result at zero charge and writes its
  ledger row; the ``origin`` names who answered it (``"memo"``,
  ``"coalesced"``, ``"gate"``, ``"store"``, or a DRC gate's layer).
- :func:`settle` applies a batch caller's ``on_error`` policy.

The callers only order these steps.  ``ApproximateFitness._dispatch``
is the fitness's one tool path.  The pool's are
:meth:`ParallelPointEvaluator._pre_dispatch` (memo, then consult) and
:meth:`ParallelPointEvaluator._commit` (memo and store append), which a
serve fleet member inherits.  This module imports no process pool, so
the serial path pays nothing for it.  Every caller consults a point
before it runs the tool, so :func:`run_tool` skips the evaluator's own
DRC check, in-process and in pool workers alike.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.gate import PreflightGate
from repro.cache import (
    FULL_RANK,
    KIND_FAILURE,
    KIND_POINT,
    StoredResult,
    decode_point,
    encode_failure,
    encode_point,
    point_key,
    run_identity,
)
from repro.core.evaluate import PointEvaluator
from repro.core.metrics import MetricSpec
from repro.core.point import EvaluatedPoint
from repro.directives import DirectiveSet
from repro.errors import ReproError
from repro.flow.vivado_sim import Fidelity, FlowStep
from repro.moo.problem import Sense
from repro.observe import current_telemetry

__all__ = [
    "EvaluationFailure",
    "EvaluatorSpec",
    "PointStore",
    "RemoteEvaluationError",
    "consult",
    "drc_failure",
    "replay",
    "run_tool",
    "settle",
]


class RemoteEvaluationError(ReproError):
    """A worker-side evaluation failed (carries the original error name)."""

    def __init__(self, original_type: str, message: str) -> None:
        super().__init__(f"{original_type}: {message}")
        self.original_type = original_type


@dataclass(frozen=True)
class EvaluationFailure:
    """Picklable record of a worker-side :class:`ReproError`.

    Tool exceptions carry constructor signatures that do not survive
    pickling, so workers ship this marker instead; callers that need the
    serial behaviour re-raise via :meth:`to_error`.

    ``simulated_seconds`` is the partial tool time the failed run charged
    before raising (0 for DRC rejections and for memo replays) — the cost
    accounting layer charges it against the DSE soft deadline.
    """

    original_type: str
    message: str
    simulated_seconds: float = 0.0

    def to_error(self) -> RemoteEvaluationError:
        return RemoteEvaluationError(self.original_type, self.message)


Answer = EvaluatedPoint | EvaluationFailure


@dataclass(frozen=True)
class EvaluatorSpec:
    """Everything a worker needs to rebuild the evaluator (all picklable)."""

    source: str
    language: str
    top: str
    part: str = "XC7K70T"
    target_period_ns: float = 1.0
    step: str = "implementation"
    synth_directive: str = "Default"
    impl_directive: str = "Default"
    metrics: tuple[tuple[str, str], ...] = (("LUT", "min"), ("frequency", "max"))
    boxed: bool = True
    seed: int = 0
    design_name: str | None = None  # built-in design to re-register in workers
    incremental: bool = False
    #: Real wall-clock seconds slept per *simulated* tool second in pool
    #: workers, emulating the latency of a real tool invocation (cache and
    #: memo answers stay instant, as they are in the real flow).  0 (the
    #: default) disables it.  Scheduling benchmarks use this to measure
    #: schedule quality where tool runs wait on an external process.
    emulate_tool_latency: float = 0.0
    #: Explicit box clock port, for modules whose clock name detection
    #: cannot find (None = detect).
    clock_port: str | None = None

    @classmethod
    def from_evaluator(
        cls, evaluator: PointEvaluator, design_name: str | None = None
    ) -> "EvaluatorSpec":
        return cls(
            source=evaluator.source_text,
            language=str(evaluator.language),
            top=evaluator.module.name,
            part=evaluator.part,
            target_period_ns=evaluator.target_period_ns,
            step=str(evaluator.step),
            synth_directive=str(evaluator.directives.synth),
            impl_directive=str(evaluator.directives.impl),
            metrics=tuple(
                (s.canonical_name(), str(s.sense)) for s in evaluator.metrics
            ),
            boxed=evaluator.boxed,
            seed=evaluator.seed,
            design_name=design_name,
            incremental=evaluator.incremental,
            clock_port=evaluator.clock_port,
        )

    def build(self) -> PointEvaluator:
        if self.design_name:
            from repro.designs import get_design

            get_design(self.design_name)  # side effect: registers models
        return PointEvaluator(
            source=self.source,
            language=self.language,
            top=self.top,
            part=self.part,
            target_period_ns=self.target_period_ns,
            step=FlowStep(self.step),
            directives=DirectiveSet.parse(self.synth_directive, self.impl_directive),
            metrics=[
                MetricSpec(name, Sense(sense)) for name, sense in self.metrics
            ],
            boxed=self.boxed,
            clock_port=self.clock_port,
            seed=self.seed,
            incremental=self.incremental,
        )

    def identity(self) -> dict[str, Any]:
        """The store namespace: the runs this spec answers identically."""
        return run_identity(
            source=self.source,
            language=self.language,
            top=self.top,
            part=self.part,
            step=self.step,
            synth_directive=self.synth_directive,
            impl_directive=self.impl_directive,
            target_period_ns=self.target_period_ns,
            seed=self.seed,
            metrics=self.metrics,
            boxed=self.boxed,
            clock_port=self.clock_port,
        )


def drc_failure(
    gate: PreflightGate, params: Mapping[str, int], origin: str = "local"
) -> EvaluationFailure | None:
    """The gate's rejection of ``params``, or None when it passes.

    A rejected point never reaches a tool: it is answered like a replay,
    at zero charge with its one ``outcome="drc"`` ledger row, and
    ``origin`` names the layer that checked it.
    """
    violation = gate.violation(params)
    if violation is None:
        return None
    failure = EvaluationFailure(type(violation).__name__, str(violation))
    replay(params, failure, origin)
    return failure


def consult(
    gate: PreflightGate,
    store: "PointStore",
    params: Mapping[str, int],
    origin: str = "local",
    min_rank: int | None = FULL_RANK,
) -> tuple[Answer, StoredResult | None] | None:
    """DRC verdict, then store lookup/adopt: an answer without the tool.

    Returns ``(answer, record)`` — ``record`` is the adopted store
    record, None for a DRC rejection — or None when the tool must run.
    A point this gate already checked is a memo hit.  ``origin`` names
    the layer on a rejection's ledger row; ``min_rank`` is the lowest
    store rank that answers (see :meth:`PointStore.lookup`).
    """
    failure = drc_failure(gate, params, origin)
    if failure is not None:
        return failure, None
    record = store.lookup(params, min_rank)
    if record is None:
        return None
    return store.adopt(params, record), record


def settle(on_error: str) -> Callable[[Iterable[Answer]], list[Answer]]:
    """A batch caller's ``on_error`` policy, checked before any work.

    ``"raise"`` re-raises the first failure (as a
    :class:`RemoteEvaluationError`) while the answers are consumed in
    order; ``"return"`` keeps every failure in its slot.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")

    def collect(answers: Iterable[Answer]) -> list[Answer]:
        out: list[Answer] = []
        for answer in answers:
            if on_error == "raise" and isinstance(answer, EvaluationFailure):
                raise answer.to_error()
            out.append(answer)
        return out

    return collect


def run_tool(
    evaluator: PointEvaluator,
    params: Mapping[str, int],
    fidelity: Fidelity | None = None,
    latency: float = 0.0,
) -> Answer:
    """One tool call; a :class:`ReproError` comes back as a failure.

    The caller has consulted the point, so the evaluator runs it
    unchecked and writes the run's own ledger row.  ``latency`` > 0
    sleeps that many wall seconds per simulated second the call charged,
    emulating a real tool invocation: partial flows (stage-cache hits,
    low-fidelity probes) wait only for the stages they ran, and cache
    answers stay instant.
    """
    result: Answer
    try:
        result = evaluator.run(params, fidelity=fidelity)
    except ReproError as exc:
        result = EvaluationFailure(
            type(exc).__name__,
            str(exc),
            simulated_seconds=evaluator.last_failure_seconds,
        )
    if latency > 0.0 and result.simulated_seconds > 0.0:
        time.sleep(result.simulated_seconds * latency)
    return result


def replay(params: Mapping[str, int], result: Answer, origin: str) -> Answer:
    """``result`` re-answered at zero charge, with its ledger row.

    No tool is touched, so the copy charges nothing: a point comes back
    cache-sourced, a failure with zero seconds.
    """
    tel = current_telemetry()
    if isinstance(result, EvaluationFailure):
        if tel is not None:
            drc = result.original_type == "DrcViolationError"
            tel.ledger.append(
                params=params,
                outcome="drc" if drc else "failed",
                charge=0.0,
                error_type=result.original_type,
                origin=origin,
            )
        return dataclasses.replace(result, simulated_seconds=0.0)
    if tel is not None:
        tel.ledger.append(
            params=params, outcome="cache", metrics=result.metrics,
            charge=0.0, origin=origin,
        )
    return dataclasses.replace(result, source="cache", simulated_seconds=0.0)


class PointStore:
    """One evaluator's view of a persistent result store.

    Disabled (every lookup misses, every append is dropped) when there
    is no store, and for incremental specs: their runs warm-start from
    whatever ran earlier in the session, so a result is order-dependent
    and must never be replayed by another process.
    """

    def __init__(self, store: Any, spec: EvaluatorSpec) -> None:
        self.store = None if spec.incremental else store
        self.identity = spec.identity() if self.store is not None else None

    def lookup(
        self, params: Mapping[str, int], min_rank: int | None = FULL_RANK
    ) -> StoredResult | None:
        """The stored record for ``params`` at ``min_rank`` or above.

        Low-rank records are fidelity-gate probes: only the gated path
        (``min_rank=None``, any rank) may use them; everyone else needs
        a full-route answer.
        """
        if self.store is None:
            return None
        record = self.store.get(point_key(self.identity, params))
        if record is None or (min_rank is not None and record.rank < min_rank):
            return None
        return record

    def adopt(self, params: Mapping[str, int], record: StoredResult) -> Answer:
        """A store hit as a cache-priced answer, with its ledger row.

        A probe record's row names the fidelity it was measured at.
        """
        tel = current_telemetry()
        if tel is not None:
            tel.counters.inc("cache.store_hit")
        if record.kind == KIND_FAILURE:
            payload = record.payload
            failure = EvaluationFailure(
                str(payload.get("original_type", "ReproError")),
                str(payload.get("message", "")),
            )
            return replay(params, failure, "store")
        point = dataclasses.replace(
            decode_point(record.payload),
            parameters=dict(params),
            source="cache",
            simulated_seconds=0.0,
        )
        if tel is not None:
            tel.ledger.append(
                params=params, outcome="cache", metrics=point.metrics,
                charge=0.0, origin="store",
                fidelity=point.fidelity if record.rank < FULL_RANK else None,
            )
        return point

    def put(
        self, params: Mapping[str, int], result: Answer, rank: int = FULL_RANK
    ) -> bool:
        """Append one tool answer; True when this call stored it."""
        if self.store is None:
            return False
        if isinstance(result, EvaluationFailure):
            # DRC rejections are recomputed locally at zero cost and depend
            # on rule configuration, not the flow — never persisted.
            if result.original_type == "DrcViolationError":
                return False
            kind = KIND_FAILURE
            payload = encode_failure(
                result.original_type, result.message, result.simulated_seconds
            )
        else:
            kind, payload = KIND_POINT, encode_point(result)
        stored = self.store.put(
            point_key(self.identity, params), kind, payload, rank=rank
        )
        if stored:
            tel = current_telemetry()
            if tel is not None:
                tel.counters.inc("cache.store_put")
        return bool(stored)
