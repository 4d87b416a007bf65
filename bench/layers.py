"""Outside-in span recorder over the layers of the DSE flow.

The benchmark times each layer by wrapping the public functions that
enter it.  No file of the program changes: :meth:`SpanRecorder.install`
replaces every module-global binding under ``repro`` that *is* the
original function (so ``from x import f`` sites are covered without a
hand-kept list) and sets the wrapper on the owning class for methods.
:meth:`SpanRecorder.uninstall` puts every original back.

Each thread keeps its own span stack, so a layer's *self* time is its
span's duration minus the time its child spans cover on the same
thread.  Spans stay in memory; :func:`write_trace` writes the totals at
exit in the program's trace schema (``meta`` + ``span`` + ``counter``
lines), which ``python -m repro.observe.schema`` validates and
``dovado-repro stats`` renders.

The layer names below are the taxonomy later in-program spans must use.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layer -> the ``module:qualname`` targets whose calls are its spans.
#: Busy layers are listed in flow order; the serve layers follow.
LAYERS: dict[str, tuple[str, ...]] = {
    "session": (
        "repro.core.session:DseSession.__init__",
        "repro.core.session:DseSession.explore",
    ),
    "fitness": (
        "repro.core.fitness:ApproximateFitness.__init__",
        "repro.core.fitness:ApproximateFitness.pretrain",
        "repro.core.fitness:ApproximateFitness.evaluate_encoded",
        "repro.core.fitness:ApproximateFitness.promote_archive",
    ),
    "evaluate": (
        "repro.core.evaluate:PointEvaluator.__init__",
        "repro.core.evaluate:PointEvaluator.evaluate",
    ),
    "hdl.parse": ("repro.hdl.frontend:parse_source",),
    "drc": (
        "repro.analysis.gate:PreflightGate.raise_for_point",
        "repro.analysis.gate:PreflightGate.errors",
        "repro.analysis.gate:PreflightGate.static_infeasible_mask",
    ),
    "boxing": (
        "repro.boxing.box:build_box",
        "repro.boxing.box:BoxArtifact.install",
    ),
    "tcl": (
        "repro.tcl.interp:TclInterp.eval",
        "repro.tcl.frames:render_evaluation_script",
    ),
    "flow.run": ("repro.flow.vivado_sim:VivadoSim.run",),
    "synth.elaborate": ("repro.synth.elaborate:elaborate",),
    "synth.optimize": ("repro.synth.optimizer:optimize",),
    "synth.map": ("repro.synth.mapper:map_to_device",),
    "pnr.place": ("repro.pnr.placer:place",),
    "pnr.route": ("repro.pnr.router:route",),
    "sta": ("repro.pnr.timing:analyze_timing",),
    "report": (
        "repro.flow.reports:render_utilization_report",
        "repro.flow.reports:render_timing_report",
        "repro.flow.power:render_power_report",
        "repro.core.metrics:metrics_from_reports",
    ),
    "estimation.predict": (
        "repro.estimation.control:ControlModel.decide",
        "repro.estimation.control:ControlModel.estimate",
    ),
    "estimation.refit": (
        "repro.estimation.control:ControlModel.record",
        "repro.estimation.control:ControlModel.refit",
        "repro.estimation.control:ControlModel.pretrain",
    ),
    "moo.sort": (
        "repro.moo.nds:fast_non_dominated_sort",
        "repro.moo.crowding:crowding_distance",
    ),
    "moo.dedup": ("repro.moo.dedup:unique_against",),
    "cache.open": (
        "repro.cache.sharded:open_store",
        "repro.cache.store:ResultStore.__init__",
        "repro.cache.sharded:ShardedResultStore.__init__",
    ),
    "cache.get": (
        "repro.cache.store:ResultStore.get",
        "repro.cache.sharded:ShardedResultStore.get",
    ),
    "cache.put": (
        "repro.cache.store:ResultStore.put",
        "repro.cache.sharded:ShardedResultStore.put",
    ),
    "cache.refresh": (
        "repro.cache.store:ResultStore.refresh",
        "repro.cache.sharded:ShardedResultStore.refresh",
    ),
    "serve.queue": (
        "repro.serve.queue:FileJobQueue.claim_many",
        "repro.serve.queue:FileJobQueue.finish",
    ),
    "serve.fleet": (
        "repro.serve.fleet:EvaluatorFleet.bind",
        "repro.serve.fleet:SchedulerBoundEvaluator.submit_many",
        "repro.serve.fleet:_ConcurrentMember.evaluate_point",
    ),
    # Waiting, not busy: a job thread blocked on backpressure in the
    # scheduler, or on the results of the batch it submitted.
    "serve.scheduler": ("repro.serve.scheduler:FairScheduler.submit",),
    "serve.batch_wait": ("repro.serve.fleet:ScheduledBatch.results",),
}

#: Layers whose spans are time spent waiting on other threads.
WAIT_LAYERS = frozenset({"serve.scheduler", "serve.batch_wait"})

#: Targets whose per-call durations are kept for percentiles.
SAMPLED_TARGETS = frozenset({"repro.core.evaluate:PointEvaluator.evaluate"})

#: Target -> (counter, predicate on the returned value).  The counter
#: counts returns that satisfy the predicate; ``<counter>.of`` counts
#: every call, so hit ratios are measured where the work happens.
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "repro.flow.vivado_sim:VivadoSim.run": (
        "flow.run_cache_hits", lambda r: bool(getattr(r, "from_cache", False))
    ),
    "repro.cache.store:ResultStore.get": ("cache.get_hits", lambda r: r is not None),
}


def resolve(target: str) -> tuple[Any, str, Callable[..., Any]]:
    """``module:qualname`` -> (owner, attribute name, original callable).

    Raises ``LookupError`` when the target no longer exists, so a rename
    in the program fails the benchmark loudly instead of silently
    dropping a layer.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: module does not import ({exc})") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: {part} not found")
    name = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not callable(original):
        raise LookupError(f"{target}: {name} is not a function of {owner!r}")
    return owner, name, original


def _repro_modules() -> list[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Totals:
    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0


class SpanRecorder:
    """Thread-aware per-layer span totals, kept in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals: dict[str, _Totals] = {}
        self.samples: dict[str, list[float]] = {t: [] for t in SAMPLED_TARGETS}
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, tuple[Any, Any]] = {}  # id -> (wrapper, original)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, started: float, frame: list[float]) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            totals = self.totals.get(layer)
            if totals is None:
                totals = self.totals[layer] = _Totals()
            totals.calls += 1
            totals.inclusive_s += elapsed
            totals.self_s += elapsed - frame[0]
        return elapsed

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span of *layer* around the ``with`` body."""
        frame = [0.0]
        self._stack().append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, started, frame)

    def _count(self, name: str, hit: bool) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(hit)
            self.counts[name + ".of"] = self.counts.get(name + ".of", 0) + 1

    def _wrap(self, layer: str, target: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self
        samples = self.samples.get(target)
        counter, predicate = RESULT_COUNTERS.get(target, (None, None))

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            recorder._stack().append(frame)
            started = time.perf_counter()
            hit = False
            try:
                value = fn(*args, **kwargs)
                hit = predicate is not None and predicate(value)
                return value
            finally:
                elapsed = recorder._close(layer, started, frame)
                if samples is not None:
                    samples.append(elapsed)
                if counter is not None:
                    recorder._count(counter, hit)

        functools.update_wrapper(wrapper, fn)
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer target."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        resolved = [
            (layer, target, *resolve(target))
            for layer, targets in LAYERS.items()
            for target in targets
        ]
        modules = _repro_modules()
        for layer, target, owner, name, original in resolved:
            wrapper = self._wrap(layer, target, original)
            if isinstance(owner, type):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding (in reverse patch order).

        A module first imported while the wrappers were installed bound a
        wrapper through ``from x import f``; those bindings are restored
        too, so no span is recorded after this returns.
        """
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._originals.clear()

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                layer: {
                    "calls": t.calls,
                    "inclusive_s": t.inclusive_s,
                    "self_s": t.self_s,
                }
                for layer, t in self.totals.items()
            }


def merge_spans(
    into: dict[str, dict[str, float]], other: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """Add *other*'s per-layer totals into *into* (returned for chaining)."""
    for layer, totals in other.items():
        mine = into.setdefault(
            layer, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for key, value in totals.items():
            mine[key] += value
    return into


def busy_self_s(spans: dict[str, dict[str, float]]) -> float:
    """Self seconds summed over the program's busy layers."""
    return sum(
        t["self_s"] for layer, t in spans.items()
        if layer in LAYERS and layer not in WAIT_LAYERS
    )


def write_trace(
    path: str | Path,
    spans: dict[str, dict[str, float]],
    counters: dict[str, float],
    meta: dict[str, Any],
) -> Path:
    """Write the spans and counters as a trace file of the program's schema.

    Span lines carry the inclusive seconds as ``wall_s`` (the schema's
    meaning) plus the layer's ``self_s``; self seconds are repeated as
    ``layer.<name>.self_s`` counters so ``dovado-repro stats`` shows them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        def emit(payload: dict[str, Any]) -> None:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

        emit({"kind": "meta", "version": 1, **meta})
        for layer, t in sorted(spans.items()):
            if t["calls"] < 1:
                continue
            emit({
                "kind": "span",
                "path": layer,
                "count": int(t["calls"]),
                "wall_s": float(t["inclusive_s"]),
                "self_s": float(t["self_s"]),
                "sim_s": 0.0,
            })
        for layer, t in sorted(spans.items()):
            if t["calls"] >= 1:
                emit({
                    "kind": "counter",
                    "name": f"layer.{layer}.self_s",
                    "value": float(t["self_s"]),
                })
        for name, value in sorted(counters.items()):
            emit({"kind": "counter", "name": name, "value": value})
    return path
