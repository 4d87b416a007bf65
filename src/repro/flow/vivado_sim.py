"""VEDA's Vivado-like project facade.

:class:`VivadoSim` exposes the command surface Dovado drives over TCL:
source readin, part selection, clock constraint, ``synth_design``,
``place_design``/``route_design`` (fused as the implementation step),
report generation, and checkpoint write/read.  A higher-level
:meth:`VivadoSim.run` performs a whole single-point evaluation and returns a
:class:`RunResult` with the metrics Dovado scrapes.

Determinism & noise: every run's QoR receives a small multiplicative jitter
keyed on the *content* of the run (part, top, parameter binding, directives,
step) — re-running the same point reproduces identical numbers (so caching
is sound, matching Vivado's deterministic default flow), while neighbouring
points get decorrelated wiggle, which is what the Nadaraya-Watson model has
to average over.

Simulated wall time: each step charges simulated seconds (see the runtime
models in synthesis/implementation); ``last_run_seconds`` and the
cumulative ``simulated_seconds`` let the DSE loop account tool cost against
its soft deadline without actually waiting.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.cache.lru import LruCache
from repro.devices import Device, ResourceKind, ResourceVector, UtilizationReport, get_device
from repro.errors import FlowError
from repro.directives import DirectiveSet, ImplDirective, SynthDirective
from repro.flow.reports import render_timing_report, render_utilization_report
from repro.hdl.ast import HdlLanguage, Module
from repro.hdl.frontend import SourceCollection, parse_source
from repro.observe import current_telemetry, span as observe_span
from repro.pnr.checkpoints import CheckpointStore
from repro.pnr.implementation import implement, implement_placed_estimate
from repro.pnr.timing import block_internal_delay_ns
from repro.synth.synthesis import synthesize
from repro.util.rng import stable_hash_seed
from repro.util.units import fmax_from_wns

__all__ = ["Fidelity", "FlowStep", "RunResult", "VivadoSim"]

#: Default bound of each in-memory cache (run/synthesis/implementation).
#: Generous — a DSE session rarely revisits more distinct configurations —
#: but finite: the persistent result store (``repro.cache``) is the durable
#: layer, so the in-memory side only needs the hot working set.
DEFAULT_CACHE_CAPACITY = 1024


class FlowStep(str, enum.Enum):
    """Which physical step metrics are extracted after (paper Section III-A)."""

    SYNTHESIS = "synthesis"
    IMPLEMENTATION = "implementation"

    def __str__(self) -> str:
        return self.value


class Fidelity(str, enum.Enum):
    """How far down the flow ladder a run's metrics come from.

    Ordered by cost and trustworthiness:

    - ``STATIC_ESTIMATE`` — no tool stage at all: analytical bounds from
      the elaborated netlist (utilization lower bounds, Fmax upper bound).
      Charges **zero** simulated seconds; rank below every tool rung.
    - ``SYNTH_ESTIMATE`` — synthesis only, optimistic post-synth timing
      estimate.  What a ``step=SYNTHESIS`` run always produces.
    - ``PLACED_ESTIMATE`` — synthesis + real placement, timing from
      congestion-free (optimistic) routing.  A mid-ladder probe for
      ``step=IMPLEMENTATION`` evaluations.
    - ``FULL_ROUTE`` — the complete synth → place → route → STA flow; the
      only fidelity whose numbers are authoritative.
    """

    STATIC_ESTIMATE = "static-estimate"
    SYNTH_ESTIMATE = "synth-estimate"
    PLACED_ESTIMATE = "placed-estimate"
    FULL_ROUTE = "full-route"

    def __str__(self) -> str:
        return self.value

    @property
    def rank(self) -> int:
        """Ladder position (higher = more trustworthy)."""
        return _FIDELITY_RANK[self]


# The tool rungs keep their pre-ladder ranks (0/1/2 are persisted in the
# result store); the static rung slots underneath rather than renumbering.
_FIDELITY_RANK = {
    Fidelity.STATIC_ESTIMATE: -1,
    Fidelity.SYNTH_ESTIMATE: 0,
    Fidelity.PLACED_ESTIMATE: 1,
    Fidelity.FULL_ROUTE: 2,
}


@dataclass(frozen=True)
class RunResult:
    """One evaluated design point, as Dovado consumes it."""

    top: str
    part: str
    parameters: dict[str, int]
    step: FlowStep
    utilization: UtilizationReport
    wns_ns: float
    target_period_ns: float
    fmax_mhz: float
    critical_path: tuple[str, ...]
    simulated_seconds: float
    incremental: bool
    utilization_report_text: str
    timing_report_text: str
    from_cache: bool = False
    fidelity: Fidelity = Fidelity.FULL_ROUTE

    def metric(self, name: str) -> float:
        """Uniform metric accessor: ``"frequency"`` (MHz) or a resource kind."""
        if name.lower() in ("frequency", "fmax", "fmax_mhz"):
            return self.fmax_mhz
        return float(self.utilization.used.get(ResourceKind(name.upper())))


# QoR noise magnitudes (1-sigma, multiplicative).
_NOISE_DELAY = 0.020
_NOISE_LUT = 0.010
_NOISE_FF = 0.008


@dataclass(frozen=True)
class _ImplStageEntry:
    """What the implementation stage contributes to a run.

    Deliberately excludes the target period: placement, routing and the
    pre-noise critical delay of the simulated flow are functions of the
    mapped netlist, the implementation directive and the seed alone — the
    period only enters the WNS subtraction, which :meth:`VivadoSim.run`
    recomputes per call.  Caching at this granularity lets points that
    differ only in clock constraint reuse the implemented design.
    """

    critical_delay_ns: float
    critical_path: tuple[str, ...]
    arcs_analyzed: int
    simulated_seconds: float
    used_checkpoint: bool


class VivadoSim:
    """A simulated Vivado session (one project)."""

    def __init__(
        self,
        part: str = "XC7K70T",
        seed: int = 0,
        incremental_synth: bool = False,
        incremental_impl: bool = False,
        noise: bool = True,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self.device: Device = get_device(part)
        self.seed = seed
        self.noise = noise
        self.incremental_synth = incremental_synth
        self.incremental_impl = incremental_impl
        self.sources = SourceCollection()
        self._read_texts: set[tuple[str, HdlLanguage]] = set()
        self.target_period_ns: float = 1.0  # paper default: 1 GHz target
        self.checkpoints = CheckpointStore()
        self.simulated_seconds = 0.0
        self.last_run_seconds = 0.0
        self.last_run_cached = False
        self.last_run_stages: tuple[str, ...] = ()
        self.last_run_fidelity: Fidelity = Fidelity.FULL_ROUTE
        self.fidelity_runs: dict[str, int] = {str(f): 0 for f in Fidelity}
        self.runs = 0
        self.failed_runs = 0
        self.run_cache_hits = 0
        self.synth_stage_hits = 0
        self.impl_stage_hits = 0
        self.cache_capacity = cache_capacity
        self._last_synth_netlist = None
        self._cache: LruCache = LruCache(cache_capacity)
        self._synth_cache: LruCache = LruCache(cache_capacity)
        self._impl_cache: LruCache = LruCache(cache_capacity)

    @staticmethod
    def _count(name: str) -> None:
        tel = current_telemetry()
        if tel is not None:
            tel.counters.inc(name)

    # ------------------------------------------------------------------
    # project commands (TCL surface)
    # ------------------------------------------------------------------

    def set_part(self, part: str) -> Device:
        self.device = get_device(part)
        return self.device

    def create_clock(self, period_ns: float) -> None:
        if period_ns <= 0:
            raise FlowError(f"create_clock: non-positive period {period_ns}")
        self.target_period_ns = float(period_ns)

    def read_hdl(self, text: str, language: HdlLanguage | str) -> list[str]:
        """Read HDL text (read_vhdl / read_verilog -sv); returns module names.

        Re-reading an identical ``(text, language)`` adds no second source
        unit: the first one already answers every module lookup, and a
        long-lived session re-reads its design at every evaluation.
        """
        language = HdlLanguage(language)
        modules = parse_source(text, language)
        if (text, language) in self._read_texts:
            return [m.name for m in modules]
        self._read_texts.add((text, language))
        from repro.hdl.ast import SourceUnit

        self.sources.add_unit(
            SourceUnit(
                path=f"<read:{len(self.sources.units)}>",
                language=language,
                modules=tuple(modules),
            )
        )
        return [m.name for m in modules]

    def read_file(self, path: str) -> list[str]:
        unit = self.sources.add_file(path)
        return [m.name for m in unit.modules]

    def find_top(self, top: str) -> Module:
        return self.sources.find_module(top)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _noise_factor(self, key: tuple, sigma: float) -> float:
        if not self.noise:
            return 1.0
        rng = np.random.default_rng(stable_hash_seed((self.seed, *key)))
        return float(np.clip(1.0 + sigma * rng.standard_normal(), 0.9, 1.1))

    def run(
        self,
        top: str,
        parameters: Mapping[str, int | bool] | None = None,
        step: FlowStep = FlowStep.IMPLEMENTATION,
        directives: DirectiveSet | None = None,
        fidelity: Fidelity | str | None = None,
    ) -> RunResult:
        """Evaluate one design point end to end.

        Caching happens at two granularities:

        - **Run cache** — keyed on (top, part, parameters, step,
          directives, period): repeating a call returns the archived
          result at zero simulated cost — the "Vivado employs cached
          results" case of the paper's control model.  Cache answers are
          flagged explicitly: the returned :class:`RunResult` has
          ``from_cache=True`` and ``last_run_cached`` is set, so callers
          never have to infer cache hits from a (possibly stale)
          ``last_run_seconds``.
        - **Stage caches** — the synthesis stage is keyed on (top, part,
          parameters, synth directive) and the implementation stage on
          (synthesis key, impl directive), so a point that differs only
          in implementation directive or target period reuses the
          synthesized/mapped netlist instead of re-running
          ``synth_design``.  Simulated seconds charge only the stages
          actually executed (``last_run_stages`` names them).  Stage
          entries commit only after the whole flow succeeds, and stage
          caching is disabled for incremental flows, whose results are
          order-dependent.

        A run that *fails* — e.g. utilization exceeding device capacity —
        still charges the simulated seconds the completed steps cost to
        ``simulated_seconds``/``last_run_seconds`` before the error
        propagates: Vivado errors late, and a failed point is not free
        against the DSE soft deadline.

        ``fidelity`` selects a rung of the flow ladder for
        ``step=IMPLEMENTATION`` runs: ``None``/``FULL_ROUTE`` is the
        unchanged full flow; ``PLACED_ESTIMATE`` stops after placement and
        reads timing off congestion-free routing; ``SYNTH_ESTIMATE``
        stops after synthesis (same numbers a ``step=SYNTHESIS`` run
        produces); ``STATIC_ESTIMATE`` runs no tool stage at all and
        reports sound analytical bounds (utilization lower bounds, Fmax
        upper bound) at **zero** simulated seconds.  ``step=SYNTHESIS``
        runs always report ``SYNTH_ESTIMATE``.  Each rung charges only the stages it
        executes, and the result is tagged with its fidelity.  Lower
        rungs never touch the implementation stage cache or incremental
        checkpoints — a speculative probe must not perturb what the full
        flow would later compute.
        """
        directives = directives or DirectiveSet()
        params = {k: int(v) for k, v in (parameters or {}).items()}
        if fidelity is not None:
            fidelity = Fidelity(fidelity)
        if step != FlowStep.IMPLEMENTATION:
            effective = Fidelity.SYNTH_ESTIMATE
        elif fidelity is None:
            effective = Fidelity.FULL_ROUTE
        else:
            effective = fidelity
        self.last_run_fidelity = effective
        cache_key = stable_hash_seed(
            (
                top.lower(), self.device.part, sorted(params.items()), str(step),
                directives.as_dict(), round(self.target_period_ns, 6),
                str(effective),
            )
        )
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.last_run_seconds = 0.0
            self.last_run_cached = True
            self.last_run_stages = ()
            self.run_cache_hits += 1
            self._count("cache.run_hit")
            return dataclasses.replace(cached, from_cache=True)
        self.last_run_cached = False

        module = self.find_top(top)
        if step == FlowStep.IMPLEMENTATION and effective is Fidelity.STATIC_ESTIMATE:
            return self._static_estimate_run(module, params, directives, cache_key)
        # Incremental flows warm-start from whatever ran before, so their
        # stage outputs are order-dependent and must not be reused by key.
        stage_cacheable = not (self.incremental_synth or self.incremental_impl)
        reference = self._last_synth_netlist if self.incremental_synth else None
        synth_key = (
            top.lower(), self.device.part, tuple(sorted(params.items())),
            str(directives.synth),
        )
        impl_key = (synth_key, str(directives.impl))
        impl_entry: _ImplStageEntry | None = None
        stages: list[str] = []
        seconds = 0.0
        try:
            synth = self._synth_cache.get(synth_key) if stage_cacheable else None
            if synth is not None:
                self.synth_stage_hits += 1
                self._count("cache.synth_hit")
            else:
                with observe_span("flow.synthesis") as sp:
                    synth = synthesize(
                        module,
                        self.device,
                        overrides=params,
                        directive=directives.synth,
                        reference=reference,
                    )
                    seconds = synth.simulated_seconds
                    sp.charge(synth.simulated_seconds)
                stages.append("synthesis")
            noise_key = (top.lower(), self.device.part, sorted(params.items()),
                         directives.as_dict(), str(step))
            if step == FlowStep.IMPLEMENTATION and effective is not Fidelity.FULL_ROUTE:
                # Lower rungs decorrelate their jitter from the full flow —
                # the gate's residual model has to learn a real estimate
                # gap, not a shared noise draw.  Full-route keys stay
                # byte-identical to the pre-ladder flow.
                noise_key = (*noise_key, str(effective))

            if step == FlowStep.IMPLEMENTATION and effective is Fidelity.FULL_ROUTE:
                impl_entry = (
                    self._impl_cache.get(impl_key) if stage_cacheable else None
                )
                if impl_entry is not None:
                    self.impl_stage_hits += 1
                    self._count("cache.impl_hit")
                else:
                    with observe_span("flow.implementation") as sp:
                        impl = implement(
                            synth.mapped,
                            target_period_ns=self.target_period_ns,
                            directive=directives.impl,
                            seed=stable_hash_seed((self.seed, *noise_key)),
                            checkpoints=self.checkpoints if self.incremental_impl else None,
                            extra_delay_bias=directives.synth.effect().delay_bias,
                        )
                        seconds += impl.simulated_seconds
                        sp.charge(impl.simulated_seconds)
                    stages.append("implementation")
                    impl_entry = _ImplStageEntry(
                        critical_delay_ns=impl.timing.critical_delay_ns,
                        critical_path=impl.timing.critical_path,
                        arcs_analyzed=impl.timing.arcs_analyzed,
                        simulated_seconds=impl.simulated_seconds,
                        used_checkpoint=impl.used_checkpoint,
                    )
                critical_delay = impl_entry.critical_delay_ns
                critical_path = impl_entry.critical_path
                arcs = impl_entry.arcs_analyzed
                incremental = impl_entry.used_checkpoint or synth.incremental_reuse > 0
            elif step == FlowStep.IMPLEMENTATION and effective is Fidelity.PLACED_ESTIMATE:
                with observe_span("flow.placed_estimate") as sp:
                    est = implement_placed_estimate(
                        synth.mapped,
                        target_period_ns=self.target_period_ns,
                        directive=directives.impl,
                        seed=stable_hash_seed((self.seed, *noise_key)),
                        extra_delay_bias=directives.synth.effect().delay_bias,
                    )
                    seconds += est.simulated_seconds
                    sp.charge(est.simulated_seconds)
                stages.append("placement")
                critical_delay = est.timing.critical_delay_ns
                critical_path = est.timing.critical_path
                arcs = est.timing.arcs_analyzed
                incremental = synth.incremental_reuse > 0
            else:
                # Synthesis-step timing estimate: internal delays plus one
                # nominal net hop per combinational crossing — optimistic,
                # as Vivado's post-synth estimates are.
                critical_delay, critical_path, arcs = self._synth_timing_estimate(synth)
                incremental = synth.incremental_reuse > 0

            critical_delay *= self._noise_factor((*noise_key, "delay"), _NOISE_DELAY)
            wns = self.target_period_ns - critical_delay
            fmax = fmax_from_wns(self.target_period_ns, wns)

            used = synth.mapped.total
            lut_noise = self._noise_factor((*noise_key, "lut"), _NOISE_LUT)
            ff_noise = self._noise_factor((*noise_key, "ff"), _NOISE_FF)
            noisy_counts = dict(used.counts)
            if ResourceKind.LUT in noisy_counts:
                noisy_counts[ResourceKind.LUT] = max(
                    1, round(noisy_counts[ResourceKind.LUT] * lut_noise)
                )
            if ResourceKind.FF in noisy_counts:
                noisy_counts[ResourceKind.FF] = max(
                    1, round(noisy_counts[ResourceKind.FF] * ff_noise)
                )
            utilization = UtilizationReport(
                used=ResourceVector(noisy_counts), available=self.device.resources
            )
            overflow = utilization.overflows()
            if overflow:
                kinds = ", ".join(str(k) for k in overflow)
                raise FlowError(
                    f"{top}: utilization exceeds {self.device.part} capacity for {kinds}"
                )
        except FlowError:
            # The steps that completed before the error still spent tool
            # time; charge it so failed points count against the deadline.
            self.simulated_seconds += seconds
            self.last_run_seconds = seconds
            self.last_run_stages = tuple(stages)
            self.failed_runs += 1
            raise

        # Only now — after the whole flow succeeded — commit this netlist
        # as the incremental-synthesis warm-start reference, and the stage
        # outputs to their caches: a failed point must not seed later runs
        # with artifacts from a flow that never finished (and retrying a
        # failing point must keep charging what the baseline flow charges).
        self._last_synth_netlist = synth.netlist
        if stage_cacheable:
            self._synth_cache.put(synth_key, synth)
            if impl_entry is not None:
                self._impl_cache.put(impl_key, impl_entry)

        util_text = render_utilization_report(utilization, design=top, part=self.device.part)
        timing_text = render_timing_report(
            wns_ns=wns,
            target_period_ns=self.target_period_ns,
            critical_delay_ns=critical_delay,
            critical_path=critical_path,
            arcs_analyzed=arcs,
        )
        result = RunResult(
            top=module.name,
            part=self.device.part,
            parameters=params,
            step=step,
            utilization=utilization,
            wns_ns=wns,
            target_period_ns=self.target_period_ns,
            fmax_mhz=fmax,
            critical_path=critical_path,
            simulated_seconds=seconds,
            incremental=incremental,
            utilization_report_text=util_text,
            timing_report_text=timing_text,
            fidelity=effective,
        )
        self._cache.put(cache_key, result)
        self.simulated_seconds += seconds
        self.last_run_seconds = seconds
        self.last_run_stages = tuple(stages)
        self.runs += 1
        self.fidelity_runs[str(effective)] += 1
        return result

    def _static_estimate_run(
        self,
        module: Module,
        params: dict[str, int],
        directives: DirectiveSet,
        cache_key: int,
    ) -> RunResult:
        """Rung 0: analytical bounds, zero simulated seconds.

        Elaborates and optimizes the netlist exactly as the synthesis
        stage would (milliseconds of real time, no simulated tool charge),
        then reports the sound bounds from
        :func:`repro.netlist.static_estimate.static_estimate`: utilization
        lower bounds and an Fmax upper bound.  Never touches the stage
        caches, checkpoints, or the incremental warm-start reference — a
        static probe must not perturb what a later tool run computes.  A
        point whose utilization *lower bound* already overflows the device
        is guaranteed to fail every tool rung, so the overflow
        :class:`FlowError` raised here is a sound (and free) rejection.
        """
        from repro.netlist.static_estimate import static_estimate
        from repro.synth.elaborate import elaborate
        from repro.synth.optimizer import optimize

        effective = Fidelity.STATIC_ESTIMATE
        try:
            with observe_span("flow.static_estimate"):
                netlist = elaborate(module, params)
                optimized = optimize(netlist, directives.synth)
                bias = (
                    directives.synth.effect().delay_bias
                    * directives.impl.effect().delay_bias
                )
                est = static_estimate(
                    optimized,
                    self.device,
                    boxed=True,
                    delay_bias=bias,
                    noise_floor=0.9 if self.noise else 1.0,
                )
            utilization = UtilizationReport(
                used=est.utilization_lb, available=self.device.resources
            )
            overflow = utilization.overflows()
            if overflow:
                kinds = ", ".join(str(k) for k in overflow)
                raise FlowError(
                    f"{module.name}: utilization lower bound exceeds "
                    f"{self.device.part} capacity for {kinds}"
                )
        except FlowError:
            self.last_run_seconds = 0.0
            self.last_run_stages = ("static-estimate",)
            self.failed_runs += 1
            raise

        wns = self.target_period_ns - est.delay_lb_ns
        fmax = fmax_from_wns(self.target_period_ns, wns)
        util_text = render_utilization_report(
            utilization, design=module.name, part=self.device.part
        )
        timing_text = render_timing_report(
            wns_ns=wns,
            target_period_ns=self.target_period_ns,
            critical_delay_ns=est.delay_lb_ns,
            critical_path=est.critical_path,
            arcs_analyzed=est.arcs_analyzed,
        )
        result = RunResult(
            top=module.name,
            part=self.device.part,
            parameters=params,
            step=FlowStep.IMPLEMENTATION,
            utilization=utilization,
            wns_ns=wns,
            target_period_ns=self.target_period_ns,
            fmax_mhz=fmax,
            critical_path=est.critical_path,
            simulated_seconds=0.0,
            incremental=False,
            utilization_report_text=util_text,
            timing_report_text=timing_text,
            fidelity=effective,
        )
        self._cache.put(cache_key, result)
        self.last_run_seconds = 0.0
        self.last_run_stages = ("static-estimate",)
        self.runs += 1
        self.fidelity_runs[str(effective)] += 1
        return result

    def _synth_timing_estimate(self, synth) -> tuple[float, tuple[str, ...], int]:
        netlist = synth.netlist
        device = self.device
        t = device.timing()
        overhead = (t.ff_clk_to_q_ns + t.ff_setup_ns) * device.speed_factor
        # One pass over the netlist collects both per-block facts the arc
        # walk needs (internal delay, launch registration).
        internal: dict[str, float] = {}
        registered: dict[str, bool] = {}
        for b in netlist.blocks():
            internal[b.name] = block_internal_delay_ns(b, device)
            registered[b.name] = b.registered_output
        arcs = netlist.timing_arcs()
        if not arcs:
            raise FlowError("no timing arcs at synthesis estimate")
        hop = t.net_delay_ns * device.speed_factor
        lengths = np.fromiter(
            (len(arc.blocks) for arc in arcs), dtype=np.intp, count=len(arcs)
        )
        starts = np.zeros(len(arcs), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        flat = np.fromiter(
            (internal[name] for arc in arcs for name in arc.blocks),
            dtype=np.float64,
            count=int(lengths.sum()),
        )
        # A registered launch block contributes clk-to-q (already in the
        # overhead term), not its internal delay — subtract it back out.
        launch_skip = np.fromiter(
            (
                internal[arc.blocks[0]]
                if registered[arc.blocks[0]] and len(arc.blocks) > 1
                else 0.0
                for arc in arcs
            ),
            dtype=np.float64,
            count=len(arcs),
        )
        hops = np.fromiter(
            (arc.hops() for arc in arcs), dtype=np.float64, count=len(arcs)
        )
        delays = overhead + hop * hops + np.add.reduceat(flat, starts) - launch_skip
        worst_idx = int(np.argmax(delays))
        worst = float(delays[worst_idx]) * synth.directive.effect().delay_bias
        return worst, arcs[worst_idx].blocks, len(arcs)
