"""Single design point evaluation (paper Section III-A, end to end).

:class:`PointEvaluator` performs the full Dovado automation pipeline per
configuration:

1. the module is already parsed and lint-validated at construction;
2. **boxing** — a per-point box wrapper is generated (unique top name per
   parameter binding, so the tool's result cache distinguishes points);
3. **script generation** — the TCL evaluation frame is rendered with the
   staged sources, part, clock, directives and step;
4. **tool run** — the script executes in the mini-TCL interpreter bound to
   the shared VEDA session (checkpoints and caches persist across points);
5. **metric extraction** — utilization/timing report *text* is parsed back
   and the metric vector assembled (Eq. 1 for frequency).

The evaluator is the only component the DSE fitness function talks to.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.analysis.gate import PreflightGate
from repro.boxing import build_box
from repro.core.metrics import (
    MetricSpec,
    default_metrics,
    metrics_from_reports,
    report_fmax,
)
from repro.core.point import EvaluatedPoint
from repro.directives import DirectiveSet
from repro.flow.vivado_sim import Fidelity, FlowStep, VivadoSim
from repro.hdl.ast import HdlLanguage, Module
from repro.errors import DrcViolationError, ReproError
from repro.hdl.frontend import parse_source
from repro.hdl.validate import validate_module
from repro.observe import current_telemetry
from repro.tcl import TclInterp, VivadoTclSession, bind_vivado_commands
from repro.tcl.frames import render_evaluation_script
from repro.util.rng import stable_hash_seed

__all__ = ["PointEvaluator"]

_EXT = {
    HdlLanguage.VHDL: "vhd",
    HdlLanguage.VERILOG: "v",
    HdlLanguage.SYSTEMVERILOG: "sv",
}


class PointEvaluator:
    """Evaluate parameter bindings of one module on one device."""

    def __init__(
        self,
        source: str,
        language: HdlLanguage | str,
        top: str,
        part: str = "XC7K70T",
        target_period_ns: float = 1.0,   # the paper targets 1 GHz
        step: FlowStep = FlowStep.IMPLEMENTATION,
        directives: DirectiveSet | None = None,
        metrics: list[MetricSpec] | None = None,
        boxed: bool = True,
        clock_port: str | None = None,
        seed: int = 0,
        incremental: bool = False,
    ) -> None:
        self.language = HdlLanguage(language)
        self.source_text = source
        modules = parse_source(source, self.language)
        matches = [m for m in modules if m.name.lower() == top.lower()]
        if not matches:
            names = ", ".join(m.name for m in modules) or "<none>"
            raise LookupError(f"top {top!r} not found in source (has: {names})")
        self.module: Module = matches[0]
        self.warnings = validate_module(self.module)
        # Point-level DRC pre-flight: evaluate() consults this gate before
        # touching the tool session, so infeasible bindings (null widths,
        # unboxable configurations) never cost a run.  A layer that
        # checks points itself calls run() instead.
        self.gate = PreflightGate(self.module, boxed=boxed, clock_port=clock_port)
        self.part = part
        self.target_period_ns = float(target_period_ns)
        self.step = step
        self.directives = directives or DirectiveSet()
        self.metrics = metrics or default_metrics()
        self.boxed = boxed
        self.clock_port = clock_port
        self.seed = seed
        # Incremental flows warm-start from session-local checkpoints, so
        # runs stop being pure per-point functions — parallel fan-out
        # checks this flag and falls back to the serial shared session.
        self.incremental = bool(incremental)
        self.sim = VivadoSim(
            part=part,
            seed=seed,
            incremental_synth=incremental,
            incremental_impl=incremental,
        )
        self.sim.read_hdl(source, self.language)
        self.evaluations = 0
        self.last_script = ""
        self.last_reports: dict[str, str] = {}
        # Simulated seconds the most recent *failed* evaluation charged to
        # the tool before raising (0.0 for DRC rejections, which never
        # touch the tool session) — the cost-accounting layer reads this
        # to charge failed points against the DSE soft deadline.
        self.last_failure_seconds = 0.0

    # ------------------------------------------------------------------

    def metric_names(self) -> tuple[str, ...]:
        return tuple(s.canonical_name() for s in self.metrics)

    def _box_top(self, params: Mapping[str, int]) -> str:
        # The full 63-bit tag: truncating to 32 bits lets two distinct
        # bindings collide on the box name, silently sharing a cached
        # RunResult (colliding pairs exist within ~2^17 bindings).
        tag = stable_hash_seed(sorted((k.lower(), int(v)) for k, v in params.items()))
        return f"box_{tag:016x}"

    def evaluate(
        self, params: Mapping[str, int], fidelity: Fidelity | str | None = None
    ) -> EvaluatedPoint:
        """Check one configuration on :attr:`gate`, then :meth:`run` it.

        A rejected point writes its ``outcome="drc"`` ledger row and
        raises :class:`DrcViolationError`; the tool never sees it.
        """
        params = {k: int(v) for k, v in params.items()}
        tel = current_telemetry()
        t0 = time.perf_counter() if tel is not None else 0.0
        try:
            self.gate.raise_for_point(params)
        except DrcViolationError as exc:
            self.last_failure_seconds = 0.0
            if tel is not None:
                tel.ledger.append(
                    params=params, outcome="drc", charge=0.0,
                    error_type=type(exc).__name__,
                    wall_s=time.perf_counter() - t0,
                )
            raise
        return self.run(params, fidelity)

    def run(
        self, params: Mapping[str, int], fidelity: Fidelity | str | None = None
    ) -> EvaluatedPoint:
        """Run one configuration through the flow, unchecked: the caller
        has checked it (:func:`repro.core.pipeline.consult`).

        ``fidelity`` (``step=IMPLEMENTATION`` only) selects a rung of the
        flow ladder: ``None``/``FULL_ROUTE`` renders the script and runs
        the tool byte-identically to the pre-ladder evaluator;
        ``PLACED_ESTIMATE`` renders a place-without-route script;
        ``SYNTH_ESTIMATE`` renders a synthesis-only script;
        ``STATIC_ESTIMATE`` runs no tool stage at all — the session
        reports analytical bounds at zero simulated seconds.  The returned
        point and its ledger record are tagged with the fidelity the
        metrics were actually measured at.
        """
        params = {k: int(v) for k, v in params.items()}
        if fidelity is not None:
            fidelity = Fidelity(fidelity)
        if self.step != FlowStep.IMPLEMENTATION:
            requested = Fidelity.SYNTH_ESTIMATE
        else:
            requested = fidelity or Fidelity.FULL_ROUTE
        tel = current_telemetry()
        t0 = time.perf_counter() if tel is not None else 0.0
        session = VivadoTclSession(sim=self.sim)
        if requested is Fidelity.STATIC_ESTIMATE:
            # The static rung's script carries no tool command, so the
            # session needs the request spelled out to distinguish it from
            # a synthesis-only evaluation.
            session.requested_fidelity = Fidelity.STATIC_ESTIMATE
        interp = TclInterp()
        bind_vivado_commands(interp, session)

        module_key = f"dut.{_EXT[self.language]}"
        session.stage_source(module_key, self.source_text, self.language)
        sources: list[tuple[str, HdlLanguage]] = [(module_key, self.language)]

        if self.boxed:
            box = build_box(
                self.module,
                params,
                clock_port=self.clock_port,
                box_name=self._box_top(params),
            )
            box.install(self.sim)
            # install() read the box source directly; stage it anyway so the
            # rendered script is faithful and re-runnable.
            box_key = f"{box.top}.{_EXT[box.language]}"
            session.stage_source(box_key, box.source, box.language)
            sources.append((box_key, box.language))
            top = box.top
            generic_args = {}
        else:
            top = self.module.name
            generic_args = params

        script = render_evaluation_script(
            sources=sources,
            top=top,
            part=self.part,
            target_period_ns=self.target_period_ns,
            step=self.step,
            directives=self.directives,
            fidelity=fidelity,
        )
        if generic_args:
            # Unboxed runs pass parameters as -generic options.
            generics = " ".join(
                f"-generic {k}={v}" for k, v in sorted(generic_args.items())
            )
            script = script.replace(
                "synth_design -top $top_module",
                f"synth_design -top $top_module {generics}",
            )
        self.last_script = script
        sim_before = self.sim.simulated_seconds
        try:
            interp.eval(script)
        except ReproError as exc:
            # The flow charges the partial cost of a failed run before
            # raising; attribute that delta to this point.
            charge = self.sim.simulated_seconds - sim_before
            self.last_failure_seconds = charge
            if tel is not None:
                tel.ledger.append(
                    params=params, outcome="failed", charge=charge,
                    error_type=type(exc).__name__,
                    wall_s=time.perf_counter() - t0,
                    fidelity=str(requested),
                )
            raise

        self.last_reports = {
            "utilization": interp.files["utilization.rpt"],
            "timing": interp.files["timing.rpt"],
        }
        values = metrics_from_reports(
            interp.files["utilization.rpt"],
            interp.files["timing.rpt"],
            self.metrics,
        )
        wanted = {s.canonical_name() for s in self.metrics}
        if "performance" in wanted:
            values["performance"] = self._performance(
                params, report_fmax(interp.files["timing.rpt"])
            )
        if "power" in wanted:
            from repro.flow.power import estimate_power
            from repro.flow.reports import parse_utilization_report

            utilization = parse_utilization_report(interp.files["utilization.rpt"])
            values["power"] = estimate_power(
                utilization.used,
                self.sim.device,
                frequency_mhz=report_fmax(interp.files["timing.rpt"]),
            ).total_mw
        self.evaluations += 1
        # Cache attribution comes from the tool's explicit flag (plumbed
        # run -> session result), not from ``last_run_seconds == 0.0``,
        # which can be stale after an intervening failed or gated run.
        result = session.result
        cached = result.from_cache if result is not None else self.sim.last_run_cached
        measured = result.fidelity if result is not None else requested
        point = EvaluatedPoint(
            parameters=dict(params),
            metrics=values,
            source="cache" if cached else "tool",
            simulated_seconds=0.0 if cached else self.sim.last_run_seconds,
            fidelity=str(measured),
        )
        if tel is not None:
            tel.ledger.append(
                params=params, outcome=point.source, metrics=values,
                charge=point.simulated_seconds,
                wall_s=time.perf_counter() - t0,
                fidelity=str(measured),
            )
        return point

    def evaluate_many(self, points: list[Mapping[str, int]]) -> list[EvaluatedPoint]:
        """Design automation mode: evaluate an explicit configuration list."""
        return [self.evaluate(p) for p in points]

    def _performance(self, params: Mapping[str, int], fmax_mhz: float) -> float:
        """Resolve the registered static performance model for the module.

        Raises when the ``performance`` metric was requested but no model
        is registered — a silent zero would corrupt the Pareto front.
        """
        from repro.perf import performance_model_for

        model = performance_model_for(self.module.name)
        if model is None:
            raise LookupError(
                f"metric 'performance' requested but no performance model is "
                f"registered for module {self.module.name!r}; call "
                "repro.perf.register_performance_model first"
            )
        # The model sees the full environment (defaults + overrides).
        from repro.synth.elaborate import resolve_environment

        env = resolve_environment(self.module, params)
        return float(model.throughput(env, fmax_mhz))
