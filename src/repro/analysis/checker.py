"""The multi-pass design rule checker.

:class:`DesignRuleChecker` owns a :class:`~repro.analysis.registry.
RuleConfig` and exposes one entry point per pass:

- :meth:`check_interface` — point-independent interface rules (E/W codes);
- :meth:`check_point` — elaboration + boxing rules under one concrete
  parameter binding (P/B codes); the DSE pre-flight gate runs exactly
  this, and the checker keeps one :class:`~repro.analysis.plan.PointPlan`
  per module so the point-independent part runs once;
- :meth:`check_sources` — hierarchy rules over a source set (H codes);
- :meth:`check_design` — the CLI's full sweep: interface + hierarchy +
  point checks at the default binding and at the boundary points of the
  declared space.

Importing this module pulls in every rules module, so the registry is
always fully populated once a checker exists.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

# Importing the rules modules registers their rules (intentional side effect).
from repro.analysis import (  # noqa: F401
    boxing_rules,
    concurrency,
    dataflow_rules,
    elaboration_rules,
    hierarchy_rules,
    interface_rules,
    netlist_rules,
)
from repro.analysis.findings import CheckResult, Finding, Severity
from repro.analysis.plan import BOX_KEYED_CODES, PointPlan
from repro.analysis.registry import (
    Rule,
    RuleConfig,
    RuleContext,
    Stage,
    rules_for_stage,
)
from repro.devices import Device
from repro.hdl.ast import Module

__all__ = ["DesignRuleChecker", "boundary_points"]


def boundary_points(
    space: Any, defaults: Mapping[str, int] | None = None
) -> list[dict[str, int]]:
    """Per-dimension boundary bindings of a parameter space.

    Produces, for every dimension, its decoded low and high bound with all
    other dimensions at their space midpoints (or the caller's defaults) —
    the cheapest point set that still exercises each range endpoint, where
    width arithmetic typically degenerates first.
    """
    dims = list(space)
    base: dict[str, int] = {}
    for d in dims:
        base[d.name] = int(d.decode((d.low + d.high) // 2))
    if defaults:
        for name, value in defaults.items():
            for d in dims:
                if d.name.lower() == name.lower():
                    base[d.name] = int(value)
    points: list[dict[str, int]] = [dict(base)]
    for d in dims:
        for encoded in (d.low, d.high):
            point = dict(base)
            point[d.name] = int(d.decode(encoded))
            if point not in points:
                points.append(point)
    return points


class DesignRuleChecker:
    """Run registered design rules under one configuration."""

    def __init__(self, config: RuleConfig | None = None) -> None:
        self.config = config or RuleConfig()
        self._plans: dict[Stage, tuple[tuple[Rule, Severity], ...]] = {}
        # Keyed by id(): each plan holds its module, so no id is reused.
        self._point_plans: dict[int, PointPlan] = {}

    # ------------------------------------------------------------------

    def _plan(self, stage: Stage) -> tuple[tuple[Rule, Severity], ...]:
        """The stage's enabled rules with their severities, resolved once."""
        plan = self._plans.get(stage)
        if plan is None:
            plan = self._plans[stage] = tuple(
                (rule_, self.config.severity_of(rule_))
                for rule_ in rules_for_stage(stage)
                if self.config.enabled(rule_.code)
            )
        return plan

    def _point_plan(self, module: Module) -> PointPlan:
        plan = self._point_plans.get(id(module))
        if plan is None:
            plan = self._point_plans[id(module)] = PointPlan(module)
        return plan

    def _run_stage(self, stage: Stage, ctx: RuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for rule_, severity in self._plan(stage):
            for violation in rule_.check(ctx):
                findings.append(
                    Finding(
                        severity=severity,
                        code=rule_.code,
                        message=violation.message,
                        module=violation.module,
                        line=violation.line,
                    )
                )
        return findings

    def _suppress(self, findings: Iterable[Finding]) -> CheckResult:
        kept = tuple(
            f for f in findings if f.fingerprint() not in self.config.baseline
        )
        return CheckResult(kept)

    # ------------------------------------------------------------------

    def check_interface(self, module: Module) -> CheckResult:
        """Point-independent interface rules (the historical lint pass)."""
        ctx = RuleContext(module=module)
        return self._suppress(self._run_stage(Stage.INTERFACE, ctx))

    def check_point(
        self,
        module: Module,
        params: Mapping[str, int] | None,
        space: Any = None,
        boxed: bool = True,
        clock_port: str | None = None,
    ) -> CheckResult:
        """Elaboration + boxing rules under one concrete binding.

        The boxing findings are computed once per key of
        :attr:`PointPlan.boxing <repro.analysis.plan.PointPlan.boxing>`
        and reused, in order, for every later point with that key.
        """
        plan = self._point_plan(module)
        ctx = RuleContext(
            module=module,
            params=dict(params or {}),
            env=plan.environment(params),
            space=space,
            boxed=boxed,
            clock_port=clock_port,
            cache={"plan": plan},
        )
        findings = self._run_stage(Stage.ELABORATION, ctx)
        key = (boxed, clock_port, plan.all_free(params or {}))
        boxing = plan.boxing.get(key)
        if boxing is None:
            boxing = tuple(self._run_stage(Stage.BOXING, ctx))
            if all(r.code in BOX_KEYED_CODES for r, _ in self._plan(Stage.BOXING)):
                plan.boxing[key] = boxing
        findings += boxing
        return self._suppress(findings)

    def check_netlist(
        self,
        module: Module,
        params: Mapping[str, int] | None = None,
        device: Device | None = None,
        target_period_ns: float | None = None,
    ) -> CheckResult:
        """Netlist-structure rules (N codes) at one concrete binding.

        Elaborates the point with the combinational-loop check *disabled*
        so rule N001 can enumerate every cycle as a finding instead of the
        elaborator dying on the first; other elaboration failures (bad
        parameters, empty netlists) propagate to the caller — the
        source-level passes own those diagnostics.
        """
        from repro.synth.elaborate import elaborate

        netlist = elaborate(module, params, check_loops=False)
        ctx = RuleContext(
            module=module,
            params=dict(params or {}),
            netlist=netlist,
            device=device,
            target_period_ns=target_period_ns,
        )
        return self._suppress(self._run_stage(Stage.NETLIST, ctx))

    def check_dataflow(
        self,
        module: Module,
        space: Any = None,
        sources: Sequence[tuple[str, str]] = (),
    ) -> CheckResult:
        """Dataflow rules: dependency-graph + interval analysis (D codes)."""
        ctx = RuleContext(module=module, space=space, sources=tuple(sources))
        return self._suppress(self._run_stage(Stage.DATAFLOW, ctx))

    def check_sources(
        self,
        sources: Sequence[tuple[str, str]],
        known_modules: Sequence[str] = (),
    ) -> CheckResult:
        """Hierarchy rules over ``(text, language)`` source pairs."""
        ctx = RuleContext(
            sources=tuple(sources), known_modules=tuple(known_modules)
        )
        return self._suppress(self._run_stage(Stage.HIERARCHY, ctx))

    def check_python(
        self, py_sources: Sequence[tuple[str, str]]
    ) -> CheckResult:
        """Concurrency/atomicity self-analysis (S codes) over Python
        sources given as ``(relative path, text)`` pairs — the ``lint
        --self`` pass over the framework's own service layer."""
        ctx = RuleContext(py_sources=tuple(py_sources))
        return self._suppress(self._run_stage(Stage.CONCURRENCY, ctx))

    def check_design(
        self,
        module: Module,
        space: Any = None,
        sources: Sequence[tuple[str, str]] = (),
        known_modules: Sequence[str] = (),
        points: Optional[Sequence[Mapping[str, int]]] = None,
        boxed: bool = True,
        clock_port: str | None = None,
    ) -> CheckResult:
        """The full static sweep the ``lint`` CLI runs.

        ``points`` overrides the elaboration set; otherwise the default
        binding is checked, plus the boundary points of ``space`` when a
        space is declared.
        """
        result = self.check_interface(module)
        result = result.merged(
            self.check_dataflow(module, space=space, sources=tuple(sources))
        )
        if sources:
            result = result.merged(
                self.check_sources(sources, known_modules=known_modules)
            )
        if points is None:
            point_list: list[Mapping[str, int]] = [{}]
            if space is not None:
                point_list = list(boundary_points(space))
        else:
            point_list = list(points)
        for point in point_list:
            result = result.merged(
                self.check_point(
                    module,
                    point,
                    space=space,
                    boxed=boxed,
                    clock_port=clock_port,
                )
            )
        return result
