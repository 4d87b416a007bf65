"""The DSE pre-flight gate: point-level DRC before any tool dispatch.

Simopt-style speculative pre-checks ahead of the CAD flow: before a design
point is priced as a (simulated) Vivado run, the gate elaborates its
parameter binding through the elaboration + boxing rule stages and rejects
points that cannot produce a meaningful run — zero/negative port widths,
unboxable configurations.  A rejection costs nothing: no tool session is
touched, no simulated seconds accrue.

Verdicts are memoized on the frozen parameter binding (the same key the
cross-batch evaluation memo uses), so a point is checked once per gate
lifetime no matter how many generations re-propose it.  When every sampled
point is feasible the gate is behaviour-neutral: the checks are pure
functions of (module, binding) and consume no randomness.

A verdict depends on the module, the binding, ``boxed``, the clock port
and the netlist stage; the space feeds only the interval layer.  So one
gate serves a whole evaluator stack: a repeated question is a memo hit.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.analysis.checker import DesignRuleChecker
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RuleConfig, get_rule
from repro.errors import DrcViolationError
from repro.hdl.ast import Module
from repro.observe import current_telemetry

__all__ = ["PreflightGate", "freeze_params"]

# The static layer may short-circuit a rejection only when these rules run
# at their stock ERROR severity — its infeasibility proofs are phrased in
# terms of exactly these codes (D002 merely labels the synthesized findings).
_STATIC_BACKING_CODES = ("P001", "P002", "P005")

FrozenParams = tuple[tuple[str, int], ...]


def freeze_params(params: Mapping[str, int]) -> FrozenParams:
    """Canonical hashable key for a parameter binding."""
    return tuple(sorted((k.lower(), int(v)) for k, v in params.items()))


class PreflightGate:
    """Memoized point-level design rule checks for one module."""

    def __init__(
        self,
        module: Module,
        space: Any = None,
        boxed: bool = True,
        clock_port: Optional[str] = None,
        config: Optional[RuleConfig] = None,
        netlist_stage: bool = False,
    ) -> None:
        self.module = module
        self.space = space
        self.boxed = boxed
        self.clock_port = clock_port
        self.checker = DesignRuleChecker(config)
        # Opt-in netlist stage: points passing source-level DRC are also
        # elaborated and screened by the error-severity netlist rules
        # (N001 loops / N002 undriven / N003 multiply-driven) — still zero
        # simulated seconds, just milliseconds of elaboration.  Off by
        # default so stock gates reproduce pre-netlist behaviour exactly.
        self.netlist_stage = bool(netlist_stage)
        self._verdicts: dict[FrozenParams, tuple[Finding, ...]] = {}
        self.checks = 0
        self.rejections = 0
        self.static_rejections = 0
        self.netlist_rejections = 0
        self._static: Any = None  # lazy StaticSpaceAnalysis (or None)
        self._static_ready = False

    # ------------------------------------------------------------------
    # the static (interval-analysis) layer

    def _config_allows_static(self) -> bool:
        """The static layer's proofs assume the stock rule configuration.

        Its verdicts are phrased as "the checker would certainly emit a
        P001/P002/P005 error here"; a config that disables, demotes, or
        baselines those rules breaks that equivalence, so the gate falls
        back to per-point checking entirely.
        """
        cfg = self.checker.config
        if cfg.baseline:
            return False
        if not cfg.enabled("D002"):
            return False
        for code in _STATIC_BACKING_CODES:
            if not cfg.enabled(code):
                return False
            if cfg.severity_of(get_rule(code)) is not Severity.ERROR:
                return False
        return True

    def _static_analysis(self) -> Any:
        """The lazily-built interval analysis, or None when inapplicable.

        The analysis only *short-circuits definite rejections* — every
        undecided point still reaches the full checker, so verdicts (and
        therefore Pareto fronts) are identical with or without it.
        """
        if not self._static_ready:
            self._static_ready = True
            if self.space is not None and self._config_allows_static():
                from repro.analysis.dataflow_rules import StaticSpaceAnalysis

                analysis = StaticSpaceAnalysis(self.module, self.space)
                if analysis.applicable:
                    self._static = analysis
        return self._static

    def static_infeasible_mask(self, X: Any) -> np.ndarray:
        """Vectorized definite-infeasibility for encoded rows (True = the
        full checker would certainly reject the decoded binding)."""
        rows = np.atleast_2d(np.asarray(X, dtype=np.int64))
        static = self._static_analysis()
        if static is None:
            return np.zeros(rows.shape[0], dtype=bool)
        return static.static_infeasible_mask(rows)

    # ------------------------------------------------------------------

    def errors(self, params: Mapping[str, int]) -> tuple[Finding, ...]:
        """Error-severity findings for ``params`` (memoized; empty = feasible)."""
        key = freeze_params(params)
        if key not in self._verdicts:
            self.checks += 1
            findings: Optional[tuple[Finding, ...]] = None
            static = self._static_analysis()
            if static is not None:
                findings = static.reject_findings(params)
            tel = current_telemetry()
            if findings is not None:
                # Interval analysis proved the rejection — zero elaboration.
                self.static_rejections += 1
                if tel is not None:
                    tel.counters.inc("decision.static_reject")
            else:
                if tel is not None:
                    tel.counters.inc("decision.drc_elaboration")
                result = self.checker.check_point(
                    self.module,
                    params,
                    boxed=self.boxed,
                    clock_port=self.clock_port,
                )
                findings = result.errors()
                if not findings and self.netlist_stage:
                    netlist_errors = self._netlist_errors(params)
                    if netlist_errors:
                        self.netlist_rejections += 1
                        if tel is not None:
                            tel.counters.inc("decision.netlist_reject")
                        findings = netlist_errors
            self._verdicts[key] = findings
            if self._verdicts[key]:
                self.rejections += 1
        return self._verdicts[key]

    def _netlist_errors(self, params: Mapping[str, int]) -> tuple[Finding, ...]:
        """Error-severity netlist findings (structurally broken point).

        Elaboration failures are *not* rejections here: a binding the
        source-level rules accepted but the elaborator still refuses will
        fail identically (and get charged) inside the tool run, and the
        gate must not silently absorb that diagnostic.
        """
        from repro.errors import ElaborationError

        try:
            result = self.checker.check_netlist(self.module, params)
        except ElaborationError:
            return ()
        return result.errors()

    def is_feasible(self, params: Mapping[str, int]) -> bool:
        return not self.errors(params)

    def violation(self, params: Mapping[str, int]) -> Optional[DrcViolationError]:
        """The error a rejected point raises, or None when feasible.

        Built here (not at the raise site) so the serial evaluator and the
        parallel fan-out produce byte-identical failure records.
        """
        errors = self.errors(params)
        if not errors:
            return None
        details = "; ".join(str(f) for f in errors)
        return DrcViolationError(
            f"module {self.module.name!r} failed DRC pre-flight at point "
            f"({', '.join(f'{k}={v}' for k, v in sorted(params.items()))}): "
            f"{details}",
            findings=errors,
        )

    def raise_for_point(self, params: Mapping[str, int]) -> None:
        """Raise :class:`DrcViolationError` when ``params`` is infeasible."""
        error = self.violation(params)
        if error is not None:
            raise error

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        out = {
            "drc_checks": self.checks,
            "drc_rejections": self.rejections,
            "drc_memo_size": len(self._verdicts),
        }
        if self._static is not None:
            out["drc_static_rejections"] = self.static_rejections
        if self.netlist_stage:
            out["drc_netlist_rejections"] = self.netlist_rejections
        return out
