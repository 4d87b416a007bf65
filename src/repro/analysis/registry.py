"""The design-rule registry: stable codes, severities, per-rule config.

Every check the analyzer performs is a registered :class:`Rule` with

- a **stable code** (``E001``, ``P003``, …) that never changes meaning —
  CI baselines and suppression files key on it;
- a **kebab-case name** for humans and SARIF;
- a default :class:`~repro.analysis.findings.Severity` (overridable per
  run via :class:`RuleConfig`);
- the **stage** it runs in (interface / elaboration / boxing / hierarchy),
  which decides what context it receives.

Rule functions are tiny generators: they receive a :class:`RuleContext`
and yield :class:`Violation` drafts; the checker stamps code and severity
onto them.  Registering is declaration — importing a rules module is
enough to make its rules run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.analysis.findings import Severity
from repro.devices import Device
from repro.hdl.ast import Module
from repro.netlist import Netlist

__all__ = [
    "Stage",
    "Violation",
    "RuleContext",
    "Rule",
    "RuleConfig",
    "rule",
    "all_rules",
    "get_rule",
    "rules_for_stage",
]


class Stage(str, enum.Enum):
    """When a rule runs, and therefore what context it can rely on."""

    INTERFACE = "interface"      # parsed module, no parameter binding
    ELABORATION = "elaboration"  # concrete point bound, widths foldable
    BOXING = "boxing"            # generated wrapper consistency
    HIERARCHY = "hierarchy"      # cross-module instantiation structure
    DATAFLOW = "dataflow"        # parameter flow + interval analysis over a space
    NETLIST = "netlist"          # elaborated block-netlist structure (N codes)
    CONCURRENCY = "concurrency"  # self-analysis of the service layer (S codes)

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Violation:
    """A rule's raw diagnostic, before code/severity stamping."""

    message: str
    module: str = ""
    line: int = 0


@dataclass
class RuleContext:
    """Everything a rule may inspect.  Fields are stage-dependent:

    - INTERFACE rules see ``module``;
    - ELABORATION rules additionally see ``params`` (the concrete point),
      ``env`` (the resolved parameter environment) and, when the caller
      declared one, the DSE ``space``;
    - BOXING rules see ``boxed``/``clock_port`` on top of the point;
    - HIERARCHY rules see ``sources`` and ``known_modules``;
    - NETLIST rules see ``netlist`` (the elaborated block graph at the
      bound point) plus ``device`` and ``target_period_ns`` for the
      device-derived thresholds (fanout capacity, achievable LUT depth);
    - CONCURRENCY rules see ``py_sources`` — ``(relative path, text)``
      pairs of the framework's *own* Python (the S-series self-analysis
      lints the service layer, not user HDL).

    ``cache`` is scratch space shared by the rules of one run (the boxing
    rules use it to build the box once, not once per rule).  A checker
    seeds it with the module's point plan (``"plan"``, see
    :mod:`repro.analysis.plan`); a rule called on its own builds one.
    """

    module: Optional[Module] = None
    params: Optional[Mapping[str, int]] = None
    env: Optional[Mapping[str, int]] = None
    space: Optional[Any] = None  # repro.core.spaces.ParameterSpace
    boxed: bool = True
    clock_port: Optional[str] = None
    sources: tuple[tuple[str, str], ...] = ()
    known_modules: tuple[str, ...] = ()
    netlist: Optional[Netlist] = None
    device: Optional[Device] = None
    target_period_ns: Optional[float] = None
    py_sources: tuple[tuple[str, str], ...] = ()
    cache: dict[str, Any] = field(default_factory=dict)


CheckFn = Callable[[RuleContext], Iterable[Violation]]


@dataclass(frozen=True)
class Rule:
    """One registered design rule."""

    code: str
    name: str
    severity: Severity
    stage: Stage
    description: str
    check: CheckFn


_RULES: dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    severity: Severity,
    stage: Stage,
    description: str,
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering ``fn`` as the implementation of a rule."""

    def wrap(fn: CheckFn) -> CheckFn:
        if code in _RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        _RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            stage=stage,
            description=description,
            check=fn,
        )
        return fn

    return wrap


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in stable (code-sorted) order."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        known = ", ".join(sorted(_RULES)) or "<none>"
        raise KeyError(f"unknown rule code {code!r}; registered: {known}") from None


def rules_for_stage(stage: Stage) -> tuple[Rule, ...]:
    return tuple(r for r in all_rules() if r.stage == stage)


@dataclass(frozen=True)
class RuleConfig:
    """Per-run rule configuration: disables, severity overrides, baseline.

    ``disabled`` holds rule codes that are skipped entirely;
    ``severity_overrides`` remaps a code's severity (e.g. promote ``W002``
    to an error in CI); ``baseline`` holds finding fingerprints accepted
    as pre-existing debt (see :mod:`repro.analysis.baseline`).
    """

    disabled: frozenset[str] = frozenset()
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    baseline: frozenset[str] = frozenset()

    def enabled(self, code: str) -> bool:
        return code not in self.disabled

    def severity_of(self, rule_: Rule) -> Severity:
        return self.severity_overrides.get(rule_.code, rule_.severity)
