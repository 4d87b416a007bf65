"""The point plan: one module's point-independent DRC work, done once.

The pre-flight gate (:mod:`repro.analysis.gate`) runs
:meth:`~repro.analysis.checker.DesignRuleChecker.check_point` on every
new binding a search proposes, always for the same module.  Most of what
the point rules look at cannot change with the binding.  A
:class:`PointPlan` resolves that part on the module's first check, and
the checker keeps it for its own lifetime (so one plan per gate):

- each vector port's high and low bound, compiled once by
  :func:`repro.hdl.expr.compile_expr`, and whether it names a parameter
  (P001, P002), and the compiled defaults that re-derive the local
  parameters (:meth:`PointPlan.environment`);
- the space dimension each bound name maps to (P003), and each free
  parameter's integer subtype check (P005);
- the boxing findings (B001–B004).  They depend only on whether the
  point is boxed, on the clock port, and on whether every override names
  a free parameter (:func:`repro.boxing.build_box` raises on any other
  name); no generic *value* reaches one.  So the checker computes them
  once per such key, building the box once per key, not once per point.

What does change with the binding — the environment, the bound values,
the P001–P005 findings — is computed for every point.  A plan memoizes
no verdict across checkers: the gate's verdict memo is per gate, and a
process-wide one would answer a repeated session from the memo of an
earlier one.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.analysis.findings import Finding
from repro.analysis.registry import RuleContext
from repro.hdl import expr as E
from repro.hdl.ast import Module, Parameter, Port

__all__ = [
    "BOX_KEYED_CODES",
    "PointPlan",
    "point_plan",
    "subtype_check",
    "width_refs_of",
]

#: The boxing rules whose findings :attr:`PointPlan.boxing` may memoize.
BOX_KEYED_CODES = frozenset({"B001", "B002", "B003", "B004"})

#: ``(port, compiled high, compiled low, names a parameter)``.
VectorPort = tuple[Port, E.Compiled, E.Compiled, bool]

#: ``(parameter, value is allowed, message when it is not)``.
Subtype = tuple[Parameter, Callable[[int], bool], str]


def width_refs_of(port: Port) -> set[str]:
    """Parameter names a port's range expressions reference."""
    refs: set[str] = set()
    if port.ptype.high is not None:
        refs |= E.free_names(port.ptype.high)
    if port.ptype.low is not None:
        refs |= E.free_names(port.ptype.low)
    return refs


def _zero(env: Mapping[str, int | str | bool]) -> int:
    return 0


def subtype_check(param: Parameter) -> Optional[Subtype]:
    """Rule P005's check for one free parameter, or None when unconstrained."""
    ptype = param.ptype.lower()
    if ptype == "natural":
        return param, lambda v: v >= 0, "natural generics must be >= 0"
    if ptype == "positive":
        return param, lambda v: v >= 1, "positive generics must be >= 1"
    if param.is_boolean():
        return param, lambda v: v in (0, 1), f"{param.ptype} parameters take only 0/1"
    return None


class PointPlan:
    """The point rules' view of one module, resolved once."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.free = frozenset(p.name.lower() for p in module.free_parameters())
        self.vectors: tuple[VectorPort, ...] = tuple(
            (
                port,
                E.compile_expr(port.ptype.high),
                E.compile_expr(port.ptype.low) if port.ptype.low is not None else _zero,
                bool(width_refs_of(port)),
            )
            for port in module.ports
            if port.ptype.high is not None
        )
        #: ``(name, compiled default)`` of each local parameter that has a
        #: default, in declaration order.
        self.local_defaults: tuple[tuple[str, E.Compiled], ...] = tuple(
            (p.name, E.compile_expr(p.default))
            for p in module.parameters
            if p.local and p.default is not None
        )
        # Keyed like Module.parameter_map, so a name resolves as P004 sees it.
        self.subtypes: dict[str, Subtype] = {}
        for key, param in module.parameter_map.items():
            fact = None if param.local else subtype_check(param)
            if fact is not None:
                self.subtypes[key] = fact
        #: (boxed, clock port, every override free) -> boxing findings;
        #: filled by the checker.
        self.boxing: dict[tuple[bool, Optional[str], bool], tuple[Finding, ...]] = {}
        self._space: Any = None
        self._dimensions: dict[str, Any] = {}

    def environment(self, params: Mapping[str, int] | None) -> dict[str, int]:
        """Defaults + overrides, with localparams re-derived in declaration
        order from their compiled defaults.

        Unlike :func:`repro.synth.elaborate.resolve_environment` this never
        raises: overrides naming unknown or local parameters are skipped
        here and reported by rule ``P004`` instead.  A local whose default
        does not fold keeps its previous value, as
        :meth:`~repro.hdl.ast.Parameter.default_value` would leave it.
        """
        env = self.module.default_environment()
        known = self.module.parameter_map
        for name, value in (params or {}).items():
            param = known.get(name.lower())
            if param is None or param.local:
                continue
            env[param.name] = int(value)
        if self.local_defaults:
            folded = E.fold_env(env)
            # Names that fold apart are updated in place; otherwise the
            # fold's "later duplicate wins" order must be redone.
            distinct = len(known) == len(self.module.parameters)
            for name, default in self.local_defaults:
                try:
                    value = default(folded)
                except E.EvalError:
                    continue
                env[name] = value
                if distinct:
                    folded[name.lower()] = value
                else:
                    folded = E.fold_env(env)
        return env

    def all_free(self, params: Mapping[str, int]) -> bool:
        """Whether every override names a free parameter (the box builds)."""
        return self.free.issuperset(map(str.lower, params))

    def dimension(self, space: Any, name: str) -> Any:
        """``space.dimension(name)``, or None when it has none (memoized
        for the last space asked about)."""
        if space is not self._space:
            self._space, self._dimensions = space, {}
        try:
            return self._dimensions[name]
        except KeyError:
            pass
        try:
            dim = space.dimension(name)
        except KeyError:
            dim = None
        self._dimensions[name] = dim
        return dim


def point_plan(ctx: RuleContext) -> PointPlan:
    """The checker's plan for ``ctx.module``; a rule called on its own
    (outside a checker) gets a fresh one."""
    plan: PointPlan | None = ctx.cache.get("plan")
    if plan is None:
        assert ctx.module is not None, "point rules need ctx.module"
        plan = ctx.cache["plan"] = PointPlan(ctx.module)
    return plan
