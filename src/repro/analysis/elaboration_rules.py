"""Elaboration-stage rules (P001–P005): checks at a *concrete* point.

The interface pass can only reason about expressions symbolically; these
rules bind an actual parameter assignment, constant-fold every width and
range expression through :mod:`repro.hdl.expr`, and catch the defects
that only manifest at specific DSE points — null/reversed port ranges,
widths that stop being evaluable (``$clog2(0)``, division by zero),
points outside the declared parameter space, overrides of unknown or
local parameters, and values violating VHDL integer subtypes.

The DSE pre-flight gate (:mod:`repro.analysis.gate`) runs exactly this
stage (plus boxing) before a point is priced as a tool run.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis.findings import Severity
from repro.analysis.plan import point_plan
from repro.analysis.registry import RuleContext, Stage, Violation, rule
from repro.errors import InvalidSpaceError
from repro.hdl import expr as E
from repro.hdl.ast import HdlLanguage, Module, Port

__all__: list[str] = []  # rules register themselves; nothing to export


def _module(ctx: RuleContext) -> Module:
    assert ctx.module is not None, "elaboration rules need ctx.module"
    return ctx.module


#: ``(port, high, low, names a parameter)`` of a port whose bounds fold.
Range = tuple[Port, int, int, bool]
#: ``(port, "high" or "low", why it does not fold)``.
Unevaluable = tuple[Port, str, E.EvalError]


def _vector_bounds(ctx: RuleContext) -> tuple[list[Range], list[Unevaluable]]:
    """The vector ports' bounds, folded once per run from the plan's
    compiled expressions: the ranges of ports whose bounds both fold
    (P001), and every bound that does not, in port order (P002)."""
    bounds: tuple[list[Range], list[Unevaluable]] | None = ctx.cache.get("bounds")
    if bounds is None:
        env = E.fold_env(ctx.env or {})
        ranges: list[Range] = []
        unevaluable: list[Unevaluable] = []
        for port, high, low, referenced in point_plan(ctx).vectors:
            try:
                ranges.append((port, high(env), low(env), referenced))
            except E.EvalError:
                # Compiled bounds are pure: fold each again to see which failed.
                for which, bound in (("high", high), ("low", low)):
                    try:
                        bound(env)
                    except E.EvalError as exc:
                        unevaluable.append((port, which, exc))
        bounds = ctx.cache["bounds"] = (ranges, unevaluable)
    return bounds


def _point_repr(params: Mapping[str, int] | None) -> str:
    if not params:
        return "defaults"
    return ", ".join(f"{k}={v}" for k, v in sorted(params.items()))


@rule(
    "P001",
    "null-port-range",
    Severity.ERROR,
    Stage.ELABORATION,
    "A vector port elaborates to a null/reversed range (zero or negative "
    "width) at this parameter binding.",
)
def check_null_port_range(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    for port, high, low, referenced in _vector_bounds(ctx)[0]:
        # Both parsers normalize so the stored high is the wider end:
        # VHDL `l to r` stores high=r/low=l, so a null range — `7 downto 8`
        # or `0 to -1`, both width 0 in VHDL — is always high < low.
        if high >= low:
            continue
        if module.language != HdlLanguage.VHDL:
            # Verilog permits ascending index numbering (`[0:7]` is a
            # legal 8-bit vector); only a *parameter-dependent* range that
            # collapsed below its lsb is the degenerate-width bug class.
            if not referenced:
                continue
        if port.ptype.descending:
            rendered = f"{high} downto {low}"
        else:
            rendered = f"{low} to {high}"
        yield Violation(
            f"port {port.name!r} elaborates to a null range "
            f"({rendered}) at point ({_point_repr(ctx.params)})",
            module=module.name,
            line=port.line,
        )


@rule(
    "P002",
    "unevaluable-width",
    Severity.ERROR,
    Stage.ELABORATION,
    "A port range expression cannot be constant-folded at this parameter "
    "binding (e.g. $clog2(0), division by zero, unbound name).",
)
def check_unevaluable_width(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    for port, which, error in _vector_bounds(ctx)[1]:
        yield Violation(
            f"port {port.name!r} {which} bound is not evaluable at "
            f"point ({_point_repr(ctx.params)}): {error}",
            module=module.name,
            line=port.line,
        )


@rule(
    "P003",
    "out-of-space-value",
    Severity.ERROR,
    Stage.ELABORATION,
    "A bound parameter value falls outside its declared DSE dimension "
    "(range bounds or power-of-two restriction).",
)
def check_out_of_space_value(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    if ctx.space is None or not ctx.params:
        return
    plan = point_plan(ctx)
    for name, value in sorted(ctx.params.items()):
        dim = plan.dimension(ctx.space, name)
        if dim is None:
            continue  # not a DSE dimension; P004 covers unknown parameters
        try:
            encoded = dim.encode(int(value))
        except InvalidSpaceError as exc:
            yield Violation(
                f"parameter {name!r} = {value} violates its space "
                f"restriction: {exc}",
                module=module.name,
            )
            continue
        if not dim.low <= encoded <= dim.high:
            lo, hi = dim.decode(dim.low), dim.decode(dim.high)
            yield Violation(
                f"parameter {name!r} = {value} is outside the declared "
                f"space [{lo}, {hi}]",
                module=module.name,
            )


@rule(
    "P004",
    "unknown-or-local-override",
    Severity.ERROR,
    Stage.ELABORATION,
    "The point binds a name that is not a free parameter of the module "
    "(unknown, or a localparam/deferred constant).",
)
def check_unknown_or_local_override(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    if not ctx.params:
        return
    known = module.parameter_map
    for name in sorted(ctx.params):
        param = known.get(name.lower())
        if param is None:
            yield Violation(
                f"module {module.name!r} has no parameter {name!r}",
                module=module.name,
            )
        elif param.local:
            yield Violation(
                f"parameter {param.name!r} is local and cannot be overridden",
                module=module.name,
                line=param.line,
            )


@rule(
    "P005",
    "subtype-violation",
    Severity.ERROR,
    Stage.ELABORATION,
    "A bound value violates the parameter's integer subtype (negative "
    "natural, non-positive positive, non-boolean boolean/bit).",
)
def check_subtype_violation(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    subtypes = point_plan(ctx).subtypes
    if not ctx.params or not subtypes:
        return
    for name, value in sorted(ctx.params.items()):
        fact = subtypes.get(name.lower())
        if fact is None:
            continue
        param, allowed, reason = fact
        value = int(value)
        if not allowed(value):
            yield Violation(
                f"parameter {param.name!r} = {value}: {reason}",
                module=module.name,
                line=param.line,
            )
