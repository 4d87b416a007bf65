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

from typing import Iterator, Mapping, Optional, Union

from repro.analysis.findings import Severity
from repro.analysis.registry import RuleContext, Stage, Violation, rule
from repro.errors import InvalidSpaceError
from repro.hdl import expr as E
from repro.hdl.ast import HdlLanguage, Module, Port

__all__ = ["resolve_point_environment"]


def resolve_point_environment(
    module: Module, params: Mapping[str, int] | None
) -> dict[str, int]:
    """Defaults + overrides, with localparams re-derived in declaration order.

    Unlike :func:`repro.synth.elaborate.resolve_environment` this never
    raises: overrides naming unknown or local parameters are skipped here
    and reported by rule ``P004`` instead.
    """
    env = module.default_environment()
    params = params or {}
    known = module.parameter_map
    for name, value in params.items():
        param = known.get(name.lower())
        if param is None or param.local:
            continue
        env[param.name] = int(value)
    for param in module.parameters:
        if param.local and param.default is not None:
            value = param.default_value(env)
            if value is not None:
                env[param.name] = value
    return env


def _module(ctx: RuleContext) -> Module:
    assert ctx.module is not None, "elaboration rules need ctx.module"
    return ctx.module


def _bound(port: Port, which: str, env: Mapping[str, int]) -> Optional[int]:
    node = port.ptype.high if which == "high" else port.ptype.low
    if node is None:
        return 0 if which == "low" else None
    return E.evaluate(node, env)


#: A bound's value, or the error that kept it from folding.
Bound = Union[Optional[int], E.EvalError]


def _vector_bounds(ctx: RuleContext) -> list[tuple[Port, Bound, Bound]]:
    """``(port, high, low)`` of every vector port, evaluated once per run.

    P001 and P002 read the same bounds; an unevaluable bound is kept as
    its :class:`~repro.hdl.expr.EvalError` for P002 to report.
    """
    bounds = ctx.cache.get("bounds")
    if bounds is None:
        env = E.fold_env(ctx.env or {})
        bounds = []
        for port in _module(ctx).ports:
            if not port.ptype.is_vector():
                continue
            pair: list[Bound] = []
            for which in ("high", "low"):
                try:
                    pair.append(_bound(port, which, env))
                except E.EvalError as exc:
                    pair.append(exc)
            bounds.append((port, pair[0], pair[1]))
        ctx.cache["bounds"] = bounds
    return bounds


def _width_refs_of(port: Port) -> set[str]:
    refs: set[str] = set()
    if port.ptype.high is not None:
        refs |= E.free_names(port.ptype.high)
    if port.ptype.low is not None:
        refs |= E.free_names(port.ptype.low)
    return refs


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
    for port, high, low in _vector_bounds(ctx):
        if isinstance(high, E.EvalError) or isinstance(low, E.EvalError):
            continue  # P002 reports unevaluable expressions
        if high is None or low is None:
            continue
        # Both parsers normalize so the stored high is the wider end:
        # VHDL `l to r` stores high=r/low=l, so a null range — `7 downto 8`
        # or `0 to -1`, both width 0 in VHDL — is always high < low.
        if high >= low:
            continue
        if module.language != HdlLanguage.VHDL:
            # Verilog permits ascending index numbering (`[0:7]` is a
            # legal 8-bit vector); only a *parameter-dependent* range that
            # collapsed below its lsb is the degenerate-width bug class.
            if not (_width_refs_of(port)):
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
    for port, high, low in _vector_bounds(ctx):
        for which, bound in (("high", high), ("low", low)):
            if isinstance(bound, E.EvalError):
                yield Violation(
                    f"port {port.name!r} {which} bound is not evaluable at "
                    f"point ({_point_repr(ctx.params)}): {bound}",
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
    for name, value in sorted(ctx.params.items()):
        try:
            dim = ctx.space.dimension(name)
        except KeyError:
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
    if not ctx.params:
        return
    known = module.parameter_map
    for name, value in sorted(ctx.params.items()):
        param = known.get(name.lower())
        if param is None or param.local:
            continue
        value = int(value)
        ptype = param.ptype.lower()
        bad: str | None = None
        if ptype == "natural" and value < 0:
            bad = "natural generics must be >= 0"
        elif ptype == "positive" and value < 1:
            bad = "positive generics must be >= 1"
        elif param.is_boolean() and value not in (0, 1):
            bad = f"{param.ptype} parameters take only 0/1"
        if bad is not None:
            yield Violation(
                f"parameter {param.name!r} = {value}: {bad}",
                module=module.name,
                line=param.line,
            )
