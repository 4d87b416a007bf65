"""Frozen reference of the DRC point check and the box renderers.

This is the point check the wiring-data gate replaced: the environment is
re-derived from the module on every call, P001 and P002 each evaluate
every port bound, and the boxing rules B002–B004 render the whole wrapper
and substring-search its lower-cased text (``_wired``).  The two
renderers are the text-first renderers the wiring-first ones replaced.
Everything the refactor touched (default environment, clock ports, free
parameters, the lower-cased parameter map, rule ordering and config) is
inlined here, so ``tests/test_drc_oracle.py`` can assert that the
findings are equal in order and that ``BoxArtifact.source`` is
byte-identical.  Do not "improve" it: its value is that it does not change.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RuleConfig
from repro.errors import (
    InvalidSpaceError,
    NoClockPortError,
    ParameterOverrideError,
    ReproError,
)
from repro.hdl import expr as E
from repro.hdl.ast import Direction, HdlLanguage, Module, Port

__all__ = [
    "reference_render_verilog_box",
    "reference_render_vhdl_box",
    "reference_box_source",
    "reference_resolve_point_environment",
    "reference_check_point",
    "text_box_findings",
]

_CLOCK_NAMES = ("clk", "clock", "clk_i", "i_clk", "aclk", "clk_in", "sys_clk", "wclk")


# ----------------------------------------------------------------------
# module facts, recomputed on every call


def _free_parameters(module: Module) -> tuple:
    return tuple(p for p in module.parameters if not p.local)


def _parameter(module: Module, name: str):
    for p in module.parameters:
        if p.name.lower() == name.lower():
            return p
    raise KeyError(f"module {module.name!r} has no parameter {name!r}")


def _port(module: Module, name: str) -> Port:
    for p in module.ports:
        if p.name.lower() == name.lower():
            return p
    raise KeyError(f"module {module.name!r} has no port {name!r}")


def _default_environment(module: Module) -> dict[str, int]:
    env: dict[str, int] = {}
    for p in module.parameters:
        v = p.default_value(env)
        if v is not None:
            env[p.name] = v
    return env


def _clock_ports(module: Module) -> tuple[Port, ...]:
    found: list[tuple[int, Port]] = []
    for port in module.ports:
        if port.direction != Direction.IN or port.ptype.is_vector():
            continue
        lowered = port.name.lower()
        for rank, pattern in enumerate(_CLOCK_NAMES):
            if lowered == pattern:
                found.append((rank, port))
                break
        else:
            if "clk" in lowered or "clock" in lowered:
                found.append((len(_CLOCK_NAMES), port))
    found.sort(key=lambda rp: rp[0])
    return tuple(p for _, p in found)


# ----------------------------------------------------------------------
# the text-first renderers


def _net_decl(port: Port) -> str:
    kind = "wire" if port.direction != Direction.IN else "reg"
    if port.ptype.is_vector():
        rng = f"[{port.ptype.high.render()}:{port.ptype.low.render() if port.ptype.low else '0'}] "
    else:
        rng = ""
    return f"  {kind} {rng}s_{port.name};"


def reference_render_verilog_box(
    module: Module,
    clock_port: str,
    overrides: Mapping[str, int],
    box_name: str = "box",
) -> str:
    lines: list[str] = [f"module {box_name} ("]
    lines.append("    input wire clk")
    lines.append(");")
    other_ports = [p for p in module.ports if p.name.lower() != clock_port.lower()]
    for port in other_ports:
        lines.append(_net_decl(port))
    lines.append("")
    lines.append('  (* DONT_TOUCH = "TRUE" *)')
    free = [p for p in module.parameters if not p.local]
    if free:
        lines.append(f"  {module.name} #(")
        pm: list[str] = []
        env = _default_environment(module)
        for param in free:
            if param.name in overrides:
                value = str(int(overrides[param.name]))
            elif param.default is not None:
                value = param.default.render()
            else:
                value = str(env.get(param.name, 1))
            pm.append(f"    .{param.name}({value})")
        lines.append(",\n".join(pm))
        lines.append("  ) BOXED (")
    else:
        lines.append(f"  {module.name} BOXED (")
    conns = [f"    .{clock_port}(clk)"]
    for port in other_ports:
        conns.append(f"    .{port.name}(s_{port.name})")
    lines.append(",\n".join(conns))
    lines.append("  );")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _fmt_generic_value(module: Module, name: str, value: int) -> str:
    param = _parameter(module, name)
    if param.is_boolean() and param.ptype.lower() == "boolean":
        return "true" if value else "false"
    return str(int(value))


def _signal_decl(port: Port) -> str:
    return f"  signal s_{port.name} : {port.ptype.render_vhdl()};"


def reference_render_vhdl_box(
    module: Module,
    clock_port: str,
    overrides: Mapping[str, int],
    box_name: str = "box",
) -> str:
    lines: list[str] = []
    for lib in dict.fromkeys(("ieee", *module.libraries)):
        if lib.lower() == "work":
            continue
        lines.append(f"library {lib};")
    uses = list(dict.fromkeys(module.use_clauses)) or ["ieee.std_logic_1164.all"]
    if not any(u.lower().startswith("ieee.std_logic_1164") for u in uses):
        uses.insert(0, "ieee.std_logic_1164.all")
    for use in uses:
        lines.append(f"use {use};")
    lines.append("")
    lines.append(f"entity {box_name} is")
    lines.append("  port (")
    lines.append("    clk : in std_logic")
    lines.append("  );")
    lines.append(f"end entity {box_name};")
    lines.append("")
    lines.append(f"architecture {box_name}_arch of {box_name} is")
    lines.append("  attribute DONT_TOUCH : string;")
    lines.append('  attribute DONT_TOUCH of BOXED : label is "TRUE";')
    other_ports = [p for p in module.ports if p.name.lower() != clock_port.lower()]
    for port in other_ports:
        lines.append(_signal_decl(port))
    lines.append("begin")
    lines.append(f"  BOXED: entity work.{module.name}")
    free = [p for p in module.parameters if not p.local]
    if free:
        lines.append("    generic map (")
        gm: list[str] = []
        env = _default_environment(module)
        for param in free:
            if param.name in overrides:
                value = _fmt_generic_value(module, param.name, overrides[param.name])
            elif param.default is not None:
                default_v = param.default_value(env)
                if param.ptype.lower() == "boolean" and default_v is not None:
                    value = "true" if default_v else "false"
                else:
                    value = param.default.render()
            else:
                value = _fmt_generic_value(module, param.name, env.get(param.name, 1))
            gm.append(f"      {param.name} => {value}")
        lines.append(",\n".join(gm))
        lines.append("    )")
    lines.append("    port map (")
    pm = [f"      {clock_port} => clk"]
    for port in other_ports:
        pm.append(f"      {port.name} => s_{port.name}")
    lines.append(",\n".join(pm))
    lines.append("    );")
    lines.append(f"end architecture {box_name}_arch;")
    return "\n".join(lines) + "\n"


def reference_box_source(
    module: Module,
    overrides: Mapping[str, int] | None = None,
    clock_port: str | None = None,
    box_name: str = "box",
) -> tuple[str, str]:
    """``(box text, clock port)`` as the text-first ``build_box`` made them."""
    overrides = {k: int(v) for k, v in (overrides or {}).items()}
    free = {p.name.lower() for p in _free_parameters(module)}
    for name in overrides:
        if name.lower() not in free:
            raise ParameterOverrideError(
                f"{module.name!r} has no free parameter {name!r}"
            )
    canonical: dict[str, int] = {}
    for param in _free_parameters(module):
        for name, value in overrides.items():
            if name.lower() == param.name.lower():
                canonical[param.name] = value
    if clock_port is None:
        clocks = _clock_ports(module)
        if not clocks:
            raise NoClockPortError(
                f"module {module.name!r} has no identifiable clock port; "
                "pass clock_port explicitly"
            )
        clock_port = clocks[0].name
    else:
        _port(module, clock_port)
    if module.language == HdlLanguage.VHDL:
        source = reference_render_vhdl_box(module, clock_port, canonical, box_name=box_name)
    else:
        source = reference_render_verilog_box(module, clock_port, canonical, box_name=box_name)
    return source, clock_port


# ----------------------------------------------------------------------
# the point rules


def reference_resolve_point_environment(
    module: Module, params: Mapping[str, int] | None
) -> dict[str, int]:
    env = _default_environment(module)
    params = params or {}
    known = {p.name.lower(): p for p in module.parameters}
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


class _Ctx:
    def __init__(self, module, params, env, space, boxed, clock_port) -> None:
        self.module = module
        self.params = params
        self.env = env
        self.space = space
        self.boxed = boxed
        self.clock_port = clock_port
        self.cache: dict[str, Any] = {}


# (message, module, line): a violation before code/severity stamping.
_V = tuple[str, str, int]


def _bound(port: Port, which: str, env: Mapping[str, int]) -> Optional[int]:
    node = port.ptype.high if which == "high" else port.ptype.low
    if node is None:
        return 0 if which == "low" else None
    return E.evaluate(node, env)


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


def _p001(ctx: _Ctx) -> Iterator[_V]:
    module = ctx.module
    env = ctx.env or {}
    for port in module.ports:
        if not port.ptype.is_vector():
            continue
        try:
            high = _bound(port, "high", env)
            low = _bound(port, "low", env)
        except E.EvalError:
            continue
        if high is None or low is None:
            continue
        if high >= low:
            continue
        if module.language != HdlLanguage.VHDL:
            if not (_width_refs_of(port)):
                continue
        if port.ptype.descending:
            rendered = f"{high} downto {low}"
        else:
            rendered = f"{low} to {high}"
        yield (
            f"port {port.name!r} elaborates to a null range "
            f"({rendered}) at point ({_point_repr(ctx.params)})",
            module.name,
            port.line,
        )


def _p002(ctx: _Ctx) -> Iterator[_V]:
    module = ctx.module
    env = ctx.env or {}
    for port in module.ports:
        if not port.ptype.is_vector():
            continue
        for which in ("high", "low"):
            try:
                _bound(port, which, env)
            except E.EvalError as exc:
                yield (
                    f"port {port.name!r} {which} bound is not evaluable at "
                    f"point ({_point_repr(ctx.params)}): {exc}",
                    module.name,
                    port.line,
                )


def _p003(ctx: _Ctx) -> Iterator[_V]:
    module = ctx.module
    if ctx.space is None or not ctx.params:
        return
    for name, value in sorted(ctx.params.items()):
        try:
            dim = ctx.space.dimension(name)
        except KeyError:
            continue
        try:
            encoded = dim.encode(int(value))
        except InvalidSpaceError as exc:
            yield (
                f"parameter {name!r} = {value} violates its space "
                f"restriction: {exc}",
                module.name,
                0,
            )
            continue
        if not dim.low <= encoded <= dim.high:
            lo, hi = dim.decode(dim.low), dim.decode(dim.high)
            yield (
                f"parameter {name!r} = {value} is outside the declared "
                f"space [{lo}, {hi}]",
                module.name,
                0,
            )


def _p004(ctx: _Ctx) -> Iterator[_V]:
    module = ctx.module
    if not ctx.params:
        return
    known = {p.name.lower(): p for p in module.parameters}
    for name in sorted(ctx.params):
        param = known.get(name.lower())
        if param is None:
            yield (f"module {module.name!r} has no parameter {name!r}", module.name, 0)
        elif param.local:
            yield (
                f"parameter {param.name!r} is local and cannot be overridden",
                module.name,
                param.line,
            )


def _p005(ctx: _Ctx) -> Iterator[_V]:
    module = ctx.module
    if not ctx.params:
        return
    known = {p.name.lower(): p for p in module.parameters}
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
            yield (f"parameter {param.name!r} = {value}: {bad}", module.name, param.line)


def _resolved_clock(ctx: _Ctx) -> Optional[str]:
    module = ctx.module
    if ctx.clock_port is not None:
        try:
            return _port(module, ctx.clock_port).name
        except KeyError:
            return None
    clocks = _clock_ports(module)
    return clocks[0].name if clocks else None


def _get_box(ctx: _Ctx) -> Optional[tuple[str, str]]:
    if "box" in ctx.cache:
        return ctx.cache["box"]
    try:
        box = reference_box_source(ctx.module, ctx.params or {}, clock_port=ctx.clock_port)
    except (ReproError, KeyError):
        box = None
    ctx.cache["box"] = box
    return box


def _wired(source: str, language: HdlLanguage, name: str, target: str) -> bool:
    lowered = source.lower()
    if language == HdlLanguage.VHDL:
        return f"{name.lower()} => {target.lower()}" in lowered
    return f".{name.lower()}({target.lower()})" in lowered


def _b001(ctx: _Ctx) -> Iterator[_V]:
    if not ctx.boxed:
        return
    module = ctx.module
    if _resolved_clock(ctx) is None:
        if ctx.clock_port is not None:
            yield (
                f"named clock port {ctx.clock_port!r} is not a port of "
                f"module {module.name!r}",
                module.name,
                0,
            )
        else:
            yield (
                f"module {module.name!r} has no identifiable clock port for "
                "boxing; pass clock_port explicitly",
                module.name,
                0,
            )


def _b002_text(module: Module, source: str, clock: str) -> Iterator[_V]:
    lowered = source.lower()
    for port in module.ports:
        if port.name.lower() == clock.lower():
            continue
        if not _wired(source, module.language, port.name, f"s_{port.name}"):
            yield (f"box wrapper does not wire port {port.name!r}", module.name, port.line)
    for param in _free_parameters(module):
        if module.language == HdlLanguage.VHDL:
            present = f"{param.name.lower()} =>" in lowered
        else:
            present = f".{param.name.lower()}(" in lowered
        if not present:
            yield (
                f"box wrapper does not specialize generic {param.name!r}",
                module.name,
                param.line,
            )


def _b003_text(module: Module, source: str, clock: str) -> Iterator[_V]:
    if "dont_touch" not in source.lower():
        yield (
            "box wrapper lacks the DONT_TOUCH attribute on the boxed instance",
            module.name,
            0,
        )


def _b004_text(module: Module, source: str, clock: str) -> Iterator[_V]:
    if not _wired(source, module.language, clock, "clk"):
        yield (
            f"clock port {clock!r} is not connected to the box clock pin",
            module.name,
            0,
        )


def _boxed_text_rule(text_rule):
    def check(ctx: _Ctx) -> Iterator[_V]:
        if not ctx.boxed:
            return
        box = _get_box(ctx)
        if box is None:
            return
        yield from text_rule(ctx.module, *box)

    return check


_TEXT_RULES = (("B002", _b002_text), ("B003", _b003_text), ("B004", _b004_text))

#: Every point rule, in the order the checker runs them.  All of them
#: default to ERROR.
RULES = (
    ("P001", _p001),
    ("P002", _p002),
    ("P003", _p003),
    ("P004", _p004),
    ("P005", _p005),
    ("B001", _b001),
) + tuple((code, _boxed_text_rule(fn)) for code, fn in _TEXT_RULES)


def reference_check_point(
    module: Module,
    params: Mapping[str, int] | None,
    space: Any = None,
    boxed: bool = True,
    clock_port: str | None = None,
    config: RuleConfig | None = None,
) -> tuple[Finding, ...]:
    """The findings ``DesignRuleChecker(config).check_point`` returned."""
    config = config or RuleConfig()
    ctx = _Ctx(
        module,
        dict(params or {}),
        reference_resolve_point_environment(module, params),
        space,
        boxed,
        clock_port,
    )
    findings: list[Finding] = []
    for code, check in RULES:
        if code in config.disabled:
            continue
        severity = config.severity_overrides.get(code, Severity.ERROR)
        for message, module_name, line in check(ctx):
            findings.append(Finding(severity, code, message, module_name, line))
    return tuple(f for f in findings if f.fingerprint() not in config.baseline)


def text_box_findings(module: Module, source: str, clock: str) -> list[tuple[str, _V]]:
    """``(code, violation)`` of the text checks B002–B004 over ``source``."""
    return [
        (code, v) for code, fn in _TEXT_RULES for v in fn(module, source, clock)
    ]
