"""VHDL box rendering (the paper's Listing 1, filled in).

The generated entity has a single clock input; every other port of the
boxed module is tied to an internal signal; the instance is labeled
``BOXED`` and protected with a ``DONT_TOUCH`` attribute; generics are
specialized in the generic map with the design point's values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.hdl.ast import Parameter, Port

if TYPE_CHECKING:
    from repro.boxing.box import BoxArtifact

__all__ = ["render_vhdl_box", "vhdl_generic_value"]


def _fmt_generic_value(param: Parameter, value: int) -> str:
    if param.is_boolean() and param.ptype.lower() == "boolean":
        return "true" if value else "false"
    return str(int(value))


def vhdl_generic_value(
    param: Parameter, overrides: Mapping[str, int], env: Mapping[str, int]
) -> str:
    """The text a free generic is bound to in the generic map."""
    if param.name in overrides:
        return _fmt_generic_value(param, overrides[param.name])
    if param.default is not None:
        # Boolean generics lex to 0/1; restore VHDL literals so the
        # emitted box is legal VHDL.
        default_v = param.default_value(env)
        if param.ptype.lower() == "boolean" and default_v is not None:
            return "true" if default_v else "false"
        return param.default.render()
    # No default and not overridden: bind a benign constant so the
    # elaboration never fails on an open generic.
    return _fmt_generic_value(param, env.get(param.name, 1))


def _signal_decl(port: Port, net: str) -> str:
    return f"  signal {net} : {port.ptype.render_vhdl()};"


def render_vhdl_box(box: "BoxArtifact") -> str:
    """Render the VHDL box entity + architecture from ``box``'s wiring."""
    module = box.inner
    box_name = box.top
    ports = {p.name: p for p in module.ports}
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
    if box.dont_touch:
        lines.append("  attribute DONT_TOUCH : string;")
        lines.append('  attribute DONT_TOUCH of BOXED : label is "TRUE";')
    for name, net in box.connections[1:]:
        lines.append(_signal_decl(ports[name], net))
    lines.append("begin")
    lines.append(f"  BOXED: entity work.{module.name}")
    if box.generics:
        lines.append("    generic map (")
        lines.append(",\n".join(f"      {name} => {value}" for name, value in box.generics))
        lines.append("    )")
    lines.append("    port map (")
    lines.append(",\n".join(f"      {name} => {net}" for name, net in box.connections))
    lines.append("    );")
    lines.append(f"end architecture {box_name}_arch;")
    return "\n".join(lines) + "\n"
