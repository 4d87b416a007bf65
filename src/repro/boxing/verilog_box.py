"""Verilog/SystemVerilog box rendering — the V/SV counterpart of Listing 1.

Same structure as the VHDL box: single clock input, internal nets for all
other ports, ``(* DONT_TOUCH = "TRUE" *)`` on the instance, parameter
values specialized in the instantiation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.hdl.ast import Direction, Parameter, Port

if TYPE_CHECKING:
    from repro.boxing.box import BoxArtifact

__all__ = ["render_verilog_box", "verilog_generic_value"]


def verilog_generic_value(
    param: Parameter, overrides: Mapping[str, int], env: Mapping[str, int]
) -> str:
    """The text a free parameter is bound to in the instantiation."""
    if param.name in overrides:
        return str(int(overrides[param.name]))
    if param.default is not None:
        return param.default.render()
    return str(env.get(param.name, 1))


def _net_decl(port: Port, net: str) -> str:
    kind = "wire" if port.direction != Direction.IN else "reg"
    # Inputs of the boxed module are driven from box-internal registers (so
    # synthesis sees sequential fanin it cannot const-fold); outputs land on
    # wires observed by a keep-marked reduction register.
    if port.ptype.is_vector():
        rng = f"[{port.ptype.high.render()}:{port.ptype.low.render() if port.ptype.low else '0'}] "
    else:
        rng = ""
    return f"  {kind} {rng}{net};"


def render_verilog_box(box: "BoxArtifact") -> str:
    """Render the Verilog box module from ``box``'s wiring."""
    module = box.inner
    ports = {p.name: p for p in module.ports}
    lines: list[str] = [f"module {box.top} ("]
    lines.append("    input wire clk")
    lines.append(");")
    for name, net in box.connections[1:]:
        lines.append(_net_decl(ports[name], net))
    lines.append("")
    if box.dont_touch:
        lines.append('  (* DONT_TOUCH = "TRUE" *)')
    if box.generics:
        lines.append(f"  {module.name} #(")
        lines.append(",\n".join(f"    .{name}({value})" for name, value in box.generics))
        lines.append("  ) BOXED (")
    else:
        lines.append(f"  {module.name} BOXED (")
    lines.append(",\n".join(f"    .{name}({net})" for name, net in box.connections))
    lines.append("  );")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
