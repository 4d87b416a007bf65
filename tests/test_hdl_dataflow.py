"""Tests for the module-body scan and the parameter dependency graph."""

from __future__ import annotations

from repro.hdl.dataflow import (
    ParameterDependencyGraph,
    build_dependency_graph,
    scan_bodies,
    scan_for,
)
from repro.hdl.frontend import parse_source

VERILOG_BODY = """
module widget #(
    parameter DEPTH = 16,
    parameter WIDTH = 8,
    parameter USE_ECC = 0,
    parameter SPARE = 3,
    localparam ADDR = $clog2(DEPTH)
)(
    input  logic clk,
    input  logic [WIDTH-1:0] din,
    input  logic [ADDR-1:0] waddr,
    output logic [WIDTH-1:0] dout
);
    fifo #(.DEPTH(DEPTH), .W(WIDTH)) u_fifo (
        .clk(clk), .d(din), .q(dout)
    );
    if (USE_ECC) begin : gen_ecc
        ecc_unit u_ecc (.clk(clk), .d(din));
    end
    always_ff @(posedge clk) begin
        if (waddr == 0) dout <= din;
    end
endmodule
"""

VHDL_BODY = """
entity gadget is
  generic (
    DEPTH : natural := 16;
    MODE  : natural := 0;
    IDLE  : natural := 1
  );
  port (
    clk : in  bit;
    q   : out bit
  );
end entity;

architecture rtl of gadget is
begin
  gen_fast : if MODE > 0 generate
    u_core : entity work.core
      generic map (DEPTH => DEPTH * 2, LANES => 4)
      port map (clk => clk, q => q);
  end generate;
end architecture;
"""


class TestVerilogScan:
    def test_child_instance_bindings(self):
        scan = scan_bodies(VERILOG_BODY, "systemverilog")[0]
        named = {(b.target, b.generic): b.value.render()
                 for b in scan.generic_bindings}
        assert ("fifo", "DEPTH") in named
        assert ("fifo", "W") in named
        assert named[("fifo", "W")] == "WIDTH"

    def test_generate_condition_captured(self):
        scan = scan_bodies(VERILOG_BODY, "systemverilog")[0]
        rendered = [c.condition.render() for c in scan.generate_conditions]
        assert "USE_ECC" in rendered

    def test_body_idents_include_procedural_references(self):
        scan = scan_bodies(VERILOG_BODY, "systemverilog")[0]
        assert "waddr" in scan.body_idents

    def test_scan_for_is_case_insensitive(self):
        sources = ((VERILOG_BODY, "systemverilog"),)
        assert scan_for("WIDGET", sources) is not None
        assert scan_for("nonexistent", sources) is None

    def test_module_after_endmodule_is_scanned(self):
        source = (
            "module child(input logic a); endmodule\n"
            "module top #(parameter P = 1)(input logic a);\n"
            "  child u_child (.a(a));\n"
            "endmodule\n"
        )
        scan = scan_for("top", ((source, "systemverilog"),))
        assert scan is not None
        assert [(i.label, i.target) for i in scan.instances] == [
            ("u_child", "child")
        ]


class TestVhdlScan:
    def test_generate_condition_and_generic_map(self):
        scan = scan_bodies(VHDL_BODY, "vhdl")[0]
        assert scan.module == "gadget"
        rendered = [c.condition.render() for c in scan.generate_conditions]
        assert any("MODE" in r for r in rendered)
        bindings = {(b.target, b.generic): b.value.render()
                    for b in scan.generic_bindings}
        assert ("core", "DEPTH") in bindings
        assert "DEPTH" in bindings[("core", "DEPTH")]


class TestDependencyGraph:
    def _graph(self) -> ParameterDependencyGraph:
        module = parse_source(VERILOG_BODY, "systemverilog")[0]
        return build_dependency_graph(
            module, sources=((VERILOG_BODY, "systemverilog"),)
        )

    def test_localparam_threads_flows_transitively(self):
        graph = self._graph()
        kinds = {s.kind for s in graph.flows("DEPTH")}
        # DEPTH -> ADDR (localparam) -> waddr port range, plus the child
        # generic binding .DEPTH(DEPTH).
        assert "port-range" in kinds
        assert "child-generic" in kinds

    def test_generate_sink(self):
        graph = self._graph()
        assert any(
            s.kind == "generate-if" for s in graph.flows("USE_ECC")
        )

    def test_dead_parameter_detected(self):
        graph = self._graph()
        assert graph.dead_parameters() == ("SPARE",)
        assert not graph.is_live("SPARE")
        assert "dead" in graph.describe("SPARE")

    def test_no_scan_means_no_dead_verdicts(self):
        module = parse_source(VERILOG_BODY, "systemverilog")[0]
        graph = ParameterDependencyGraph(module=module, scan=None)
        # Without a body scan, body-only parameters would look dead;
        # the graph refuses to guess.
        assert graph.dead_parameters() == ()

    def test_vhdl_graph(self):
        module = parse_source(VHDL_BODY, "vhdl")[0]
        graph = build_dependency_graph(
            module, sources=((VHDL_BODY, "vhdl"),)
        )
        assert any(s.kind == "generate-if" for s in graph.flows("MODE"))
        assert any(s.kind == "child-generic" for s in graph.flows("DEPTH"))
        assert "IDLE" in graph.dead_parameters()
