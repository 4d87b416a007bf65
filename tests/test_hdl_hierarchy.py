"""Tests for RTL hierarchy extraction."""

import pytest

from repro.analysis import DesignRuleChecker
from repro.errors import HdlError
from repro.hdl.hierarchy import build_hierarchy, extract_instances

VERILOG = """
module top(input wire clk);
  wire [7:0] bus;
  sub u_sub0 (.clk(clk), .d(bus));
  sub u_sub1 (.clk(clk), .d(bus));
  fifo #(.DEPTH(16)) u_fifo (.clk_i(clk));
  always @(posedge clk) begin
    // not_an_instance(foo);  -- inside comment
  end
  assign bus = 8'h00;
endmodule

module sub(input wire clk, input wire [7:0] d);
  leaf u_leaf (.clk(clk));
endmodule

module fifo #(parameter DEPTH = 8)(input wire clk_i);
endmodule

module leaf(input wire clk);
endmodule
"""

VHDL = """
entity top is port (clk : in std_logic); end top;
architecture rtl of top is
  component legacy_comp is port (clk : in std_logic); end component;
  signal s : std_logic;
begin
  U0: entity work.child port map (clk => clk);
  U1: entity work.child(fast) port map (clk => clk);
  U2: legacy_comp port map (clk => clk);
  P0: process(clk) begin end process;
end architecture rtl;

entity child is port (clk : in std_logic); end child;
architecture rtl of child is
begin
end architecture rtl;
"""


class TestVerilogExtraction:
    def test_all_instances_found(self):
        instances = extract_instances(VERILOG, "verilog")
        pairs = {(i.parent, i.label, i.target) for i in instances}
        assert ("top", "u_sub0", "sub") in pairs
        assert ("top", "u_sub1", "sub") in pairs
        assert ("top", "u_fifo", "fifo") in pairs
        assert ("sub", "u_leaf", "leaf") in pairs

    def test_no_false_positives(self):
        instances = extract_instances(VERILOG, "verilog")
        targets = {i.target for i in instances}
        assert "assign" not in targets
        assert "always" not in targets
        assert "not_an_instance" not in targets

    def test_parameterized_instance(self):
        instances = extract_instances(VERILOG, "verilog")
        fifo = [i for i in instances if i.label == "u_fifo"]
        assert fifo and fifo[0].target == "fifo"

    def test_gate_primitive_is_not_an_instance(self):
        gates = """
        module gates(output wire y, input wire a, input wire b);
          and g1 (y, a, b);
        endmodule
        """
        assert extract_instances(gates, "verilog") == []
        result = DesignRuleChecker().check_sources(
            [(gates, "verilog")], known_modules=["gates"]
        )
        assert "H001" not in result.codes()


class TestVhdlExtraction:
    def test_entity_instantiations(self):
        instances = extract_instances(VHDL, "vhdl")
        pairs = {(i.parent, i.label, i.target) for i in instances}
        assert ("top", "U0", "child") in pairs
        assert ("top", "U1", "child") in pairs  # with architecture spec

    def test_component_instantiation(self):
        instances = extract_instances(VHDL, "vhdl")
        pairs = {(i.label, i.target) for i in instances}
        assert ("U2", "legacy_comp") in pairs

    def test_process_not_an_instance(self):
        instances = extract_instances(VHDL, "vhdl")
        assert all(i.label != "P0" for i in instances)

    def test_unnamed_end_architecture(self):
        source = VHDL.replace("end architecture rtl;", "end architecture;")
        instances = extract_instances(source, "vhdl")
        assert {(i.parent, i.label, i.target) for i in instances} == {
            ("top", "U0", "child"),
            ("top", "U1", "child"),
            ("top", "U2", "legacy_comp"),
        }


class TestHierarchy:
    def test_top_candidates(self):
        h = build_hierarchy([(VERILOG, "verilog")])
        assert h.top_candidates() == ["top"]

    def test_children(self):
        h = build_hierarchy([(VERILOG, "verilog")])
        kids = h.children("top")
        assert ("u_sub0", "sub") in kids and ("u_fifo", "fifo") in kids

    def test_subtree(self):
        h = build_hierarchy([(VERILOG, "verilog")])
        assert h.subtree("sub") == {"sub", "leaf"}
        assert h.subtree("top") == {"top", "sub", "fifo", "leaf"}

    def test_known_modules_included_as_nodes(self):
        h = build_hierarchy([(VERILOG, "verilog")], known_modules=["island"])
        assert "island" in h.modules()
        assert "island" in h.top_candidates()

    def test_render_tree(self):
        h = build_hierarchy([(VERILOG, "verilog")])
        text = h.render("top")
        assert text.splitlines()[0] == "top"
        assert "u_sub0: sub" in text
        assert "u_leaf: leaf" in text

    def test_recursion_detected(self):
        recursive = """
        module a(input wire clk); b u_b(.clk(clk)); endmodule
        module b(input wire clk); a u_a(.clk(clk)); endmodule
        """
        with pytest.raises(HdlError, match="recursive"):
            build_hierarchy([(recursive, "verilog")])

    def test_h002_reports_the_hierarchy_cycle(self):
        recursive = """
        module a(input wire clk); b u_b(.clk(clk)); endmodule
        module b(input wire clk); a u_a(.clk(clk)); endmodule
        """
        with pytest.raises(HdlError) as raised:
            build_hierarchy([(recursive, "verilog")])
        result = DesignRuleChecker().check_sources(
            [(recursive, "verilog")], known_modules=["a", "b"]
        )
        [finding] = [f for f in result if f.code == "H002"]
        assert finding.message == str(raised.value)
        assert finding.message == "recursive instantiation: a -> b -> a"

    def test_mixed_language_hierarchy(self):
        mixed_verilog = """
        module mixed_top(input wire clk);
          child u_vhdl_child (.clk(clk));
        endmodule
        """
        h = build_hierarchy([(mixed_verilog, "verilog"), (VHDL, "vhdl")])
        assert "mixed_top" in h.top_candidates()
        assert ("u_vhdl_child", "child") in h.children("mixed_top")
