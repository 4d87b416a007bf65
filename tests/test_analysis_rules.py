"""Tests for the design rule checker: every registered rule, both ways.

Each rule gets at least one positive case (a design that trips it) and
one negative case (a near-identical design that does not), plus registry
configuration behaviour (disable, severity override, baseline) and the
boundary-point sweep over every built-in case-study design.
"""

import dataclasses

import pytest

from repro.analysis import (
    DesignRuleChecker,
    RuleConfig,
    RuleContext,
    Severity,
    Stage,
    all_rules,
    boundary_points,
    get_rule,
    rules_for_stage,
)
from repro.analysis.registry import rule as register_rule
from repro.boxing import build_box
from repro.core.spaces import IntRange, ParameterSpace, PowerOfTwoRange
from repro.designs import all_designs
from repro.hdl.ast import HdlLanguage
from repro.hdl.frontend import parse_source

ALL_CODES = (
    "B001", "B002", "B003", "B004",
    "D001", "D002", "D003", "D004",
    "E001", "E002", "E003", "E004", "E005",
    "H001", "H002",
    "N001", "N002", "N003", "N004", "N005", "N006", "N007",
    "P001", "P002", "P003", "P004", "P005",
    "S001", "S002", "S003", "S004", "S005", "S006",
    "W001", "W002", "W003", "W004",
)


def sv_module(text: str):
    return parse_source(text, HdlLanguage.SYSTEMVERILOG)[0]


def vhdl_module(text: str):
    return parse_source(text, HdlLanguage.VHDL)[0]


def interface_codes(module, config=None):
    return DesignRuleChecker(config).check_interface(module).codes()


def point_codes(module, params, **kw):
    return DesignRuleChecker().check_point(module, params, **kw).codes()


CLEAN_SV = """
module clean #(parameter W = 8) (
  input  logic clk,
  input  logic [W-1:0] d,
  output logic [W-1:0] q
);
endmodule
"""


class TestRegistry:
    def test_all_rules_registered(self):
        assert tuple(r.code for r in all_rules()) == ALL_CODES

    def test_every_rule_has_name_description_stage(self):
        for r in all_rules():
            assert r.name and r.description
            assert isinstance(r.stage, Stage)
            assert r.severity in (Severity.ERROR, Severity.WARNING)

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule code"):
            register_rule(
                "E001", "imposter", Severity.ERROR, Stage.INTERFACE, "dup"
            )(lambda ctx: [])

    def test_get_rule_unknown_code(self):
        with pytest.raises(KeyError, match="unknown rule code"):
            get_rule("Z999")

    def test_rules_for_stage_partitions(self):
        by_stage = [
            r.code for s in Stage for r in rules_for_stage(s)
        ]
        assert sorted(by_stage) == sorted(ALL_CODES)

    def test_disable_skips_rule(self):
        module = sv_module("module m(output logic q); endmodule")
        assert "W002" in interface_codes(module)
        config = RuleConfig(disabled=frozenset({"W002"}))
        assert "W002" not in interface_codes(module, config)

    def test_severity_override_promotes_warning(self):
        module = sv_module("module m(output logic q); endmodule")
        config = RuleConfig(severity_overrides={"W002": Severity.ERROR})
        result = DesignRuleChecker(config).check_interface(module)
        promoted = [f for f in result if f.code == "W002"]
        assert promoted and all(f.severity == Severity.ERROR for f in promoted)
        assert not result.ok()

    def test_baseline_suppresses_exact_finding(self):
        module = sv_module("module m(output logic q); endmodule")
        findings = DesignRuleChecker().check_interface(module).findings
        fingerprints = frozenset(f.fingerprint() for f in findings)
        config = RuleConfig(baseline=fingerprints)
        assert interface_codes(module, config) == ()


class TestInterfaceRules:
    def test_e001_duplicate_port_vhdl_case_insensitive(self):
        module = vhdl_module(
            "entity e is port (Data : in std_logic; DATA : in std_logic; "
            "clk : in std_logic); end e;"
        )
        assert "E001" in interface_codes(module)

    def test_e001_negative_distinct_ports(self):
        assert "E001" not in interface_codes(sv_module(CLEAN_SV))

    def test_e002_duplicate_parameter_case_insensitive(self):
        module = sv_module(
            "module m #(parameter W = 4, parameter w = 8) "
            "(input logic clk); endmodule"
        )
        assert "E002" in interface_codes(module)

    def test_e002_negative(self):
        assert "E002" not in interface_codes(sv_module(CLEAN_SV))

    def test_e003_port_parameter_collision(self):
        module = sv_module(
            "module m #(parameter Q = 4) "
            "(input logic clk, output logic q); endmodule"
        )
        assert "E003" in interface_codes(module)

    def test_e003_negative(self):
        assert "E003" not in interface_codes(sv_module(CLEAN_SV))

    def test_e004_unknown_width_reference(self):
        module = sv_module(
            "module m(input logic clk, output logic [K-1:0] q); endmodule"
        )
        assert "E004" in interface_codes(module)

    def test_e004_negative_declared_reference(self):
        assert "E004" not in interface_codes(sv_module(CLEAN_SV))

    def test_e005_unknown_default_reference(self):
        module = sv_module(
            "module m #(parameter W = K + 1) (input logic clk); endmodule"
        )
        codes = interface_codes(module)
        assert "E005" in codes
        assert "E004" not in codes  # widths are fine; only the default is bad

    def test_e005_negative_default_references_other_parameter(self):
        module = sv_module(
            "module m #(parameter A = 4, parameter B = A + 1) "
            "(input logic clk, output logic [B-1:0] q); endmodule"
        )
        assert "E005" not in interface_codes(module)

    def test_w001_no_ports(self):
        module = vhdl_module("entity e is end e;")
        assert "W001" in interface_codes(module)

    def test_w001_negative(self):
        assert "W001" not in interface_codes(sv_module(CLEAN_SV))

    def test_w002_clockless_module(self):
        module = sv_module(
            "module m(input logic a, output logic q); endmodule"
        )
        assert "W002" in interface_codes(module)

    def test_w002_negative_with_clock(self):
        assert "W002" not in interface_codes(sv_module(CLEAN_SV))

    def test_w002_not_raised_for_portless_module(self):
        # W001 already covers the portless case; W002 would be noise.
        module = vhdl_module("entity e is end e;")
        assert "W002" not in interface_codes(module)

    def test_w003_parameter_without_default(self):
        module = vhdl_module(
            "entity e is generic (W : integer); "
            "port (clk : in std_logic); end e;"
        )
        assert "W003" in interface_codes(module)

    def test_w003_negative(self):
        assert "W003" not in interface_codes(sv_module(CLEAN_SV))

    def test_w004_output_only_module(self):
        module = sv_module("module m(output logic q); endmodule")
        assert "W004" in interface_codes(module)

    def test_w004_inout_only_module_not_flagged(self):
        # inout ports carry input connectivity: a pad-only module is not
        # input-less and must not trip W004.
        module = sv_module("module m(inout wire pad); endmodule")
        assert "W004" not in interface_codes(module)

    def test_w004_negative_with_input(self):
        assert "W004" not in interface_codes(sv_module(CLEAN_SV))


NULLABLE_SV = """
module nullable #(parameter W = 4) (
  input  logic clk,
  output logic [W-2:0] q
);
endmodule
"""

CLOG2_SV = """
module depthy #(parameter D = 4) (
  input  logic clk,
  output logic [$clog2(D)-1:0] addr
);
endmodule
"""


class TestElaborationRules:
    def test_p001_null_range_at_boundary(self):
        module = sv_module(NULLABLE_SV)
        codes = point_codes(module, {"W": 1}, boxed=False)
        assert "P001" in codes

    def test_p001_negative_at_safe_point(self):
        module = sv_module(NULLABLE_SV)
        assert point_codes(module, {"W": 8}, boxed=False) == ()

    def test_p001_vhdl_ascending_range(self):
        module = vhdl_module(
            "entity e is generic (N : integer := 4); port ("
            "clk : in std_logic; "
            "q : out std_logic_vector(0 to N-2)); end e;"
        )
        assert "P001" in point_codes(module, {"N": 1}, boxed=False)
        assert "P001" not in point_codes(module, {"N": 3}, boxed=False)

    def test_p001_negative_static_ascending_verilog_numbering(self):
        # `[0:7]` is a legal 8-bit vector with ascending index numbering,
        # not a null range — only parameter-dependent collapses count.
        module = sv_module(
            "module m(input logic clk, output logic [0:7] q); endmodule"
        )
        assert "P001" not in point_codes(module, {}, boxed=False)

    def test_p002_clog2_of_zero(self):
        module = sv_module(CLOG2_SV)
        codes = point_codes(module, {"D": 0}, boxed=False)
        assert "P002" in codes
        assert "P001" not in codes  # unevaluable, not null

    def test_p002_negative(self):
        module = sv_module(CLOG2_SV)
        assert "P002" not in point_codes(module, {"D": 16}, boxed=False)

    def test_p003_out_of_range_value(self):
        module = sv_module(CLEAN_SV)
        space = ParameterSpace([IntRange("W", 4, 32)])
        codes = point_codes(module, {"W": 64}, space=space, boxed=False)
        assert "P003" in codes

    def test_p003_power_of_two_violation(self):
        module = sv_module(CLEAN_SV)
        space = ParameterSpace([PowerOfTwoRange("W", 2, 5)])
        assert "P003" in point_codes(module, {"W": 24}, space=space, boxed=False)
        assert "P003" not in point_codes(module, {"W": 16}, space=space, boxed=False)

    def test_p003_negative_in_range(self):
        module = sv_module(CLEAN_SV)
        space = ParameterSpace([IntRange("W", 4, 32)])
        assert point_codes(module, {"W": 8}, space=space, boxed=False) == ()

    def test_p004_unknown_parameter(self):
        module = sv_module(CLEAN_SV)
        assert "P004" in point_codes(module, {"NOPE": 1}, boxed=False)

    def test_p004_local_parameter_override(self):
        module = sv_module(
            "module m #(parameter W = 4, localparam L = W * 2) "
            "(input logic clk, output logic [L-1:0] q); endmodule"
        )
        assert "P004" in point_codes(module, {"L": 16}, boxed=False)
        assert "P004" not in point_codes(module, {"W": 8}, boxed=False)

    def test_p005_negative_natural(self):
        module = vhdl_module(
            "entity e is generic (N : natural := 4); port ("
            "clk : in std_logic); end e;"
        )
        assert "P005" in point_codes(module, {"N": -1}, boxed=False)
        assert "P005" not in point_codes(module, {"N": 0}, boxed=False)

    def test_p005_non_positive_positive(self):
        module = vhdl_module(
            "entity e is generic (N : positive := 4); port ("
            "clk : in std_logic); end e;"
        )
        assert "P005" in point_codes(module, {"N": 0}, boxed=False)
        assert "P005" not in point_codes(module, {"N": 1}, boxed=False)

    def test_p005_boolean_out_of_domain(self):
        module = vhdl_module(
            "entity e is generic (EN : boolean := true); port ("
            "clk : in std_logic); end e;"
        )
        assert "P005" in point_codes(module, {"EN": 2}, boxed=False)
        assert "P005" not in point_codes(module, {"EN": 1}, boxed=False)


def corrupt_box(module, **wiring):
    """The real wrapper of ``module`` at W=8 with its wiring replaced."""
    return dataclasses.replace(build_box(module, {"W": 8}), **wiring)


def run_boxing_rule(code, module, box):
    """Run one boxing rule with a pre-built (possibly corrupt) wrapper."""
    ctx = RuleContext(module=module, params={}, boxed=True)
    ctx.cache["box"] = box
    return [v.message for v in get_rule(code).check(ctx)]


class TestBoxingRules:
    def test_b001_clockless_module(self):
        module = sv_module("module m(input logic a); endmodule")
        assert "B001" in point_codes(module, {})

    def test_b001_named_clock_missing(self):
        module = sv_module(CLEAN_SV)
        assert "B001" in point_codes(module, {}, clock_port="nope")

    def test_b001_negative(self):
        module = sv_module(CLEAN_SV)
        assert "B001" not in point_codes(module, {"W": 8})

    def test_b002_detects_unwired_port(self):
        module = sv_module(CLEAN_SV)
        broken = corrupt_box(
            module, connections=(("clk", "clk"), ("d", "s_d"))  # q left unwired
        )
        messages = run_boxing_rule("B002", module, broken)
        assert any("'q'" in m for m in messages)

    def test_b002_detects_unspecialized_generic(self):
        module = sv_module(CLEAN_SV)
        broken = corrupt_box(module, generics=())  # W not specialized
        messages = run_boxing_rule("B002", module, broken)
        assert any("'W'" in m for m in messages)

    def test_b002_negative_real_wrapper(self):
        module = sv_module(CLEAN_SV)
        assert "B002" not in point_codes(module, {"W": 8})

    def test_b003_missing_dont_touch(self):
        module = sv_module(CLEAN_SV)
        broken = corrupt_box(module, dont_touch=False)
        assert run_boxing_rule("B003", module, broken)

    def test_b003_negative_real_wrapper(self):
        module = sv_module(CLEAN_SV)
        assert "B003" not in point_codes(module, {"W": 8})

    def test_b004_clock_not_reaching_pin(self):
        module = sv_module(CLEAN_SV)
        broken = corrupt_box(
            module, connections=(("clk", "1'b0"), ("d", "s_d"), ("q", "s_q"))
        )
        assert run_boxing_rule("B004", module, broken)

    def test_b004_negative_real_wrapper(self):
        module = sv_module(CLEAN_SV)
        assert "B004" not in point_codes(module, {"W": 8})

    def test_boxing_rules_silent_when_unboxed(self):
        module = sv_module("module m(input logic a); endmodule")
        codes = point_codes(module, {}, boxed=False)
        assert not any(c.startswith("B") for c in codes)


TOP_SV = "module top(input logic clk); sub u0(.clk(clk)); endmodule"
SUB_SV = "module sub(input logic clk); endmodule"


class TestHierarchyRules:
    def check(self, sources, known):
        return DesignRuleChecker().check_sources(sources, known_modules=known)

    def test_h001_unresolved_instance(self):
        result = self.check([(TOP_SV, "systemverilog")], ["top"])
        assert "H001" in result.codes()
        assert result.ok()  # warning only

    def test_h001_negative_all_defined(self):
        result = self.check(
            [(TOP_SV + "\n" + SUB_SV, "systemverilog")], ["top", "sub"]
        )
        assert "H001" not in result.codes()

    def test_h002_recursive_instantiation(self):
        text = (
            "module a(input logic clk); b u0(.clk(clk)); endmodule\n"
            "module b(input logic clk); a u0(.clk(clk)); endmodule"
        )
        result = self.check([(text, "systemverilog")], ["a", "b"])
        assert "H002" in result.codes()
        assert not result.ok()

    def test_h002_negative_tree(self):
        result = self.check(
            [(TOP_SV + "\n" + SUB_SV, "systemverilog")], ["top", "sub"]
        )
        assert "H002" not in result.codes()


class TestBoundaryPoints:
    def test_midpoint_plus_per_dimension_bounds(self):
        space = ParameterSpace([IntRange("A", 0, 10), IntRange("B", 4, 8)])
        points = boundary_points(space)
        assert {"A": 5, "B": 6} in points          # midpoint base
        assert {"A": 0, "B": 6} in points          # A at low
        assert {"A": 10, "B": 6} in points         # A at high
        assert {"A": 5, "B": 4} in points          # B at low
        assert {"A": 5, "B": 8} in points          # B at high
        assert len(points) == 5

    def test_power_of_two_bounds_decoded(self):
        space = ParameterSpace([PowerOfTwoRange("M", 3, 6)])
        points = boundary_points(space)
        values = {p["M"] for p in points}
        assert values == {8, 16, 64}  # 2^3, 2^4 (encoded midpoint), 2^6

    @pytest.mark.parametrize("name", sorted(all_designs()))
    def test_builtin_designs_clean_at_boundaries(self, name):
        gen = all_designs()[name]
        space = ParameterSpace.from_design(gen)
        source = gen.source()
        modules = parse_source(source, gen.language)
        result = DesignRuleChecker().check_design(
            gen.module(),
            space=space,
            sources=((source, str(gen.language)),),
            known_modules=[m.name for m in modules],
        )
        assert result.findings == (), [str(f) for f in result.findings]

    def test_crafted_design_dirty_at_boundary(self):
        module = sv_module(NULLABLE_SV)
        space = ParameterSpace([IntRange("W", 1, 16)])
        result = DesignRuleChecker().check_design(
            module, space=space, boxed=False
        )
        assert "P001" in result.codes()  # the W=1 boundary point
