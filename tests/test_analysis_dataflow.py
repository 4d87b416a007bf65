"""Tests for the parameter dataflow engine's analysis layer.

Three claims carry the subsystem:

1. the gate's static layer rejects definitely-infeasible points with
   *zero* elaboration calls (the ``decision.*`` counters prove it);
2. the static layer never changes a feasibility verdict — with it forced
   off, Pareto fronts are bitwise identical;
3. the D-series lint rules and ``prune_space`` surface dead parameters
   and statically-empty subranges without false positives on the bundled
   designs.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.checker import DesignRuleChecker
from repro.analysis.dataflow_rules import (
    PruneReport,
    StaticSpaceAnalysis,
    prune_space,
)
from repro.analysis.findings import Severity
from repro.analysis.gate import PreflightGate
from repro.analysis.registry import RuleConfig
from repro.core.cli import main
from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness, DseProblem
from repro.core.session import DseSession
from repro.core.spaces import IntRange, ParameterSpace
from repro.designs import all_designs, get_design
from repro.hdl.frontend import parse_source
from repro.observe import telemetry_session

NULLABLE_SV = """
module nullable #(parameter W = 4) (
  input  logic clk,
  input  logic [W-1:0] d,
  output logic [W-2:0] q
);
endmodule
"""
# W=1 elaborates q to [-1:0] (P001); every W>=2 is feasible.

NULLABLE_ALWAYS_SV = """
module nullable_always #(parameter W = 1) (
  input  logic clk,
  input  logic [W-2:0] q
);
endmodule
"""
# With the space pinned to W=1 the whole box is statically null.

DEAD_SV = """
module deadwidget #(
    parameter WIDTH = 8,
    parameter SPARE = 3
)(
    input  logic clk,
    input  logic [WIDTH-1:0] d,
    output logic [WIDTH-1:0] q
);
    always_ff @(posedge clk) q <= d;
endmodule
"""
# SPARE flows nowhere: no port range, generate, child generic, or body use.

GENFALSE_SV = """
module genfalse #(
    parameter MODE = 0,
    parameter W = 8
)(
    input  logic clk,
    input  logic [W-1:0] d,
    output logic [W-1:0] q
);
    if (MODE > 5) begin : gen_x
        buf_unit u (.clk(clk));
    end
    always_ff @(posedge clk) q <= d;
endmodule
"""

NATURAL_VHDL = """
entity natgen is
  generic (
    DEPTH : natural := 4;
    WIDTH : natural := 8
  );
  port (
    clk : in bit;
    q   : out bit_vector(WIDTH - 1 downto 0)
  );
end entity;
"""


def nullable_module():
    return parse_source(NULLABLE_SV, "systemverilog")[0]


def nullable_space():
    return ParameterSpace([IntRange("W", 1, 16)])


def make_fitness(**kw):
    return ApproximateFitness(
        evaluator=PointEvaluator(
            source=NULLABLE_SV, language="systemverilog", top="nullable"
        ),
        space=nullable_space(),
        use_model=False,
        pretrain_size=0,
        seed=3,
        **kw,
    )


# ---------------------------------------------------------------------------
# the gate's static layer: zero-elaboration rejections
# ---------------------------------------------------------------------------


class TestGateStaticLayer:
    def test_static_reject_without_elaboration(self):
        gate = PreflightGate(nullable_module(), space=nullable_space())
        with telemetry_session() as tel:
            findings = gate.errors({"W": 1})
            assert findings
            assert all(f.code == "D002" for f in findings)
            assert all(f.severity == Severity.ERROR for f in findings)
            # The rejection was proved by interval analysis: the point was
            # never elaborated.
            assert tel.counters.get("decision.static_reject") == 1
            assert tel.counters.get("decision.drc_elaboration") == 0
            # A feasible point still takes the full per-point check.
            assert gate.is_feasible({"W": 8})
            assert tel.counters.get("decision.drc_elaboration") == 1
        assert gate.stats()["drc_static_rejections"] == 1

    def test_bundled_design_static_reject_zero_elaboration(self):
        """Acceptance case: on a bundled design, a statically-infeasible
        point is rejected with zero elaboration calls."""
        design = get_design("corundum-cqm")
        module = design.module()
        # OP_TABLE_SIZE=1 makes CL_OP_TABLE_SIZE = $clog2(1) = 0, so the
        # op-tag ports elaborate to [-1:0]; the canonical space starts at
        # 8, this one deliberately reaches down to the null point.
        space = ParameterSpace([IntRange("OP_TABLE_SIZE", 1, 40)])
        gate = PreflightGate(module, space=space)
        with telemetry_session() as tel:
            assert not gate.is_feasible({"OP_TABLE_SIZE": 1})
            assert tel.counters.get("decision.static_reject") == 1
            assert tel.counters.get("decision.drc_elaboration") == 0
        # The full checker agrees with the static verdict.
        result = DesignRuleChecker().check_point(
            module, {"OP_TABLE_SIZE": 1}, space=space
        )
        assert result.errors()
        assert gate.is_feasible({"OP_TABLE_SIZE": 16})

    def test_whole_space_static_rejection(self):
        module = parse_source(NULLABLE_ALWAYS_SV, "systemverilog")[0]
        gate = PreflightGate(module, space=ParameterSpace([IntRange("W", 1, 1)]))
        with telemetry_session() as tel:
            findings = gate.errors({"W": 1})
            assert findings and findings[0].code == "D002"
            assert "statically infeasible over the declared space" in str(findings[0])
            assert tel.counters.get("decision.drc_elaboration") == 0

    def test_nonstock_config_disables_static_layer(self):
        """Disabling a backing rule invalidates the static proofs, so the
        gate falls back to per-point checking — same verdicts, no static
        short-circuit."""
        config = RuleConfig(disabled=frozenset({"P001"}))
        gate = PreflightGate(nullable_module(), space=nullable_space(), config=config)
        with telemetry_session() as tel:
            gate.errors({"W": 1})
            assert tel.counters.get("decision.static_reject") == 0
            assert tel.counters.get("decision.drc_elaboration") == 1
        assert "drc_static_rejections" not in gate.stats()

    def test_no_space_gate_has_no_static_layer(self):
        gate = PreflightGate(nullable_module())
        assert not gate.static_infeasible_mask(np.array([[1]])).any()
        gate.errors({"W": 1})
        assert "drc_static_rejections" not in gate.stats()

    def test_static_rejections_memoized(self):
        gate = PreflightGate(nullable_module(), space=nullable_space())
        with telemetry_session() as tel:
            for _ in range(3):
                gate.errors({"W": 1})
            assert tel.counters.get("decision.static_reject") == 1
        assert gate.stats()["drc_checks"] == 1


# ---------------------------------------------------------------------------
# the vectorized constraint path
# ---------------------------------------------------------------------------


class TestVectorizedMask:
    def test_feasible_mask_short_circuits_static_rows(self):
        fitness = make_fitness()
        problem = DseProblem(fitness)
        # Encoded rows clip exactly like ParameterSpace.decode: 0 -> 1
        # (infeasible), 99 -> 16 (feasible).
        X = np.array([[1], [8], [0], [16], [99]])
        with telemetry_session() as tel:
            mask = problem.feasible_mask(X)
            assert mask.tolist() == [False, True, False, True, True]
            assert tel.counters.get("decision.static_mask_reject") == 2
            assert tel.counters.get("decision.drc_elaboration") == 2
        # Statically-rejected rows never reached the per-point memo;
        # 99 decoded to the already-checked 16.
        assert fitness.gate.stats()["drc_checks"] == 2
        fitness.close()

    def test_gate_mask_matches_pointwise_verdicts(self):
        gate = PreflightGate(nullable_module(), space=nullable_space())
        X = np.arange(1, 17).reshape(-1, 1)
        mask = gate.static_infeasible_mask(X)
        for i, row in enumerate(X):
            if mask[i]:
                assert not gate.is_feasible({"W": int(row[0])})


# ---------------------------------------------------------------------------
# soundness: the static verdict agrees with per-point elaboration
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _agreement_gates(name: str):
    if name == "nullable":
        module, space = nullable_module(), nullable_space()
    elif name == "corundum-custom":
        module = get_design("corundum-cqm").module()
        space = ParameterSpace([IntRange("OP_TABLE_SIZE", 1, 40)])
    else:
        design = get_design(name)
        module = design.module()
        space = ParameterSpace.from_design(design)
    gate_on = PreflightGate(module, space=space)
    gate_off = PreflightGate(module, space=space)
    gate_off._static_ready = True  # force the per-point path
    return space, gate_on, gate_off


@pytest.mark.parametrize(
    "name", sorted(all_designs()) + ["nullable", "corundum-custom"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_static_verdict_agrees_with_elaboration(name, data):
    """For random points of every bundled design (plus the fixtures with
    known infeasible subranges), the gate with the static layer gives the
    same verdict as the gate without it."""
    space, gate_on, gate_off = _agreement_gates(name)
    encoded = np.array(
        [data.draw(st.integers(d.low, d.high), label=d.name) for d in space]
    )
    params = space.decode(encoded)
    assert gate_on.is_feasible(params) == gate_off.is_feasible(params)


@given(w=st.integers(-3, 20))
@settings(max_examples=30, deadline=None)
def test_nullable_static_exactness(w):
    """On the nullable fixture the static layer is not just sound but
    exact: inside the space it decides every point by itself."""
    analysis = StaticSpaceAnalysis(nullable_module(), nullable_space())
    verdict = analysis.reject_findings({"W": w})
    errors = DesignRuleChecker().check_point(
        nullable_module(), {"W": w}, space=nullable_space()
    ).errors()
    if verdict is not None:
        assert errors  # soundness: a static reject is a checker reject
    if 1 <= w <= 16:
        assert (verdict is not None) == bool(errors)


# ---------------------------------------------------------------------------
# Pareto fronts are identical with the static layer forced off
# ---------------------------------------------------------------------------


class TestBehaviourNeutrality:
    def _run(self, disable_static: bool):
        sess = DseSession(
            source=NULLABLE_SV,
            language="systemverilog",
            top="nullable",
            space=nullable_space(),
            use_model=False,
            pretrain_size=0,
            seed=7,
        )
        if disable_static:
            sess.fitness.gate._static_ready = True  # leave _static = None
        try:
            res = sess.explore(generations=4, population=8)
            front = sorted(
                (
                    tuple(sorted(p.parameters.items())),
                    tuple(sorted(p.metrics.items())),
                )
                for p in res.pareto
            )
            history = [
                (tuple(sorted(p.parameters.items())), p.source)
                for p in sess.fitness.history
            ]
            return front, history
        finally:
            sess.close()

    def test_pareto_front_bitwise_identical(self):
        with_static = self._run(disable_static=False)
        without_static = self._run(disable_static=True)
        assert with_static == without_static


# ---------------------------------------------------------------------------
# the D-series lint rules
# ---------------------------------------------------------------------------


class TestDataflowRules:
    def test_d001_dead_parameter(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        result = DesignRuleChecker().check_dataflow(
            module, sources=((DEAD_SV, "systemverilog"),)
        )
        [finding] = [f for f in result if f.code == "D001"]
        assert "SPARE" in finding.message
        assert finding.severity == Severity.WARNING

    def test_d001_needs_a_body_scan(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        result = DesignRuleChecker().check_dataflow(module)
        assert "D001" not in result.codes()

    def test_d001_skips_registered_models(self):
        """Architectural models consume parameters the RTL scan cannot
        see, so liveness verdicts do not apply to them."""
        from repro.synth.elaborate import _MODELS, register_model

        module = parse_source(DEAD_SV, "systemverilog")[0]
        register_model("deadwidget", lambda env: None)
        try:
            result = DesignRuleChecker().check_dataflow(
                module, sources=((DEAD_SV, "systemverilog"),)
            )
            assert "D001" not in result.codes()
        finally:
            _MODELS.pop("deadwidget", None)

    def test_d002_reports_infeasible_run(self):
        result = DesignRuleChecker().check_dataflow(
            nullable_module(),
            space=nullable_space(),
            sources=((NULLABLE_SV, "systemverilog"),),
        )
        [finding] = [f for f in result if f.code == "D002"]
        assert finding.severity == Severity.WARNING  # advisory at lint time
        assert "values 1" in finding.message
        assert "null range" in finding.message

    def test_d003_degenerate_generate_arm(self):
        module = parse_source(GENFALSE_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("MODE", 0, 3), IntRange("W", 2, 8)])
        result = DesignRuleChecker().check_dataflow(
            module, space=space, sources=((GENFALSE_SV, "systemverilog"),)
        )
        [finding] = [f for f in result if f.code == "D003"]
        assert "(MODE > 5)" in finding.message

    def test_d003_silent_when_arm_is_reachable(self):
        module = parse_source(GENFALSE_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("MODE", 0, 8), IntRange("W", 2, 8)])
        result = DesignRuleChecker().check_dataflow(
            module, space=space, sources=((GENFALSE_SV, "systemverilog"),)
        )
        assert "D003" not in result.codes()

    def test_d004_statically_empty_dimension(self):
        module = parse_source(NATURAL_VHDL, "vhdl")[0]
        space = ParameterSpace(
            [IntRange("DEPTH", -4, -1), IntRange("WIDTH", 2, 8)]
        )
        result = DesignRuleChecker().check_dataflow(
            module, space=space, sources=((NATURAL_VHDL, "vhdl"),)
        )
        [finding] = [f for f in result if f.code == "D004"]
        assert finding.severity == Severity.ERROR
        assert "DEPTH" in finding.message
        assert "natural" in finding.message
        # The empty dimension is D004's finding, not a D002 run.
        assert "D002" not in result.codes()

    def test_d004_whole_space(self):
        module = parse_source(NULLABLE_ALWAYS_SV, "systemverilog")[0]
        result = DesignRuleChecker().check_dataflow(
            module,
            space=ParameterSpace([IntRange("W", 1, 1)]),
            sources=((NULLABLE_ALWAYS_SV, "systemverilog"),),
        )
        [finding] = [f for f in result if f.code == "D004"]
        assert "every point of the declared space" in finding.message

    def test_check_design_merges_dataflow_stage(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("WIDTH", 2, 8), IntRange("SPARE", 0, 3)])
        result = DesignRuleChecker().check_design(
            module, space=space, sources=((DEAD_SV, "systemverilog"),)
        )
        assert "D001" in result.codes()

    def test_bundled_designs_stay_clean(self):
        """The D rules add no findings on any bundled design at its
        canonical space (the CI self-lint relies on this)."""
        for name in sorted(all_designs()):
            design = get_design(name)
            result = DesignRuleChecker().check_dataflow(
                design.module(),
                space=ParameterSpace.from_design(design),
                sources=((design.source(), str(design.language)),),
            )
            assert not result.findings, f"{name}: {[str(f) for f in result]}"


# ---------------------------------------------------------------------------
# static space pruning
# ---------------------------------------------------------------------------


class TestPruneSpace:
    def test_tightens_infeasible_range_end(self):
        report = prune_space(
            nullable_module(),
            nullable_space(),
            sources=((NULLABLE_SV, "systemverilog"),),
        )
        assert report.changed
        assert report.tightened == (("W", 1, 16, 2, 16),)
        assert report.space.dimensions[0].low == 2
        assert "tightened W [1..16] -> [2..16]" in report.render()

    def test_drops_dead_dimension(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("WIDTH", 2, 8), IntRange("SPARE", 0, 3)])
        report = prune_space(module, space, sources=((DEAD_SV, "systemverilog"),))
        assert report.dropped == ("SPARE",)
        assert [d.name for d in report.space] == ["WIDTH"]
        assert "dead dimension 'SPARE'" in report.render()

    def test_keeps_at_least_one_dimension(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("SPARE", 0, 3)])
        report = prune_space(module, space, sources=((DEAD_SV, "systemverilog"),))
        assert not report.dropped
        assert len(list(report.space)) == 1

    def test_unchanged_space_is_reused(self):
        module = parse_source(DEAD_SV, "systemverilog")[0]
        space = ParameterSpace([IntRange("WIDTH", 2, 8)])
        report = prune_space(module, space, sources=((DEAD_SV, "systemverilog"),))
        assert not report.changed
        assert report.space is space
        assert "space unchanged" in report.render()

    def test_fully_infeasible_dim_left_for_d004(self):
        module = parse_source(NATURAL_VHDL, "vhdl")[0]
        space = ParameterSpace(
            [IntRange("DEPTH", -4, -1), IntRange("WIDTH", 2, 8)]
        )
        report = prune_space(module, space, sources=((NATURAL_VHDL, "vhdl"),))
        assert not report.changed
        assert any("no statically feasible" in note for note in report.notes)

    def test_report_is_frozen(self):
        report = PruneReport(space=nullable_space())
        with pytest.raises(AttributeError):
            report.dropped = ("X",)

    def test_bundled_designs_unchanged(self):
        for name in sorted(all_designs()):
            design = get_design(name)
            report = prune_space(
                design.module(),
                ParameterSpace.from_design(design),
                sources=((design.source(), str(design.language)),),
            )
            assert not report.changed, f"{name}: {report.render()}"


# ---------------------------------------------------------------------------
# session + CLI integration
# ---------------------------------------------------------------------------


class TestSessionAndCli:
    def test_apply_static_pruning_rebuilds_fitness(self):
        sess = DseSession(
            source=NULLABLE_SV,
            language="systemverilog",
            top="nullable",
            space=nullable_space(),
            use_model=False,
            pretrain_size=0,
            seed=3,
        )
        old_fitness = sess.fitness
        try:
            report = sess.apply_static_pruning()
            assert report.changed
            assert sess.space.dimensions[0].low == 2
            assert sess.fitness is not old_fitness
            assert sess.fitness.space is sess.space
            res = sess.explore(generations=2, population=6)
            assert all(p.parameters["W"] >= 2 for p in res.pareto)
        finally:
            sess.close()

    def test_pruned_session_keeps_every_fitness_setting(self, tmp_path):
        from repro.estimation import RefitPolicy
        from repro.flow.vivado_sim import Fidelity

        sess = DseSession(
            source=NULLABLE_SV,
            language="systemverilog",
            top="nullable",
            space=nullable_space(),
            use_model=False,
            pretrain_size=5,
            seed=3,
            workers=2,
            refit_every=3,
            refit_gamma_drift=0.25,
            result_store=str(tmp_path / "store"),
            fidelity_gate=True,
            gate_risk=0.3,
            gate_fidelity="placed-estimate",
            gate_min_calibration=7,
            gate_trickle_every=5,
            gate_static_priors=True,
            drc_netlist=True,
        )
        old = sess.fitness
        try:
            assert sess.apply_static_pruning().changed
            new = sess.fitness
            assert new is not old and new.space is sess.space
            assert new.result_store is old.result_store  # not reopened
            settings = {
                "use_model": False,
                "pretrain_size": 5,
                "seed": 3,
                "workers": 2,
                "refit_policy": RefitPolicy(every=3, gamma_drift=0.25),
                "fidelity_gate_enabled": True,
                "gate_risk": 0.3,
                "gate_fidelity": Fidelity.PLACED_ESTIMATE,
                "gate_min_calibration": 7,
                "gate_trickle_every": 5,
                "gate_static_priors": True,
                "drc_netlist": True,
            }
            for name, value in settings.items():
                assert getattr(new, name) == value, name
            assert new.gate.netlist_stage
            assert new.promotion_gate.risk == 0.3
        finally:
            sess.close()

    def test_cli_prune_space_flag(self, capsys, tmp_path):
        src = tmp_path / "nullable.sv"
        src.write_text(NULLABLE_SV, encoding="utf-8")
        rc = main([
            "dse", "--source", str(src), "--top", "nullable",
            "--param", "W:1:16", "--generations", "2", "--population", "6",
            "--no-model", "--seed", "3", "--prune-space",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tightened W [1..16] -> [2..16]" in out
        assert "Non-dominated set" in out
