"""Netlist static analysis: N-series rules, loop/truncation telemetry,
the ``lint --netlist`` CLI stage, and the rung-0 static estimator.

Covers the tentpole contracts of the netlist analysis layer:

- ``Netlist.combinational_loops`` returns *every* simple cycle and the
  elaboration check reports the full set, not just the first;
- ``timing_arcs`` truncation is never silent (flag + telemetry counter);
- each N-rule fires on a hand-built netlist exhibiting its defect and
  every bundled design is N-clean at its default binding;
- ``dovado-repro lint --netlist`` renders N findings through text / JSON
  / SARIF, honors baselines, and produces CI exit codes;
- the static estimator is *sound*: utilization lower bounds never exceed
  the routed utilization and the Fmax upper bound never falls below the
  routed Fmax, across sampled points of every bundled design;
- the estimator's features feed the promotion gate as priors, and the
  pre-flight gate's netlist stage rejects structurally broken points.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import DesignRuleChecker
from repro.analysis.gate import PreflightGate
from repro.analysis.netlist_rules import achievable_lut_depth, fanout_threshold
from repro.analysis.registry import RuleContext, Stage
from repro.core.cli import main
from repro.core.evaluate import PointEvaluator
from repro.core.spaces import ParameterSpace
from repro.designs import all_designs
from repro.devices import Device, ResourceKind, get_device
from repro.errors import ElaborationError, FlowError, ReproError
from repro.estimation import PromotionGate
from repro.flow.vivado_sim import Fidelity
from repro.netlist import Block, Netlist
from repro.netlist.static_estimate import static_estimate, static_estimate_point
from repro.observe import telemetry_session

K7 = get_device("XC7K70T")


def netlist_codes(netlist, device: Device | None = None, period: float | None = None):
    """Run the NETLIST rule stage directly over a hand-built netlist."""
    ctx = RuleContext(netlist=netlist, device=device, target_period_ns=period)
    checker = DesignRuleChecker()
    return [f.code for f in checker._run_stage(Stage.NETLIST, ctx)]


def comb_block(name: str, **kw) -> Block:
    kw.setdefault("logic_terms", 4)
    kw.setdefault("levels", 1)
    kw.setdefault("registered_output", False)
    return Block(name=name, **kw)


def two_loop_netlist() -> Netlist:
    n = Netlist(top="t")
    for name in "abcd":
        n.add_block(comb_block(name))
    n.connect("a", "b", combinational=True)
    n.connect("b", "a", combinational=True)
    n.connect("c", "d", combinational=True)
    n.connect("d", "c", combinational=True)
    return n


class TestCombinationalLoops:
    def test_every_simple_cycle_enumerated(self):
        loops = two_loop_netlist().combinational_loops()
        assert loops == [("a", "b"), ("c", "d")]

    def test_check_reports_full_set(self):
        with pytest.raises(ElaborationError) as err:
            two_loop_netlist().check_no_combinational_loops()
        message = str(err.value)
        assert "combinational loops (2)" in message
        assert "a -> b -> a" in message and "c -> d -> c" in message

    def test_single_loop_keeps_singular_label(self):
        n = Netlist(top="t")
        n.add_block(comb_block("a"))
        n.add_block(comb_block("b"))
        n.connect("a", "b", combinational=True)
        n.connect("b", "a", combinational=True)
        with pytest.raises(ElaborationError, match="combinational loop: "):
            n.check_no_combinational_loops()

    def test_acyclic_netlist_passes(self):
        n = Netlist(top="t")
        n.add_block(comb_block("a"))
        n.add_block(Block(name="b", ff_bits=4))
        n.connect("a", "b", combinational=True)
        n.check_no_combinational_loops()
        assert n.combinational_loops() == []


class TestTimingArcTruncation:
    def _wide_netlist(self) -> Netlist:
        n = Netlist(top="t")
        n.add_block(comb_block("src"))
        for i in range(8):
            n.add_block(comb_block(f"mid{i}"))
            n.connect("src", f"mid{i}", combinational=True)
        return n

    def test_truncation_sets_flag_and_counter(self):
        n = self._wide_netlist()
        with telemetry_session() as tel:
            arcs = n.timing_arcs(max_arcs=3)
            assert len(arcs) == 3
            assert n.timing_arcs_truncated is True
            assert tel.counters.as_dict()["netlist.timing_arcs_truncated"] == 1

    def test_full_enumeration_resets_flag(self):
        n = self._wide_netlist()
        n.timing_arcs(max_arcs=3)
        assert n.timing_arcs_truncated is True
        with telemetry_session() as tel:
            n.timing_arcs()
            assert n.timing_arcs_truncated is False
            assert "netlist.timing_arcs_truncated" not in tel.counters.as_dict()


class TestNetlistRules:
    def test_n001_one_finding_per_loop(self):
        codes = netlist_codes(two_loop_netlist())
        assert codes.count("N001") == 2

    def test_n002_undriven_consumer_without_top_inputs(self):
        n = Netlist(top="t")
        n.add_block(Block(name="sink", ff_bits=8))
        n.add_block(Block(name="feeder", logic_terms=2))
        n.connect("feeder", "sink", combinational=True)
        # feeder consumes logic but nothing drives it and no top inputs exist
        assert "N002" in netlist_codes(n)
        n.set_ports(inputs=4, outputs=4)
        assert "N002" not in netlist_codes(n)

    def test_n003_deduplicates_collisions(self):
        n = Netlist(top="t")
        n.add_block(comb_block("a"))
        n.add_block(Block(name="b", ff_bits=2))
        n.connect("a", "b")
        n.connect("a", "b")
        n.connect("a", "b")
        assert n.duplicate_connections == [("a", "b"), ("a", "b")]
        assert netlist_codes(n).count("N003") == 1

    def test_n004_device_derived_threshold(self):
        assert fanout_threshold(K7) == max(256, K7.capacity(ResourceKind.LUT) // 100)
        n = Netlist(top="t")
        n.add_block(Block(name="hub", ff_bits=4))
        n.add_block(Block(name="sink", ff_bits=4))
        n.connect("hub", "sink", width=fanout_threshold(K7) + 1)
        assert "N004" in netlist_codes(n, device=K7)
        # A load between the deviceless floor and the K7 threshold fires
        # only when no device scales the threshold up.
        mid = Netlist(top="t")
        mid.add_block(Block(name="hub", ff_bits=4))
        mid.add_block(Block(name="sink", ff_bits=4))
        mid.connect("hub", "sink", width=300)
        assert "N004" in netlist_codes(mid)
        assert "N004" not in netlist_codes(mid, device=K7)

    def test_n005_deep_path_beyond_achievable_depth(self):
        budget = achievable_lut_depth(K7, 10.0)
        assert budget > 0
        n = Netlist(top="t")
        n.add_block(Block(name="launch", ff_bits=4, levels=1))
        n.add_block(comb_block("deep", levels=budget + 1))
        n.add_block(Block(name="capture", ff_bits=4))
        n.connect("launch", "deep", combinational=True)
        n.connect("deep", "capture", combinational=True)
        assert "N005" in netlist_codes(n, device=K7, period=10.0)
        # Silent without a device: the threshold would not be reproducible.
        assert "N005" not in netlist_codes(n)
        # A generous period absorbs the depth.
        assert "N005" not in netlist_codes(n, device=K7, period=1000.0)

    def test_n006_disconnected_island(self):
        n = Netlist(top="t")
        for name in ("a", "b", "lone"):
            n.add_block(Block(name=name, ff_bits=2))
        n.connect("a", "b")
        codes = netlist_codes(n)
        assert "N006" in codes and codes.count("N006") == 1

    def test_n007_width_beyond_consumable(self):
        n = Netlist(top="t")
        n.add_block(Block(name="wide", ff_bits=4))
        n.add_block(Block(name="narrow", logic_terms=1))
        n.connect("wide", "narrow", width=64)
        assert "N007" in netlist_codes(n)

    def test_bundled_designs_clean_at_defaults(self):
        checker = DesignRuleChecker()
        for name, gen in all_designs().items():
            result = checker.check_netlist(
                gen.module(), {}, device=K7, target_period_ns=10.0
            )
            assert not result.findings, f"{name}: {[str(f) for f in result.findings]}"


class TestLintNetlistCli:
    def test_default_point_self_lint_clean(self, capsys):
        for name in all_designs():
            code = main([
                "lint", "--design", name, "--netlist", "--default-point",
                "--strict",
            ])
            assert code == 0, capsys.readouterr().out

    def test_boundary_sweep_warns_text(self, capsys):
        # tirex at full unroll exceeds the XC7K70T fanout threshold (N004).
        code = main(["lint", "--design", "tirex", "--netlist", "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "N004" in out and "warning" in out

    def test_warnings_exit_zero_without_strict(self, capsys):
        assert main(["lint", "--design", "tirex", "--netlist"]) == 0
        assert "N004" in capsys.readouterr().out

    def test_json_render(self, capsys):
        main(["lint", "--design", "tirex", "--netlist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert "N004" in codes

    def test_sarif_render(self, capsys):
        main(["lint", "--design", "tirex", "--netlist", "--format", "sarif"])
        sarif = json.loads(capsys.readouterr().out)
        driver = sarif["runs"][0]["tool"]["driver"]
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {f"N00{i}" for i in range(1, 8)} <= rule_ids
        results = sarif["runs"][0]["results"]
        assert any(r["ruleId"] == "N004" for r in results)

    def test_baseline_suppresses_known_findings(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main([
            "lint", "--design", "tirex", "--netlist",
            "--baseline", baseline, "--update-baseline",
        ]) == 0
        capsys.readouterr()
        code = main([
            "lint", "--design", "tirex", "--netlist",
            "--baseline", baseline, "--strict",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "N004" not in out

    def test_disable_silences_netlist_rule(self):
        assert main([
            "lint", "--design", "tirex", "--netlist", "--strict",
            "--disable", "N004",
        ]) == 0


def _evaluator(gen, period_ns: float = 10.0, seed: int = 11) -> PointEvaluator:
    return PointEvaluator(
        source=gen.source(),
        language=str(gen.language),
        top=gen.top,
        part="XC7K70T",
        target_period_ns=period_ns,
        seed=seed,
    )


def _assert_static_bounds_sound(
    designs, seed: int, points_per_design: int, evaluator_seed: int, **estimate_kw
) -> None:
    """Sample each bundled design's space (plus its default binding) and
    check the static bounds against the routed flow: LUT lower bound at
    or under the routed count, Fmax upper bound at or over the routed
    Fmax, on every point the router accepts."""
    rng = np.random.default_rng(seed)
    for name, gen in designs:
        space = ParameterSpace.from_design(gen)
        evaluator = _evaluator(gen, seed=evaluator_seed)
        rows = np.column_stack([
            rng.integers(lo, hi + 1, size=points_per_design)
            for lo, hi in zip(space.lows(), space.highs())
        ])
        points = [space.decode(row) for row in rows]
        points.append({})  # the default binding
        compared = 0
        for params in points:
            est = static_estimate_point(gen.module(), K7, params, **estimate_kw)
            try:
                full = evaluator.evaluate(params)
            except ReproError:
                continue  # point infeasible on this part: nothing to bound
            compared += 1
            assert est.fmax_ub_mhz >= full.metrics["frequency"], (
                f"{name}@{params}: Fmax UB below routed Fmax"
            )
            assert est.utilization_lb.get(ResourceKind.LUT) <= (
                full.metrics["LUT"]
            ), f"{name}@{params}: LUT LB above routed count"
        assert compared >= 1, f"{name}: no feasible sampled point"


class TestStaticEstimateSoundness:
    def test_bounds_hold_across_designs_and_points(self):
        """The acceptance property: static bounds are sound for every
        bundled design across sampled points of its space."""
        _assert_static_bounds_sound(
            all_designs().items(), 7, 3, evaluator_seed=11, noise_floor=0.9
        )

    def test_bounds_hold_at_default_noise_floor(self):
        """Four more points per design, seed 2021, and the estimator's
        default noise floor: soundness is exact, not a rate."""
        _assert_static_bounds_sound(
            sorted(all_designs().items()), 2021, 4, evaluator_seed=2021
        )

    def test_delay_bias_must_be_positive(self):
        gen = all_designs()["cv32e40p-fifo"]
        from repro.synth.elaborate import elaborate

        netlist = elaborate(gen.module(), {})
        with pytest.raises(FlowError, match="non-positive delay bias"):
            static_estimate(netlist, K7, delay_bias=0.0)

    def test_features_are_finite_and_ordered(self):
        gen = all_designs()["tirex"]
        est = static_estimate_point(gen.module(), K7, {})
        features = est.features()
        assert len(features) == 4
        assert all(np.isfinite(features))
        assert features[0] == float(est.utilization_lb.get(ResourceKind.LUT))
        assert features[2] == est.delay_lb_ns


class TestStaticEstimateRung:
    def test_rung_charges_zero_and_tags_fidelity(self, cqm_design):
        evaluator = _evaluator(cqm_design, period_ns=1.0)
        point = evaluator.evaluate(
            {"OP_TABLE_SIZE": 16}, fidelity=Fidelity.STATIC_ESTIMATE
        )
        assert point.fidelity == "static-estimate"
        assert point.simulated_seconds == 0.0
        assert evaluator.sim.fidelity_runs["static-estimate"] == 1
        assert evaluator.sim.synth_stage_hits == 0

    def test_rung_bounds_the_full_run(self, cqm_design):
        params = {"OP_TABLE_SIZE": 24}
        probe = _evaluator(cqm_design, period_ns=1.0).evaluate(
            params, fidelity=Fidelity.STATIC_ESTIMATE
        )
        full = _evaluator(cqm_design, period_ns=1.0).evaluate(params)
        assert probe.metrics["frequency"] >= full.metrics["frequency"]
        assert probe.metrics["LUT"] <= full.metrics["LUT"]


class TestGateStaticPriors:
    def test_priors_extend_model_input(self):
        gate = PromotionGate(signs=np.array([1.0]), min_calibration=2)
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.uniform(size=2)
            priors = rng.uniform(size=4)
            low = np.array([rng.uniform()])
            gate.assess(x, low, priors)
            gate.observe(x, low, low + 0.1, priors)
        prediction = gate.predict_full_min(
            rng.uniform(size=2), np.array([0.5]), rng.uniform(size=4)
        )
        assert prediction is not None and np.isfinite(prediction).all()

    def test_fitness_priors_require_fidelity_gate(self, fifo_design):
        from repro.core.session import DseSession

        with pytest.raises(ValueError, match="gate_static_priors"):
            DseSession(design=fifo_design, gate_static_priors=True)

    def test_gated_session_with_priors_runs(self, fifo_design):
        from repro.core.session import DseSession

        with DseSession(
            design=fifo_design,
            use_model=False,
            target_period_ns=10.0,
            fidelity_gate=True,
            gate_fidelity="static-estimate",
            gate_static_priors=True,
            gate_min_calibration=2,
        ) as session:
            result = session.explore(generations=2, population=6, pretrain=False)
        assert result.stats["gate_promoted"] >= 2
        assert result.stats["runs:static-estimate"] >= 1
        # Static probes are free: only promoted full routes charge seconds.
        assert result.simulated_seconds > 0.0


class TestPreflightNetlistStage:
    def _gate(self, fifo_design, **kw) -> PreflightGate:
        return PreflightGate(fifo_design.module(), **kw)

    def test_stage_off_by_default_never_elaborates(self, fifo_design, monkeypatch):
        gate = self._gate(fifo_design)

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("netlist stage ran while disabled")

        monkeypatch.setattr(gate.checker, "check_netlist", boom)
        assert gate.is_feasible({"DEPTH": 8})
        assert "drc_netlist_rejections" not in gate.stats()

    def test_stage_rejects_structural_errors(self, fifo_design, monkeypatch):
        from repro.analysis.findings import CheckResult, Finding, Severity

        gate = self._gate(fifo_design, netlist_stage=True)
        broken = CheckResult((
            Finding(severity=Severity.ERROR, code="N001",
                    message="combinational loop: a -> b -> a", module="t"),
        ))
        monkeypatch.setattr(
            gate.checker, "check_netlist", lambda *a, **kw: broken
        )
        with telemetry_session() as tel:
            assert not gate.is_feasible({"DEPTH": 8})
            assert tel.counters.as_dict()["decision.netlist_reject"] == 1
        assert gate.stats()["drc_netlist_rejections"] == 1

    def test_clean_design_is_neutral(self, fifo_design):
        on = self._gate(fifo_design, netlist_stage=True)
        off = self._gate(fifo_design)
        for params in ({"DEPTH": 8}, {"DEPTH": 16, "DATA_WIDTH": 32}):
            assert on.errors(params) == off.errors(params)
        assert on.stats()["drc_netlist_rejections"] == 0

    def test_elaboration_failure_is_not_absorbed(self, fifo_design, monkeypatch):
        gate = self._gate(fifo_design, netlist_stage=True)

        def raise_elab(*a, **kw):
            raise ElaborationError("synthetic failure")

        monkeypatch.setattr(gate.checker, "check_netlist", raise_elab)
        # The netlist stage must not turn a tool-level diagnostic into a
        # silent free rejection; the point stays feasible here.
        assert gate.is_feasible({"DEPTH": 8})


class TestSessionNeutrality:
    def test_netlist_stage_neutral_on_clean_design(self, fifo_design):
        from repro.core.session import DseSession

        def front(**kw):
            with DseSession(
                design=fifo_design, use_model=False,
                target_period_ns=10.0, **kw,
            ) as session:
                result = session.explore(
                    generations=2, population=6, pretrain=False
                )
            rows = sorted(
                tuple(sorted(p.parameters.items()))
                + tuple(sorted(p.metrics.items()))
                for p in result.pareto
            )
            return rows, result.simulated_seconds, result.tool_runs

        assert front() == front(drc_netlist=True)
