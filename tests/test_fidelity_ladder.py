"""The multi-fidelity flow ladder: fidelity levels, charges, and ledger honesty.

Covers the tentpole contracts of the staged evaluation ladder:

- the three rungs (``synth-estimate`` → ``placed-estimate`` →
  ``full-route``) run the stages they claim, tag their results, and
  charge only for what they executed;
- the full-route rung is byte-identical to the pre-ladder flow;
- TCL scripts that ``place_design`` without ``route_design`` produce a
  placed-estimate result;
- the per-record ledger charges sum *exactly* to the tool session's
  ``simulated_seconds`` across every cache-hit × stage-skip × fidelity
  combination (the honest-accounting property), and the serial-fallback
  latency emulation sleeps in proportion to the stages actually run.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.evaluate import PointEvaluator
from repro.flow import FlowStep, VivadoSim
from repro.flow.vivado_sim import Fidelity
from repro.observe import telemetry_session


def _fresh_sim(cqm_design, seed=11):
    sim = VivadoSim(part="XC7K70T", seed=seed)
    sim.read_hdl(cqm_design.source(), cqm_design.language)
    sim.create_clock(1.0)
    return sim


class TestFidelityLadder:
    def test_rungs_run_their_stages_and_charge_accordingly(self, cqm_design):
        params = {"OP_TABLE_SIZE": 16}
        costs = {}
        for fid in Fidelity:
            sim = _fresh_sim(cqm_design)
            r = sim.run(cqm_design.top, params, fidelity=fid)
            assert r.fidelity is fid
            assert sim.last_run_fidelity is fid
            assert sim.fidelity_runs[str(fid)] == 1
            costs[fid] = sim.simulated_seconds
            if fid is Fidelity.FULL_ROUTE:
                assert sim.last_run_stages == ("synthesis", "implementation")
            elif fid is Fidelity.PLACED_ESTIMATE:
                assert sim.last_run_stages == ("synthesis", "placement")
            elif fid is Fidelity.SYNTH_ESTIMATE:
                assert sim.last_run_stages == ("synthesis",)
            else:
                assert sim.last_run_stages == ("static-estimate",)
        # The ladder is a ladder: each rung is strictly cheaper than the
        # one above it, and the analytical rung is free.
        assert costs[Fidelity.STATIC_ESTIMATE] == 0.0
        assert costs[Fidelity.SYNTH_ESTIMATE] < costs[Fidelity.PLACED_ESTIMATE]
        assert costs[Fidelity.PLACED_ESTIMATE] < costs[Fidelity.FULL_ROUTE]

    def test_full_route_rung_is_byte_identical_to_default(self, cqm_design):
        params = {"OP_TABLE_SIZE": 12}
        default = _fresh_sim(cqm_design).run(cqm_design.top, params)
        explicit = _fresh_sim(cqm_design).run(
            cqm_design.top, params, fidelity=Fidelity.FULL_ROUTE
        )
        assert default == explicit
        assert default.fidelity is Fidelity.FULL_ROUTE

    def test_lower_rungs_share_the_synth_stage_cache(self, cqm_design):
        """A probe then a promotion costs exactly the ungated full price."""
        params = {"OP_TABLE_SIZE": 20}
        full_cost = _fresh_sim(cqm_design).run(cqm_design.top, params).simulated_seconds

        sim = _fresh_sim(cqm_design)
        sim.run(cqm_design.top, params, fidelity=Fidelity.SYNTH_ESTIMATE)
        probe_cost = sim.simulated_seconds
        sim.run(cqm_design.top, params, fidelity=Fidelity.FULL_ROUTE)
        assert sim.synth_stage_hits == 1
        assert sim.simulated_seconds == full_cost
        assert probe_cost > 0.0

    def test_placed_estimate_is_optimistic_about_timing(self, cqm_design):
        """Optimistic routing: the placed estimate never reports a slower
        clock than the fully routed design."""
        params = {"OP_TABLE_SIZE": 24}
        placed = _fresh_sim(cqm_design).run(
            cqm_design.top, params, fidelity=Fidelity.PLACED_ESTIMATE
        )
        full = _fresh_sim(cqm_design).run(cqm_design.top, params)
        assert placed.fmax_mhz >= full.fmax_mhz * 0.95

    def test_placed_estimate_never_touches_impl_stage_cache(self, cqm_design):
        params = {"OP_TABLE_SIZE": 28}
        sim = _fresh_sim(cqm_design)
        sim.run(cqm_design.top, params, fidelity=Fidelity.PLACED_ESTIMATE)
        # The subsequent full run must do its own implementation work.
        sim.run(cqm_design.top, params, fidelity=Fidelity.FULL_ROUTE)
        assert sim.impl_stage_hits == 0

    def test_run_cache_keyed_per_fidelity(self, cqm_design):
        params = {"OP_TABLE_SIZE": 16}
        sim = _fresh_sim(cqm_design)
        probe = sim.run(cqm_design.top, params, fidelity=Fidelity.SYNTH_ESTIMATE)
        full = sim.run(cqm_design.top, params)
        assert not full.from_cache  # different rung, not a cache answer
        replay = sim.run(cqm_design.top, params, fidelity=Fidelity.SYNTH_ESTIMATE)
        assert replay == dataclasses.replace(probe, from_cache=True)

    def test_synthesis_step_ignores_fidelity(self, cqm_design):
        sim = VivadoSim(part="XC7K70T", seed=11)
        sim.read_hdl(cqm_design.source(), cqm_design.language)
        sim.create_clock(1.0)
        r = sim.run(
            cqm_design.top,
            {"OP_TABLE_SIZE": 16},
            step=FlowStep.SYNTHESIS,
            fidelity=Fidelity.FULL_ROUTE,
        )
        assert r.fidelity is Fidelity.SYNTH_ESTIMATE


class TestTclPlaceOnly:
    def test_place_without_route_yields_placed_estimate(self, cqm_design):
        """A TCL script that places but never routes is a placed-estimate."""
        from repro.tcl.commands import VivadoTclSession, bind_vivado_commands
        from repro.tcl.interp import TclInterp

        sim = _fresh_sim(cqm_design)
        session = VivadoTclSession(sim=sim)
        interp = TclInterp()
        bind_vivado_commands(interp, session)
        session.stage_source("dut.v", cqm_design.source(), cqm_design.language)
        interp.eval(
            "read_verilog dut.v\n"
            f"synth_design -top {cqm_design.top} -part XC7K70T "
            "-generic OP_TABLE_SIZE=16\n"
            "place_design\n"
            "report_utilization\n"
        )
        result = session.ensure_result()
        assert result.fidelity is Fidelity.PLACED_ESTIMATE
        assert sim.last_run_stages == ("synthesis", "placement")

    def test_place_and_route_still_full_fidelity(self, cqm_design):
        from repro.tcl.commands import VivadoTclSession, bind_vivado_commands
        from repro.tcl.interp import TclInterp

        sim = _fresh_sim(cqm_design)
        session = VivadoTclSession(sim=sim)
        interp = TclInterp()
        bind_vivado_commands(interp, session)
        session.stage_source("dut.v", cqm_design.source(), cqm_design.language)
        interp.eval(
            "read_verilog dut.v\n"
            f"synth_design -top {cqm_design.top} -part XC7K70T "
            "-generic OP_TABLE_SIZE=16\n"
            "place_design\n"
            "route_design\n"
        )
        result = session.ensure_result()
        assert result.fidelity is Fidelity.FULL_ROUTE


class TestLedgerChargeProperty:
    """Satellite: per-record ledger charges sum to ``sim.simulated_seconds``
    for every cache-hit × stage-skip × fidelity combination."""

    # Each schedule is a sequence of (parameter value, fidelity) runs;
    # repeats exercise run-cache hits, shared values across fidelities
    # exercise stage skips, and the mix covers all three rungs.
    SCHEDULES = [
        # pure full-route with a cache hit
        [(16, None), (16, None), (20, None)],
        # probe then promote (synth stage skip), then replay both
        [(16, Fidelity.SYNTH_ESTIMATE), (16, None),
         (16, Fidelity.SYNTH_ESTIMATE), (16, None)],
        # placed-estimate ladder walk with repeats
        [(16, Fidelity.PLACED_ESTIMATE), (16, Fidelity.PLACED_ESTIMATE),
         (16, None), (20, Fidelity.PLACED_ESTIMATE)],
        # all three rungs over two bindings, shuffled
        [(16, Fidelity.SYNTH_ESTIMATE), (20, Fidelity.PLACED_ESTIMATE),
         (16, Fidelity.PLACED_ESTIMATE), (20, None), (16, None),
         (20, Fidelity.SYNTH_ESTIMATE)],
    ]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_charges_sum_exactly(self, cqm_design, schedule):
        evaluator = PointEvaluator(
            source=cqm_design.source(),
            language=str(cqm_design.language),
            top=cqm_design.top,
            part="XC7K70T",
            seed=17,
        )
        with telemetry_session() as tel:
            for value, fid in schedule:
                evaluator.evaluate({"OP_TABLE_SIZE": value}, fidelity=fid)
            assert tel.ledger.total_charge() == evaluator.sim.simulated_seconds
            # Every record carries a valid fidelity tag.
            breakdown = tel.ledger.fidelity_breakdown()
            assert "untagged" not in breakdown
            # Per-fidelity grouping re-associates the float sum, so the
            # breakdown total is only approximately the ledger total; the
            # *exact* equality above is the honest-accounting contract.
            assert sum(c for _, c in breakdown.values()) == pytest.approx(
                evaluator.sim.simulated_seconds
            )

    def test_fidelity_breakdown_matches_run_counts(self, cqm_design):
        evaluator = PointEvaluator(
            source=cqm_design.source(),
            language=str(cqm_design.language),
            top=cqm_design.top,
            part="XC7K70T",
            seed=17,
        )
        with telemetry_session() as tel:
            for value, fid in itertools.product(
                (12, 16), (Fidelity.SYNTH_ESTIMATE, Fidelity.PLACED_ESTIMATE, None)
            ):
                evaluator.evaluate({"OP_TABLE_SIZE": value}, fidelity=fid)
            breakdown = tel.ledger.fidelity_breakdown()
        assert breakdown[str(Fidelity.SYNTH_ESTIMATE)][0] == 2
        assert breakdown[str(Fidelity.PLACED_ESTIMATE)][0] == 2
        assert breakdown[str(Fidelity.FULL_ROUTE)][0] == 2


class TestSerialLatencyEmulation:
    """Satellite: emulated tool latency scales with executed stages on the
    serial fallback path, exactly as it does in pool workers."""

    def test_serial_fallback_sleeps_proportionally(self, cqm_design, monkeypatch):
        import repro.core.pipeline as pipeline_mod
        from repro.core.parallel import EvaluatorSpec, ParallelPointEvaluator

        sleeps: list[float] = []
        monkeypatch.setattr(
            pipeline_mod.time, "sleep", lambda s: sleeps.append(s)
        )
        evaluator = PointEvaluator(
            source=cqm_design.source(),
            language=str(cqm_design.language),
            top=cqm_design.top,
            part="XC7K70T",
            seed=3,
        )
        spec = dataclasses.replace(
            EvaluatorSpec.from_evaluator(evaluator, design_name=None),
            emulate_tool_latency=0.5,
        )
        with ParallelPointEvaluator(spec=spec, workers=0) as pool:
            first = pool.evaluate_many([{"OP_TABLE_SIZE": 16}])[0]
            assert sleeps == [first.simulated_seconds * 0.5]
            # A memo replay is a cache answer: no new sleep.
            pool.evaluate_many([{"OP_TABLE_SIZE": 16}])
            assert len(sleeps) == 1
            # A second fresh binding sleeps for its own (different) cost.
            second = pool.evaluate_many([{"OP_TABLE_SIZE": 24}])[0]
            assert sleeps[1] == second.simulated_seconds * 0.5
