"""Tests for the DSE pre-flight gate and its evaluation-loop integration.

The acceptance bar: an infeasible point is rejected *before* evaluator
dispatch (no simulated tool cost, ``source="drc"`` in history), while a
run in which every point is feasible is behaviour-neutral.
"""

import numpy as np
import pytest

from repro.analysis.gate import PreflightGate, freeze_params
from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness, DseProblem
from repro.core.parallel import (
    EvaluationFailure,
    EvaluatorSpec,
    ParallelPointEvaluator,
)
from repro.core.spaces import IntRange, ParameterSpace
from repro.errors import DrcViolationError
from repro.hdl.frontend import parse_source
from repro.moo.problem import IntegerProblem, Objective

NULLABLE_SV = """
module nullable #(parameter W = 4) (
  input  logic clk,
  input  logic [W-1:0] d,
  output logic [W-2:0] q
);
endmodule
"""
# W=1 elaborates q to [-1:0] -> P001; W>=2 is feasible.


def nullable_module():
    return parse_source(NULLABLE_SV, "systemverilog")[0]


def make_evaluator(**kw):
    return PointEvaluator(
        source=NULLABLE_SV, language="systemverilog", top="nullable", **kw
    )


def make_fitness(use_model=False, **kw):
    return ApproximateFitness(
        evaluator=make_evaluator(),
        space=ParameterSpace([IntRange("W", 1, 16)]),
        use_model=use_model,
        pretrain_size=0,
        seed=3,
        **kw,
    )


class TestPreflightGate:
    def test_feasibility_split(self):
        gate = PreflightGate(nullable_module())
        assert not gate.is_feasible({"W": 1})
        assert gate.is_feasible({"W": 8})

    def test_verdicts_memoized(self):
        gate = PreflightGate(nullable_module())
        for _ in range(3):
            gate.errors({"W": 1})
            gate.errors({"w": 1})  # case-insensitive: same frozen key
        assert gate.stats() == {
            "drc_checks": 1, "drc_rejections": 1, "drc_memo_size": 1,
        }

    def test_freeze_matches_parallel_memo_key(self):
        params = {"B": 2, "a": 1}
        assert freeze_params({"A": 1, "b": 2}) == freeze_params(params)
        spec = EvaluatorSpec.from_evaluator(make_evaluator())
        with ParallelPointEvaluator(spec=spec, workers=0) as pe:
            pe.evaluate_many([{"W": 1}], on_error="return")
        assert list(pe.memo) == [freeze_params({"w": 1})]

    def test_violation_carries_findings_and_point(self):
        gate = PreflightGate(nullable_module())
        error = gate.violation({"W": 1})
        assert isinstance(error, DrcViolationError)
        assert "W=1" in str(error) and "P001" in str(error)
        assert error.findings and error.findings[0].code == "P001"
        assert gate.violation({"W": 8}) is None

    def test_space_aware_gate_rejects_out_of_space(self):
        space = ParameterSpace([IntRange("W", 4, 16)])
        gate = PreflightGate(nullable_module(), space=space)
        assert not gate.is_feasible({"W": 64})
        assert gate.is_feasible({"W": 8})


class TestEvaluatorGate:
    def test_infeasible_point_never_reaches_the_tool(self):
        ev = make_evaluator()
        with pytest.raises(DrcViolationError, match="P001"):
            ev.evaluate({"W": 1})
        assert ev.evaluations == 0
        assert ev.last_script == ""  # no TCL was ever rendered

    def test_feasible_point_unaffected(self):
        ev = make_evaluator()
        point = ev.evaluate({"W": 8})
        assert point.source == "tool"
        assert ev.gate.stats()["drc_rejections"] == 0


class TestParallelGate:
    def spec(self):
        return EvaluatorSpec.from_evaluator(make_evaluator())

    def test_rejected_before_any_dispatch(self):
        with ParallelPointEvaluator(spec=self.spec(), workers=0) as pe:
            outs = pe.evaluate_many([{"W": 1}], on_error="return")
        assert isinstance(outs[0], EvaluationFailure)
        assert outs[0].original_type == "DrcViolationError"
        assert pe.dispatched == 0 and pe.drc_rejections == 1
        # The serial fallback evaluator was never even constructed.
        assert pe._serial is None

    def test_mixed_batch_dispatches_only_feasible(self):
        with ParallelPointEvaluator(spec=self.spec(), workers=0) as pe:
            outs = pe.evaluate_many(
                [{"W": 1}, {"W": 8}, {"W": 1}], on_error="return"
            )
        assert isinstance(outs[0], EvaluationFailure)
        assert outs[1].source == "tool"
        assert isinstance(outs[2], EvaluationFailure)  # memo replay
        assert pe.dispatched == 1 and pe.drc_rejections == 1
        assert pe.memo_hits == 1

    def test_failure_record_matches_serial_error_text(self):
        # The parallel fan-out and the serial evaluator's own gate must
        # produce byte-identical failure messages for the same point.
        ev = make_evaluator()
        with pytest.raises(DrcViolationError) as excinfo:
            ev.evaluate({"W": 1})
        with ParallelPointEvaluator(spec=self.spec(), workers=0) as pe:
            out = pe.evaluate_many([{"W": 1}], on_error="return")[0]
        assert out.message == str(excinfo.value)

    def test_on_error_raise_propagates(self):
        with ParallelPointEvaluator(spec=self.spec(), workers=0) as pe:
            with pytest.raises(Exception, match="DrcViolationError"):
                pe.evaluate_many([{"W": 1}], on_error="raise")


class TestFitnessGate:
    def test_drc_failure_is_zero_cost_in_history(self):
        f = make_fitness()
        before = f.simulated_seconds
        F = f.evaluate_encoded(np.array([[1]]))
        assert f.simulated_seconds == before  # no tool time charged
        assert f.infeasible == 1 and f.drc_rejections == 1
        record = f.history[-1]
        assert record.source == "drc"
        assert record.simulated_seconds == 0.0
        assert F[0, 0] >= 1e11      # LUT penalty (minimized)
        assert F[0, 1] == 0.0       # frequency penalty (maximized)

    def test_tool_failures_keep_their_source_and_cost(self):
        # A tool-level failure (not DRC-catchable) still charges time.
        f = make_fitness()
        f._note_failure({"W": 4}, "BramOverflowError")
        assert f.history[-1].source == "infeasible:BramOverflowError"
        assert f.simulated_seconds > 0.0
        assert f.drc_rejections == 0

    def test_feasible_run_is_gate_neutral(self):
        f = make_fitness()
        f.evaluate_encoded(np.array([[8], [12]]))
        assert f.drc_rejections == 0
        assert all(p.source == "tool" for p in f.history)
        stats = f.stats()
        assert stats["drc_rejections"] == 0
        assert stats["infeasible"] == 0

    def test_model_path_checks_gate_before_control(self):
        f = make_fitness(use_model=True)
        F = f.evaluate_encoded(np.array([[1]]))
        assert f.history[-1].source == "drc"
        assert F[0, 0] >= 1e11
        # The rejected point never entered the control model's dataset.
        assert len(f.control.dataset) == 0

    def test_stats_expose_gate_counters(self):
        f = make_fitness()
        f.evaluate_encoded(np.array([[1], [8]]))
        stats = f.stats()
        assert stats["drc_rejections"] == 1
        assert stats["drc_checks"] >= 1
        assert stats["drc_memo_size"] >= 1


class TestFeasibleMask:
    def test_base_problem_everything_feasible(self):
        problem = _Stub()
        mask = problem.feasible_mask(np.array([[1], [2], [3]]))
        assert mask.dtype == bool and mask.all()

    def test_dse_problem_consults_gate(self):
        f = make_fitness()
        problem = DseProblem(f)
        mask = problem.feasible_mask(np.array([[1], [8], [1]]))
        assert mask.tolist() == [False, True, False]


class _Stub(IntegerProblem):
    def __init__(self):
        super().__init__([0], [10], [Objective.minimize("x")])

    def evaluate(self, X):  # pragma: no cover
        raise NotImplementedError
