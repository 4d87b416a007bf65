"""Tests for the approximate fitness function and the DSE session."""

import numpy as np
import pytest

from repro.core import DseSession, MetricSpec
from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness, DseProblem
from repro.core.spaces import IntRange, ParameterSpace
from repro.estimation import Decision


def _fitness(design, use_model=True, pretrain=20, names=None, **kw):
    from repro.core.spaces import ParameterSpace

    space = ParameterSpace.from_design(design, names=names)
    ev = PointEvaluator(
        source=design.source(), language=design.language, top=design.top,
        part="XC7K70T", seed=3, **kw,
    )
    return ApproximateFitness(
        evaluator=ev, space=space, use_model=use_model,
        pretrain_size=pretrain, seed=3,
    )


class TestApproximateFitness:
    def test_pretrain_builds_dataset(self, fifo_design):
        f = _fitness(fifo_design, names=["DEPTH"])
        n = f.pretrain()
        assert n == 20
        assert len(f.control.dataset) == 20
        assert f.control.model.fitted
        assert f.control.threshold > 0

    def test_model_reduces_tool_runs(self, fifo_design):
        f = _fitness(fifo_design, names=["DEPTH"], pretrain=30)
        f.pretrain()
        rng = np.random.default_rng(0)
        X = rng.integers(4, 504, size=(60, 1))
        f.evaluate_encoded(X)
        stats = f.stats()
        assert stats["estimated"] > 0
        # Tool runs must be well below total queries.
        assert stats["tool_runs"] < 30 + 60

    def test_direct_mode_always_tools(self, fifo_design):
        f = _fitness(fifo_design, use_model=False, names=["DEPTH"])
        X = np.array([[8], [16], [32]])
        F = f.evaluate_encoded(X)
        assert F.shape == (3, 2)
        assert f.tool_runs() == 3

    def test_estimates_close_to_truth(self, fifo_design):
        """NWM answers should be near the real tool answers."""
        f = _fitness(fifo_design, names=["DEPTH"], pretrain=60)
        f.pretrain()
        probe = np.array([[250]])
        decision = f.control.decide(probe[0].astype(float))
        if decision == Decision.ESTIMATE:
            est = f.control.estimate(probe[0].astype(float))
            truth = f.evaluator.evaluate({"DEPTH": 250})
            truth_vec = [truth.metrics[m] for m in f.evaluator.metric_names()]
            for e, t in zip(est, truth_vec):
                assert e == pytest.approx(t, rel=0.35)

    def test_cached_decision_for_known_point(self, fifo_design):
        f = _fitness(fifo_design, names=["DEPTH"], pretrain=10)
        f.pretrain()
        known = f.control.dataset.X()[0]
        F1 = f.evaluate_encoded(known.reshape(1, -1).astype(np.int64))
        assert f.control.counts[Decision.CACHED] == 1
        assert np.allclose(F1[0], f.control.dataset.Y()[0])

    def test_mse_trace_recorded(self, fifo_design):
        f = _fitness(fifo_design, names=["DEPTH"], pretrain=15)
        f.pretrain()
        assert len(f.mse_trace) > 5
        sizes = [s for s, _ in f.mse_trace]
        assert sizes == sorted(sizes)

    def test_infeasible_points_penalized(self, tirex_design):
        f = _fitness(tirex_design, use_model=False)
        # NCLUSTER=8 (enc 3) with 64K-entry memories: BRAM overflow on K7.
        X = np.array([[3, 8, 6, 6]])
        F = f.evaluate_encoded(X)
        assert f.infeasible == 1
        assert F[0, 0] >= 1e11  # LUT (minimize) penalty
        assert F[0, 1] == 0.0   # frequency (maximize) penalty

    def test_problem_wraps_fitness(self, fifo_design):
        f = _fitness(fifo_design, use_model=False, names=["DEPTH"])
        p = DseProblem(f)
        assert p.n_var == 1
        assert p.n_obj == 2
        F = p.evaluate(np.array([[16]]))
        assert F.shape == (1, 2)


class TestDseSession:
    def test_evaluate_points_mode(self, cqm_design):
        sess = DseSession(design=cqm_design, part="XC7K70T", seed=1)
        points = sess.evaluate_points(
            [{"OP_TABLE_SIZE": 8}, {"OP_TABLE_SIZE": 16}]
        )
        assert len(points) == 2
        assert points[0].metrics["LUT"] != points[1].metrics["LUT"]

    def test_explore_returns_nondominated(self, cqm_design):
        sess = DseSession(
            design=cqm_design, part="XC7K70T", use_model=False, seed=5
        )
        res = sess.explore(generations=4, population=8)
        assert len(res.pareto) >= 1
        assert res.tool_runs == res.evaluations
        # Pareto metric dicts carry raw units (positive frequency).
        for p in res.pareto:
            assert p.metrics["frequency"] > 0

    def test_explore_with_model_fewer_tool_runs(self, fifo_design):
        space = ParameterSpace.from_design(fifo_design, names=["DEPTH"])
        sess = DseSession(
            design=fifo_design, space=space, part="XC7K70T",
            use_model=True, pretrain_size=25, seed=5,
        )
        res = sess.explore(generations=5, population=10)
        assert res.tool_runs < res.evaluations + 25

    def test_soft_deadline_limits_generations(self, cqm_design):
        sess = DseSession(
            design=cqm_design, part="XC7K70T", use_model=False, seed=5
        )
        # ~175 simulated seconds per run: a 2,000 s budget stops quickly.
        res = sess.explore(generations=50, population=8, soft_deadline_s=2000)
        assert res.generations < 10

    def test_result_persistence(self, cqm_design, tmp_path):
        sess = DseSession(
            design=cqm_design, part="XC7K70T", use_model=False, seed=5
        )
        res = sess.explore(generations=2, population=8)
        path = res.save(tmp_path, name="run1")
        assert path.exists()
        assert (tmp_path / "run1_pareto.csv").exists()
        from repro.util.io import load_json

        payload = load_json(path)
        assert payload["evaluations"] == res.evaluations
        assert len(payload["pareto"]) == len(res.pareto)

    def test_raw_source_session_requires_space(self):
        with pytest.raises(ValueError, match="ParameterSpace"):
            DseSession(
                source="module m(input wire clk); endmodule",
                language="verilog",
                top="m",
            )

    def test_raw_source_session(self):
        sess = DseSession(
            source="module m #(parameter W = 8)(input wire clk, input wire [W-1:0] d, output reg [W-1:0] q); endmodule",
            language="verilog",
            top="m",
            space=ParameterSpace([IntRange("W", 4, 32)]),
            use_model=False,
            seed=2,
        )
        res = sess.explore(generations=2, population=6)
        assert res.evaluations > 0

    def test_explore_workers_bitwise_equals_serial(self, cqm_design):
        """workers=2 fans generations over the persistent pool; the Pareto
        front, evaluation counts, and simulated cost accounting must be
        bitwise identical to the serial run."""
        def run(workers):
            with DseSession(
                design=cqm_design, part="XC7K70T", use_model=False,
                seed=5, workers=workers,
            ) as sess:
                res = sess.explore(generations=3, population=8)
                seconds = sess.fitness.simulated_seconds
            return res, seconds

        serial, serial_s = run(0)
        pooled, pooled_s = run(2)
        assert serial.evaluations == pooled.evaluations
        assert serial_s == pooled_s
        ref = sorted(
            (tuple(sorted(p.parameters.items())), tuple(sorted(p.metrics.items())))
            for p in serial.pareto
        )
        got = sorted(
            (tuple(sorted(p.parameters.items())), tuple(sorted(p.metrics.items())))
            for p in pooled.pareto
        )
        assert ref == got

    def test_explore_workers_override_and_pool_reuse(self, cqm_design):
        """explore(workers=...) overrides the session default, and the
        pool persists across explore() calls on the same session."""
        with DseSession(
            design=cqm_design, part="XC7K70T", use_model=False, seed=5
        ) as sess:
            sess.explore(generations=2, population=8, workers=2)
            pool = sess.fitness._parallel
            assert pool is not None and pool._pool is not None
            sess.explore(generations=2, population=8)
            assert sess.fitness._parallel is pool, "pool must survive explores"
        assert pool._pool is None, "session close must shut the pool down"

    def test_incremental_evaluator_stays_serial(self, cqm_design, monkeypatch):
        """Incremental flows warm-start from checkpoints, so parallel
        fan-out would change QoR; the fitness must refuse to fan out."""
        import repro.core.parallel as parallel_mod

        def no_pool(*args, **kwargs):
            raise AssertionError("an incremental session started a process pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        with DseSession(
            design=cqm_design, part="XC7K70T", use_model=False,
            incremental=True, seed=5, workers=2,
        ) as sess:
            res = sess.explore(generations=2, population=8)
            assert res.evaluations > 0

    def test_custom_metrics_flow_through(self, cqm_design):
        metrics = [
            MetricSpec.minimize("LUT"), MetricSpec.minimize("FF"),
            MetricSpec.minimize("BRAM"), MetricSpec.maximize("frequency"),
        ]
        sess = DseSession(
            design=cqm_design, part="XC7K70T", metrics=metrics,
            use_model=False, seed=7,
        )
        res = sess.explore(generations=3, population=8)
        assert set(res.pareto[0].metrics) == {"LUT", "FF", "BRAM", "frequency"}
