"""Tests for the sweep helpers (exact-set design automation)."""

import pytest

from repro.core import MetricSpec
from repro.core.evaluate import PointEvaluator
from repro.core.sweep import SweepResult, grid, run_sweep, zip_points
from repro.designs import get_design


class TestPointBuilders:
    def test_grid_cartesian(self):
        pts = grid(A=[1, 2], B=[10, 20])
        assert len(pts) == 4
        assert {"A": 2, "B": 10} in pts

    def test_grid_preserves_order(self):
        pts = grid(A=[1, 2], B=[10])
        assert pts == [{"A": 1, "B": 10}, {"A": 2, "B": 10}]

    def test_grid_empty(self):
        assert grid() == []

    def test_zip_points(self):
        pts = zip_points(A=[1, 2, 3], B=[10, 20, 30])
        assert pts == [
            {"A": 1, "B": 10}, {"A": 2, "B": 20}, {"A": 3, "B": 30}
        ]

    def test_zip_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            zip_points(A=[1], B=[1, 2])


def _evaluator(design, metrics=None):
    return PointEvaluator(
        source=design.source(), language=design.language, top=design.top,
        part="XC7K70T", seed=5,
        metrics=metrics or [
            MetricSpec.minimize("LUT"), MetricSpec.maximize("frequency")
        ],
    )


class TestRunSweep:
    def test_serial_sweep(self, cqm_design):
        ev = _evaluator(cqm_design)
        points = grid(OP_TABLE_SIZE=[8, 16], PIPELINE=[2, 4])
        result = run_sweep(ev, points)
        assert len(result) == 4
        assert result.total_simulated_seconds() > 0

    def test_table_and_csv(self, cqm_design, tmp_path):
        ev = _evaluator(cqm_design)
        result = run_sweep(ev, grid(OP_TABLE_SIZE=[8, 24]))
        text = result.to_table(title="sweep")
        assert "OP_TABLE_SIZE" in text and "LUT" in text
        path = result.save_csv(tmp_path / "sweep.csv")
        assert path.exists()

    def test_best_respects_sense(self, cqm_design):
        ev = _evaluator(cqm_design)
        result = run_sweep(ev, grid(OP_TABLE_SIZE=[8, 40], PIPELINE=[2]))
        best_lut = result.best("LUT")
        assert best_lut.parameters["OP_TABLE_SIZE"] == 8  # min LUT
        best_freq = result.best("frequency")
        assert best_freq.metrics["frequency"] == max(
            p.metrics["frequency"] for p in result.points
        )

    def test_pareto_subset(self, cqm_design):
        ev = _evaluator(cqm_design)
        result = run_sweep(
            ev, grid(OP_TABLE_SIZE=[8, 16, 32], PIPELINE=[2, 3, 4])
        )
        front = result.pareto()
        assert 1 <= len(front) <= len(result)
        # Every dominated point must be beaten by someone on the front.
        for p in result.points:
            if p in front:
                continue
            assert any(
                f.metrics["LUT"] <= p.metrics["LUT"]
                and f.metrics["frequency"] >= p.metrics["frequency"]
                and (
                    f.metrics["LUT"] < p.metrics["LUT"]
                    or f.metrics["frequency"] > p.metrics["frequency"]
                )
                for f in front
            )

    def test_parallel_sweep_matches_serial(self, cqm_design):
        points = grid(OP_TABLE_SIZE=[8, 16, 24], PIPELINE=[3])
        serial = run_sweep(_evaluator(cqm_design), points)
        parallel = run_sweep(
            _evaluator(cqm_design), points, workers=2,
            design_name="corundum-cqm",
        )
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics == b.metrics

    def test_incremental_sweep_ignores_workers(self):
        """An incremental sweep runs in-process whatever ``workers`` says:
        worker-local sessions would warm-start from different
        checkpoints and change the answers."""
        import numpy as np

        design = get_design("cv32e40p-fifo")
        rng = np.random.default_rng(3)
        points = [
            {d.name: int(rng.integers(d.low, d.high + 1)) for d in design.params}
            for _ in range(12)
        ]

        def sweep(workers):
            evaluator = PointEvaluator(
                source=design.source(), language=design.language,
                top=design.top, part="XC7K70T", seed=3, incremental=True,
            )
            return run_sweep(
                evaluator, points, workers=workers, design_name="cv32e40p-fifo"
            )

        assert sweep(3).points == sweep(0).points

    def test_empty_sweep(self, cqm_design):
        result = run_sweep(_evaluator(cqm_design), [])
        assert len(result) == 0
        assert result.pareto() == []
        with pytest.raises(ValueError):
            result.save_csv("nowhere.csv")


class TestSweepOverAStore:
    """A sweep over a result store with ``workers <= 1`` runs its fresh
    points on the caller's evaluator, not on a second one built from the
    spec, and answers as the spec-built evaluator did."""

    POINTS = grid(OP_TABLE_SIZE=[8, 16], PIPELINE=[2, 3])
    # (source, metrics, simulated seconds) per point, recorded while the
    # sweep still built a second evaluator from the spec.
    EXPECTED = [
        ("tool", {"LUT": 489.0, "frequency": 189.2863903085368}, 160.113),
        ("tool", {"LUT": 545.0, "frequency": 195.84802193497845}, 168.808),
        ("tool", {"LUT": 585.0, "frequency": 164.69038208168644}, 170.077),
        ("tool", {"LUT": 638.0, "frequency": 188.04061677322304}, 178.81900000000002),
    ]

    @staticmethod
    def _sweep(evaluator, tmp_path):
        return run_sweep(
            evaluator, TestSweepOverAStore.POINTS,
            result_store=str(tmp_path / "store"), design_name="corundum-cqm",
        )

    def test_no_second_evaluator_is_built(self, tmp_path, monkeypatch):
        import repro.core.evaluate as evaluate

        design = get_design("corundum-cqm")
        evaluator = PointEvaluator(design.source(), design.language, design.top)
        parses: list[object] = []
        original = evaluate.parse_source

        def spy(*args, **kwargs):
            parses.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluate, "parse_source", spy)
        result = self._sweep(evaluator, tmp_path)
        assert len(result) == 4 and parses == []
        assert evaluator.evaluations == 4

    def test_answers_equal_the_spec_built_evaluator(self, tmp_path):
        design = get_design("corundum-cqm")
        evaluator = PointEvaluator(design.source(), design.language, design.top)
        result = self._sweep(evaluator, tmp_path)
        assert [
            (p.source, p.metrics, p.simulated_seconds) for p in result.points
        ] == self.EXPECTED
        assert [p.parameters for p in result.points] == self.POINTS
