"""Exact-set evaluation sweeps (the paper's design-automation mode).

Dovado supports "an exact exploration of a given set of parameters": the
user enumerates configurations explicitly, and the tool evaluates them
all.  These helpers build such sets (cartesian grids, zipped lists),
evaluate them — optionally in parallel — and package the outcome with the
table/CSV/Pareto conveniences a sweep report needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.evaluate import PointEvaluator
from repro.core.point import EvaluatedPoint
from repro.moo.nds import non_dominated_mask
from repro.moo.problem import Sense
from repro.util.io import save_csv
from repro.util.tables import render_table

__all__ = ["grid", "zip_points", "SweepResult", "run_sweep"]


def grid(**values: Sequence[int]) -> list[dict[str, int]]:
    """Cartesian product of per-parameter value lists.

    >>> grid(A=[1, 2], B=[10])
    [{'A': 1, 'B': 10}, {'A': 2, 'B': 10}]
    """
    if not values:
        return []
    names = list(values)
    combos = itertools.product(*(values[n] for n in names))
    return [dict(zip(names, (int(v) for v in combo))) for combo in combos]


def zip_points(**values: Sequence[int]) -> list[dict[str, int]]:
    """Element-wise zip of equal-length value lists (explicit point list)."""
    if not values:
        return []
    lengths = {len(v) for v in values.values()}
    if len(lengths) != 1:
        raise ValueError(f"zip_points needs equal-length lists, got {lengths}")
    names = list(values)
    return [
        {n: int(values[n][i]) for n in names}
        for i in range(lengths.pop())
    ]


@dataclass
class SweepResult:
    """Evaluated sweep with reporting conveniences."""

    points: list[EvaluatedPoint]
    metric_names: tuple[str, ...]
    metric_senses: tuple[Sense, ...]

    def __len__(self) -> int:
        return len(self.points)

    def to_table(self, title: str | None = None) -> str:
        if not self.points:
            return title or "(empty sweep)"
        param_names = list(self.points[0].parameters)
        headers = (*param_names, *self.metric_names, "source")
        rows = [
            tuple(p.parameters[n] for n in param_names)
            + tuple(round(p.metrics[m], 2) for m in self.metric_names)
            + (p.source,)
            for p in self.points
        ]
        return render_table(headers, rows, title=title)

    def save_csv(self, path: str | Path) -> Path:
        if not self.points:
            raise ValueError("cannot save an empty sweep")
        fields = list(self.points[0].as_row().keys())
        return save_csv(path, fields, (p.as_row() for p in self.points))

    def best(self, metric: str) -> EvaluatedPoint:
        """The best point for one metric (respecting its sense)."""
        idx = self.metric_names.index(metric)
        sense = self.metric_senses[idx]
        key = lambda p: p.metrics[metric]
        return (max if sense == Sense.MAXIMIZE else min)(self.points, key=key)

    def pareto(self) -> list[EvaluatedPoint]:
        """Non-dominated subset across all sweep metrics."""
        if not self.points:
            return []
        F = np.array([
            [
                -p.metrics[m] if s == Sense.MAXIMIZE else p.metrics[m]
                for m, s in zip(self.metric_names, self.metric_senses)
            ]
            for p in self.points
        ])
        mask = non_dominated_mask(F)
        return [p for p, keep in zip(self.points, mask) if keep]

    def total_simulated_seconds(self) -> float:
        return sum(p.simulated_seconds for p in self.points)


def run_sweep(
    evaluator: PointEvaluator,
    points: Sequence[Mapping[str, int]],
    workers: int = 0,
    design_name: str | None = None,
    result_store=None,
) -> SweepResult:
    """Evaluate every configuration in ``points``.

    ``workers > 1`` fans the batch over a process pool (see
    :mod:`repro.core.parallel`), except for an incremental evaluator,
    which always runs in-process; ``design_name`` names a built-in design so
    workers can re-register its architectural model.  ``result_store``
    (a :class:`repro.cache.ResultStore` or a path) plugs in the persistent
    cross-run store: previously evaluated configurations — by any process
    — replay as cache answers, and fresh results are appended for the
    next run.
    """
    if result_store is not None and not hasattr(result_store, "get"):
        from repro.cache import open_store

        result_store = open_store(result_store)
    if evaluator.incremental:
        # Incremental runs warm-start from the session's checkpoints;
        # worker-local sessions would change the answers, so they stay
        # in-process (the store is disabled for them anyway).
        workers = 0
    if workers > 1 or result_store is not None:
        from repro.core.parallel import EvaluatorSpec, ParallelPointEvaluator

        spec = EvaluatorSpec.from_evaluator(evaluator, design_name=design_name)
        # In-process runs (``workers <= 1``) use the caller's evaluator,
        # and every point is checked on its gate.
        with ParallelPointEvaluator(
            spec=spec, workers=workers, store=result_store, evaluator=evaluator
        ) as pool:
            outs = pool.evaluate_many(list(points))
    else:
        outs = evaluator.evaluate_many(list(points))
    return SweepResult(
        points=outs,
        metric_names=evaluator.metric_names(),
        metric_senses=tuple(s.sense for s in evaluator.metrics),
    )
