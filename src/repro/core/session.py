"""The DSE session — Dovado's top-level user object.

Construct with a design (a case-study generator or raw HDL), a parameter
space, a target part, and the optimization metrics; then either

- :meth:`DseSession.evaluate_points` — design *automation* mode: evaluate
  an explicit list of configurations; or
- :meth:`DseSession.explore` — *DSE* mode: NSGA-II over the space,
  optionally behind the approximation model, under generation and/or
  soft-deadline budgets, returning the non-dominated set.

Sessions persist to JSON/CSV via :meth:`DseResult.save`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness, DseProblem
from repro.core.metrics import MetricSpec, default_metrics
from repro.core.pareto import pareto_points
from repro.core.point import EvaluatedPoint
from repro.core.spaces import ParameterSpace
from repro.directives import DirectiveSet
from repro.flow.vivado_sim import Fidelity, FlowStep
from repro.moo import NSGA2, Termination
from repro.moo.nsga2 import NSGA2Result
from repro.observe import GenerationStat, current_telemetry, span as observe_span
from repro.util.io import save_csv, save_json

__all__ = ["DseSession", "DseResult"]


@dataclass
class DseResult:
    """Outcome of one exploration."""

    pareto: list[EvaluatedPoint]
    archive_size: int
    generations: int
    evaluations: int
    tool_runs: int
    simulated_seconds: float
    stats: dict[str, float | int]
    mse_trace: list[tuple[int, float]] = field(default_factory=list)
    raw: NSGA2Result | None = None

    def save(self, directory: str | Path, name: str = "dse") -> Path:
        directory = Path(directory)
        payload = {
            "pareto": [p.as_row() for p in self.pareto],
            "archive_size": self.archive_size,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "tool_runs": self.tool_runs,
            "simulated_seconds": self.simulated_seconds,
            "stats": self.stats,
            "mse_trace": self.mse_trace,
        }
        save_json(directory / f"{name}.json", payload)
        if self.pareto:
            fields = list(self.pareto[0].as_row().keys())
            save_csv(
                directory / f"{name}_pareto.csv",
                fields,
                (p.as_row() for p in self.pareto),
            )
        return directory / f"{name}.json"


class DseSession:
    """One design + device + metric setup, ready to evaluate or explore."""

    def __init__(
        self,
        design=None,
        *,
        source: str | None = None,
        language: str | None = None,
        top: str | None = None,
        space: ParameterSpace | None = None,
        part: str = "XC7K70T",
        metrics: Sequence[MetricSpec] | None = None,
        target_period_ns: float = 1.0,
        step: FlowStep = FlowStep.IMPLEMENTATION,
        directives: DirectiveSet | None = None,
        use_model: bool = True,
        pretrain_size: int = 100,
        incremental: bool = False,
        seed: int = 0,
        workers: int = 0,
        refit_every: int = 1,
        refit_gamma_drift: float | None = None,
        result_store=None,
        fidelity_gate: bool = False,
        gate_risk: float = 0.05,
        gate_fidelity: str = "synth-estimate",
        gate_min_calibration: int = 5,
        gate_trickle_every: int = 8,
        gate_static_priors: bool = False,
        drc_netlist: bool = False,
    ) -> None:
        design_name = None
        if design is not None:
            source = design.source()
            language = str(design.language)
            top = design.top
            design_name = getattr(design, "name", None)
            if space is None:
                space = ParameterSpace.from_design(design)
        if source is None or language is None or top is None:
            raise ValueError("provide either `design` or (source, language, top)")
        if space is None:
            raise ValueError("a ParameterSpace is required for raw-source sessions")
        self.space = space
        self.seed = seed
        self.evaluator = PointEvaluator(
            source=source,
            language=language,
            top=top,
            part=part,
            target_period_ns=target_period_ns,
            step=step,
            directives=directives,
            metrics=list(metrics) if metrics is not None else default_metrics(),
            seed=seed,
            incremental=incremental,
        )
        from repro.estimation import RefitPolicy

        # Every fitness setting, kept once: apply_static_pruning rebuilds
        # the fitness from them.
        self._fitness_kwargs = dict(
            use_model=use_model,
            pretrain_size=pretrain_size,
            seed=seed,
            workers=workers,
            design_name=design_name,
            refit_policy=RefitPolicy(
                every=refit_every, gamma_drift=refit_gamma_drift
            ),
            result_store=result_store,
            fidelity_gate=fidelity_gate,
            gate_risk=gate_risk,
            gate_fidelity=Fidelity(gate_fidelity),
            gate_min_calibration=gate_min_calibration,
            gate_trickle_every=gate_trickle_every,
            gate_static_priors=gate_static_priors,
            drc_netlist=drc_netlist,
        )
        self.fitness = ApproximateFitness(
            evaluator=self.evaluator, space=space, **self._fitness_kwargs
        )
        self._pretrained = False
        self.last_algorithm_choice = None  # set by explore(algorithm="auto")

    # ------------------------------------------------------------------

    def apply_static_pruning(self):
        """Opt-in static space pruning (the CLI's ``--prune-space``).

        Runs the dataflow engine's interval analysis and dependency graph
        over the session's module and space, then — when anything can be
        proved — drops dead dimensions and clips statically infeasible
        range ends.  The fitness adapter is rebuilt around the pruned
        space (model dataset included: its row layout is per-dimension),
        so call this *before* :meth:`explore`.

        Returns the :class:`repro.analysis.dataflow_rules.PruneReport`.
        """
        from repro.analysis.dataflow_rules import prune_space

        report = prune_space(
            self.evaluator.module,
            self.space,
            sources=(
                (self.evaluator.source_text, str(self.evaluator.language)),
            ),
        )
        if report.changed:
            self.space = report.space
            old = self.fitness
            old.close()
            # The current worker count, and the store handle already open.
            self.fitness = ApproximateFitness(
                evaluator=self.evaluator,
                space=report.space,
                **dict(
                    self._fitness_kwargs,
                    workers=old.workers,
                    result_store=old.result_store,
                ),
            )
            self._pretrained = False
        return report

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the evaluation worker pool, if one was started."""
        self.fitness.close()

    def __enter__(self) -> "DseSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def evaluate_points(
        self, points: Sequence[Mapping[str, int]]
    ) -> list[EvaluatedPoint]:
        """Design automation mode: exact evaluation of given configurations."""
        return [self.evaluator.evaluate(p) for p in points]

    def explore(
        self,
        generations: int = 20,
        population: int = 24,
        soft_deadline_s: float | None = None,
        pretrain: bool = True,
        algorithm: str = "nsga2",
        workers: int | None = None,
    ) -> DseResult:
        """DSE mode: search the space; returns the non-dominated set.

        ``soft_deadline_s`` is a budget in *simulated tool seconds* — the
        unit the paper's four-hour deadline is expressed in.

        ``algorithm`` selects the solver: ``"nsga2"`` (the paper's
        choice), ``"mosa"`` (multi-objective simulated annealing),
        ``"exhaustive"`` (enumerate small spaces), or ``"auto"`` — the
        run-time chooser from :mod:`repro.moo.portfolio`, which consults
        the synthetic dataset's ruggedness when the approximation model is
        active (the paper's envisioned future-work feature).

        ``workers`` (when given) overrides the session's tool fan-out:
        with ``workers > 1`` population evaluation runs on a persistent
        process pool that stays warm across generations — and across
        repeated ``explore`` calls — until :meth:`close`.  Results are
        bitwise identical to the serial loop (the fan-out only engages
        for pure, non-incremental evaluators).
        """
        with observe_span("dse.explore") as sp:
            before = self.fitness.simulated_seconds
            result = self._explore_impl(
                generations=generations,
                population=population,
                soft_deadline_s=soft_deadline_s,
                pretrain=pretrain,
                algorithm=algorithm,
                workers=workers,
            )
            sp.charge(self.fitness.simulated_seconds - before)
        return result

    def _explore_impl(
        self,
        generations: int,
        population: int,
        soft_deadline_s: float | None,
        pretrain: bool,
        algorithm: str,
        workers: int | None,
    ) -> DseResult:
        if workers is not None:
            self.fitness.set_workers(workers)
        if pretrain and not self._pretrained:
            with observe_span("dse.pretrain") as sp:
                before = self.fitness.simulated_seconds
                self.fitness.pretrain()
                sp.charge(self.fitness.simulated_seconds - before)
            self._pretrained = True

        problem = DseProblem(self.fitness)

        if algorithm == "auto":
            from repro.moo.portfolio import recommend_algorithm

            dataset = (
                self.fitness.control.dataset if self.fitness.use_model else None
            )
            choice = recommend_algorithm(problem, dataset)
            self.last_algorithm_choice = choice
            algorithm = choice.name if choice.name != "random" else "nsga2"

        termination = Termination(
            n_gen=generations if algorithm == "nsga2" else None,
            n_eval=None if algorithm == "nsga2" else generations * population,
            deadline=None,
        )
        if soft_deadline_s is not None:
            from repro.util.timing import SoftDeadline

            termination.deadline = SoftDeadline(budget_s=soft_deadline_s)
            # Charge what pretraining already consumed.
            termination.deadline.charge(self.fitness.simulated_seconds)

        seconds_holder = {"prev": self.fitness.simulated_seconds}

        def simulated_cost(_: int) -> float:
            now = self.fitness.simulated_seconds
            delta = now - seconds_holder["prev"]
            seconds_holder["prev"] = now
            return max(0.0, delta)

        if algorithm == "exhaustive":
            from repro.moo.baselines import exhaustive_search

            archive = exhaustive_search(problem)
            raw = None
            gens = 1
            evals = len(archive)
        elif algorithm == "mosa":
            from repro.moo.mosa import MOSA

            mosa_result = MOSA().minimize(problem, termination, seed=self.seed)
            archive = mosa_result.archive
            raw = None
            gens = 0
            evals = mosa_result.evaluations
        elif algorithm == "spea2":
            from repro.moo.spea2 import SPEA2

            spea_result = SPEA2(
                pop_size=population, archive_size=population
            ).minimize(problem, termination, seed=self.seed)
            archive = spea_result.archive
            raw = None
            gens = spea_result.generations
            evals = spea_result.evaluations
        elif algorithm == "nsga2":
            nsga = NSGA2(pop_size=population)
            tel = current_telemetry()
            on_gen = None
            if tel is not None:
                from repro.moo.indicators import hypervolume
                from repro.moo.nds import non_dominated_mask

                def on_gen(gen: int, pop) -> None:
                    mask = non_dominated_mask(pop.F)
                    # Per-generation reference: worst corner of the current
                    # population, nudged so boundary points still count.
                    ref = pop.F.max(axis=0) + 1e-9
                    tel.note_generation(
                        GenerationStat(
                            generation=gen,
                            front_size=int(mask.sum()),
                            evaluations=termination.evaluations,
                            hypervolume=float(
                                hypervolume(pop.F[mask], ref, samples=20_000)
                            ),
                            budget_remaining_s=(
                                termination.deadline.remaining()
                                if termination.deadline is not None
                                else None
                            ),
                        )
                    )

            charge_generations = soft_deadline_s is not None or tel is not None
            result = nsga.minimize(
                problem,
                termination,
                seed=self.seed,
                on_generation=on_gen,
                simulated_cost=simulated_cost if charge_generations else None,
            )
            archive = result.archive
            raw = result
            gens = result.generations
            evals = result.evaluations
        else:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                "use nsga2, spea2, mosa, exhaustive, or auto"
            )

        # Promote any speculatively-skipped archive members to full fidelity
        # before the front is extracted: the reported Pareto set (and the
        # regret the benchmarks measure) is always full-route truth.
        self.fitness.promote_archive(archive)
        pareto = pareto_points(
            problem, self.space, archive, self.evaluator.metric_names()
        )
        return DseResult(
            pareto=pareto,
            archive_size=len(archive),
            generations=gens,
            evaluations=evals,
            tool_runs=self.fitness.tool_runs(),
            simulated_seconds=self.fitness.simulated_seconds,
            stats=self.fitness.stats(),
            mse_trace=list(self.fitness.mse_trace),
            raw=raw,
        )
