"""The DSE fitness function, with and without the approximation model.

:class:`ApproximateFitness` adapts a :class:`~repro.core.evaluate.
PointEvaluator` into the batch-evaluation interface NSGA-II consumes,
routing every proposed point through the control model's three cases
(cache / estimate / real run).  It also accounts cost: real runs charge
the tool's simulated seconds, estimates charge a fixed small cost (the
NWM is "cheap computational cost" per the paper), cached hits charge the
tool's cache-answer overhead.

With ``use_model=False`` the class degrades to direct evaluation — the
configuration used for the Corundum/Neorv32/TiReX experiments ("disabling
the approximator model to employ direct Vivado evaluations").
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.analysis.gate import PreflightGate
from repro.cache import FULL_RANK, ResultStore, fidelity_rank
from repro.core.evaluate import PointEvaluator
from repro.core.pipeline import (
    Answer,
    EvaluationFailure,
    EvaluatorSpec,
    PointStore,
    replay,
    run_tool,
)
from repro.core.point import EvaluatedPoint
from repro.core.spaces import ParameterSpace
from repro.errors import ReproError
from repro.estimation import (
    ControlModel,
    Dataset,
    Decision,
    PromotionGate,
    RefitPolicy,
)
from repro.flow.vivado_sim import Fidelity, FlowStep
from repro.moo.problem import IntegerProblem, Objective, Sense
from repro.moo.sampling import IntegerRandomSampling
from repro.observe import current_telemetry
from repro.util.rng import as_generator

__all__ = ["ApproximateFitness", "DseProblem", "PendingEncodedBatch"]

# Cost model for non-tool answers (simulated seconds).
_ESTIMATE_COST_S = 0.2
_CACHE_HIT_COST_S = 2.0


class ApproximateFitness:
    """Routes design-point evaluations through the control model."""

    def __init__(
        self,
        evaluator: PointEvaluator,
        space: ParameterSpace,
        use_model: bool = True,
        pretrain_size: int = 100,     # the paper's M default
        min_points_to_estimate: int = 4,
        seed: int = 0,
        workers: int = 0,
        design_name: str | None = None,
        refit_policy: RefitPolicy | None = None,
        result_store: ResultStore | str | Path | None = None,
        fidelity_gate: bool = False,
        gate_risk: float = 0.05,
        gate_fidelity: Fidelity | str = Fidelity.SYNTH_ESTIMATE,
        gate_min_calibration: int = 5,
        gate_trickle_every: int = 8,
        gate_static_priors: bool = False,
        drc_netlist: bool = False,
    ) -> None:
        self.evaluator = evaluator
        self.space = space
        self.use_model = use_model
        self.pretrain_size = pretrain_size
        self.seed = seed
        self.workers = workers
        self.design_name = design_name
        if isinstance(result_store, (str, Path)):
            from repro.cache import open_store

            # A path may point at either layout — flat or sharded (the
            # server's shared stores are sharded); the MANIFEST decides.
            result_store = open_store(result_store)
        self.result_store = result_store
        self.spec = EvaluatorSpec.from_evaluator(evaluator, design_name=design_name)
        self._store = PointStore(result_store, self.spec)
        self.min_points_to_estimate = min_points_to_estimate
        self.refit_policy = refit_policy or RefitPolicy()
        self.control = ControlModel(
            dataset=Dataset(
                n_var=len(space), metric_names=evaluator.metric_names()
            ),
            min_points_to_estimate=min_points_to_estimate,
            refit_policy=self.refit_policy,
        )
        # Space-aware DRC pre-flight gate: in addition to the evaluator's
        # own point-level checks this one validates proposed values against
        # the declared parameter space, and it lets the model-active path
        # reject a point before the control model even sees it.
        self.drc_netlist = bool(drc_netlist)
        self.gate = PreflightGate(
            evaluator.module,
            space=space,
            boxed=evaluator.boxed,
            clock_port=evaluator.clock_port,
            netlist_stage=self.drc_netlist,
        )
        self.history: list[EvaluatedPoint] = []
        self.simulated_seconds = 0.0
        self.infeasible = 0
        self.drc_rejections = 0
        self.mse_trace: list[tuple[int, float]] = []  # (dataset size, LOO MSE)
        self._parallel = None  # lazy ParallelPointEvaluator
        # True when ``_parallel`` was injected via ``set_batch_evaluator``
        # (a server-owned fleet facade): never closed here, and it takes
        # over every tool dispatch regardless of the local worker count.
        self._external_parallel = False
        # Speculative fidelity gate (off by default; when off, every code
        # path below is byte-identical to the pre-ladder fitness).
        self.fidelity_gate_enabled = bool(fidelity_gate)
        self.gate_risk = float(gate_risk)
        self.gate_fidelity = Fidelity(gate_fidelity)
        self.gate_min_calibration = int(gate_min_calibration)
        self.gate_trickle_every = int(gate_trickle_every)
        self.promotion_gate: PromotionGate | None = None
        # Frozen binding -> (encoded row, probe minimized metrics): points
        # the gate skipped, awaiting promotion-on-demand if they survive
        # into the archive.
        self._speculative: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Frozen binding -> raw metric vector already answered by the gated
        # path (replays are cache-priced, like the tool's own run cache).
        self._gate_memo: dict[tuple, np.ndarray] = {}
        # Opt-in static-estimate priors for the promotion gate: each gated
        # point contributes its zero-cost analytical bounds (rung 0 of the
        # ladder) as extra residual-model features.  Frozen binding ->
        # normalized feature row, memoized because assess/observe/promote
        # must all see the identical vector for one binding.
        self.gate_static_priors = bool(gate_static_priors)
        self._prior_cache: dict[tuple, np.ndarray] = {}
        if self.gate_static_priors and not fidelity_gate:
            raise ValueError("gate_static_priors requires fidelity_gate=True")
        if self.fidelity_gate_enabled:
            if evaluator.step != FlowStep.IMPLEMENTATION:
                raise ValueError(
                    "fidelity_gate requires step=IMPLEMENTATION: synthesis-only "
                    "evaluations already are the lowest ladder rung"
                )
            if self.gate_fidelity is Fidelity.FULL_ROUTE:
                raise ValueError("gate_fidelity must be a lower rung than full-route")
            self.promotion_gate = PromotionGate(
                signs=self._metric_signs(),
                risk=self.gate_risk,
                min_calibration=self.gate_min_calibration,
                trickle_every=self.gate_trickle_every,
            )

    # ------------------------------------------------------------------
    # Parallel fan-out

    def set_workers(self, workers: int) -> None:
        """Resize the tool fan-out (rebuilds the pool on next batch)."""
        if workers != self.workers:
            self.close()
            self.workers = workers

    def set_batch_evaluator(self, evaluator) -> None:
        """Bind an externally owned batch evaluator (the serve fleet).

        ``evaluator`` must expose the :class:`ParallelPointEvaluator`
        batch surface (``submit_many`` returning a pending batch).  Once
        bound, *every* tool dispatch — batch and single-point alike —
        routes through it, so a multi-tenant scheduler sees all of this
        session's work.  The caller keeps ownership: :meth:`close` drops
        the reference without shutting the evaluator down.  Pass ``None``
        to unbind.  Incompatible with the fidelity gate and incremental
        flows, whose evaluations are order-dependent by construction.
        """
        if evaluator is not None:
            if self.fidelity_gate_enabled:
                raise ValueError(
                    "external batch evaluator is incompatible with the "
                    "fidelity gate (gated sessions are sequential)"
                )
            if self.spec.incremental:
                raise ValueError(
                    "external batch evaluator is incompatible with "
                    "incremental flows (results are order-dependent)"
                )
        if self._parallel is not None and not self._external_parallel:
            self._parallel.close()
        self._parallel = evaluator
        self._external_parallel = evaluator is not None

    def close(self) -> None:
        """Release the worker pool, if one was started.

        An externally bound evaluator (``set_batch_evaluator``) is only
        unbound — its owner decides when the shared fleet shuts down.
        """
        if self._parallel is not None:
            if not self._external_parallel:
                self._parallel.close()
            self._parallel = None
            self._external_parallel = False

    def _use_parallel(self) -> bool:
        # Incremental flows warm-start from the shared session's
        # checkpoints; worker-local sessions would diverge from the serial
        # reference, so the batch path only engages for pure evaluators.
        # The fidelity gate is sequential by construction — each decision
        # conditions on the calibration set the previous points built — so
        # it also pins evaluation to the serial path.
        if self.fidelity_gate_enabled:
            return False
        if self.spec.incremental:
            return False
        return self._external_parallel or self.workers > 1

    def _metric_signs(self) -> np.ndarray:
        """+1 for minimized metrics, -1 for maximized (minimized = signs*raw)."""
        return np.array(
            [
                -1.0 if spec.sense == Sense.MAXIMIZE else 1.0
                for spec in self.evaluator.metrics
            ]
        )

    def _parallel_evaluator(self):
        if self._parallel is None:
            from repro.core.parallel import ParallelPointEvaluator

            # The pool parent gates with this fitness's own gate (space-
            # aware, netlist stage, clock port), exactly as the serial path.
            self._parallel = ParallelPointEvaluator(
                spec=self.spec,
                workers=self.workers,
                store=self.result_store,
                gate=self.gate,
            )
        return self._parallel

    # ------------------------------------------------------------------

    def pretrain(self, rng: np.random.Generator | int | None = None) -> int:
        """Generate the synthetic dataset: M distinct random tool runs.

        Returns the number of points actually evaluated (the space may be
        smaller than M).
        """
        if not self.use_model or self.pretrain_size <= 0:
            return 0
        rng = as_generator(self.seed if rng is None else rng)
        problem_stub = _BoundsOnly(self.space)
        sample = IntegerRandomSampling(unique=True)(
            problem_stub, min(self.pretrain_size, self.space.cardinality()), rng
        )
        if self._use_parallel():
            self._run_tool_batch(sample.X, record=True)
        else:
            for row in sample.X:
                self._run_tool(row, record=True)
        return int(sample.X.shape[0])

    # ------------------------------------------------------------------

    def _metric_vector(self, point: EvaluatedPoint) -> np.ndarray:
        return np.array(
            [point.metrics[name] for name in self.evaluator.metric_names()],
            dtype=float,
        )

    def _penalty_vector(self) -> np.ndarray:
        """Worst-case metrics for infeasible points (capacity overflow etc.).

        A run the tool rejects — pin/resource overflow, unroutable design —
        still consumes DSE budget in reality; here it yields a vector that
        every feasible point dominates, so NSGA-II steers away without the
        session aborting.
        """
        out = np.empty(len(self.evaluator.metrics))
        for j, spec in enumerate(self.evaluator.metrics):
            out[j] = 0.0 if spec.sense == Sense.MAXIMIZE else 1e12
        return out

    def _note_failure(
        self,
        params: dict[str, int],
        error_type: str,
        charge_s: float | None = None,
        record_ledger: bool = False,
    ) -> np.ndarray:
        """Bookkeeping for an infeasible run (shared serial/batch path).

        Points the DRC pre-flight gate rejected never touched the tool, so
        they enter history as zero-cost ``source="drc"`` records; points
        the tool itself rejected (capacity overflow, unroutable) keep the
        ``infeasible:TYPE`` source and charge the *partial* tool time the
        failed run actually spent (``charge_s``, floored at the tool's
        cache-answer overhead) — Vivado errors late, and a failed point is
        not free against the soft deadline.

        ``record_ledger`` is set only by call sites where no lower layer
        (evaluator, worker, parallel memo) has already written the point's
        ledger record — every evaluated point gets exactly one.
        """
        self.infeasible += 1
        if error_type == "DrcViolationError":
            source = "drc"
            cost = 0.0
            self.drc_rejections += 1
        else:
            source = f"infeasible:{error_type}"
            cost = max(_CACHE_HIT_COST_S, charge_s or 0.0)
            self.simulated_seconds += cost
        tel = current_telemetry()
        if tel is not None:
            tel.counters.add("budget.charged_s", cost)
            if record_ledger:
                tel.ledger.append(
                    params=params,
                    outcome="drc" if source == "drc" else "failed",
                    charge=0.0 if source == "drc" else (charge_s or 0.0),
                    error_type=error_type,
                )
        self.history.append(
            EvaluatedPoint(
                parameters=params,
                metrics=dict(
                    zip(
                        self.evaluator.metric_names(),
                        map(float, self._penalty_vector()),
                    )
                ),
                source=source,
                simulated_seconds=cost,
            )
        )
        return self._penalty_vector()

    def _note_point(
        self, encoded: np.ndarray, point: EvaluatedPoint, record: bool
    ) -> np.ndarray:
        """Bookkeeping for a completed run (shared serial/batch path)."""
        self.history.append(point)
        cost = max(point.simulated_seconds, _CACHE_HIT_COST_S)
        self.simulated_seconds += cost
        tel = current_telemetry()
        if tel is not None:
            tel.counters.add("budget.charged_s", cost)
        y = self._metric_vector(point)
        if record and self.use_model:
            self.control.record(np.asarray(encoded, dtype=float), y)
            if np.isfinite(self.control.last_loo_mse):
                self.mse_trace.append(
                    (len(self.control.dataset), self.control.last_loo_mse)
                )
        return y

    def _account(
        self,
        encoded: np.ndarray,
        params: dict[str, int],
        result: Answer,
        record: bool,
    ) -> np.ndarray:
        """Bookkeeping for an answer whose ledger row is already written."""
        if isinstance(result, EvaluationFailure):
            return self._note_failure(
                params, result.original_type, charge_s=result.simulated_seconds
            )
        return self._note_point(encoded, result, record)

    def _run_tool(self, encoded: np.ndarray, record: bool) -> np.ndarray:
        # Dataset inserts (``record=True``: pretrain, control-model
        # evaluations) always run the full flow — the NWM must train on
        # authoritative numbers — so the gate engages only for plain
        # fitness evaluations.
        if self.promotion_gate is not None and not record:
            return self._run_tool_gated(encoded)
        # A server-bound session must surface *every* tool dispatch to the
        # shared fleet — including the model path's single-point runs —
        # so cross-tenant dedup and fair scheduling see them.  The batch
        # layer owns the same DRC/store/accounting steps as the serial
        # body below.
        if self._external_parallel and self._use_parallel():
            return self._run_tool_batch(np.atleast_2d(encoded), record)[0]
        params = self.space.decode(encoded)
        # Space-aware DRC pre-flight: reject before the evaluator (whose
        # own gate knows the module but not the declared space) is touched.
        if not self.gate.is_feasible(params):
            return self._note_failure(params, "DrcViolationError", record_ledger=True)
        # Persistent-store consult: a prior process already ran this exact
        # configuration — adopt it as a cache-priced answer.  Low-fidelity
        # probe records (written by a gated session) are *not* adopted
        # here: the full flow must answer, and its record supersedes them.
        stored = self._store.lookup(params)
        if stored is not None:
            result = self._store.adopt(params, stored)
        else:
            result = run_tool(self.evaluator, params)
            self._store.put(params, result)
        return self._account(encoded, params, result, record)

    # ------------------------------------------------------------------
    # Speculative fidelity gate

    @staticmethod
    def _frozen(params: dict[str, int]) -> tuple:
        return tuple(sorted((k, int(v)) for k, v in params.items()))

    def _static_priors(self, params: dict[str, int]) -> np.ndarray | None:
        """Rung-0 prior features for one binding (memoized), or None when off.

        The static estimator's (LUT lb, FF lb, delay lb, congestion) tuple,
        with the resource counts log-compressed so large designs do not
        dominate the NW kernel distance.  A binding the estimator cannot
        bound (no timing arcs, elaboration failure) contributes a zero row
        rather than None — the gate's model needs a fixed input dimension,
        and the probe/flow will surface the real diagnostic.
        """
        if not self.gate_static_priors:
            return None
        frozen = self._frozen(params)
        cached = self._prior_cache.get(frozen)
        if cached is None:
            from repro.netlist.static_estimate import static_estimate_point

            ev = self.evaluator
            try:
                est = static_estimate_point(
                    ev.module,
                    ev.sim.device,
                    params,
                    synth_directive=ev.directives.synth,
                    impl_directive=ev.directives.impl,
                    boxed=ev.boxed,
                    noise_floor=0.9 if ev.sim.noise else 1.0,
                )
                lut_lb, ff_lb, delay_lb, congestion = est.features()
                cached = np.array(
                    [np.log1p(lut_lb), np.log1p(ff_lb), delay_lb, congestion]
                )
            except ReproError:
                cached = np.zeros(4)
            self._prior_cache[frozen] = cached
        return cached

    def _run_tool_gated(self, encoded: np.ndarray) -> np.ndarray:
        """One fitness evaluation through the promotion gate.

        Probe at the gate fidelity, predict the full-route outcome, and
        run the expensive tail only when the gate promotes.  Skipped
        points enter history as ``source="speculative"`` with *predicted*
        metrics and are remembered for promotion-on-demand
        (:meth:`promote_archive`) in case they survive into the archive.
        """
        gate = self.promotion_gate
        assert gate is not None
        params = self.space.decode(encoded)
        frozen = self._frozen(params)
        memo = self._gate_memo.get(frozen)
        if memo is not None:
            # The gated path already answered this binding this session —
            # replay it cache-priced, like the tool's own run cache would.
            metrics = dict(zip(self.evaluator.metric_names(), map(float, memo)))
            point = EvaluatedPoint(parameters=dict(params), metrics=metrics)
            return self._note_point(
                encoded, replay(params, point, "gate"), record=False
            )
        if not self.gate.is_feasible(params):
            return self._note_failure(params, "DrcViolationError", record_ledger=True)
        stored = self._store.lookup(params, min_rank=None)
        if stored is not None:
            probe = self._store.adopt(params, stored)
            probe_cost = 0.0
        else:
            probe = run_tool(self.evaluator, params, fidelity=self.gate_fidelity)
            probe_cost = probe.simulated_seconds
            if isinstance(probe, EvaluationFailure):
                self._store.put(
                    params, probe, rank=fidelity_rank(str(self.gate_fidelity))
                )
        # A stored full-route answer is final.  A failed probe — fresh, or
        # stored by a previous session — makes the point infeasible:
        # fidelity verdicts for this binding are probe-level only.  A
        # stored probe point is reused as the (free) low-fidelity signal.
        if isinstance(probe, EvaluationFailure) or (
            stored is not None and stored.rank >= FULL_RANK
        ):
            y = self._account(encoded, params, probe, record=False)
            self._gate_memo[frozen] = y.copy()
            return y
        signs = gate.signs
        y_low = self._metric_vector(probe)
        x = np.asarray(encoded, dtype=float)
        low_min = signs * y_low
        priors = self._static_priors(params)
        decision = gate.assess(x, low_min, priors)
        if decision.promote:
            full = run_tool(self.evaluator, params)
            self._store.put(params, full)
            if isinstance(full, EvaluationFailure):
                # The probe passed but the full flow failed (fidelities
                # draw independent QoR noise, so borderline capacity can
                # differ) — the point is infeasible and charges both runs.
                y = self._note_failure(
                    params,
                    full.original_type,
                    charge_s=probe_cost + full.simulated_seconds,
                )
                self._gate_memo[frozen] = y.copy()
                return y
            y_full = self._metric_vector(full)
            gate.observe(x, low_min, signs * y_full, priors)
            self._gate_memo[frozen] = y_full.copy()
            # One history entry per design point; its cost is the probe
            # plus the full run (the full run reuses the probe's cached
            # synthesis stage, so the sum equals the ungated full cost).
            combined = dataclasses.replace(
                full, simulated_seconds=probe_cost + full.simulated_seconds
            )
            return self._note_point(encoded, combined, record=False)
        # Skip: answer with the gate's predicted full-route metrics and
        # remember the binding for promotion-on-demand.
        pred_min = decision.predicted_full_min
        assert pred_min is not None  # skips only happen with a fitted model
        y_pred = signs * np.asarray(pred_min, dtype=float)
        metrics = dict(zip(self.evaluator.metric_names(), map(float, y_pred)))
        spec_point = EvaluatedPoint(
            parameters=dict(params),
            metrics=metrics,
            source="speculative",
            simulated_seconds=probe_cost,
            fidelity=str(probe.fidelity),
        )
        self._store.put(params, probe, rank=fidelity_rank(probe.fidelity))
        self._speculative[frozen] = (x.copy(), low_min.copy())
        self._gate_memo[frozen] = y_pred.copy()
        return self._note_point(encoded, spec_point, record=False)

    def promote_archive(self, archive) -> int:
        """Run the full flow for every speculative point still in ``archive``.

        The gate's contract: a skipped point's predicted metrics may
        steer the search, but nothing speculative survives into the
        *reported* front.  Called by the session after the algorithm
        finishes; every *non-dominated* archive member whose binding was
        skipped is promoted (its archive ``F`` rows are patched in place
        with the authoritative minimized metrics) and the gate's
        calibration learns from the outcome.  Because a promotion can
        worsen a row and expose previously shadowed points, the
        front-extraction/promotion loop iterates until the non-dominated
        subset is speculation-free.  Dominated speculative members stay
        predicted — they never reach the reported front, and promoting
        them would forfeit exactly the route+STA time the gate saved.
        Returns the number of promotions.
        """
        gate = self.promotion_gate
        if gate is None or not self._speculative:
            return 0
        X = getattr(archive, "X", None)
        if X is None or archive.F is None or not len(X):
            return 0
        from repro.moo.nds import non_dominated_mask

        rows = np.atleast_2d(np.asarray(X))
        signs = gate.signs
        tel = current_telemetry()
        promoted = 0
        while True:
            mask = non_dominated_mask(archive.F)
            fixes: dict[tuple, np.ndarray] = {}  # frozen binding -> minimized row
            for i in np.flatnonzero(mask):
                params = self.space.decode(rows[i])
                frozen = self._frozen(params)
                if frozen in fixes:
                    continue
                spec = self._speculative.get(frozen)
                if spec is None:
                    continue
                x, low_min = spec
                if tel is not None:
                    tel.counters.inc("decision.fidelity_promote")
                full = run_tool(self.evaluator, params)
                self._store.put(params, full)
                del self._speculative[frozen]
                if isinstance(full, EvaluationFailure):
                    self._note_failure(
                        params, full.original_type, charge_s=full.simulated_seconds
                    )
                    penalty = self._penalty_vector()
                    fixes[frozen] = signs * penalty
                    self._gate_memo[frozen] = penalty.copy()
                    continue
                y_full = self._metric_vector(full)
                gate.observe(x, low_min, signs * y_full, self._static_priors(params))
                self._note_point(rows[i], full, record=False)
                fixes[frozen] = signs * y_full
                self._gate_memo[frozen] = y_full.copy()
                promoted += 1
            if not fixes:
                return promoted
            for i in range(rows.shape[0]):
                frozen = self._frozen(self.space.decode(rows[i]))
                fix = fixes.get(frozen)
                if fix is not None:
                    archive.F[i] = fix

    # ------------------------------------------------------------------
    # Batch fan-out (shared by the blocking and async interfaces)

    def submit_encoded(self, X: np.ndarray, record: bool = False) -> "PendingEncodedBatch":
        """Submit encoded rows to the fan-out without waiting.

        Returns a :class:`PendingEncodedBatch`; call ``collect()`` to
        account the results.  Batches must be collected in submission
        order — history, cost accounting, and dataset insertion follow
        collection order, and the serial reference defines it as the
        submission order.
        """
        rows = [np.asarray(row) for row in np.atleast_2d(X)]
        params_list = [self.space.decode(row) for row in rows]
        batch = self._parallel_evaluator().submit_many(params_list)
        return PendingEncodedBatch(self, rows, params_list, batch, record)

    def _run_tool_batch(self, X: np.ndarray, record: bool) -> np.ndarray:
        """Fan encoded rows over the persistent pool; replay in order.

        The fan-out evaluates unique unseen points concurrently; results
        (and infeasibility penalties) are then accounted in the original
        row order, so history, cost accounting, and dataset insertion
        order are identical to the serial loop.
        """
        return self.submit_encoded(X, record=record).collect()

    def evaluate_encoded(self, X: np.ndarray) -> np.ndarray:
        """Evaluate encoded rows → raw metric matrix (NSGA-II's fitness).

        Without the approximation model every row is a real tool run, so
        the whole batch fans out over the persistent worker pool when
        ``workers > 1``.  With the model active, rows stay serial: each
        decision (cache / estimate / evaluate) depends on the dataset
        state the previous rows just updated.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        if not self.use_model and self._use_parallel():
            return self._run_tool_batch(X, record=False)
        out = np.empty((X.shape[0], len(self.evaluator.metric_names())))
        for i, row in enumerate(X):
            if not self.use_model:
                out[i] = self._run_tool(row, record=False)
                continue
            # DRC pre-flight: an infeasible point must not reach the control
            # model (a cached/estimated answer for a design that cannot
            # elaborate would be fiction).  Pure memoized check — when every
            # point is feasible this consults no RNG and records nothing.
            params = self.space.decode(row)
            if not self.gate.is_feasible(params):
                out[i] = self._note_failure(
                    params, "DrcViolationError", record_ledger=True
                )
                continue
            tel = current_telemetry()
            decision = self.control.decide(np.asarray(row, dtype=float))
            self.control.note(decision)
            if decision == Decision.CACHED:
                out[i] = self.control.cached(np.asarray(row, dtype=float))
                self.simulated_seconds += _CACHE_HIT_COST_S
                if tel is not None:
                    tel.counters.add("budget.charged_s", _CACHE_HIT_COST_S)
                    tel.ledger.append(
                        params=params, outcome="cache",
                        metrics=dict(
                            zip(self.evaluator.metric_names(), map(float, out[i]))
                        ),
                        charge=0.0,
                    )
            elif decision == Decision.ESTIMATE:
                out[i] = self.control.estimate(np.asarray(row, dtype=float))
                self.simulated_seconds += _ESTIMATE_COST_S
                metrics = dict(
                    zip(self.evaluator.metric_names(), map(float, out[i]))
                )
                if tel is not None:
                    tel.counters.add("budget.charged_s", _ESTIMATE_COST_S)
                    tel.ledger.append(
                        params=params, outcome="estimate",
                        metrics=metrics, charge=0.0,
                    )
                # Estimated points also enter history (marked) for analysis.
                self.history.append(
                    EvaluatedPoint(
                        parameters=params,
                        metrics=metrics,
                        source="estimate",
                        simulated_seconds=_ESTIMATE_COST_S,
                    )
                )
            else:
                out[i] = self._run_tool(row, record=True)
        return out

    def tool_runs(self) -> int:
        return sum(1 for p in self.history if p.source == "tool")

    def stats(self) -> dict[str, float | int]:
        base: dict[str, float | int] = {
            "history": len(self.history),
            "tool_runs": self.tool_runs(),
            "infeasible": self.infeasible,
            "simulated_seconds": self.simulated_seconds,
        }
        base.update(self.gate.stats())
        # All-path rejection count (serial, batch, and model paths) — more
        # informative than the fitness gate's own memoized tally.
        base["drc_rejections"] = self.drc_rejections
        # Stage-cache effectiveness and per-fidelity run counts, read off
        # the serial tool session (pool workers keep their own sessions
        # and report through the run ledger instead).
        sim = self.evaluator.sim
        base["run_cache_hits"] = sim.run_cache_hits
        base["synth_stage_hits"] = sim.synth_stage_hits
        base["impl_stage_hits"] = sim.impl_stage_hits
        # Per-fidelity fresh-run counts.  A gated session is always
        # serial, so the tool session's own counters are exact (they
        # include probe runs, which history folds into combined
        # entries).  Ungated sessions may fan out over pool workers
        # whose sims this session never sees — there the history is the
        # pool-consistent source: every worker's fresh run lands as
        # source "tool" with its fidelity tag.
        if self.promotion_gate is not None:
            for fid, count in sim.fidelity_runs.items():
                base[f"runs:{fid}"] = count
        else:
            for fid in Fidelity:
                base[f"runs:{fid}"] = sum(
                    1 for p in self.history
                    if p.source == "tool" and p.fidelity == str(fid)
                )
        if self.promotion_gate is not None:
            for name, value in self.promotion_gate.stats().items():
                if name == "band":
                    continue
                base[f"gate_{name}"] = value
            base["gate_pending_speculative"] = len(self._speculative)
        if self.use_model:
            base.update(self.control.stats())
        return base


class PendingEncodedBatch:
    """Encoded rows submitted to the fan-out, awaiting accounting.

    Produced by :meth:`ApproximateFitness.submit_encoded`.  The underlying
    points may resolve in any order across the pool; ``collect()`` blocks
    until all are done and then accounts them in the original row order,
    so the history/cost/dataset trajectory is identical to the serial
    loop.  Collect batches in the order they were submitted.
    """

    def __init__(
        self,
        fitness: ApproximateFitness,
        rows: list[np.ndarray],
        params_list: list[dict[str, int]],
        batch,
        record: bool,
    ) -> None:
        self._fitness = fitness
        self._rows = rows
        self._params_list = params_list
        self._batch = batch
        self._record = record

    def __len__(self) -> int:
        return len(self._rows)

    def done(self) -> bool:
        """True when no point of this batch is still running."""
        return self._batch.done()

    def collect(self) -> np.ndarray:
        """Block until resolved; account and return the metric matrix."""
        fitness = self._fitness
        outs = self._batch.results(on_error="return")
        result = np.empty((len(self._rows), len(fitness.evaluator.metric_names())))
        for i, (row, params, res) in enumerate(
            zip(self._rows, self._params_list, outs)
        ):
            # The batch layer (worker, store, or memo) already wrote the
            # ledger record and ships a failed run's cost.
            result[i] = fitness._account(row, params, res, self._record)
        return result


class _BoundsOnly(IntegerProblem):
    """Bounds-carrying stub so sampling can run without a fitness."""

    def __init__(self, space: ParameterSpace) -> None:
        super().__init__(
            space.lows(), space.highs(), [Objective.minimize("stub")]
        )

    def evaluate(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("sampling stub is never evaluated")


class DseProblem(IntegerProblem):
    """The NSGA-II problem wrapping an :class:`ApproximateFitness`."""

    def __init__(self, fitness: ApproximateFitness) -> None:
        space = fitness.space
        super().__init__(
            space.lows(),
            space.highs(),
            [spec.as_objective() for spec in fitness.evaluator.metrics],
        )
        self.fitness = fitness

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        return self.fitness.evaluate_encoded(X)

    def feasible_mask(self, X: np.ndarray) -> np.ndarray:
        """Consult the DRC pre-flight gate (pure, memoized).

        Rows the gate's interval analysis proves infeasible are rejected
        vectorized, with zero decode or elaboration work; only undecided
        rows fall through to the per-point memoized check.  Verdicts are
        identical either way (the static layer only short-circuits
        definite rejections).
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        gate = self.fitness.gate
        space = self.fitness.space
        mask = np.ones(X.shape[0], dtype=bool)
        static_bad = gate.static_infeasible_mask(X)
        if static_bad.any():
            mask[static_bad] = False
            tel = current_telemetry()
            if tel is not None:
                tel.counters.inc(
                    "decision.static_mask_reject", by=int(static_bad.sum())
                )
        for i in np.flatnonzero(~static_bad):
            mask[i] = gate.is_feasible(space.decode(X[i]))
        return mask
