"""Tests for parallel batch evaluation."""

import pytest

from repro.core.evaluate import PointEvaluator
from repro.core.parallel import (
    EvaluationFailure,
    EvaluatorSpec,
    ParallelPointEvaluator,
    RemoteEvaluationError,
)
from repro.designs import get_design


def _spec(design_name="corundum-cqm", **kw):
    design = get_design(design_name)
    return EvaluatorSpec(
        source=design.source(),
        language=str(design.language),
        top=design.top,
        part=kw.pop("part", "XC7K70T"),
        seed=kw.pop("seed", 3),
        design_name=design_name,
        **kw,
    )


BATCH = [
    {"OP_TABLE_SIZE": 8, "PIPELINE": 2},
    {"OP_TABLE_SIZE": 16, "PIPELINE": 3},
    {"OP_TABLE_SIZE": 24, "PIPELINE": 4},
    {"OP_TABLE_SIZE": 32, "PIPELINE": 5},
]


class TestSpec:
    def test_roundtrip_from_evaluator(self):
        from tests.test_pipeline_contracts import TICK_SV

        design = get_design("corundum-cqm")
        cases = [
            (dict(source=design.source(), language=design.language,
                  top=design.top, part="ZU3EG", seed=7), "corundum-cqm"),
            # A clock port name detection cannot find must survive too.
            (dict(source=TICK_SV, language="systemverilog", top="ticker",
                  part="ZU3EG", seed=7, clock_port="tick"), None),
        ]
        for kwargs, design_name in cases:
            ev = PointEvaluator(**kwargs)
            spec = EvaluatorSpec.from_evaluator(ev, design_name=design_name)
            rebuilt = spec.build()
            assert rebuilt.part == "ZU3EG"
            assert rebuilt.module.name == ev.module.name
            assert rebuilt.metric_names() == ev.metric_names()
            assert rebuilt.clock_port == ev.clock_port
            assert EvaluatorSpec.from_evaluator(rebuilt, design_name) == spec

    def test_identity_names_clock_port_only_when_given(self):
        import dataclasses

        spec = _spec()
        assert "clock_port" not in spec.identity()
        ticked = dataclasses.replace(spec, clock_port="clk")
        assert ticked.identity() == {**spec.identity(), "clock_port": "clk"}

    def test_spec_is_picklable(self):
        import pickle

        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSerialPath:
    def test_serial_matches_direct_evaluator(self):
        spec = _spec()
        serial = ParallelPointEvaluator(spec=spec, workers=0)
        batch = serial.evaluate_many(BATCH)
        direct = spec.build()
        for params, point in zip(BATCH, batch):
            ref = direct.evaluate(params)
            assert point.metrics == ref.metrics

    def test_duplicates_dedupped(self):
        spec = _spec()
        serial = ParallelPointEvaluator(spec=spec, workers=0)
        twice = serial.evaluate_many([BATCH[0], BATCH[0]])
        assert twice[0].metrics == twice[1].metrics


class TestParallelPath:
    def test_parallel_equals_serial(self):
        spec = _spec()
        serial = ParallelPointEvaluator(spec=spec, workers=0).evaluate_many(BATCH)
        parallel = ParallelPointEvaluator(spec=spec, workers=2).evaluate_many(BATCH)
        for s, p in zip(serial, parallel):
            assert s.parameters == p.parameters
            assert s.metrics == p.metrics

    def test_parallel_order_preserved(self):
        spec = _spec()
        out = ParallelPointEvaluator(spec=spec, workers=2).evaluate_many(BATCH)
        assert [p.parameters["OP_TABLE_SIZE"] for p in out] == [8, 16, 24, 32]

    def test_parallel_vhdl_design(self):
        spec = _spec(
            design_name="neorv32",
            metrics=(("BRAM", "min"), ("frequency", "max")),
        )
        points = [
            {"MEM_INT_IMEM_SIZE": 2**13},
            {"MEM_INT_IMEM_SIZE": 2**14},
        ]
        out = ParallelPointEvaluator(spec=spec, workers=2).evaluate_many(points)
        assert out[0].metrics["BRAM"] < out[1].metrics["BRAM"]


class TestPersistentPool:
    """The pool must survive across batches: one initializer call per
    worker per evaluator lifetime, never one pool per batch."""

    def test_one_initializer_call_per_worker(self):
        with ParallelPointEvaluator(spec=_spec(), workers=2) as pool:
            pool.evaluate_many(BATCH[:2])
            first_pool = pool._pool
            assert first_pool is not None
            pool.evaluate_many(BATCH[2:])
            assert pool._pool is first_pool

            probes = pool.worker_probes()
            assert probes, "live pool must answer probes"
            pids = {pid for pid, _ in probes}
            assert len(pids) <= 2
            assert all(calls == 1 for _, calls in probes), (
                "worker initializer ran more than once per worker: "
                f"{probes}"
            )

    def test_pool_is_lazy_and_close_idempotent(self):
        pool = ParallelPointEvaluator(spec=_spec(), workers=2)
        assert pool._pool is None
        assert pool.worker_probes() == []
        pool.evaluate_many(BATCH[:1])
        assert pool._pool is not None
        pool.close()
        assert pool._pool is None
        pool.close()  # second close is a no-op
        # Memo survives close: replays need no pool at all.
        out = pool.evaluate_many(BATCH[:1])
        assert pool._pool is None
        assert out[0].source == "cache"

    def test_memo_skips_redispatch_across_batches(self):
        with ParallelPointEvaluator(spec=_spec(), workers=2) as pool:
            first = pool.evaluate_many(BATCH)
            assert pool.dispatched == len(BATCH)
            assert pool.memo_hits == 0
            again = pool.evaluate_many(BATCH)
            assert pool.dispatched == len(BATCH), "memoized points re-dispatched"
            assert pool.memo_hits == len(BATCH)
            for a, b in zip(first, again):
                assert a.metrics == b.metrics
                # Replays are priced exactly like the serial evaluator's
                # own result cache: free, and marked as such.
                assert b.source == "cache"
                assert b.simulated_seconds == 0.0

    def test_memo_key_ignores_param_order_and_case(self):
        with ParallelPointEvaluator(spec=_spec(), workers=0) as pool:
            pool.evaluate_many([{"OP_TABLE_SIZE": 8, "PIPELINE": 2}])
            out = pool.evaluate_many([{"pipeline": 2, "op_table_size": 8}])
            assert pool.dispatched == 1
            assert out[0].source == "cache"


_TIREX_OK = {"NCLUSTER": 1, "STACK_SIZE": 1, "INSTR_MEM_SIZE": 8, "DATA_MEM_SIZE": 8}
_TIREX_OVERFLOW = {"NCLUSTER": 8, "STACK_SIZE": 256, "INSTR_MEM_SIZE": 64, "DATA_MEM_SIZE": 64}


class TestFailurePropagation:
    def test_on_error_return_yields_failure_records(self):
        spec = _spec(design_name="tirex")
        with ParallelPointEvaluator(spec=spec, workers=2) as pool:
            out = pool.evaluate_many(
                [_TIREX_OK, _TIREX_OVERFLOW], on_error="return"
            )
        assert out[0].metrics["LUT"] > 0
        assert isinstance(out[1], EvaluationFailure)
        assert out[1].original_type == "UtilizationOverflowError"

    def test_on_error_raise_restores_original_type_name(self):
        spec = _spec(design_name="tirex")
        with ParallelPointEvaluator(spec=spec, workers=2) as pool:
            with pytest.raises(RemoteEvaluationError) as err:
                pool.evaluate_many([_TIREX_OVERFLOW])
        assert err.value.original_type == "UtilizationOverflowError"


class TestSpawnEquivalence:
    """Bitwise parity under the spawn start method (no inherited state):
    workers must rebuild the evaluator — including a built-in design's
    architectural model via ``design_name`` re-registration — and still
    reproduce the serial evaluator exactly."""

    # BATCH plus a duplicate of its first point, split across the batch:
    # the repeat must come back as a free cache hit in both paths.
    _WITH_DUP = [*BATCH, dict(BATCH[0])]

    def test_spawn_bitwise_equals_serial(self):
        serial = ParallelPointEvaluator(spec=_spec(), workers=0)
        ref = serial.evaluate_many(self._WITH_DUP)
        with ParallelPointEvaluator(
            spec=_spec(), workers=2, start_method="spawn"
        ) as pool:
            out = pool.evaluate_many(self._WITH_DUP)
        for s, p in zip(ref, out):
            assert s.parameters == p.parameters
            assert s.metrics == p.metrics
            assert s.source == p.source
            assert s.simulated_seconds == p.simulated_seconds
        assert out[-1].source == "cache"
        assert out[-1].simulated_seconds == 0.0

    def test_spawn_vhdl_builtin_design(self):
        spec = _spec(
            design_name="neorv32",
            metrics=(("BRAM", "min"), ("frequency", "max")),
        )
        points = [{"MEM_INT_IMEM_SIZE": 2**13}, {"MEM_INT_IMEM_SIZE": 2**14}]
        ref = ParallelPointEvaluator(spec=spec, workers=0).evaluate_many(points)
        with ParallelPointEvaluator(
            spec=spec, workers=2, start_method="spawn"
        ) as pool:
            out = pool.evaluate_many(points)
        for s, p in zip(ref, out):
            assert s.metrics == p.metrics


class TestSubmitMany:
    """Out-of-order scheduling: submit several batches, collect later."""

    def test_pipelined_batches_match_blocking(self):
        spec = _spec()
        ref = ParallelPointEvaluator(spec=spec, workers=0).evaluate_many(BATCH)
        with ParallelPointEvaluator(spec=spec, workers=2) as pool:
            pending = [pool.submit_many(BATCH[:2]), pool.submit_many(BATCH[2:])]
            outs = [r for p in pending for r in p.results()]
        for s, p in zip(ref, outs):
            assert s.parameters == p.parameters
            assert s.metrics == p.metrics

    def test_results_consumed_once(self):
        with ParallelPointEvaluator(spec=_spec(), workers=0) as pool:
            batch = pool.submit_many(BATCH[:1])
            batch.results()
            with pytest.raises(RuntimeError):
                batch.results()

    def test_overlapping_batches_dispatch_once(self):
        """A point already in flight from an earlier batch is never
        re-dispatched by a later one."""
        spec = _spec()
        with ParallelPointEvaluator(spec=spec, workers=2) as pool:
            first = pool.submit_many(BATCH)
            second = pool.submit_many([BATCH[0], BATCH[3]])
            assert pool.dispatched == len(BATCH)
            out_first = first.results()
            out_second = second.results()
        assert out_second[0].metrics == out_first[0].metrics
        assert out_second[1].metrics == out_first[3].metrics
        # The second batch's copies replay as cache-priced answers.
        assert all(p.source == "cache" for p in out_second)
        assert all(p.simulated_seconds == 0.0 for p in out_second)

    def test_done_reports_completion(self):
        with ParallelPointEvaluator(spec=_spec(), workers=0) as pool:
            batch = pool.submit_many(BATCH[:1])
            assert batch.done()  # serial path resolves eagerly
            batch.results()


class TestWorkerProbeFloor:
    def test_probe_count_floor_is_four(self):
        """Even a one-worker pool dispatches several probes (4 × workers,
        floored at 4)."""
        with ParallelPointEvaluator(spec=_spec(), workers=2) as pool:
            pool.evaluate_many(BATCH[:1])
            assert len(pool.worker_probes()) == max(4, 2 * 4)
            assert len(pool.worker_probes(samples=3)) == 3


class TestFailureReplayEconomics:
    def test_memoized_failure_replays_free_with_memo_origin(self):
        """Re-meeting a memoized failure charges zero seconds and leaves
        an ``origin="memo"`` ledger record."""
        from repro.observe import telemetry_session

        spec = _spec(design_name="tirex")
        with telemetry_session() as tel:
            with ParallelPointEvaluator(spec=spec, workers=2) as pool:
                first = pool.evaluate_many([_TIREX_OVERFLOW], on_error="return")
                assert isinstance(first[0], EvaluationFailure)
                assert first[0].simulated_seconds > 0.0
                replay = pool.evaluate_many([_TIREX_OVERFLOW], on_error="return")
            assert isinstance(replay[0], EvaluationFailure)
            assert replay[0].simulated_seconds == 0.0
            assert pool.memo_hits == 1
            record = tel.ledger.records[-1]
            assert record.origin == "memo"
            assert record.outcome == "failed"
            assert record.charge == 0.0
            assert record.error_type == "UtilizationOverflowError"


class TestStoreIntegration:
    def test_pool_consults_and_populates_the_store(self, tmp_path):
        from repro.cache import ResultStore

        spec = _spec()
        store = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=2, store=store) as pool:
            ref = pool.evaluate_many(BATCH)
            assert pool.store_puts == len(BATCH)
            assert pool.store_hits == 0

        # A brand-new pool (fresh memo) replays everything from disk.
        reborn = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=2, store=reborn) as pool:
            out = pool.evaluate_many(BATCH)
            assert pool.store_hits == len(BATCH)
            assert pool.dispatched == 0
        for s, p in zip(ref, out):
            assert s.metrics == p.metrics
            assert p.source == "cache"
            assert p.simulated_seconds == 0.0

    def test_stored_failures_replay_without_tool_time(self, tmp_path):
        from repro.cache import ResultStore

        spec = _spec(design_name="tirex")
        store = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=0, store=store) as pool:
            first = pool.evaluate_many([_TIREX_OVERFLOW], on_error="return")
            assert first[0].simulated_seconds > 0.0

        reborn = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=0, store=reborn) as pool:
            out = pool.evaluate_many([_TIREX_OVERFLOW], on_error="return")
            assert pool.store_hits == 1
            assert pool.dispatched == 0
        assert isinstance(out[0], EvaluationFailure)
        assert out[0].original_type == "UtilizationOverflowError"
        assert out[0].simulated_seconds == 0.0

    def test_incremental_spec_disables_the_store(self, tmp_path):
        from repro.cache import ResultStore

        spec = _spec(incremental=True)
        store = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=0, store=store) as pool:
            pool.evaluate_many(BATCH[:2])
            assert pool.store_puts == 0
        assert len(store) == 0
