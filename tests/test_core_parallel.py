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
    """The pool must survive across batches: the same workers serve
    every batch of an evaluator, never one pool per batch."""

    def test_same_workers_serve_every_batch(self):
        with ParallelPointEvaluator(spec=_spec(), workers=2) as pool:
            pool.evaluate_many(BATCH[:2])
            workers = pool._pool
            assert workers is not None
            pids = set(workers._executor._processes)
            pool.evaluate_many(BATCH[2:])
            assert pool._pool is workers
            assert set(workers._executor._processes) == pids
            assert len(pids) == 2

    def test_pool_is_lazy_and_close_idempotent(self):
        pool = ParallelPointEvaluator(spec=_spec(), workers=2)
        assert pool._pool is None
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


def _kill_workers(pool: ParallelPointEvaluator, after=None, delay: float = 0.0):
    """SIGKILL every worker of ``pool``'s current executor once it has
    two (and is not ``after``), ``delay`` seconds after they exist;
    returns the executor whose workers died, or None when no such
    executor shows up within 60 s."""
    import os
    import signal
    import time

    def current():
        return None if pool._pool is None else pool._pool._executor

    deadline = time.monotonic() + 60.0
    while current() is None or current() is after or len(current()._processes) < 2:
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)
    executor = current()
    time.sleep(delay)
    for pid in list(executor._processes):
        os.kill(pid, signal.SIGKILL)
    return executor


class TestSpawnEquivalence:
    """Bitwise parity on workers started without the parent's state: a
    pool replaced after its workers died starts them through a fork
    server, so each worker rebuilds the evaluator — a built-in design's
    architectural model included, re-registered through ``design_name``
    — and must still reproduce the serial evaluator exactly."""

    @staticmethod
    def _check_replacement_equals_serial(spec, warmup, points):
        """Kill the forked workers of a pool that ran ``warmup``, then
        compare its answers for ``points`` with the serial path's."""
        ref = ParallelPointEvaluator(spec=spec, workers=0).evaluate_many(points)
        with ParallelPointEvaluator(spec=spec, workers=2) as pool:
            pool.evaluate_many([warmup])
            forked = _kill_workers(pool)
            out = pool.evaluate_many(points)
            replacement = pool._pool._executor
        assert replacement is not forked
        assert replacement._mp_context.get_start_method() == "forkserver"
        for s, p in zip(ref, out):
            assert s.parameters == p.parameters
            assert s.metrics == p.metrics
            assert s.source == p.source
            assert s.simulated_seconds == p.simulated_seconds
        # The repeat of the first point comes back as a free cache hit
        # in both paths.
        assert out[-1].source == "cache"
        assert out[-1].simulated_seconds == 0.0
        return out

    def test_spawn_bitwise_equals_serial(self):
        self._check_replacement_equals_serial(
            _spec(),
            {"OP_TABLE_SIZE": 40, "PIPELINE": 2},
            [*BATCH, dict(BATCH[0])],
        )

    def test_spawn_vhdl_builtin_design(self):
        spec = _spec(
            design_name="neorv32",
            metrics=(("BRAM", "min"), ("frequency", "max")),
        )
        out = self._check_replacement_equals_serial(
            spec,
            {"MEM_INT_IMEM_SIZE": 2**12, "MEM_INT_DMEM_SIZE": 2**12},
            [
                {"MEM_INT_IMEM_SIZE": 2**13, "MEM_INT_DMEM_SIZE": 2**12},
                {"MEM_INT_IMEM_SIZE": 2**14, "MEM_INT_DMEM_SIZE": 2**12},
                {"MEM_INT_IMEM_SIZE": 2**13, "MEM_INT_DMEM_SIZE": 2**12},
            ],
        )
        assert out[0].metrics["BRAM"] < out[1].metrics["BRAM"]


class TestBrokenPool:
    """One crash policy: a batch that loses runs to workers SIGKILLed
    mid-batch runs again once on a replacement pool; a second loss
    raises."""

    POINTS = [{"DEPTH": 4}, {"DEPTH": 8}, {"DEPTH": 16}, {"DEPTH": 32}]

    def _pool_and_reference(self):
        """A two-worker evaluator whose runs take ~1.1 s of emulated
        latency, so a kill 0.3 s after the workers exist lands mid-run,
        and the serial reference for :attr:`POINTS`."""
        import dataclasses

        spec = _spec(design_name="cv32e40p-fifo")
        ref = ParallelPointEvaluator(spec=spec, workers=0).evaluate_many(self.POINTS)
        slow = dataclasses.replace(spec, emulate_tool_latency=0.01)
        return ParallelPointEvaluator(spec=slow, workers=2), ref

    def _batch_while(self, pool, kill):
        import threading

        killer = threading.Thread(target=kill)
        killer.start()
        try:
            return pool.evaluate_many(self.POINTS)
        finally:
            killer.join()

    def test_broken_pool_is_replaced_without_close(self):
        """Workers killed mid-batch cost the batch nothing: the lost runs
        are retried on a replacement pool, and the batch returns the
        serial answers with the ``origin="worker"`` ledger rows."""
        from repro.observe import telemetry_session

        pool, ref = self._pool_and_reference()
        with pool, telemetry_session() as tel:
            out = self._batch_while(pool, lambda: _kill_workers(pool, delay=0.3))
        assert out == ref
        assert tel.counters.get("serve.pool_restarts") == 1
        rows = [(r.origin, r.outcome) for r in tel.ledger.records]
        assert rows == [("worker", "tool")] * len(self.POINTS)

    def test_killed_worker_does_not_poison_the_evaluator(self):
        """A second loss raises and commits nothing; the next batch runs
        on a fresh pool and equals the serial reference."""
        from concurrent.futures.process import BrokenProcessPool

        pool, ref = self._pool_and_reference()

        def kill_twice():
            forked = _kill_workers(pool, delay=0.3)
            _kill_workers(pool, after=forked, delay=0.3)

        with pool:
            with pytest.raises(BrokenProcessPool):
                self._batch_while(pool, kill_twice)
            assert pool.memo == {} and pool.store_puts == 0
            out = pool.evaluate_many(self.POINTS)
        assert out == ref


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

    def test_incremental_spec_refuses_worker_processes(self):
        with pytest.raises(ValueError, match="incremental"):
            ParallelPointEvaluator(spec=_spec(incremental=True), workers=2)

    def test_incremental_spec_disables_the_store(self, tmp_path):
        from repro.cache import ResultStore

        spec = _spec(incremental=True)
        store = ResultStore(tmp_path / "store")
        with ParallelPointEvaluator(spec=spec, workers=0, store=store) as pool:
            pool.evaluate_many(BATCH[:2])
            assert pool.store_puts == 0
        assert len(store) == 0
