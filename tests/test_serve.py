"""Tests for ``repro.serve`` — queue, scheduler, fleet, and the server.

The integration class pins the PR's acceptance contract: two concurrent
jobs over one shared sharded store produce fronts byte-identical to the
same sessions run serially against private stores, with the second
job's tool-run count strictly lower because the first tenant's runs
answer from the shared fleet.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from tests._sanitize_support import lock_order_guard

from repro.serve import (
    DseServer,
    EvaluatorFleet,
    FairScheduler,
    FileJobQueue,
    JobCancelledError,
    JobSpec,
    JobState,
    SchedulerClosed,
    add_submit_listener,
    remove_submit_listener,
)

@pytest.fixture(autouse=True)
def _lock_order_sanitizer():
    """Every serve test runs under the runtime lock-order sanitizer: no
    observed acquisition cycles, and every observed ordering must be an
    edge of the static S003 lock graph."""
    with lock_order_guard():
        yield


@pytest.fixture
def fast_thread_switching():
    """Switch threads every 10 µs so interleavings surface in a short run."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# FileJobQueue


class TestFileJobQueue:
    def test_submit_claim_finish_lifecycle(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        record = queue.submit(JobSpec(design="tirex", generations=3))
        assert record.state == JobState.QUEUED
        assert queue.depth() == 1

        claimed = queue.claim()
        assert claimed is not None and claimed.job_id == record.job_id
        assert claimed.state == JobState.RUNNING
        assert queue.depth() == 0
        assert queue.claim() is None  # nothing else queued

        finished = queue.finish(
            record.job_id, JobState.DONE, stats={"tool_runs": 7}
        )
        assert finished.state == JobState.DONE
        fetched = queue.get(record.job_id)
        assert fetched.state == JobState.DONE
        assert fetched.stats["tool_runs"] == 7
        assert fetched.spec.design == "tirex"

    def test_ids_are_dense_and_claims_are_fifo(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        ids = [queue.submit(JobSpec(design="tirex")).job_id for _ in range(3)]
        assert ids == ["job-000000", "job-000001", "job-000002"]
        assert [queue.claim().job_id for _ in range(3)] == ids

    def test_two_queues_never_claim_the_same_job(self, tmp_path):
        a = FileJobQueue(tmp_path / "q")
        b = FileJobQueue(tmp_path / "q")
        a.submit(JobSpec(design="tirex"))
        claims = [q.claim() for q in (a, b)]
        assert sum(c is not None for c in claims) == 1

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        record = queue.submit(JobSpec(design="tirex"))
        assert queue.cancel(record.job_id) == JobState.CANCELLED
        assert queue.get(record.job_id).state == JobState.CANCELLED
        assert queue.claim() is None

    def test_cancel_running_job_leaves_a_marker(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        record = queue.submit(JobSpec(design="tirex"))
        queue.claim()
        assert not queue.cancel_requested(record.job_id)
        assert queue.cancel(record.job_id) == JobState.RUNNING
        assert queue.cancel_requested(record.job_id)
        # finish clears the marker along with the running file
        queue.finish(record.job_id, JobState.CANCELLED)
        assert not queue.cancel_requested(record.job_id)

    def test_cancel_unknown_job(self, tmp_path):
        assert FileJobQueue(tmp_path / "q").cancel("job-999999") is None

    def test_counter_survives_a_crash_mid_publish(self, tmp_path, monkeypatch):
        """A crash inside the COUNTER read-modify-write window must leave
        either the old or the new value — never a truncated file that
        restarts ordinals and hands out a duplicate job id."""
        queue = FileJobQueue(tmp_path / "q")
        first = queue.submit(JobSpec(design="tirex")).job_id
        assert first == "job-000000"

        real_replace = os.replace
        state = {"crashed": False}

        def crashing_replace(src, dst, *args, **kwargs):
            if Path(dst).name == "COUNTER" and not state["crashed"]:
                state["crashed"] = True
                raise OSError("simulated crash mid-publish")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError):
            queue.submit(JobSpec(design="tirex"))
        assert state["crashed"]

        # The published COUNTER is intact (the first submit's value) ...
        assert int((tmp_path / "q" / "COUNTER").read_text()) == 1
        # ... so the next submit hands out the crashed ordinal exactly once.
        second = queue.submit(JobSpec(design="tirex")).job_id
        assert second == "job-000001"
        assert [r.job_id for r in queue.jobs()] == [first, second]

    def test_claim_many_is_fifo_over_one_scan(self, tmp_path):
        from repro.observe import telemetry_session

        queue = FileJobQueue(tmp_path / "q")
        ids = [queue.submit(JobSpec(design="tirex")).job_id for _ in range(4)]
        with telemetry_session() as tel:
            claimed = queue.claim_many(2)
        assert [r.job_id for r in claimed] == ids[:2]
        assert all(r.state == JobState.RUNNING for r in claimed)
        # One directory listing served the whole pass.
        assert tel.counters.get("serve.claim_scan_entries") == 4
        assert queue.depth() == 2
        # Without a limit, one pass claims every queued job.
        assert [r.job_id for r in queue.claim_many()] == ids[2:]
        assert queue.depth() == 0

    def test_submit_listener_fires_until_removed(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        fired: list[int] = []
        listener = lambda: fired.append(1)  # noqa: E731
        assert queue.submit_stamp_ns() == 0
        add_submit_listener(tmp_path / "q", listener)
        try:
            queue.submit(JobSpec(design="tirex"))
            assert fired == [1]
            stamp = queue.submit_stamp_ns()
            assert stamp > 0
        finally:
            remove_submit_listener(tmp_path / "q", listener)
        queue.submit(JobSpec(design="tirex"))
        assert fired == [1]  # removed listeners stay silent
        assert queue.submit_stamp_ns() >= stamp  # but the stamp still bumps

    def test_jobs_lists_all_states_in_submission_order(self, tmp_path):
        queue = FileJobQueue(tmp_path / "q")
        first = queue.submit(JobSpec(design="tirex"))
        queue.submit(JobSpec(design="tirex"))
        queue.claim()
        queue.finish(first.job_id, JobState.FAILED, error="boom")
        records = queue.jobs()
        assert [r.job_id for r in records] == [first.job_id, "job-000001"]
        assert records[0].state == JobState.FAILED
        assert records[0].error == "boom"
        assert records[1].state == JobState.QUEUED


# ---------------------------------------------------------------------------
# FairScheduler


class TestFairScheduler:
    def test_round_robin_interleaves_two_jobs(self):
        """Queued work from two jobs alternates 1:1 at capacity 1."""
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            sched.register_job("B", slots=1)
            order: list[str] = []
            release = threading.Event()
            blocker = sched.submit("A", lambda: release.wait(10))
            time.sleep(0.05)
            futures = []
            for i in range(4):
                futures.append(sched.submit("A", lambda: order.append("A")))
                futures.append(sched.submit("B", lambda: order.append("B")))
            release.set()
            blocker.result(10)
            for future in futures:
                future.result(10)
            assert order.count("A") == order.count("B") == 4
            assert all(a != b for a, b in zip(order, order[1:])), order

    def test_backpressure_pool_never_exceeds_capacity(self):
        with FairScheduler(capacity=2) as sched:
            sched.register_job("A", slots=4)
            sched.register_job("B", slots=4)
            gate = threading.Event()
            futures = [
                sched.submit(job, lambda: gate.wait(10))
                for job in ("A", "B")
                for _ in range(6)
            ]
            time.sleep(0.1)
            stats = sched.stats()
            assert stats["in_flight"] == 2
            assert stats["queue_depth"] == 10
            gate.set()
            for future in futures:
                future.result(10)
            assert sched.stats()["peak_in_flight"] <= 2

    def test_per_job_slots_cap_a_single_jobs_concurrency(self):
        with FairScheduler(capacity=4) as sched:
            sched.register_job("A", slots=1)
            gate = threading.Event()
            futures = [sched.submit("A", lambda: gate.wait(10)) for _ in range(4)]
            time.sleep(0.1)
            stats = sched.stats()
            assert stats["jobs"]["A"]["running"] == 1, "slots ignored"
            gate.set()
            for future in futures:
                future.result(10)

    def test_bounded_lane_blocks_the_producer(self):
        """max_pending is the backpressure felt by the session thread."""
        with FairScheduler(capacity=1, max_pending=2) as sched:
            sched.register_job("A", slots=1)
            gate = threading.Event()
            sched.submit("A", lambda: gate.wait(10))
            time.sleep(0.05)
            sched.submit("A", lambda: None)  # fills the lane bound
            unblocked_at = {}

            def producer():
                fut = sched.submit("A", lambda: "third")
                unblocked_at["t"] = time.monotonic()
                unblocked_at["fut"] = fut

            thread = threading.Thread(target=producer)
            start = time.monotonic()
            thread.start()
            time.sleep(0.2)
            assert "t" not in unblocked_at, "submit should have blocked"
            gate.set()
            thread.join(10)
            assert unblocked_at["t"] - start >= 0.15
            assert unblocked_at["fut"].result(10) == "third"

    def test_cancel_drops_queued_keeps_running(self):
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            gate = threading.Event()
            running = sched.submit("A", lambda: (gate.wait(10), "ran")[1])
            time.sleep(0.05)
            queued = [sched.submit("A", lambda: "never") for _ in range(3)]
            assert sched.cancel_job("A") == 3
            gate.set()
            assert running.result(10) == "ran"
            for future in queued:
                with pytest.raises(JobCancelledError):
                    future.result(10)
            # Post-cancel submissions fail fast too.
            with pytest.raises(JobCancelledError):
                sched.submit("A", lambda: None).result(10)

    def test_drain_waits_for_accepted_work_and_rejects_new(self):
        sched = FairScheduler(capacity=2)
        sched.register_job("A", slots=2)
        done = []
        futures = [
            sched.submit("A", lambda i=i: done.append(i)) for i in range(5)
        ]
        assert sched.drain(10) is True
        assert len(done) == 5
        with pytest.raises(SchedulerClosed):
            sched.submit("A", lambda: None).result(10)
        for future in futures:
            future.result(0)
        sched.close()

    def test_results_return_in_request_order(self):
        with FairScheduler(capacity=4) as sched:
            sched.register_job("A", slots=4)
            futures = [sched.submit("A", lambda i=i: i * i) for i in range(8)]
            assert [f.result(10) for f in futures] == [i * i for i in range(8)]

    def test_slow_lane_does_not_break_the_fast_lanes_interleave(self):
        """Fairness under unequal request durations: a lane whose every
        request is slow still alternates 1:1 with a fast lane — round-robin
        rotates by *request*, so request duration cannot buy extra turns."""
        with FairScheduler(capacity=1) as sched:
            sched.register_job("slow", slots=1)
            sched.register_job("fast", slots=1)
            order: list[str] = []
            release = threading.Event()
            blocker = sched.submit("slow", lambda: release.wait(10))
            time.sleep(0.05)
            futures = [
                sched.submit(
                    "slow",
                    lambda: (time.sleep(0.04), order.append("slow"))[1],
                )
                for _ in range(4)
            ]
            futures += [
                sched.submit("fast", lambda: order.append("fast"))
                for _ in range(4)
            ]
            release.set()
            blocker.result(10)
            for future in futures:
                future.result(10)
            assert order.count("slow") == order.count("fast") == 4
            assert all(a != b for a, b in zip(order, order[1:])), order

    def test_starts_no_thread_of_its_own(self):
        """A monitor, not a loop: construction starts no dispatcher
        thread, and the pool spawns its workers only on demand."""
        before = {t.ident for t in threading.enumerate()}
        sched = FairScheduler(capacity=2)
        try:
            names = [t.name for t in threading.enumerate()]
            assert "dse-scheduler" not in names
            assert {t.ident for t in threading.enumerate()} <= before
        finally:
            sched.close()

    def test_stress_every_future_resolves(self, fast_thread_switching):
        """~1,000 zero-work requests from three concurrent producers at
        capacity 2, mixing shared keys and transforms, with one lane
        cancelled mid-stream.  Two blockers hold the pool until every
        request is queued, so releasing them drains one long chain of
        instantly finishing requests: that must not grow the stack.
        Every future resolves to its value, its transformed value or a
        cancellation, capacity holds, and drain returns only once every
        accepted future is done."""
        per_lane = 334
        sched = FairScheduler(capacity=2)
        for job in ("A", "B", "C"):
            sched.register_job(job, slots=2)
        release = threading.Event()
        blockers = [sched.submit("A", lambda: release.wait(30)) for _ in range(2)]
        submitted: dict[str, list] = {"A": [], "B": [], "C": []}
        halfway, cancelled_c = threading.Event(), threading.Event()

        def produce(job: str) -> None:
            for i in range(per_lane):
                key = ("point", i % 5) if i % 2 else None
                transform = (lambda v: ("shared", v)) if i % 4 == 1 else None
                raw = key if key is not None else (job, i)
                future = sched.submit(
                    job, lambda raw=raw: raw, key=key, transform=transform
                )
                submitted[job].append((future, raw, transform))
                if job == "C" and i == per_lane // 2:
                    halfway.set()
                    assert cancelled_c.wait(30)

        producers = [
            threading.Thread(target=produce, args=(job,)) for job in submitted
        ]
        for thread in producers:
            thread.start()
        assert halfway.wait(30)
        # C's queued primaries carry A and B followers: those are promoted.
        assert sched.cancel_job("C") > 0
        cancelled_c.set()
        for thread in producers:
            thread.join(30)
            assert not thread.is_alive()
        assert sched.stats()["queue_depth"] > 0
        release.set()
        assert sched.drain(30) is True
        everything = [entry for entries in submitted.values() for entry in entries]
        assert len(everything) == 3 * per_lane
        assert all(future.done() for future, _, _ in everything)
        assert all(blocker.result(0) is True for blocker in blockers)
        cancelled = 0
        for job, entries in submitted.items():
            for future, raw, transform in entries:
                error = future.exception(0)
                assert not isinstance(error, RecursionError)
                if error is not None:
                    assert job == "C" and isinstance(error, JobCancelledError)
                    cancelled += 1
                    continue
                # A coalesced follower sees the primary's result through
                # its own transform; a request that ran sees its own value.
                allowed = [raw] if transform is None else [raw, transform(raw)]
                assert future.result(0) in allowed
        # All of C's first half was still queued at the cancel, and
        # everything C submitted after it was rejected.
        assert cancelled == per_lane
        stats = sched.stats()
        assert stats["peak_in_flight"] <= 2
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0
        assert stats["coalesced_hits"] > 0
        # No lost update: every accepted request is counted exactly once,
        # as run, coalesced or dropped.
        for job in stats["jobs"].values():
            assert job["completed"] + job["coalesced"] + job["dropped"] == (
                job["submitted"]
            )
        sched.close()

    def test_drain_waits_for_a_running_follower_transform(self):
        """The slot and the idle state are released only after every
        future of a finished request resolved, transforms included."""
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            sched.register_job("B", slots=1)
            gate, in_transform, release = (threading.Event() for _ in range(3))

            def slow_transform(value):
                in_transform.set()
                release.wait(10)
                return value + 1

            sched.submit("A", lambda: gate.wait(10) and 1, key="k")
            follower = sched.submit(
                "B", lambda: 0, key="k", transform=slow_transform
            )
            gate.set()
            assert in_transform.wait(10)
            assert sched.drain(0.2) is False, "drained ahead of a result"
            release.set()
            assert sched.drain(10) is True
            assert follower.result(0) == 2

    def test_same_key_submit_while_resolving_runs_afresh(self):
        """A finished primary unpublishes its key before resolving, so a
        same-key submit made as its future resolves becomes a new primary
        instead of attaching to one nobody will resolve again."""
        sched = FairScheduler(capacity=1)
        sched.register_job("A", slots=1)
        gate = threading.Event()
        again: list = []
        first = sched.submit("A", lambda: gate.wait(10) and 1, key="k")
        first.add_done_callback(
            lambda _: again.append(sched.submit("A", lambda: 2, key="k"))
        )
        gate.set()
        try:
            assert first.result(10) == 1
            assert again[0].result(10) == 2
        finally:
            # Bounded: a follower stranded on a finished primary would
            # otherwise keep the drain waiting forever.
            sched.close(timeout=1)


# ---------------------------------------------------------------------------
# FairScheduler single-flight coalescing


class TestSingleFlightCoalescing:
    def test_identical_key_runs_once_and_resolves_every_future(self):
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            sched.register_job("B", slots=1)
            runs: list[int] = []
            gate = threading.Event()

            def work():
                runs.append(1)
                gate.wait(10)
                return 42

            primary = sched.submit("A", work, key="point")
            time.sleep(0.05)  # the primary is in flight
            follower = sched.submit(
                "B", lambda: 99, key="point", transform=lambda v: v + 1
            )
            gate.set()
            assert primary.result(10) == 42
            assert follower.result(10) == 43  # shared result, own transform
            assert runs == [1], "the follower must not run its own fn"
            stats = sched.stats()
            assert stats["coalesced_hits"] == 1
            assert stats["jobs"]["B"]["coalesced"] == 1
            assert stats["jobs"]["A"]["coalesced"] == 0

    def test_distinct_keys_do_not_coalesce(self):
        with FairScheduler(capacity=2) as sched:
            sched.register_job("A", slots=2)
            sched.register_job("B", slots=2)
            a = sched.submit("A", lambda: "a", key="ka")
            b = sched.submit("B", lambda: "b", key="kb")
            assert (a.result(10), b.result(10)) == ("a", "b")
            assert sched.stats()["coalesced_hits"] == 0

    def test_cancelling_the_primary_promotes_the_follower(self):
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            sched.register_job("B", slots=1)
            gate = threading.Event()
            blocker = sched.submit("A", lambda: gate.wait(10))
            time.sleep(0.05)
            ran: list[str] = []
            primary = sched.submit(
                "A", lambda: ran.append("A") or "from-A", key="point"
            )
            follower = sched.submit(
                "B", lambda: ran.append("B") or "from-B", key="point"
            )
            sched.cancel_job("A")
            gate.set()
            blocker.result(10)
            with pytest.raises(JobCancelledError):
                primary.result(10)
            # The follower is promoted to primary in its own lane and runs
            # its *own* fn — B never depends on the cancelled tenant.
            assert follower.result(10) == "from-B"
            assert ran == ["B"]


# ---------------------------------------------------------------------------
# EvaluatorFleet + facade


class TestEvaluatorFleet:
    @staticmethod
    def _spec():
        from repro.core.parallel import EvaluatorSpec
        from repro.core.session import DseSession
        from repro.designs import get_design

        session = DseSession(
            get_design("cv32e40p-fifo"), use_model=False, pretrain_size=0, seed=5
        )
        return EvaluatorSpec.from_evaluator(
            session.evaluator, design_name="cv32e40p-fifo"
        )

    def test_cross_tenant_memo_second_job_pays_nothing(self, tmp_path):
        spec = self._spec()
        fleet = EvaluatorFleet(store_root=str(tmp_path / "store"), shards=4)
        with FairScheduler(capacity=2) as sched:
            sched.register_job("A", slots=2)
            sched.register_job("B", slots=2)
            bound_a = fleet.bind(sched, "A", spec)
            bound_b = fleet.bind(sched, "B", spec)
            points = [{"DEPTH": 4}, {"DEPTH": 8}, {"DEPTH": 16}]
            first = bound_a.submit_many(points).results(on_error="return")
            second = bound_b.submit_many(points).results(on_error="return")
            assert bound_a.tenant_stats()["tool_runs"] == 3
            assert bound_b.tenant_stats()["tool_runs"] == 0
            assert bound_b.tenant_stats()["cache_hit_rate"] == 1.0
            for mine, theirs in zip(first, second):
                assert mine.metrics == theirs.metrics
        fleet.close()

    def test_concurrent_identical_batches_pay_one_bill(self, tmp_path):
        """Two tenants submitting the same points *while* they are in
        flight pay exactly one tool-run bill between them: the scheduler
        single-flights by evaluation cache key, so the followers' futures
        resolve from the primary's result as coalesced cache answers."""
        import dataclasses

        from repro.observe import telemetry_session

        # ~0.2s of emulated latency per fresh run keeps the first
        # tenant's evaluations in flight while the second one submits.
        spec = dataclasses.replace(self._spec(), emulate_tool_latency=0.002)
        fleet = EvaluatorFleet(store_root=str(tmp_path / "store"), shards=4)
        points = [{"DEPTH": 4}, {"DEPTH": 8}]
        with telemetry_session() as tel, FairScheduler(capacity=4) as sched:
            sched.register_job("A", slots=4)
            sched.register_job("B", slots=4)
            bound_a = fleet.bind(sched, "A", spec)
            bound_b = fleet.bind(sched, "B", spec)
            batch_a = bound_a.submit_many(points)
            batch_b = bound_b.submit_many(points)
            first = batch_a.results(on_error="return")
            second = batch_b.results(on_error="return")
            for mine, theirs in zip(first, second):
                assert mine.metrics == theirs.metrics
            stats_a = bound_a.tenant_stats()
            stats_b = bound_b.tenant_stats()
            assert stats_a["tool_runs"] == len(points)
            assert stats_b["tool_runs"] == 0
            assert stats_b["coalesced_hits"] == len(points)
            assert stats_b["cache_hit_rate"] == 1.0
            assert sched.stats()["coalesced_hits"] == len(points)
            assert tel.counters.get("serve.coalesced_hits") == len(points)
        fleet.close()

        # The shared store holds each unique answer exactly once.
        from repro.cache import open_store

        assert len(open_store(tmp_path / "store")) == len(points)

    def test_same_spec_shares_one_member(self, tmp_path):
        spec = self._spec()
        fleet = EvaluatorFleet()
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            sched.register_job("B", slots=1)
            a = fleet.bind(sched, "A", spec)
            b = fleet.bind(sched, "B", spec)
            assert a._member is b._member
            assert len(fleet.specs()) == 1
        fleet.close()

    def test_incremental_spec_is_refused(self):
        """Incremental results depend on evaluation order, which a shared
        member cannot keep: binding one fails instead of serializing."""
        import dataclasses

        spec = dataclasses.replace(self._spec(), incremental=True)
        fleet = EvaluatorFleet()
        with FairScheduler(capacity=1) as sched:
            sched.register_job("A", slots=1)
            with pytest.raises(ValueError, match="incremental"):
                fleet.bind(sched, "A", spec)
            assert fleet.specs() == []
        fleet.close()


# ---------------------------------------------------------------------------
# DseServer integration (the PR acceptance contract)


def _serial_reference():
    from repro.core.session import DseSession
    from repro.designs import get_design

    session = DseSession(
        get_design("cv32e40p-fifo"), use_model=False, pretrain_size=0, seed=5
    )
    try:
        return session.explore(generations=2, population=6)
    finally:
        session.close()


def _front_rows(result_path: str) -> list[tuple]:
    payload = json.loads(Path(result_path).read_text(encoding="utf-8"))
    return sorted(tuple(sorted(row.items())) for row in payload["pareto"])


class TestDseServerIntegration:
    def test_two_overlapping_jobs_shared_store_equivalence(self, tmp_path):
        """Fronts identical to serial; second tenant strictly cheaper."""
        server = DseServer(
            tmp_path / "svc", capacity=2, shards=4, poll_interval_s=0.05
        )
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        spec = JobSpec(
            design="cv32e40p-fifo",
            seed=5,
            generations=2,
            population=6,
            use_model=False,
        )
        first = queue.submit(spec)
        second = queue.submit(spec)
        stats = server.serve_forever(stop_after=2, max_idle_s=10.0)
        assert stats["jobs_done"] == 2
        assert stats["jobs_failed"] == 0

        reference = _serial_reference()
        reference_front = sorted(
            tuple(sorted(p.as_row().items())) for p in reference.pareto
        )
        job_a = queue.get(first.job_id)
        job_b = queue.get(second.job_id)
        assert job_a.state == JobState.DONE, job_a.error
        assert job_b.state == JobState.DONE, job_b.error
        assert _front_rows(job_a.result_path) == reference_front
        assert _front_rows(job_b.result_path) == reference_front

        # Cross-tenant economics: together the jobs pay exactly the serial
        # tool-run bill, and the later tenant pays strictly less than a
        # private-store run would have.
        paid = job_a.stats["tool_runs"] + job_b.stats["tool_runs"]
        assert paid == reference.tool_runs
        assert min(job_a.stats["tool_runs"], job_b.stats["tool_runs"]) < (
            reference.tool_runs
        )
        assert job_a.stats["cache_hits"] + job_b.stats["cache_hits"] > 0

        # The shared store holds every unique full-route answer once.
        from repro.cache import open_store

        store = open_store(tmp_path / "svc" / "store")
        assert len(store) == reference.tool_runs

    def test_adaptive_admission_same_fronts_same_bill(self, tmp_path):
        """``admission="adaptive"``, the keyword existing callers still
        pass, names the one claim loop: same fronts, same combined bill."""
        server = DseServer(
            tmp_path / "svc",
            capacity=2,
            shards=4,
            poll_interval_s=0.05,
            admission="adaptive",
        )
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        spec = JobSpec(
            design="cv32e40p-fifo",
            seed=5,
            generations=2,
            population=6,
            use_model=False,
        )
        first = queue.submit(spec)
        second = queue.submit(spec)
        stats = server.serve_forever(stop_after=2, max_idle_s=10.0)
        assert stats["jobs_done"] == 2
        assert stats["jobs_failed"] == 0

        reference = _serial_reference()
        reference_front = sorted(
            tuple(sorted(p.as_row().items())) for p in reference.pareto
        )
        job_a = queue.get(first.job_id)
        job_b = queue.get(second.job_id)
        assert job_a.state == JobState.DONE, job_a.error
        assert job_b.state == JobState.DONE, job_b.error
        assert _front_rows(job_a.result_path) == reference_front
        assert _front_rows(job_b.result_path) == reference_front
        paid = job_a.stats["tool_runs"] + job_b.stats["tool_runs"]
        assert paid == reference.tool_runs

        from repro.cache import open_store

        assert len(open_store(tmp_path / "svc" / "store")) == reference.tool_runs

    def test_submit_wakes_the_idle_claim_loop(self, tmp_path):
        """Event-driven claiming: a submit landing mid-wait is claimed at
        once, not at the next poll tick (which is 5s away here)."""
        server = DseServer(tmp_path / "svc", capacity=1, poll_interval_s=5.0)
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        done: dict[str, dict] = {}

        def run():
            done["stats"] = server.serve_forever(stop_after=1, max_idle_s=30.0)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            time.sleep(1.0)  # the first (empty) pass is over; loop is mid-wait
            submitted = time.monotonic()
            queue.submit(
                JobSpec(
                    design="cv32e40p-fifo",
                    seed=5,
                    generations=1,
                    population=4,
                    use_model=False,
                )
            )
            thread.join(30.0)
            elapsed = time.monotonic() - submitted
        finally:
            server.stop()
            thread.join(30.0)
        assert not thread.is_alive()
        assert done["stats"]["jobs_done"] == 1
        assert elapsed < 4.0, (
            f"submit->done took {elapsed:.2f}s with a 5s poll tick: the "
            "wake event did not short-circuit the wait"
        )

    def test_one_pass_claims_a_queued_burst(self, tmp_path):
        """Every queued job is claimed in one pass: no per-tick stagger
        (the heartbeat is 5s here), even with one evaluation slot."""
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        spec = JobSpec(
            design="cv32e40p-fifo",
            seed=5,
            generations=1,
            population=4,
            use_model=False,
        )
        records = [queue.submit(spec) for _ in range(3)]
        server = DseServer(tmp_path / "svc", capacity=1, poll_interval_s=5.0)
        stats = server.serve_forever(stop_after=3, max_idle_s=30.0)
        assert stats["jobs_done"] == 3
        started = [queue.get(r.job_id).started_at for r in records]
        assert max(started) - min(started) < 1.0, started

    @pytest.mark.parametrize("name", ["capacity", "slots_per_job", "poll_interval_s"])
    def test_bad_argument_is_refused_before_touching_disk(self, tmp_path, name):
        with pytest.raises(ValueError, match=name):
            DseServer(tmp_path / "fresh", **{name: 0})
        assert not (tmp_path / "fresh").exists()
        # Over an existing queue: nothing is created and nothing claimed.
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        record = queue.submit(JobSpec(design="cv32e40p-fifo"))
        with pytest.raises(ValueError, match=name):
            DseServer(tmp_path / "svc", **{name: 0})
        assert sorted(p.name for p in (tmp_path / "svc").iterdir()) == ["queue"]
        assert queue.get(record.job_id).state == JobState.QUEUED

    def test_admission_keyword_accepts_only_adaptive(self, tmp_path):
        with pytest.raises(ValueError, match="one event-driven claim loop"):
            DseServer(tmp_path / "svc", admission="fixed")
        assert not (tmp_path / "svc").exists()

    def test_coalescing_cannot_be_turned_off(self, tmp_path):
        """Serialized serving is ``capacity=1``, not an uncoalesced mode."""
        with pytest.raises(ValueError, match="capacity=1"):
            DseServer(tmp_path / "svc", coalesce=False)
        assert not (tmp_path / "svc").exists()

    def test_cancelled_queued_job_never_runs(self, tmp_path):
        server = DseServer(tmp_path / "svc", capacity=1, poll_interval_s=0.05)
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        record = queue.submit(
            JobSpec(design="cv32e40p-fifo", generations=1, population=4)
        )
        queue.cancel(record.job_id)
        server.serve_forever(stop_after=0, max_idle_s=0.3)
        assert queue.get(record.job_id).state == JobState.CANCELLED
        assert not (tmp_path / "svc" / "results" / record.job_id).exists()

    def test_failed_job_reports_and_server_survives(self, tmp_path):
        server = DseServer(tmp_path / "svc", capacity=1, poll_interval_s=0.05)
        queue = FileJobQueue(tmp_path / "svc" / "queue")
        bad = queue.submit(JobSpec(design="no-such-design"))
        good = queue.submit(
            JobSpec(
                design="cv32e40p-fifo",
                seed=5,
                generations=1,
                population=4,
                use_model=False,
            )
        )
        stats = server.serve_forever(stop_after=2, max_idle_s=10.0)
        assert stats["jobs_failed"] == 1
        assert stats["jobs_done"] == 1
        failed = queue.get(bad.job_id)
        assert failed.state == JobState.FAILED
        assert "no-such-design" in (failed.error or "")
        assert queue.get(good.job_id).state == JobState.DONE
