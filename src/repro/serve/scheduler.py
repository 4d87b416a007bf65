"""The fair scheduler multiplexing jobs over one worker pool.

This is the engine/scheduler/downloader split the ROADMAP points at
(scrapy's architecture): sessions *produce* evaluation requests, the
scheduler decides *which* request runs next, and a bounded thread pool
*executes* them.  One :class:`FairScheduler` serves every job in the
server process:

- **Per-job lanes.**  Each registered job gets a FIFO lane plus a slot
  limit — the most evaluations it may have running at once — so a wide
  job cannot monopolize the pool.
- **Fair round-robin dispatch.**  Claiming walks the lane rotation,
  taking at most one request per lane per turn; two jobs with queued
  work interleave 1:1 regardless of how fast either enqueues.
- **Backpressure.**  The pool has a hard capacity; when it saturates,
  requests queue in their lane, and each lane itself is bounded
  (``max_pending``): a producer thread calling :meth:`submit` blocks
  once its job has that many requests queued or running.  Sessions
  therefore slow down to the pool's pace instead of ballooning memory.
- **Single-flight coalescing.**  Requests submitted with a ``key``
  dedup in flight: the first keyed request is the *primary* that takes
  an executor slot; later same-key requests from any lane attach to it
  as followers and resolve from its result (optionally through a
  per-follower ``transform``).  N tenants racing on one configuration
  pay one run, charged to the lane that dispatched it, while each
  follower lane records a ``coalesced`` answer.
- **Cancel.**  Cancelling a job fails its queued requests fast with
  :class:`JobCancelledError` (in-flight evaluations finish — a tool run
  is not preemptible — and their results still land in the shared
  store for future tenants).
- **Graceful drain.**  :meth:`drain` stops intake and waits for every
  accepted request to resolve, so shutdown never abandons a session
  mid-batch.

The scheduler is a monitor: one lock guards the lanes, the rotation and
the single-flight table, and every public method is thread-safe.  There
is no dispatcher thread.  :meth:`submit` claims a fair round on the
caller's thread, and a pool thread that finishes a request claims the
next round itself.  The lock is a leaf: futures are resolved, follower
transforms run, and work is handed to the pool only after it is
released.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError

__all__ = ["FairScheduler", "JobCancelledError", "SchedulerClosed"]


class JobCancelledError(ReproError):
    """A queued evaluation request was dropped because its job was cancelled."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id} was cancelled")
        self.job_id = job_id


class SchedulerClosed(ReproError):
    """A request was submitted after the scheduler stopped accepting work."""


@dataclass
class _Lane:
    """One job's view of the scheduler (mutated only under the scheduler lock)."""

    job_id: str
    slots: int
    queue: deque[_Request] = field(default_factory=deque)
    running: int = 0
    cancelled: bool = False
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    #: Requests answered by another lane's run via single-flight
    #: coalescing — this lane never occupied an executor slot for them.
    coalesced: int = 0
    # Producer-side backpressure: queued + running per job is bounded.
    gate: threading.Semaphore | None = None


@dataclass
class _Request:
    """One accepted request: queued or running as a primary, or riding
    on another request's run as one of its followers.

    A follower keeps its own ``fn`` so it can be *promoted* to a primary
    if the lane that dispatched the shared run cancels before it
    completes; its ``transform`` reshapes the primary's result into this
    tenant's answer (e.g. cache-pricing a shared evaluation).
    """

    lane: _Lane
    fn: Callable[[], Any]
    future: Future[Any]
    #: Single-flight key: requests sharing a non-None key coalesce onto
    #: whichever of them is queued or running first.
    key: Any = None
    transform: Callable[[Any], Any] | None = None
    followers: list[_Request] = field(default_factory=list)


def _resolve(
    future: Future[Any],
    value: Any,
    error: BaseException | None,
    transform: Callable[[Any], Any] | None = None,
) -> None:
    """Settle *future* with a run's outcome, through *transform* if given."""
    if error is None and transform is not None:
        try:
            value = transform(value)
        except BaseException as exc:  # noqa: BLE001 - surfaced on the future
            error = exc
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)


def _fail(requests: list[_Request]) -> None:
    """Fail dropped requests fast with their job's cancellation."""
    for request in requests:
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(JobCancelledError(request.lane.job_id))


class FairScheduler:
    """Round-robin multiplexer of per-job request lanes over a thread pool."""

    def __init__(self, capacity: int = 4, max_pending: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.capacity = capacity
        self.max_pending = max_pending
        self._executor = ThreadPoolExecutor(max_workers=capacity)
        # The monitor lock guards every field below.
        self._lock = threading.Lock()
        self._lanes: dict[str, _Lane] = {}
        self._rotation: deque[str] = deque()
        # Single-flight table: key -> the primary request (queued or
        # running) that later keyed submits attach to as followers.
        self._inflight_keys: dict[Any, _Request] = {}
        self._coalesced_total = 0
        self._in_flight = 0
        self._peak_in_flight = 0
        # Accepted requests whose futures are not resolved yet; drain
        # waits for this to reach zero.
        self._pending = 0
        self._draining = False
        self._idle = threading.Event()
        self._idle.set()

    # -- claiming and running ---------------------------------------------

    def _claim(self) -> list[_Request]:
        """Take the next fair round off the lanes, up to the free capacity."""
        claimed: list[_Request] = []
        with self._lock:
            # Walk the rotation until a full pass makes no progress: at
            # most one claim per lane per pass is what makes the schedule
            # fair — a lane with 50 queued requests advances no faster
            # per turn than one with a single request.
            progress = True
            while progress and self._in_flight < self.capacity:
                progress = False
                for _ in range(len(self._rotation)):
                    if self._in_flight >= self.capacity:
                        break
                    lane = self._lanes[self._rotation[0]]
                    self._rotation.rotate(-1)
                    if not lane.queue or lane.running >= lane.slots:
                        continue
                    claimed.append(lane.queue.popleft())
                    lane.running += 1
                    self._in_flight += 1
                    progress = True
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
        return claimed

    def _start(self, claimed: list[_Request]) -> None:
        for request in claimed:
            self._executor.submit(self._run, request)

    def _run(self, request: _Request) -> None:
        """Pool thread: run one claimed request, then claim the next round.

        Handing the next round to the pool (rather than running it here)
        keeps a chain of instantly finishing requests off the stack.
        """
        if request.future.set_running_or_notify_cancel():
            value: Any = None
            error: BaseException | None = None
            try:
                value = request.fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced on the future
                error = exc
            # Unpublish the key before resolving, so a same-key submit
            # never attaches to a primary nobody will resolve again.
            with self._lock:
                if self._inflight_keys.get(request.key) is request:
                    del self._inflight_keys[request.key]
                settled, request.followers = request.followers, []
                self._coalesced_total += len(settled)
                for follower in settled:
                    follower.lane.coalesced += 1
            _resolve(request.future, value, error)
            for follower in settled:
                if follower.future.set_running_or_notify_cancel():
                    _resolve(follower.future, value, error, follower.transform)
        else:  # its owner cancelled the future while it queued
            settled = self._drop(request)
            _fail(settled)
        self._settle([request, *settled], ran=request)
        self._start(self._claim())

    def _drop(self, request: _Request) -> list[_Request]:
        """A keyed primary left the queue unrun: promote a follower.

        The first follower whose lane is still live becomes the new
        primary for the key — queued at the *front* of its own lane (it
        already waited its turn attached to the dropped request) with the
        remaining followers carried over.  Returns the followers of
        cancelled lanes, which the caller fails.
        """
        dead: list[_Request] = []
        with self._lock:
            if self._inflight_keys.get(request.key) is request:
                del self._inflight_keys[request.key]
            followers, request.followers = request.followers, []
            while followers:
                follower = followers.pop(0)
                if follower.lane.cancelled:
                    follower.lane.dropped += 1
                    dead.append(follower)
                    continue
                follower.followers = followers
                self._inflight_keys[request.key] = follower
                follower.lane.queue.appendleft(follower)
                break
        return dead

    def _settle(self, resolved: list[_Request], ran: _Request | None = None) -> None:
        """Every future in *resolved* is done: free their backpressure, and
        the executor slot *ran* held; the last one marks the scheduler idle."""
        with self._lock:
            if ran is not None:
                self._in_flight -= 1
                ran.lane.running -= 1
                ran.lane.completed += 1
            self._pending -= len(resolved)
            if not self._pending:
                self._idle.set()
        for request in resolved:
            if request.lane.gate is not None:
                request.lane.gate.release()

    # -- public (any thread) ----------------------------------------------

    def register_job(self, job_id: str, slots: int = 1) -> None:
        """Create the job's lane; ``slots`` caps its concurrent evaluations."""
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        gate = (
            threading.Semaphore(self.max_pending)
            if self.max_pending is not None
            else None
        )
        with self._lock:
            if self._draining:
                raise SchedulerClosed("scheduler is draining; no new jobs")
            if job_id in self._lanes:
                raise ValueError(f"job {job_id!r} already registered")
            self._lanes[job_id] = _Lane(job_id, slots=slots, gate=gate)
            self._rotation.append(job_id)

    def unregister_job(self, job_id: str) -> None:
        """Drop a job's lane (cancels anything still queued)."""
        self.cancel_job(job_id)
        with self._lock:
            if self._lanes.pop(job_id, None) is not None:
                self._rotation.remove(job_id)

    def submit(
        self,
        job_id: str,
        fn: Callable[[], Any],
        *,
        key: Any = None,
        transform: Callable[[Any], Any] | None = None,
    ) -> Future[Any]:
        """Enqueue one evaluation request for *job_id*; returns its future.

        Blocks the calling thread while the job is at its ``max_pending``
        bound — that is the backpressure propagating to the session.

        A non-None *key* opts the request into single-flight coalescing:
        if another request with the same key is already queued or running,
        this one attaches to it as a follower — no executor slot, no
        duplicate ``fn()`` — and resolves with ``transform(result)`` (or
        the shared result verbatim) when the primary finishes.  The run
        is charged to the lane that dispatched it; the follower's lane
        counts a ``coalesced`` answer instead.  Followers still hold
        their backpressure slot until resolution, and a cancelled
        primary's followers are promoted rather than dropped.
        """
        future: Future[Any] = Future()
        with self._lock:
            lane = self._lanes.get(job_id)
        if lane is None:
            future.set_exception(SchedulerClosed(f"job {job_id!r} is not registered"))
            return future
        if lane.gate is not None:
            lane.gate.acquire()
        request = _Request(lane, fn, future, key, transform)
        error: ReproError | None = None
        with self._lock:
            if lane.cancelled:
                error = JobCancelledError(job_id)
            elif self._draining:
                error = SchedulerClosed("scheduler is draining; request rejected")
            else:
                lane.submitted += 1
                self._pending += 1
                self._idle.clear()
                primary = self._inflight_keys.get(key) if key is not None else None
                if primary is not None:
                    primary.followers.append(request)
                else:
                    if key is not None:
                        self._inflight_keys[key] = request
                    lane.queue.append(request)
        if error is not None:
            if lane.gate is not None:
                lane.gate.release()
            future.set_exception(error)
            return future
        self._start(self._claim())
        return future

    def cancel_job(self, job_id: str) -> int:
        """Fail the job's queued requests fast; returns how many dropped.

        In-flight evaluations are left to finish: a tool run is not
        preemptible, and its result is still a store/memo asset.
        """
        with self._lock:
            lane = self._lanes.get(job_id)
            if lane is None:
                return 0
            lane.cancelled = True
            queued = list(lane.queue)
            lane.queue.clear()
            # Followers of *this* job attached to any primary fail fast
            # too (another lane's shared run keeps going — it is some
            # other tenant's answer).
            riders: list[_Request] = []
            for primary in self._inflight_keys.values():
                riders += [f for f in primary.followers if f.lane is lane]
                primary.followers = [
                    f for f in primary.followers if f.lane is not lane
                ]
            lane.dropped += len(queued) + len(riders)
        dead = queued + riders
        # Another lane's followers riding on a dropped primary are not
        # cancelled — the front survivor is promoted in its place.
        for request in queued:
            dead += self._drop(request)
        _fail(dead)
        self._settle(dead)
        self._start(self._claim())
        return len(queued) + len(riders)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop intake and wait until every accepted request resolved."""
        with self._lock:
            self._draining = True
        return self._idle.wait(timeout)

    def close(self, timeout: float | None = None) -> bool:
        """Drain, then stop the worker pool."""
        drained = self.drain(timeout)
        self._executor.shutdown(wait=True)
        return drained

    def __enter__(self) -> "FairScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict[str, Any]:
        """Point-in-time snapshot (consistent: taken under the lock).

        The server reads ``coalesced_hits`` for its drain report; the
        rest is for callers and tests watching load and fairness.
        """
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "peak_in_flight": self._peak_in_flight,
                "queue_depth": sum(
                    len(lane.queue) for lane in self._lanes.values()
                ),
                "coalesced_hits": self._coalesced_total,
                "draining": self._draining,
                "jobs": {
                    job_id: {
                        "slots": lane.slots,
                        "queued": len(lane.queue),
                        "running": lane.running,
                        "submitted": lane.submitted,
                        "completed": lane.completed,
                        "dropped": lane.dropped,
                        "coalesced": lane.coalesced,
                        "cancelled": lane.cancelled,
                    }
                    for job_id, lane in self._lanes.items()
                },
            }
