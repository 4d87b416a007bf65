"""The filesystem job queue: client ↔ server handoff without a socket.

Layout::

    <root>/COUNTER            # next job ordinal (read-modify-write under flock)
    <root>/.lock              # the queue's writer lock file
    <root>/queued/job-000001.json
    <root>/running/job-000002.json
    <root>/running/job-000002.cancel   # cancel marker for a running job
    <root>/done/job-000000.json

Every transition is an atomic ``os.replace`` of the job's JSON file
between state directories, so a client and a server (or two servers)
never see a half-written record and never claim the same job twice: the
claim is ``replace(queued/x, running/x)``, which exactly one process
wins.  Job ids are dense ordinals assigned under the lock, so queue
order is submission order.

Cancellation is cooperative: cancelling a *queued* job moves its file
straight to ``done/`` as cancelled; cancelling a *running* job drops a
``.cancel`` marker next to the running record, which the server polls
and translates into a scheduler-level cancel (in-flight evaluations
finish, everything pending fails fast).

Submission wake-ups: every ``submit`` bumps the mtime of a ``SUBMIT``
stamp file at the queue root and fires any in-process listeners
registered for that root.  A listener wakes a server in the same
process at once.  A submitter in another process can only bump the
stamp, which the server compares (:meth:`FileJobQueue.submit_stamp_ns`)
between passes, so its job is claimed at the next heartbeat — within
one poll interval.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.observe import current_telemetry
from repro.serve.jobs import JobRecord, JobSpec, JobState

try:  # pragma: no branch
    import fcntl

    _HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    _HAVE_FLOCK = False

__all__ = [
    "FileJobQueue",
    "add_submit_listener",
    "remove_submit_listener",
]


def _count(name: str, value: float = 1) -> None:
    tel = current_telemetry()
    if tel is not None:
        tel.counters.add(name, value)


# In-process submit listeners, keyed by resolved queue root.  A server
# colocated with its submitters (tests, benchmarks, library embedding)
# gets microsecond wake-ups; remote submitters still reach it through
# the SUBMIT stamp mtime.
_submit_listeners: dict[str, list[Callable[[], None]]] = {}
_listeners_lock = threading.Lock()


def _root_key(root: str | Path) -> str:
    return str(Path(root).resolve())


def add_submit_listener(root: str | Path, listener: Callable[[], None]) -> None:
    """Fire *listener* after every in-process submit to *root*'s queue."""
    with _listeners_lock:
        _submit_listeners.setdefault(_root_key(root), []).append(listener)


def remove_submit_listener(
    root: str | Path, listener: Callable[[], None]
) -> None:
    with _listeners_lock:
        listeners = _submit_listeners.get(_root_key(root))
        if listeners is None:
            return
        try:
            listeners.remove(listener)
        except ValueError:
            pass
        if not listeners:
            del _submit_listeners[_root_key(root)]

_STATE_DIRS = {
    JobState.QUEUED: "queued",
    JobState.RUNNING: "running",
    JobState.DONE: "done",
    JobState.FAILED: "done",
    JobState.CANCELLED: "done",
}


class FileJobQueue:
    """Multi-process job queue over atomic file renames."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        for sub in ("queued", "running", "done"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self._lock_path = self.root / ".lock"
        self._counter_path = self.root / "COUNTER"
        self._stamp_path = self.root / "SUBMIT"

    @contextmanager
    def _locked(self) -> Iterator[None]:
        self._lock_path.touch(exist_ok=True)
        with self._lock_path.open("r+") as fh:
            if _HAVE_FLOCK:
                fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                if _HAVE_FLOCK:
                    fcntl.flock(fh, fcntl.LOCK_UN)

    def _next_id(self) -> str:
        # The read-modify-write is atomic *and* durable: the new count is
        # fsynced to a tmp file and published with os.replace, so a crash
        # anywhere in the window leaves either the old or the new COUNTER
        # intact — never a truncated file that would restart ordinals at 0
        # and hand a duplicate job id to the next submitter.
        with self._locked():
            try:
                current = int(self._counter_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                current = 0
            tmp = self._counter_path.with_suffix(".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(str(current + 1))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._counter_path)
        return f"job-{current:06d}"

    def _path(self, state: JobState, job_id: str) -> Path:
        return self.root / _STATE_DIRS[state] / f"{job_id}.json"

    def _write(self, record: JobRecord) -> Path:
        """Atomically (re)write a record into its state directory."""
        path = self._path(record.state, record.job_id)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(record.as_dict(), indent=2, sort_keys=True) + "\n"
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    @staticmethod
    def _read(path: Path) -> JobRecord | None:
        try:
            return JobRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            # Mid-rename or half-written by a crashed writer: skip, the
            # owner (or the next scan) will see it settled.
            return None

    # -- client side -----------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue a job; returns the queued record (with its id)."""
        record = JobRecord(
            job_id=self._next_id(),
            spec=spec,
            state=JobState.QUEUED,
            submitted_at=time.time(),
        )
        self._write(record)
        self._notify_submit()
        return record

    def _notify_submit(self) -> None:
        # The stamp is touched *after* the record is visible in queued/,
        # so a server woken by the mtime change always finds the job.
        self._stamp_path.touch(exist_ok=True)
        with _listeners_lock:
            listeners = list(_submit_listeners.get(_root_key(self.root), ()))
        for listener in listeners:
            listener()

    def submit_stamp_ns(self) -> int:
        """mtime (ns) of the SUBMIT stamp — 0 before the first submit."""
        try:
            return self._stamp_path.stat().st_mtime_ns
        except OSError:
            return 0

    def cancel(self, job_id: str) -> JobState | None:
        """Request cancellation; returns the state the request landed on.

        Queued jobs cancel immediately (their file moves to ``done/``);
        running jobs get a marker the server acts on; terminal jobs are
        left alone.  ``None`` means the id is unknown.
        """
        with self._locked():
            queued = self._path(JobState.QUEUED, job_id)
            record = self._read(queued)
            if record is not None:
                record.state = JobState.CANCELLED
                record.finished_at = time.time()
                self._write(record)
                queued.unlink(missing_ok=True)
                return JobState.CANCELLED
            running = self._path(JobState.RUNNING, job_id)
            if running.exists():
                running.with_suffix(".cancel").touch()
                return JobState.RUNNING
            done = self._path(JobState.DONE, job_id)
            done_record = self._read(done)
            if done_record is not None:
                return done_record.state
        return None

    def get(self, job_id: str) -> JobRecord | None:
        for state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE):
            record = self._read(self._path(state, job_id))
            if record is not None:
                return record
        return None

    def jobs(self) -> list[JobRecord]:
        """Every known job, submission order."""
        out: list[JobRecord] = []
        for sub in ("queued", "running", "done"):
            for path in (self.root / sub).glob("job-*.json"):
                record = self._read(path)
                if record is not None:
                    out.append(record)
        out.sort(key=lambda r: r.job_id)
        return out

    def depth(self) -> int:
        """Number of jobs waiting to be claimed."""
        return len(self._scan_queued())

    # -- server side -----------------------------------------------------

    def _scan_queued(self) -> list[Path]:
        """One sorted listing of ``queued/`` — the per-pass scan.

        Every queue operation that needs queued entries shares this scan,
        and ``serve.claim_scan_entries`` counts what it walked, so the
        directory-scan cost of the serve loop is visible in traces.
        """
        entries = sorted((self.root / "queued").glob("job-*.json"))
        _count("serve.claim_scan_entries", len(entries))
        return entries

    def claim_many(self, limit: int | None = None) -> list[JobRecord]:
        """Atomically claim the oldest queued jobs (all, or up to *limit*)
        via one scan.

        The winning rename moves each file into ``running/`` before the
        record is rewritten, so a competing server loses the race with an
        ``OSError`` and simply tries the next file.
        """
        claimed: list[JobRecord] = []
        if limit is not None and limit < 1:
            return claimed
        for path in self._scan_queued():
            if limit is not None and len(claimed) >= limit:
                break
            target = self.root / "running" / path.name
            try:
                os.replace(path, target)
            except OSError:
                continue  # another server claimed it first
            record = self._read(target)
            if record is None:
                continue
            record.state = JobState.RUNNING
            record.started_at = time.time()
            self._write(record)
            claimed.append(record)
        return claimed

    def claim(self) -> JobRecord | None:
        """Atomically claim the oldest queued job, or None when idle."""
        claimed = self.claim_many(1)
        return claimed[0] if claimed else None

    def cancel_requested(self, job_id: str) -> bool:
        """True when a ``.cancel`` marker exists for a running job."""
        return self._path(JobState.RUNNING, job_id).with_suffix(".cancel").exists()

    def finish(
        self,
        job_id: str,
        state: JobState,
        *,
        error: str | None = None,
        result_path: str | None = None,
        stats: dict[str, Any] | None = None,
    ) -> JobRecord | None:
        """Move a running job to its terminal record."""
        if not state.terminal:
            raise ValueError(f"finish() needs a terminal state, got {state}")
        running = self._path(JobState.RUNNING, job_id)
        record = self._read(running)
        if record is None:
            return None
        record.state = state
        record.finished_at = time.time()
        record.error = error
        record.result_path = result_path
        if stats:
            record.stats.update(stats)
        self._write(record)
        running.unlink(missing_ok=True)
        running.with_suffix(".cancel").unlink(missing_ok=True)
        return record
