"""The serve fleet's tool workers: where they run, and how they end.

Every served tool run happens in one of the fleet's worker processes.
These tests pin their lifecycle from outside a real server process:

- a graceful stop (the ``STOP`` file) leaves no child process behind;
- a SIGKILLed server's workers exit on their own within 5 s;
- a Ctrl-C to the server's process group drains the running job: the
  workers leave the interrupt to the server, and ``dovado-repro serve``
  reports the drain and exits 0;
- a worker SIGKILLed mid-job costs nothing: the job finishes with the
  front an unkilled run gives, later jobs are served on a replacement
  pool, and the server still drains;

and, in-process, that a served session whose workers all died runs on
a replacement pool under the lock-order sanitizer, with the answers and
ledger origins of a serial session.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import FileJobQueue, JobSpec, JobState

REPO = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads the process table in /proc"
)

# A server with two tool workers; ``argv[2]`` is the emulated tool
# latency (wall seconds per simulated second).
_SERVER = """
import sys
from repro.serve import DseServer

server = DseServer(
    sys.argv[1], capacity=2, shards=2, poll_interval_s=0.05,
    emulate_tool_latency=float(sys.argv[2]),
)
print("ready", flush=True)
server.serve_forever()
"""


def _stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _descendants(pid: int) -> set[int]:
    """The live processes ``pid`` started, and the ones they started."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(int(entry.name))
            if fields is not None and fields[0] != "Z":
                parents[int(entry.name)] = int(fields[1])
    found: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {kid for kid, parent in parents.items() if parent in frontier}
        found |= frontier
    return found


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.05)


class _Server:
    """A served root and the server process draining it."""

    def __init__(self, root: Path, latency: float = 0.0) -> None:
        self.root = root
        self.queue = FileJobQueue(root / "queue")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVER, str(root), str(latency)],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        assert self.proc.stdout is not None
        assert self.proc.stdout.readline().strip() == "ready"
        # The fleet forks its workers before the server is ready.
        self.workers = _descendants(self.proc.pid)
        assert len(self.workers) == 2, self.workers

    def submit(self, seed: int) -> str:
        spec = JobSpec(
            design="cv32e40p-fifo", seed=seed, generations=1, population=4,
            use_model=False,
        )
        return self.queue.submit(spec).job_id

    def state(self, job_id: str) -> JobState:
        return self.queue.get(job_id).state

    def finished(self, job_id: str, timeout: float = 120.0):
        _wait_for(
            lambda: self.state(job_id) not in (JobState.QUEUED, JobState.RUNNING),
            timeout, f"job {job_id}",
        )
        return self.queue.get(job_id)

    def stop(self) -> int:
        """Graceful drain; the server's exit status."""
        (self.root / "STOP").touch()
        return self.proc.wait(timeout=60)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@pytest.fixture
def server_factory(tmp_path):
    servers: list[_Server] = []

    def make(latency: float = 0.0) -> _Server:
        servers.append(_Server(tmp_path / f"svc{len(servers)}", latency))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def _front(record) -> list[str]:
    payload = json.loads(Path(record.result_path).read_text(encoding="utf-8"))
    return sorted(json.dumps(row, sort_keys=True) for row in payload["pareto"])


def _reference_front(seed: int) -> list[str]:
    from repro.core.session import DseSession
    from repro.designs import get_design

    with DseSession(get_design("cv32e40p-fifo"), use_model=False, seed=seed) as s:
        result = s.explore(generations=1, population=4)
    return sorted(json.dumps(p.as_row(), sort_keys=True) for p in result.pareto)


def test_graceful_stop_leaves_no_child_process(server_factory):
    server = server_factory()
    job = server.finished(server.submit(seed=5))
    assert job.state == JobState.DONE, job.error
    assert job.stats["tool_runs"] > 0
    started = _descendants(server.proc.pid)
    assert started == server.workers
    assert server.stop() == 0
    _wait_for(
        lambda: not any(_alive(pid) for pid in started), 5.0, "the workers to exit"
    )


def test_killed_server_takes_its_workers_along(server_factory):
    server = server_factory(latency=0.01)
    job_id = server.submit(seed=5)
    _wait_for(lambda: server.state(job_id) == JobState.RUNNING, 60.0, "the claim")
    time.sleep(0.5)
    server.proc.kill()
    server.proc.wait(timeout=10)
    _wait_for(
        lambda: not any(_alive(pid) for pid in server.workers),
        5.0, "the workers of a killed server to exit",
    )


def test_ctrl_c_drains_the_running_job(server_factory):
    """A terminal's Ctrl-C reaches the server's whole process group: the
    workers ignore it, and the server drains its running job on them."""
    server = server_factory(latency=0.005)
    job_id = server.submit(seed=5)
    _wait_for(lambda: server.state(job_id) == JobState.RUNNING, 60.0, "the claim")
    time.sleep(1.0)  # the session is built; a run is in flight
    os.killpg(server.proc.pid, signal.SIGINT)
    server.proc.wait(timeout=60)
    job = server.queue.get(job_id)
    assert job.state == JobState.DONE, job.error
    assert _front(job) == _reference_front(seed=5)
    _wait_for(
        lambda: not any(_alive(pid) for pid in server.workers), 5.0,
        "the workers to exit",
    )


def test_cli_ctrl_c_drains_and_reports(tmp_path):
    """Ctrl-C to ``dovado-repro serve`` is a stop: the running job ends
    ``done``, the server prints its ``drained:`` line and exits 0."""
    root = tmp_path / "svc"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli", "serve", "--root", str(root),
         "--capacity", "1", "--poll-interval", "0.05"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        assert proc.stdout is not None
        assert proc.stdout.readline().startswith("serving from")
        queue = FileJobQueue(root / "queue")
        job_id = queue.submit(JobSpec(
            design="cv32e40p-fifo", seed=5, generations=60, population=24,
        )).job_id
        _wait_for(
            lambda: queue.get(job_id).state == JobState.RUNNING, 60.0, "the claim"
        )
        time.sleep(1.0)  # the session is built; a run is in flight
        assert queue.get(job_id).state == JobState.RUNNING
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert proc.returncode == 0, err
    assert "drained: done=1 failed=0 cancelled=0" in out
    assert "KeyboardInterrupt" not in err
    job = queue.get(job_id)
    assert job.state == JobState.DONE, job.error


def test_killed_worker_mid_job_is_replaced(server_factory):
    server = server_factory(latency=0.005)
    first = server.submit(seed=5)
    _wait_for(lambda: server.state(first) == JobState.RUNNING, 60.0, "the claim")
    time.sleep(1.0)  # the session is built; a run is in flight
    victim = min(server.workers)
    os.kill(victim, signal.SIGKILL)
    job = server.finished(first)
    assert job.state == JobState.DONE, job.error
    assert _front(job) == _reference_front(seed=5)

    later = server.finished(server.submit(seed=6))
    assert later.state == JobState.DONE, later.error
    assert _front(later) == _reference_front(seed=6)
    replacement = _descendants(server.proc.pid)
    assert replacement and not replacement & server.workers

    assert server.stop() == 0
    _wait_for(
        lambda: not any(_alive(pid) for pid in replacement), 5.0,
        "the replacement pool to exit",
    )


def test_served_session_survives_dead_workers_under_the_sanitizer():
    """A served session on two workers gives a serial session's front
    and ledger; after every worker is killed, the next points run on a
    replacement pool and equal the serial evaluator's answers."""
    from repro.core.parallel import EvaluatorSpec
    from repro.core.session import DseSession
    from repro.designs import get_design
    from repro.observe import telemetry_session
    from repro.serve import EvaluatorFleet, FairScheduler
    from tests._sanitize_support import lock_order_guard

    design = get_design("cv32e40p-fifo")
    later = [{"DEPTH": 4}, {"DEPTH": 40}]

    def ledger(tel):
        # Two workers finish in either order: compare the rows as a set.
        return sorted(
            repr((r.outcome, r.origin, sorted(r.params.items()), r.metrics))
            for r in tel.ledger.records
        )

    with telemetry_session() as tel:
        with DseSession(design, use_model=False, seed=5) as session:
            front = session.explore(2, 6, pretrain=False).pareto
            spec = EvaluatorSpec.from_evaluator(
                session.evaluator, design_name="cv32e40p-fifo"
            )
    serial_rows = ledger(tel)
    expected = [spec.build().evaluate(p) for p in later]

    with lock_order_guard():
        fleet = EvaluatorFleet(workers=2)
        try:
            with FairScheduler(capacity=2) as scheduler:
                scheduler.register_job("A", slots=2)
                bound = fleet.bind(scheduler, "A", spec)
                with telemetry_session() as tel:
                    with DseSession(design, use_model=False, seed=5) as session:
                        session.fitness.set_batch_evaluator(bound)
                        served_front = session.explore(2, 6, pretrain=False).pareto
                assert served_front == front
                assert ledger(tel) == serial_rows

                pids = list(fleet._tools._executor._processes)
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                _wait_for(
                    lambda: not any(_alive(pid) for pid in pids), 5.0,
                    "the killed workers",
                )
                with telemetry_session() as tel:
                    answers = bound.evaluate_many(later)
                assert tel.counters.get("serve.pool_restarts") == 1
        finally:
            fleet.close()
    assert answers == expected
