"""S-series concurrency/atomicity rules: fixtures, self-analysis, reverts.

Every rule gets a positive (flagging) and a negative (clean) synthetic
fixture; the self-analysis tests pin the repo's own service layer clean at
HEAD; the revert tests undo each of the three PR 8 store correctness fixes
textually and assert the analyzer reports the corresponding S-finding —
the rules would have caught those bugs before review did.
"""

from __future__ import annotations

import json

from repro.analysis import (
    SEEDED_LOCK_ORDER,
    DesignRuleChecker,
    collect_py_sources,
    static_lock_graph,
)
from repro.core.cli import main


def check(*sources: tuple[str, str]):
    """Run the CONCURRENCY stage over synthetic ``(path, text)`` pairs."""
    return list(DesignRuleChecker().check_python(list(sources)).findings)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# --------------------------------------------------------------------------
# S001: blocking calls on the event loop / in poll loops
# --------------------------------------------------------------------------


class TestS001:
    def test_blocking_call_in_async_def_flagged(self):
        src = (
            "import time\n"
            "\n"
            "async def poll():\n"
            "    time.sleep(0.1)\n"
        )
        findings = check(("app/loop.py", src))
        assert codes(findings) == ["S001"]
        assert findings[0].line == 4
        assert "time.sleep" in findings[0].message

    def test_blocking_call_reached_through_helper(self):
        src = (
            "import subprocess\n"
            "\n"
            "def run_tool():\n"
            "    subprocess.run(['true'])\n"
            "\n"
            "async def drive():\n"
            "    run_tool()\n"
        )
        findings = check(("app/loop.py", src))
        assert codes(findings) == ["S001"]
        assert "reached from" in findings[0].message

    def test_async_sleep_and_executor_offload_clean(self):
        src = (
            "import asyncio\n"
            "import time\n"
            "\n"
            "async def poll(loop):\n"
            "    await asyncio.sleep(0.1)\n"
            "    await loop.run_in_executor(None, time.sleep, 0.1)\n"
        )
        assert check(("app/loop.py", src)) == []

    def test_poll_loop_sleep_with_owned_event_flagged(self):
        src = (
            "import threading\n"
            "import time\n"
            "\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._stop = threading.Event()\n"
            "\n"
            "    def run(self):\n"
            "        while not self._stop.is_set():\n"
            "            time.sleep(0.5)\n"
        )
        findings = check(("app/worker.py", src))
        assert codes(findings) == ["S001"]
        assert "self._stop.wait" in findings[0].message

    def test_poll_loop_event_wait_clean(self):
        src = (
            "import threading\n"
            "\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._stop = threading.Event()\n"
            "\n"
            "    def run(self):\n"
            "        while not self._stop.is_set():\n"
            "            self._stop.wait(0.5)\n"
        )
        assert check(("app/worker.py", src)) == []


# --------------------------------------------------------------------------
# S002: lock/flock acquired outside with / try-finally
# --------------------------------------------------------------------------

_S002_BASE = (
    "import threading\n"
    "\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.n = 0\n"
    "\n"
)


class TestS002:
    def test_bare_acquire_release_flagged(self):
        src = _S002_BASE + (
            "    def bump(self):\n"
            "        self._lock.acquire()\n"
            "        self.n += 1\n"
            "        self._lock.release()\n"
        )
        findings = check(("app/box.py", src))
        assert codes(findings) == ["S002"]
        assert "self._lock" in findings[0].message

    def test_try_finally_release_clean(self):
        src = _S002_BASE + (
            "    def bump(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self.n += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        )
        assert check(("app/box.py", src)) == []

    def test_with_statement_clean(self):
        src = _S002_BASE + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        assert check(("app/box.py", src)) == []

    def test_bare_flock_flagged(self):
        src = (
            "import fcntl\n"
            "\n"
            "class Q:\n"
            "    def touch(self, fh):\n"
            "        fcntl.flock(fh, fcntl.LOCK_EX)\n"
            "        fh.write('x')\n"
            "        fcntl.flock(fh, fcntl.LOCK_UN)\n"
        )
        findings = check(("app/q.py", src))
        assert "S002" in codes(findings)

    def test_flock_in_try_finally_clean(self):
        src = (
            "import fcntl\n"
            "\n"
            "class Q:\n"
            "    def touch(self, fh):\n"
            "        fcntl.flock(fh, fcntl.LOCK_EX)\n"
            "        try:\n"
            "            fh.write('x')\n"
            "        finally:\n"
            "            fcntl.flock(fh, fcntl.LOCK_UN)\n"
        )
        assert "S002" not in codes(check(("app/q.py", src)))


# --------------------------------------------------------------------------
# S003: lock-order cycles
# --------------------------------------------------------------------------

_S003_HEAD = (
    "import threading\n"
    "\n"
    "class Pair:\n"
    "    def __init__(self):\n"
    "        self._a = threading.Lock()\n"
    "        self._b = threading.Lock()\n"
    "\n"
    "    def fwd(self):\n"
    "        with self._a:\n"
    "            with self._b:\n"
    "                pass\n"
)


class TestS003:
    def test_opposite_orders_flagged(self):
        src = _S003_HEAD + (
            "\n"
            "    def rev(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        findings = check(("app/pair.py", src))
        assert codes(findings) == ["S003"]
        assert "Pair._a" in findings[0].message
        assert "Pair._b" in findings[0].message

    def test_consistent_order_clean(self):
        assert check(("app/pair.py", _S003_HEAD)) == []

    def test_interprocedural_order_builds_edges(self):
        src = _S003_HEAD + (
            "\n"
            "    def outer(self):\n"
            "        with self._b:\n"
            "            self.helper()\n"
            "\n"
            "    def helper(self):\n"
            "        with self._a:\n"
            "            pass\n"
        )
        findings = check(("app/pair.py", src))
        assert codes(findings) == ["S003"]

    def test_module_level_instance_calls_resolve(self):
        src = (
            "import threading\n"
            "\n"
            "class Memo:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def touch(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "\n"
            "_MEMO = Memo()\n"
            "\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "\n"
            "    def read(self):\n"
            "        with self._a:\n"
            "            _MEMO.touch()\n"
        )
        graph = static_lock_graph([("app/memo.py", src)])
        assert graph.has_edge("app/memo.py::Store._a", "app/memo.py::Memo._lock")

    def test_synthetic_lock_graph_shape(self):
        graph = static_lock_graph([("app/pair.py", _S003_HEAD)])
        assert set(graph.nodes) == {
            "app/pair.py::Pair._a",
            "app/pair.py::Pair._b",
        }
        assert graph.has_edge("app/pair.py::Pair._a", "app/pair.py::Pair._b")
        assert graph.cycles() == []


# --------------------------------------------------------------------------
# S004: unguarded shared read-modify-write
# --------------------------------------------------------------------------

_S004_HEAD = (
    "import threading\n"
    "\n"
    "class Stats:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.done = 0\n"
    "\n"
    "    def start(self):\n"
    "        t = threading.Thread(target=self._work)\n"
    "        t.start()\n"
    "\n"
    "    def snapshot(self):\n"
    "        with self._lock:\n"
    "            return self.done\n"
    "\n"
)

#: Same class, but the snapshot read skips the lock the writer holds.
_S004_HEAD_LOCKLESS_READ = _S004_HEAD.replace(
    "    def snapshot(self):\n"
    "        with self._lock:\n"
    "            return self.done\n",
    "    def snapshot(self):\n"
    "        return self.done\n",
)


class TestS004:
    def test_unguarded_increment_flagged(self):
        src = _S004_HEAD_LOCKLESS_READ + (
            "    def _work(self):\n"
            "        self.done += 1\n"
        )
        findings = check(("app/stats.py", src))
        # Only the write side is reported: with no writer lock there is no
        # coherence protocol for the lockless read to bypass.
        assert codes(findings) == ["S004"]
        assert "read-modify-write" in findings[0].message
        assert "self.done" in findings[0].message

    def test_lock_guarded_increment_clean(self):
        src = _S004_HEAD + (
            "    def _work(self):\n"
            "        with self._lock:\n"
            "            self.done += 1\n"
        )
        assert check(("app/stats.py", src)) == []

    def test_lockless_read_with_locked_writers_flagged(self):
        src = _S004_HEAD_LOCKLESS_READ + (
            "    def _work(self):\n"
            "        with self._lock:\n"
            "            self.done += 1\n"
        )
        findings = check(("app/stats.py", src))
        assert codes(findings) == ["S004"]
        assert "unguarded read" in findings[0].message
        assert "snapshot" in findings[0].message

    def test_single_role_attribute_clean(self):
        # Only the worker thread touches the attribute: no interleaving.
        src = (
            "import threading\n"
            "\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self.done = 0\n"
            "\n"
            "    def start(self):\n"
            "        t = threading.Thread(target=self._work)\n"
            "        t.start()\n"
            "\n"
            "    def _work(self):\n"
            "        self.done += 1\n"
        )
        assert check(("app/stats.py", src)) == []

    def test_threadless_class_clean(self):
        src = (
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "\n"
            "    def bump(self):\n"
            "        self.n += 1\n"
        )
        assert check(("app/tally.py", src)) == []


# --------------------------------------------------------------------------
# S005: non-atomic publish / unguarded reads in multi-process classes
# --------------------------------------------------------------------------

_S005_ATOMIC = (
    "import os\n"
    "\n"
    "class Store:\n"
    "    def __init__(self, root):\n"
    "        self._path = root / 'MANIFEST'\n"
    "\n"
    "    def good(self, data):\n"
    "        tmp = self._path.with_suffix('.tmp')\n"
    "        tmp.write_text(data)\n"
    "        os.replace(tmp, self._path)\n"
)


class TestS005:
    def test_inplace_rewrite_flagged(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def publish(self, data):\n"
            "        self._path.write_text(data)\n"
        )
        findings = check(("app/store.py", src))
        assert codes(findings) == ["S005"]
        assert "os.replace" in findings[0].message
        assert "publish" in findings[0].message

    def test_tmp_plus_replace_clean(self):
        assert check(("app/store.py", _S005_ATOMIC)) == []

    def test_unguarded_json_loads_flagged(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def load(self):\n"
            "        import json\n"
            "        return json.loads(self._path.read_text())\n"
        )
        findings = check(("app/store.py", src))
        assert codes(findings) == ["S005"]
        assert "json.loads" in findings[0].message

    def test_guarded_json_loads_clean(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def load(self):\n"
            "        import json\n"
            "        try:\n"
            "            return json.loads(self._path.read_text())\n"
            "        except (OSError, json.JSONDecodeError):\n"
            "            return None\n"
        )
        assert check(("app/store.py", src)) == []

    def test_unguarded_json_loads_in_a_helper_flagged(self):
        src = "import json\n" + _S005_ATOMIC + (
            "\n"
            "    def load(self):\n"
            "        return _decode(self._path.read_text())\n"
            "\n"
            "\n"
            "def _decode(text):\n"
            "    return json.loads(text)\n"
        )
        findings = check(("app/store.py", src))
        assert codes(findings) == ["S005"]
        assert "`_decode`, called from `Store.load`" in findings[0].message

    def test_helper_guarded_at_the_call_site_clean(self):
        src = "import json\n" + _S005_ATOMIC + (
            "\n"
            "    def load(self):\n"
            "        try:\n"
            "            return _decode(self._path.read_text())\n"
            "        except (OSError, ValueError):\n"
            "            return None\n"
            "\n"
            "\n"
            "def _decode(text):\n"
            "    return json.loads(text)\n"
        )
        assert check(("app/store.py", src)) == []

    def test_caller_owned_export_path_clean(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def export(self, path):\n"
            "        path.write_text('dump')\n"
        )
        assert check(("app/store.py", src)) == []

    def test_rank_blind_revalidation_flagged(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def get(self, key):\n"
            "        limit = FULL_RANK\n"
            "        hit = self._index.get(key)\n"
            "        if hit is None:\n"
            "            self.refresh()\n"
            "            hit = self._index.get(key)\n"
            "        return hit\n"
            "\n"
            "    def refresh(self):\n"
            "        pass\n"
        )
        findings = check(("app/store.py", src))
        assert codes(findings) == ["S005"]
        assert "rank" in findings[0].message

    def test_rank_aware_revalidation_clean(self):
        src = _S005_ATOMIC + (
            "\n"
            "    def get(self, key, FULL_RANK=2):\n"
            "        hit = self._index.get(key)\n"
            "        if hit is None or hit.rank < FULL_RANK:\n"
            "            self.refresh()\n"
            "            hit = self._index.get(key)\n"
            "        return hit\n"
            "\n"
            "    def refresh(self):\n"
            "        pass\n"
        )
        assert check(("app/store.py", src)) == []

    def test_single_process_class_unchecked(self):
        # No flock / os.replace evidence: not a multi-process class.
        src = (
            "class Scratch:\n"
            "    def __init__(self, root):\n"
            "        self._path = root / 'notes.txt'\n"
            "\n"
            "    def publish(self, data):\n"
            "        self._path.write_text(data)\n"
        )
        assert check(("app/scratch.py", src)) == []


# --------------------------------------------------------------------------
# S006: fire-and-forget tasks
# --------------------------------------------------------------------------


class TestS006:
    def test_bare_create_task_flagged(self):
        src = (
            "import asyncio\n"
            "\n"
            "class Runner:\n"
            "    async def kick(self):\n"
            "        asyncio.create_task(self.job())\n"
            "\n"
            "    async def job(self):\n"
            "        pass\n"
        )
        findings = check(("app/run.py", src))
        assert codes(findings) == ["S006"]
        assert findings[0].severity.value == "warning"

    def test_retained_task_clean(self):
        src = (
            "import asyncio\n"
            "\n"
            "class Runner:\n"
            "    async def kick(self):\n"
            "        self._task = asyncio.create_task(self.job())\n"
            "        await self._task\n"
            "\n"
            "    async def job(self):\n"
            "        pass\n"
        )
        assert check(("app/run.py", src)) == []


# --------------------------------------------------------------------------
# registry integration: disable / baseline / severity come for free
# --------------------------------------------------------------------------


class TestRegistryIntegration:
    BAD = (
        "import time\n"
        "\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )

    def test_disable_silences_rule(self):
        from repro.analysis import RuleConfig

        checker = DesignRuleChecker(RuleConfig(disabled=frozenset({"S001"})))
        result = checker.check_python([("app/loop.py", self.BAD)])
        assert list(result.findings) == []

    def test_fingerprint_is_line_independent(self):
        first = check(("app/loop.py", self.BAD))[0]
        second = check(("app/loop.py", "# shifted\n" + self.BAD))[0]
        assert first.fingerprint() == second.fingerprint()


# --------------------------------------------------------------------------
# self-analysis: the service layer is clean at HEAD
# --------------------------------------------------------------------------


class TestSelfAnalysis:
    def test_service_layer_clean(self):
        findings = list(
            DesignRuleChecker().check_python(collect_py_sources()).findings
        )
        assert findings == [], [str(f) for f in findings]

    def test_lock_graph_knows_the_service_locks(self):
        graph = static_lock_graph(collect_py_sources())
        for symbol in (
            "repro/serve/fleet.py::EvaluatorFleet._lock",
            "repro/cache/store.py::ResultStore.<flock>",
            "repro/serve/queue.py::FileJobQueue.<flock>",
            "repro/serve/server.py::DseServer._counters_lock",
        ):
            assert symbol in graph.nodes, symbol
        assert graph.cycles() == []

    def test_store_flock_orders_before_the_segment_memo(self):
        graph = static_lock_graph(collect_py_sources())
        assert graph.has_edge(
            "repro/cache/store.py::ResultStore.<flock>",
            "repro/cache/store.py::_SegmentMemo._lock",
        )

    def test_seeded_order_is_in_the_graph(self):
        graph = static_lock_graph(collect_py_sources())
        for held, acquired, _why in SEEDED_LOCK_ORDER:
            assert graph.has_edge(held, acquired), (held, acquired)

    def test_node_at_maps_definition_sites_back(self):
        graph = static_lock_graph(collect_py_sources())
        for node in graph.nodes.values():
            for line in node.lines:
                assert graph.node_at(node.path, line) == node.symbol

    def test_cli_lint_self_is_clean_and_strict(self, capsys):
        assert main(["lint", "--self", "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_self_sarif_uses_py_paths(self, capsys):
        assert main(["lint", "--self", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rules = payload["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"].startswith("S0") for r in rules)


# --------------------------------------------------------------------------
# revert detection: each PR 8 store fix maps to an S-finding
# --------------------------------------------------------------------------


def _patched_sources(
    old: str, new: str, target: str = "repro/cache/store.py"
) -> list[tuple[str, str]]:
    """The self-source set with one textual regression applied to *target*."""
    out: list[tuple[str, str]] = []
    patched = False
    for path, text in collect_py_sources():
        if path == target:
            assert old in text, f"revert anchor missing: {old!r}"
            text = text.replace(old, new, 1)
            patched = True
        out.append((path, text))
    assert patched
    return out


class TestRevertDetection:
    def _findings(
        self, old: str, new: str, target: str = "repro/cache/store.py"
    ):
        return list(
            DesignRuleChecker()
            .check_python(_patched_sources(old, new, target))
            .findings
        )

    def test_reverting_generation_stamp_is_caught(self):
        # PR 8 fix 1: clear() bumps the MANIFEST generation stamp (whose
        # rewrite goes through os.replace).  Without it the destructive
        # unlink publishes nothing atomically — S005 flags the unlink.
        findings = self._findings(
            "self._generation = self._bump_generation()",
            "pass  # regression: no generation bump",
        )
        assert any(
            f.code == "S005"
            and f.module == "repro/cache/store.py"
            and "unlink" in f.message
            and "clear" in f.message
            for f in findings
        ), [str(f) for f in findings]

    def test_reverting_probe_refresh_is_caught(self):
        # PR 8 fix 2: get() refreshes before serving a below-full-rank hit.
        findings = self._findings(
            "if record is None or record.rank < FULL_RANK:",
            "if record is None:",
        )
        assert any(
            f.code == "S005"
            and f.module == "repro/cache/store.py"
            and "rank" in f.message
            for f in findings
        ), [str(f) for f in findings]

    def test_reverting_corrupt_line_guard_is_caught(self):
        # PR 8 fix 3: refresh() tolerates (and counts) corrupt JSONL lines.
        findings = self._findings(
            "except (json.JSONDecodeError, KeyError, TypeError, ValueError):",
            "except KeyError:",
        )
        assert any(
            f.code == "S005"
            and f.module == "repro/cache/store.py"
            and "json.loads" in f.message
            and "refresh" in f.message
            for f in findings
        ), [str(f) for f in findings]

    def test_reverting_stats_counter_lock_is_caught(self):
        # PR 10 fix: DseServer.stats() reads the terminal-state counters
        # under _counters_lock.  The pre-fix shape — lockless reads of
        # counters every job-runner thread increments under the lock —
        # trips the S004 read variant.
        findings = self._findings(
            "        with self._counters_lock:\n"
            "            done = self.jobs_done\n"
            "            failed = self.jobs_failed\n"
            "            cancelled = self.jobs_cancelled\n",
            "        done = self.jobs_done\n"
            "        failed = self.jobs_failed\n"
            "        cancelled = self.jobs_cancelled\n",
            target="repro/serve/server.py",
        )
        assert any(
            f.code == "S004"
            and f.module == "repro/serve/server.py"
            and "unguarded read" in f.message
            and "stats" in f.message
            for f in findings
        ), [str(f) for f in findings]
