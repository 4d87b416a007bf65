"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Runs all four workloads twice at the ``--smoke`` size (once plain, once
traced) and checks that outputs repeat, that every wrapper target still
resolves (a rename in ``src/`` fails here, loudly), that the trace file
validates and renders, and that the traced layers cover the workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from common import read_records  # noqa: E402

WORKLOADS = ("explore", "replay", "sweep", "serve")


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory: pytest.TempPathFactory) -> dict[str, dict[str, dict]]:
    out = tmp_path_factory.mktemp("bench")
    found: dict[str, dict[str, dict]] = {}
    for mode in ("0", "1"):
        proc = _run("--smoke", "--trace", mode, "--out", str(out / mode))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        found[mode] = {r["workload"]: r for r in read_records(out / mode)}
    return found


def test_every_wrapper_target_resolves() -> None:
    targets = [t for group in layers.LAYERS.values() for t in group]
    for target in targets:
        layers.resolve(target)
    assert set(layers.SAMPLED_TARGETS) <= set(targets)
    assert set(layers.RESULT_COUNTERS) <= set(targets)


def test_install_patches_import_sites_and_uninstall_restores() -> None:
    import repro.core.evaluate as evaluate
    import repro.hdl.frontend as frontend

    original = frontend.parse_source
    recorder = layers.SpanRecorder()
    with recorder.installed():
        assert evaluate.parse_source is not original
        assert evaluate.parse_source is frontend.parse_source
        evaluate.parse_source("module m; endmodule", "verilog")
    assert evaluate.parse_source is original and frontend.parse_source is original
    assert recorder.snapshot()["hdl.parse"]["calls"] == 1


def test_self_time_excludes_children() -> None:
    recorder = layers.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            sum(range(200_000))
    spans = recorder.snapshot()
    outer, inner = spans["outer"], spans["inner"]
    assert inner["self_s"] == pytest.approx(inner["inclusive_s"])
    assert outer["self_s"] == pytest.approx(outer["inclusive_s"] - inner["inclusive_s"])


def test_outputs_repeat_across_runs(records: dict[str, dict[str, dict]]) -> None:
    for workload in WORKLOADS:
        plain, traced = records["0"][workload], records["1"][workload]
        assert plain["correct"] and traced["correct"], (plain["problems"], traced["problems"])
        assert plain["output_digest"] == traced["output_digest"], workload


def test_trace_validates_and_renders(records: dict[str, dict[str, dict]]) -> None:
    env_path = str(ROOT / "src")
    for workload in WORKLOADS:
        trace = records["1"][workload]["trace_file"]
        for module in ("repro.observe.schema", "repro.core.cli"):
            argv = [trace] if module.endswith("schema") else ["stats", trace]
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": env_path}, timeout=60,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Spans" in proc.stdout


def test_trace_covers_the_workloads(records: dict[str, dict[str, dict]]) -> None:
    for workload in ("explore", "replay", "sweep"):
        values = records["1"][workload]["per_layer_all"]
        assert values["trace.coverage"] >= 0.95, (workload, values["trace.coverage"])


def test_fails_without_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
