"""One DRC gate per evaluator stack: each in-process tool run is checked once.

The layer that dispatches a point checks it on its gate, and every
evaluator it builds in-process holds that same gate, so the evaluator's
own check is a memo lookup.  These tests count
:meth:`DesignRuleChecker.check_point` calls on three stacks (a serial
fitness, a sweep over a result store, a session bound to a serve fleet)
and require one call per distinct point (143, 12 and 36 calls while the
evaluator kept a gate of its own).  Pool workers run the points they
are sent without checking them again: a fourth test logs the calls of
every process (90 worker-side calls while workers re-checked).  A verdict no longer depends on
the space, so they also pin what that changes and what it does not: P003
stays a checker rule that never fires on a decoded point, and an
out-of-space binding evaluated through a session still reaches the tool.
"""

from __future__ import annotations

import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.checker import DesignRuleChecker
from repro.analysis.gate import freeze_params
from repro.core.evaluate import PointEvaluator
from repro.core.parallel import EvaluatorSpec
from repro.core.session import DseSession
from repro.core.spaces import ParameterSpace
from repro.core.sweep import grid, run_sweep
from repro.designs import all_designs, get_design
from repro.hdl.frontend import parse_source
from repro.serve import EvaluatorFleet, FairScheduler
from tests._sanitize_support import lock_order_guard

_check_point = DesignRuleChecker.check_point


def _counting():
    """A patch that records (module, frozen binding) per ``check_point``."""
    calls: list[tuple[str, tuple]] = []

    def spy(self, module, params, *args, **kwargs):
        calls.append((module.name, freeze_params(params or {})))
        return _check_point(self, module, params, *args, **kwargs)

    return calls, mock.patch.object(DesignRuleChecker, "check_point", spy)


def test_serial_sessions_check_each_point_once():
    """The fitness's gate is its evaluator's gate: 98 checks, not 143."""
    calls, patch = _counting()
    distinct = 0
    with patch:
        for name in ("corundum-cqm", "cv32e40p-fifo", "tirex"):
            with DseSession(
                get_design(name), seed=7, use_model=True, pretrain_size=12
            ) as session:
                session.explore(3, 8)
            assert session.evaluator.gate is session.fitness.gate
            distinct += session.fitness.gate.stats()["drc_memo_size"]
    assert len(calls) == len(set(calls)) == distinct == 98


def test_sweep_over_a_store_checks_each_point_once(tmp_path):
    """The sweep's pool gates with its evaluator's gate: 6 checks, not 12."""
    design = get_design("corundum-cqm")
    evaluator = PointEvaluator(design.source(), design.language, design.top)
    calls, patch = _counting()
    with patch:
        result = run_sweep(
            evaluator,
            grid(OP_TABLE_SIZE=[8, 16, 24], PIPELINE=[2, 3]),
            result_store=str(tmp_path / "store"),
            design_name="corundum-cqm",
        )
    memo = evaluator.gate.stats()["drc_memo_size"]
    assert len(calls) == len(set(calls)) == memo == len(result) == 6


def test_pool_workers_trust_the_parent_verdict(tmp_path):
    """``workers=2`` sessions: the parent checks each distinct point
    once, and the workers, forked with the patch in place, check none."""
    log = tmp_path / "calls"

    def spy(self, *args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return _check_point(self, *args, **kwargs)

    distinct = 0
    with mock.patch.object(DesignRuleChecker, "check_point", spy):
        for name in ("corundum-cqm", "cv32e40p-fifo", "tirex"):
            with DseSession(
                get_design(name), seed=7, use_model=False, workers=2
            ) as session:
                session.explore(3, 8, pretrain=False)
            distinct += session.fitness.gate.stats()["drc_memo_size"]
    pids = log.read_text().split()
    parent = [pid for pid in pids if pid == str(os.getpid())]
    assert len(pids) - len(parent) == 0
    assert len(parent) == distinct == 90


def test_fleet_member_checks_each_point_once():
    """A member's tool evaluators hold its gate: 18 checks, not 36."""
    calls, patch = _counting()
    fleet = EvaluatorFleet()
    with patch, FairScheduler(capacity=1) as scheduler:
        scheduler.register_job("A", slots=1)
        with DseSession(get_design("cv32e40p-fifo"), use_model=False) as session:
            spec = EvaluatorSpec.from_evaluator(
                session.evaluator, design_name="cv32e40p-fifo"
            )
            session.fitness.set_batch_evaluator(fleet.bind(scheduler, "A", spec))
            session.explore(2, 6, pretrain=False)
    stats = fleet.stats()
    fleet.close()
    runs = session.fitness.tool_runs()
    assert len(calls) == len(set(calls)) == runs == stats["dispatched"] == 18


def test_fleet_threads_share_the_member_gate():
    """Two tenants on four pool threads, switching every 10 µs: each
    thread's tool evaluator checks on the member's gate, so every
    distinct point is checked once and no verdict or count is lost."""
    design = get_design("cv32e40p-fifo")
    space = ParameterSpace.from_design(design)
    rng = np.random.default_rng(5)
    rows = rng.integers(space.lows(), space.highs() + 1, size=(12, len(space)))
    points = [space.decode(row) for row in rows]
    distinct = {freeze_params(p) for p in points}
    spec = EvaluatorSpec.from_evaluator(
        PointEvaluator(design.source(), design.language, design.top),
        design_name="cv32e40p-fifo",
    )
    calls, patch = _counting()
    fleet = EvaluatorFleet()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with patch, lock_order_guard(), FairScheduler(capacity=4) as scheduler:
            tenants = []
            for job, batch in (("A", points), ("B", points[::-1])):
                scheduler.register_job(job, slots=4)
                tenants.append((fleet.bind(scheduler, job, spec), batch))
            with ThreadPoolExecutor(2) as pool:
                futures = [
                    pool.submit(bound.evaluate_many, batch, "return")
                    for bound, batch in tenants
                ]
                answers = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    gate = fleet._member(spec).gate
    fleet.close()
    metrics = [[a.metrics for a in batch] for batch in answers]
    assert metrics[0] == metrics[1][::-1]
    assert len(calls) == len(set(calls)) == gate.stats()["drc_checks"] == len(distinct)


# ---------------------------------------------------------------------------
# what a space-blind verdict changes, and what it does not

_DESIGNS = sorted(all_designs())
_CHECKER = DesignRuleChecker()


@st.composite
def decoded_points(draw):
    """A bundled design and a decoded row, some entries outside
    ``[low, high]`` (decode clamps them)."""
    name = draw(st.sampled_from(_DESIGNS))
    space = ParameterSpace.from_design(get_design(name))
    row = np.array([
        draw(st.integers(dim.low - 64, dim.high + 64)) for dim in space
    ])
    return name, space, space.decode(row)


@functools.cache
def _module(name: str):
    design = get_design(name)
    modules = parse_source(design.source(), design.language)
    return next(m for m in modules if m.name.lower() == design.top.lower())


@given(drawn=decoded_points())
@settings(max_examples=200, deadline=None)
def test_p003_never_fires_on_a_decoded_point(drawn):
    name, space, params = drawn
    found = _CHECKER.check_point(_module(name), params, space=space)
    assert "P003" not in {f.code for f in found}


def test_out_of_space_binding_still_reaches_the_tool():
    with DseSession(get_design("corundum-cqm")) as session:
        assert session.fitness.gate.space is session.space
        (point,) = session.evaluate_points([{"OP_TABLE_SIZE": 80}])
    assert point.source == "tool"
