"""Serial ≡ pool ≡ served contracts of the point-resolution pipeline.

Every evaluator layer — the serial fitness path, the process-pool
parent, and the serve fleet member — resolves a design point through
the same steps (DRC pre-flight, persistent-store consult, tool call,
store append, ledger row).  These tests pin what those steps produce:

- the run ledger of smoke-size sessions in each default configuration,
  row by row, against goldens recorded before the steps were unified;
- serial ≡ ``workers=2`` for an evaluator with an explicit clock port
  that name detection cannot find;
- serial ≡ ``workers=2`` when the opt-in netlist DRC stage rejects
  points.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness
from repro.core.session import DseSession
from repro.core.spaces import IntRange, ParameterSpace
from repro.designs import get_design
from repro.observe import telemetry_session

# ---------------------------------------------------------------------------
# ledger goldens


def _ledger_digest(tel) -> tuple[int, str]:
    """(row count, sha256 over every row field except wall time).

    Charges are rounded to the microsecond: a pool worker's failed-run
    charge is a difference of its own running total, so its last bits
    depend on which worker ran the point.
    """
    rows = [
        [
            r.index, sorted(r.params.items()), r.outcome,
            sorted(r.metrics.items()), f"{r.charge:.6f}", r.error_type,
            r.origin, r.fidelity,
        ]
        for r in tel.ledger.records
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return len(rows), hashlib.sha256(blob).hexdigest()


def _explore(tel_rows: list, design: str, explore: dict, **kw) -> None:
    with telemetry_session() as tel:
        with DseSession(get_design(design), **kw) as session:
            session.explore(**explore)
    tel_rows.append(_ledger_digest(tel))


_MODEL_OFF = dict(generations=4, population=8, pretrain=False)


def _serial(rows):
    _explore(rows, "tirex", _MODEL_OFF, use_model=False, seed=3)


def _serial_model(rows):
    _explore(
        rows, "tirex", dict(generations=3, population=8),
        use_model=True, pretrain_size=8, seed=3,
    )


def _pool(rows):
    _explore(rows, "tirex", _MODEL_OFF, use_model=False, seed=3, workers=2)


def _warm_store(rows, tmp_path):
    store = str(tmp_path / "store")
    for workers in (0, 0, 2):  # cold, warm serial, warm pool
        _explore(
            rows, "tirex", _MODEL_OFF,
            use_model=False, seed=3, result_store=store, workers=workers,
        )


def _served(rows):
    from repro.core.parallel import EvaluatorSpec
    from repro.serve import EvaluatorFleet, FairScheduler

    fleet = EvaluatorFleet()
    with FairScheduler(capacity=1) as sched:
        for job in ("A", "B"):  # B replays A's runs from the member memo
            sched.register_job(job, slots=1)
            with telemetry_session() as tel:
                with DseSession(get_design("tirex"), use_model=False, seed=3) as s:
                    spec = EvaluatorSpec.from_evaluator(s.evaluator, design_name="tirex")
                    s.fitness.set_batch_evaluator(fleet.bind(sched, job, spec))
                    s.explore(**_MODEL_OFF)
            rows.append(_ledger_digest(tel))
    fleet.close()


# (row count, digest) per session, recorded before the pipeline steps
# were unified; each must stay byte-identical.
LEDGER_GOLDENS = {
    "serial": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253"],
    ],
    "serial_model": [
        [36, "efc4252bee9ef61bdeaf470979c1e678fcee841eb74aaa7f813526f36688be6d"],
    ],
    "pool": [
        [33, "55c3112fd965d1a96d9c754ac37108342e213d5bad336d05082ee42b24a44c9d"],
    ],
    "warm_store": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253"],
        [33, "e15ae11486e0c2aa624f1161547fdae1033774e23d88e97c38e74f7f1a0d9a64"],
        [33, "e15ae11486e0c2aa624f1161547fdae1033774e23d88e97c38e74f7f1a0d9a64"],
    ],
    "served": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253"],
        [33, "2a12961b18f3bbbdb4435f45fafa877726d1ae979f3f249b78079cf9645312fd"],
    ],
}


@pytest.mark.parametrize("config", sorted(LEDGER_GOLDENS))
def test_ledger_rows_match_golden(config, tmp_path):
    rows: list = []
    if config == "warm_store":
        _warm_store(rows, tmp_path)
    else:
        {"serial": _serial, "serial_model": _serial_model, "pool": _pool,
         "served": _served}[config](rows)
    assert [list(r) for r in rows] == LEDGER_GOLDENS[config]


# ---------------------------------------------------------------------------
# serial ≡ pool: an explicit clock port survives the hand-off to the pool

TICK_SV = """
module ticker #(parameter W = 4) (
  input  logic tick,
  input  logic [W-1:0] d,
  output logic [W-1:0] q
);
  always_ff @(posedge tick) q <= d;
endmodule
"""
# ``tick`` is not a clock name the boxer detects, so every run needs the
# explicit ``clock_port="tick"``.


def _tick_fitness(workers: int) -> ApproximateFitness:
    evaluator = PointEvaluator(
        source=TICK_SV, language="systemverilog", top="ticker",
        clock_port="tick", seed=3,
    )
    return ApproximateFitness(
        evaluator, ParameterSpace([IntRange("W", 2, 16)]),
        use_model=False, pretrain_size=0, seed=3, workers=workers,
    )


def _outcome(fitness: ApproximateFitness, X) -> tuple:
    try:
        F = fitness.evaluate_encoded(X)
    finally:
        fitness.close()
    return (
        F.tolist(),
        [(p.source, p.metrics) for p in fitness.history],
        fitness.tool_runs(),
        fitness.drc_rejections,
    )


def test_explicit_clock_port_serial_equals_pool():
    X = [[4], [8], [12]]
    serial = _outcome(_tick_fitness(workers=0), X)
    pool = _outcome(_tick_fitness(workers=2), X)
    assert serial[2] == 3 and serial[3] == 0
    assert pool == serial


# ---------------------------------------------------------------------------
# serial ≡ pool: the opt-in netlist DRC stage gates pooled points too


def test_netlist_gate_serial_equals_pool(monkeypatch):
    from repro.analysis.checker import DesignRuleChecker
    from repro.analysis.findings import CheckResult, Finding, Severity

    clean = DesignRuleChecker.check_netlist

    def reject_even_depth(self, module, params=None, *args, **kwargs):
        if int((params or {}).get("DEPTH", 1)) % 2 == 0:
            return CheckResult((
                Finding(severity=Severity.ERROR, code="N001",
                        message="combinational loop: a -> b -> a",
                        module=module.name),
            ))
        return clean(self, module, params, *args, **kwargs)

    monkeypatch.setattr(DesignRuleChecker, "check_netlist", reject_even_depth)

    def run(workers: int):
        with DseSession(
            get_design("cv32e40p-fifo"), use_model=False, seed=3,
            drc_netlist=True, workers=workers,
        ) as session:
            result = session.explore(1, 6, pretrain=False)
            return (
                [p.metrics for p in result.pareto],
                session.fitness.drc_rejections,
                session.fitness.tool_runs(),
                session.fitness.simulated_seconds,
            )

    serial = run(0)
    pool = run(2)
    assert serial[1] > 0, "the patched netlist stage must reject something"
    assert pool[:3] == serial[:3]
    assert pool[3] == pytest.approx(serial[3], rel=1e-12)
