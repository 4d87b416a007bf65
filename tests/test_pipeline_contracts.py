"""Serial ≡ pool ≡ served contracts of the point-resolution pipeline.

Every evaluator layer — the serial fitness path, the process-pool
parent, and the serve fleet member — resolves a design point through
the same steps (DRC pre-flight, persistent-store consult, tool call,
store append, ledger row).  These tests pin what those steps produce:

- a golden matrix, one cell per fitness mode: for each session of a
  cell, its run ledger row by row and what the fitness reports
  (history, ``stats()``, the MSE trace and the Pareto rows), against
  digests recorded before the tool paths were unified; each cell also
  checks that the branch it pins was taken;
- the serial/pool split on a re-proposed failing point: the serial
  path runs the tool again, the pool replays its memo;
- serial ≡ ``workers=2`` for an evaluator with an explicit clock port
  that name detection cannot find;
- serial ≡ ``workers=2`` when the opt-in netlist DRC stage rejects
  points.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.evaluate import PointEvaluator
from repro.core.fitness import ApproximateFitness
from repro.core.session import DseSession
from repro.core.spaces import IntRange, ParameterSpace
from repro.designs import get_design
from repro.observe import telemetry_session

# ---------------------------------------------------------------------------
# golden matrix


def _sha(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


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
    return len(rows), _sha(rows)


def _fitness_digest(fitness, pareto) -> str:
    """sha256 over what the fitness reports after a session.

    History (parameters, source, charge, fidelity, metrics), ``stats()``,
    the MSE trace and the Pareto rows.  Charges and the simulated-second
    total are rounded to the microsecond, like the ledger's.
    """
    history = [
        [
            sorted(p.parameters.items()), p.source,
            f"{p.simulated_seconds:.6f}", p.fidelity, sorted(p.metrics.items()),
        ]
        for p in fitness.history
    ]
    stats = fitness.stats()
    stats["simulated_seconds"] = f"{stats['simulated_seconds']:.6f}"
    return _sha([
        history,
        sorted(stats.items()),
        [list(entry) for entry in fitness.mse_trace],
        [sorted(p.as_row().items()) for p in pareto],
    ])


def _explore(rows: list, design: str, explore: dict, after=None, **kw):
    """One session; appends (ledger rows, ledger digest, fitness digest).

    ``after(session, result)`` runs inside the telemetry scope, before
    the digests are taken.  Returns the telemetry bundle.
    """
    with telemetry_session() as tel:
        with DseSession(get_design(design), **kw) as session:
            result = session.explore(**explore)
            if after is not None:
                after(session, result)
    rows.append((*_ledger_digest(tel), _fitness_digest(session.fitness, result.pareto)))
    return tel


def _origins(tel, **match) -> int:
    """Ledger rows whose fields equal ``match``."""
    return sum(
        all(getattr(r, k) == v for k, v in match.items())
        for r in tel.ledger.records
    )


_MODEL_OFF = dict(generations=4, population=8, pretrain=False)
_MODEL_ON = dict(generations=3, population=8)


def _serial(rows, tmp_path):
    tel = _explore(rows, "tirex", _MODEL_OFF, use_model=False, seed=3)
    assert _origins(tel, outcome="failed") > 0  # tirex corners overflow


def _serial_model(rows, tmp_path):
    tel = _explore(
        rows, "tirex", _MODEL_ON, use_model=True, pretrain_size=8, seed=3,
    )
    assert _origins(tel, outcome="estimate") + _origins(tel, outcome="cache") > 0


def _pool(rows, tmp_path):
    tel = _explore(rows, "tirex", _MODEL_OFF, use_model=False, seed=3, workers=2)
    assert _origins(tel, origin="worker") > 0


def _pool_model(rows, tmp_path):
    # Pretrain fans out to the pool; each EVALUATE point runs on the
    # fitness's own evaluator, so its rows keep the local origin.
    tel = _explore(
        rows, "tirex", _MODEL_ON,
        use_model=True, pretrain_size=8, seed=3, workers=2,
    )
    assert _origins(tel, origin="worker") > 0
    assert _origins(tel, outcome="tool", origin="local") > 0


def _warm_store(rows, tmp_path):
    store = str(tmp_path / "store")
    for workers in (0, 0, 2):  # cold, warm serial, warm pool
        tel = _explore(
            rows, "tirex", _MODEL_OFF,
            use_model=False, seed=3, result_store=store, workers=workers,
        )
    assert _origins(tel, origin="store") > 0


def _gated_tail(session, result) -> None:
    """Re-propose answered points, then promote the speculative ones.

    NSGA-II never re-proposes an archived point, so the re-proposals
    (the first four answered bindings) are what reach the gate's memo.
    A gated search only skips points it predicts dominated, so at smoke
    size none survives into the archive's front; an archive of just the
    speculative points has a front of them, which ``promote_archive``
    must answer at full route.
    """
    fitness = session.fitness
    seen = [fitness.space.encode(p.parameters) for p in fitness.history[:4]]
    fitness.evaluate_encoded(np.array(seen))
    spec = [p for p in fitness.history if p.source == "speculative"]
    assert spec, "the gate must skip something"
    names = session.evaluator.metric_names()

    class Archive:
        X = np.array([fitness.space.encode(p.parameters) for p in spec])
        F = fitness.promotion_gate.signs * np.array(
            [[p.metrics[n] for n in names] for p in spec]
        )

    assert fitness.promote_archive(Archive) > 0


_GATED = dict(
    use_model=False, seed=3, fidelity_gate=True, gate_risk=0.8,
    gate_trickle_every=1000,
)


def _gated(rows, tmp_path):
    for workers in (0, 2):  # the gate keeps a pooled session serial
        tel = _explore(
            rows, "tirex", _MODEL_OFF, after=_gated_tail,
            workers=workers, **_GATED,
        )
        assert _origins(tel, origin="gate") > 0  # the gate's own memo
        assert _origins(tel, fidelity="synth-estimate") > 0  # probes


def _gated_warm_store(rows, tmp_path):
    store = str(tmp_path / "store")
    for _ in range(2):  # cold, then warm over what the cold run wrote
        tel = _explore(
            rows, "tirex", _MODEL_OFF, after=_gated_tail,
            result_store=store, **_GATED,
        )
    # The warm run adopts full-route answers and probe records alike.
    assert _origins(tel, origin="store", fidelity=None) > 0
    assert _origins(tel, origin="store", fidelity="synth-estimate") > 0


def _netlist_gate(rows, tmp_path):
    with pytest.MonkeyPatch.context() as mp:
        _reject_even_depth(mp)
        for workers in (0, 2):
            tel = _explore(
                rows, "cv32e40p-fifo",
                dict(generations=2, population=6, pretrain=False), use_model=False, seed=3, drc_netlist=True, workers=workers,
            )
            assert _origins(tel, outcome="drc") > 0


def _served_sessions(rows, model: bool) -> None:
    from repro.core.parallel import EvaluatorSpec
    from repro.serve import EvaluatorFleet, FairScheduler

    kw = dict(use_model=True, pretrain_size=8) if model else dict(use_model=False)
    explore = _MODEL_ON if model else _MODEL_OFF
    fleet = EvaluatorFleet()
    with FairScheduler(capacity=1) as sched:
        for job in ("A", "B"):  # B replays A's runs from the member memo
            sched.register_job(job, slots=1)
            with telemetry_session() as tel:
                with DseSession(get_design("tirex"), seed=3, **kw) as s:
                    spec = EvaluatorSpec.from_evaluator(s.evaluator, design_name="tirex")
                    s.fitness.set_batch_evaluator(fleet.bind(sched, job, spec))
                    result = s.explore(**explore)
            rows.append(
                (*_ledger_digest(tel), _fitness_digest(s.fitness, result.pareto))
            )
    fleet.close()
    assert _origins(tel, origin="memo") > 0  # B's replays of A's runs


def _served(rows, tmp_path):
    _served_sessions(rows, model=False)


def _served_model(rows, tmp_path):
    _served_sessions(rows, model=True)


CELLS = {
    "serial": _serial,
    "serial_model": _serial_model,
    "pool": _pool,
    "pool_model": _pool_model,
    "warm_store": _warm_store,
    "served": _served,
    "served_model": _served_model,
    "gated": _gated,
    "gated_warm_store": _gated_warm_store,
    "netlist_gate": _netlist_gate,
}

# (ledger rows, ledger digest, fitness digest) per session, recorded
# before the tool paths were unified; each must stay byte-identical.
LEDGER_GOLDENS = {
    "gated": [
        [52, "484be10593022a34a9e3c72ba68b148a109ef4b84bafbb947756d22ee2668c50",
         "f3629f93bfff1969b447afba296d72c5923cb7a6d41af73371394092d7715127"],
        [52, "484be10593022a34a9e3c72ba68b148a109ef4b84bafbb947756d22ee2668c50",
         "f3629f93bfff1969b447afba296d72c5923cb7a6d41af73371394092d7715127"],
    ],
    "gated_warm_store": [
        [52, "484be10593022a34a9e3c72ba68b148a109ef4b84bafbb947756d22ee2668c50",
         "f3629f93bfff1969b447afba296d72c5923cb7a6d41af73371394092d7715127"],
        [52, "353ab9b80fd49bd63ed3064136a7f14601c010a7d25732127436883e82e482b0",
         "cb1ceb30c7af9d836b3121338270e9f7a13e994d6bf771e946109ec1ca8e479c"],
    ],
    "netlist_gate": [
        [16, "8ccf51be82e5b3e215bf94fab49d65251c5a88aa24be29139dba44c9ca2d2b31",
         "de1b94900b7d54072be59828b93d32f55021f5a2922559402b20e12786703286"],
        [16, "4eafcb6c720e7bb3c13c4cfdf3cfb5fab65314e03be1afbac5163462dcf67582",
         "de1b94900b7d54072be59828b93d32f55021f5a2922559402b20e12786703286"],
    ],
    "pool": [
        [33, "55c3112fd965d1a96d9c754ac37108342e213d5bad336d05082ee42b24a44c9d",
         "502e6270589797003883e459e3a7a420f72b36aac99e19408366f80e70909cae"],
    ],
    "pool_model": [
        [36, "2f5477a428e2a605ba3c9d1b1229e232ca33ecff69e0b04ffebea18917267384",
         "9c899a26b016a80da94f7f5e7bcf95b2aa7ec00eb503c335dc9fb0fcdf1ce2f3"],
    ],
    "serial": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253",
         "502e6270589797003883e459e3a7a420f72b36aac99e19408366f80e70909cae"],
    ],
    "serial_model": [
        [36, "efc4252bee9ef61bdeaf470979c1e678fcee841eb74aaa7f813526f36688be6d",
         "9c899a26b016a80da94f7f5e7bcf95b2aa7ec00eb503c335dc9fb0fcdf1ce2f3"],
    ],
    "served": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253",
         "42f4ca2b7da39d8cdafdf83e58bc3ed321447f4b7a4d4d0eb1d2d712bbb9515c"],
        [33, "2a12961b18f3bbbdb4435f45fafa877726d1ae979f3f249b78079cf9645312fd",
         "79e7368e20c4bb89da15a1c669b71920bd4bf249ebfb97f7b27fb77546f9fdee"],
    ],
    "served_model": [
        [36, "efc4252bee9ef61bdeaf470979c1e678fcee841eb74aaa7f813526f36688be6d",
         "9c899a26b016a80da94f7f5e7bcf95b2aa7ec00eb503c335dc9fb0fcdf1ce2f3"],
        [36, "55f05c598972692fe63152b825f3b3f09d3fe52d04002cd077ed6a900d736025",
         "25b0bc94cb4161e42e592678a2f7757d5e79541af6aa5d7ba9411c66576f36d0"],
    ],
    "warm_store": [
        [33, "8e459b929550e6b25bee96f76829ff6e36ecb3273a5be82f863c9ea57008e253",
         "502e6270589797003883e459e3a7a420f72b36aac99e19408366f80e70909cae"],
        [33, "e15ae11486e0c2aa624f1161547fdae1033774e23d88e97c38e74f7f1a0d9a64",
         "5d5584ca5008ca8b64dacc370b25c8905b59c9d8f34492312c5a1ff2095988b5"],
        [33, "e15ae11486e0c2aa624f1161547fdae1033774e23d88e97c38e74f7f1a0d9a64",
         "5d5584ca5008ca8b64dacc370b25c8905b59c9d8f34492312c5a1ff2095988b5"],
    ],
}


@pytest.mark.parametrize("config", sorted(CELLS))
def test_ledger_rows_match_golden(config, tmp_path):
    rows: list = []
    CELLS[config](rows, tmp_path)
    assert [list(r) for r in rows] == LEDGER_GOLDENS[config]


# ---------------------------------------------------------------------------
# serial vs pool: a re-proposed failing point (docs/performance.md,
# "Known divergence").  The serial path keeps no memo, so it runs the
# tool again and charges it again; the pool replays its memoized failure,
# which the fitness prices at the 2 s cache-hit floor.  Closing the gap
# is an answer change of its own, so this pins both behaviours.

# Overflows the XC7K70T's utilization on every run.
_FAILING = {"NCLUSTER": 8, "STACK_SIZE": 2, "INSTR_MEM_SIZE": 64, "DATA_MEM_SIZE": 16}


def _failing_twice(workers: int):
    with telemetry_session() as tel:
        with DseSession(get_design("tirex"), use_model=False, seed=3,
                        workers=workers) as session:
            fitness = session.fitness
            row = fitness.space.encode(_FAILING)
            fitness.evaluate_encoded(np.array([row, row]))
    runs = [r for r in tel.ledger.records if r.origin in ("local", "worker")]
    return fitness, runs, tel.ledger.records


def test_reproposed_failure_reruns_serially_and_replays_in_the_pool():
    serial, serial_runs, serial_rows = _failing_twice(workers=0)
    assert [r.outcome for r in serial_runs] == ["failed", "failed"]
    charges = [p.simulated_seconds for p in serial.history]
    assert charges[0] > 2.0 and charges[1] == charges[0]
    assert serial.simulated_seconds == sum(charges)

    pool, pool_runs, pool_rows = _failing_twice(workers=2)
    assert [r.outcome for r in pool_runs] == ["failed"]
    assert [(r.outcome, r.origin, r.charge) for r in pool_rows[1:]] == [
        ("failed", "memo", 0.0)
    ]
    pool_charges = [p.simulated_seconds for p in pool.history]
    assert pool_charges == pytest.approx([charges[0], 2.0], abs=1e-6)
    assert [p.source for p in pool.history] == [
        "infeasible:UtilizationOverflowError"
    ] * 2


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


def _reject_even_depth(monkeypatch) -> None:
    """Make the netlist DRC stage reject every even ``DEPTH``."""
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


def test_netlist_gate_serial_equals_pool(monkeypatch):
    _reject_even_depth(monkeypatch)

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
