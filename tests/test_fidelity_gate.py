"""The speculative promotion gate: unit behavior and DSE integration.

- :class:`PromotionGate` unit contracts: calibration warm-up, conformal
  band gating, the mandatory-promotion trickle, front maintenance, and
  determinism;
- gate-off identity: a session with ``fidelity_gate=False`` (and the
  CLI's ``--fidelity-gate off``) is bitwise identical to a session built
  before the feature existed;
- gated exploration: simulated seconds drop, every reported front point
  is full-fidelity truth, and speculative archive members are promoted
  on demand (their ``F`` rows patched) before the front is extracted;
- the CLI parses and threads the new flags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cli import build_parser
from repro.core.session import DseSession
from repro.designs import get_design
from repro.estimation import PromotionGate
from repro.flow.vivado_sim import Fidelity, FlowStep
from repro.moo.indicators import hypervolume


def _front_signature(result):
    return sorted(
        (tuple(sorted(p.parameters.items())), tuple(sorted(p.metrics.items())))
        for p in result.pareto
    )


class TestPromotionGateUnit:
    SIGNS = np.array([1.0, 1.0])  # two minimized metrics

    def _calibrated(self, risk=0.2, min_calibration=3, trickle_every=8):
        """A gate calibrated on a clean linear residual (+1 per metric)."""
        gate = PromotionGate(
            signs=self.SIGNS,
            risk=risk,
            min_calibration=min_calibration,
            trickle_every=trickle_every,
        )
        for i in range(6):
            x = np.array([float(i), float(2 * i)])
            low = np.array([10.0 + i, 20.0 + i])
            gate.observe(x, low, low + 1.0)
        return gate

    def test_validation(self):
        with pytest.raises(ValueError):
            PromotionGate(signs=self.SIGNS, risk=0.0)
        with pytest.raises(ValueError):
            PromotionGate(signs=self.SIGNS, risk=1.0)
        with pytest.raises(ValueError):
            PromotionGate(signs=self.SIGNS, min_calibration=0)
        with pytest.raises(ValueError):
            PromotionGate(signs=self.SIGNS, trickle_every=1)

    def test_warmup_always_promotes(self):
        gate = PromotionGate(signs=self.SIGNS, min_calibration=4)
        for i in range(4):
            decision = gate.assess(
                np.array([float(i), 0.0]), np.array([5.0, 5.0])
            )
            assert decision.promote and decision.reason == "calibration"
            gate.observe(
                np.array([float(i), 0.0]),
                np.array([5.0, 5.0]),
                np.array([6.0, 6.0]),
            )
        assert gate.promoted == 4
        assert gate.skipped == 0

    def test_dominated_point_is_skipped_frontier_is_promoted(self):
        gate = self._calibrated()
        # The calibrated front sits around (11..16, 21..26); a hopeless
        # probe far above it is dominated even optimistically.
        bad = gate.assess(np.array([1.5, 3.0]), np.array([100.0, 100.0]))
        assert not bad.promote and bad.reason == "dominated"
        assert bad.predicted_full_min is not None
        # A probe clearly better than the whole front must be promoted.
        good = gate.assess(np.array([2.5, 5.0]), np.array([0.0, 0.0]))
        assert good.promote and good.reason == "frontier"

    def test_trickle_forces_periodic_promotion(self):
        gate = self._calibrated(trickle_every=3)
        reasons = [
            gate.assess(np.array([1.0, 2.0]), np.array([100.0, 100.0])).reason
            for _ in range(6)
        ]
        assert reasons == [
            "dominated", "dominated", "trickle",
            "dominated", "dominated", "trickle",
        ]
        assert gate.trickled == 2

    def test_band_widens_with_lower_risk(self):
        """Lower risk -> wider conformal band (more conservative skips)."""
        def band(risk):
            gate = PromotionGate(signs=self.SIGNS, risk=risk, min_calibration=3)
            rng = np.random.default_rng(0)
            for i in range(12):
                x = np.array([float(i), float(i % 4)])
                low = np.array([10.0, 10.0]) + i * 0.1
                noise = rng.normal(0.0, 2.0, size=2)
                gate.observe(x, low, low + 1.0 + noise)
            return gate._band()

        wide, narrow = band(0.001), band(0.5)
        assert (wide >= narrow).all() and (wide > narrow).any()

    def test_wide_band_turns_marginal_skip_into_promotion(self):
        gate = self._calibrated(risk=0.2)
        x = np.array([3.3, 1.1])
        probe = np.array([100.0, 100.0])
        assert not gate.assess(x, probe).promote
        # Same calibration data, but a band wide enough to cover the gap
        # between the probe's optimistic corner and the front: promote.
        prediction = gate.predict_full_min(x, probe)
        margin = prediction - gate._front.min(axis=0) + 1.0
        gate._errors = [np.abs(margin) for _ in gate._errors]
        assert gate.assess(x, probe).promote

    def test_deterministic(self):
        a, b = self._calibrated(), self._calibrated()
        x, low = np.array([2.2, 4.1]), np.array([50.0, 12.0])
        da, db = a.assess(x, low), b.assess(x, low)
        assert da.promote == db.promote and da.reason == db.reason
        assert np.array_equal(da.predicted_full_min, db.predicted_full_min)

    def test_stats_shape(self):
        gate = self._calibrated()
        stats = gate.stats()
        assert stats["dataset_size"] == 6
        assert stats["front_size"] >= 1
        assert len(stats["band"]) == 2


def _explore(tmp_path=None, gate=None, generations=5, population=10, **kw):
    kwargs = dict(
        design=get_design("corundum-cqm"),
        part="XC7K70T",
        use_model=False,
        seed=2021,
    )
    if gate is not None:
        kwargs.update(fidelity_gate=gate)
    kwargs.update(kw)
    session = DseSession(**kwargs)
    try:
        result = session.explore(
            generations=generations, population=population, pretrain=False
        )
    finally:
        session.close()
    return session, result


@pytest.fixture(scope="module")
def full_size_runs():
    """No-gate, gate-off and gated runs at the size the gate's bounds
    are stated for: 20 generations of 24, risk 0.1, trickle every 12."""
    size = dict(generations=20, population=24)
    gate_args = dict(gate_risk=0.1, gate_trickle_every=12)
    return (
        _explore(**size),
        _explore(gate=False, **size, **gate_args),
        _explore(gate=True, **size, **gate_args),
    )


def _minimized_front(session, result) -> np.ndarray:
    names = session.evaluator.metric_names()
    rows = np.array([[p.metrics[n] for n in names] for p in result.pareto])
    return session.fitness._metric_signs() * rows


class TestGateOffIdentity:
    def test_gate_off_bitwise_identical_to_no_gate_arguments(self):
        """The regression contract: ``fidelity_gate=False`` must be
        indistinguishable from the feature not existing."""
        _, plain = _explore()                 # no gate arguments at all
        _, off = _explore(gate=False, gate_risk=0.3, gate_trickle_every=5)
        assert _front_signature(plain) == _front_signature(off)
        assert plain.simulated_seconds == off.simulated_seconds
        assert plain.evaluations == off.evaluations
        assert plain.tool_runs == off.tool_runs

    def test_gate_off_identity_at_full_size(self, full_size_runs):
        (_, plain), (_, off), _ = full_size_runs
        assert _front_signature(plain) == _front_signature(off)
        assert plain.simulated_seconds == off.simulated_seconds

    def test_gate_requires_implementation_step(self):
        with pytest.raises(ValueError, match="IMPLEMENTATION"):
            DseSession(
                design=get_design("corundum-cqm"),
                step=FlowStep.SYNTHESIS,
                fidelity_gate=True,
            )

    def test_gate_rejects_full_route_probe(self):
        with pytest.raises(ValueError, match="lower rung"):
            DseSession(
                design=get_design("corundum-cqm"),
                fidelity_gate=True,
                gate_fidelity="full-route",
            )


class TestGatedExploration:
    def test_gated_run_saves_seconds_and_reports_full_fidelity(self):
        _, ungated = _explore(gate=False)
        session, gated = _explore(gate=True)
        assert gated.simulated_seconds < ungated.simulated_seconds
        stats = gated.stats
        assert stats["gate_skipped"] > 0
        assert stats["gate_promoted"] > 0
        # Promotion-on-demand drained every speculative front member.
        assert stats["gate_pending_speculative"] == (
            len(session.fitness._speculative)
        )
        # Nothing speculative reaches the reported front: every front
        # binding was answered by a real full-route run.
        full_bindings = {
            tuple(sorted(p.parameters.items()))
            for p in session.fitness.history
            if p.source in ("tool", "cache") and p.fidelity == "full-route"
        }
        for p in gated.pareto:
            assert tuple(sorted(p.parameters.items())) in full_bindings

    def test_gate_halves_seconds_within_one_percent_regret(self, full_size_runs):
        """The Simopt-style fidelity contract: at least 2x fewer simulated
        tool seconds at no more than 1% hypervolume regret.  Both fronts
        share one reference point: the union's worst corner plus a 10%
        margin, so boundary points add volume on either side."""
        _, (full_session, full), (gated_session, gated) = full_size_runs
        full_front = _minimized_front(full_session, full)
        gated_front = _minimized_front(gated_session, gated)
        union = np.vstack([full_front, gated_front])
        span = union.max(axis=0) - union.min(axis=0)
        ref = union.max(axis=0) + 0.1 * span + 1e-9
        hv_full = hypervolume(full_front, ref)
        regret = max(0.0, (hv_full - hypervolume(gated_front, ref)) / hv_full)
        assert regret <= 0.01
        assert full.simulated_seconds / gated.simulated_seconds >= 2.0

    def test_promote_archive_patches_archive_rows(self):
        session, result = _explore(gate=True)
        archive = result.raw.archive
        signs = session.fitness.promotion_gate.signs
        names = session.evaluator.metric_names()
        # After promotion, every non-dominated archive row equals a
        # full-fidelity history entry's minimized metrics.
        from repro.moo.nds import non_dominated_mask

        by_binding = {}
        for p in session.fitness.history:
            if p.fidelity == "full-route" and p.source in ("tool", "cache"):
                y = np.array([p.metrics[n] for n in names])
                by_binding[tuple(sorted(p.parameters.items()))] = signs * y
        mask = non_dominated_mask(archive.F)
        for i in np.flatnonzero(mask):
            binding = tuple(
                sorted(session.fitness.space.decode(archive.X[i]).items())
            )
            expected = by_binding.get(binding)
            assert expected is not None
            assert np.array_equal(archive.F[i], expected)

    def test_promote_archive_patches_speculative_rows(self):
        """An archive of just the speculative points (a smoke-size search
        leaves none on its own front) must be promoted and patched: each
        promoted row ends equal to its binding's full-route run."""
        session, _ = _explore(gate=True)
        fitness = session.fitness
        names = session.evaluator.metric_names()
        signs = fitness.promotion_gate.signs
        spec = [p for p in fitness.history if p.source == "speculative"]

        class Archive:
            X = np.array([fitness.space.encode(p.parameters) for p in spec])
            F = signs * np.array([[p.metrics[n] for n in names] for p in spec])

        before = Archive.F.copy()
        assert fitness.promote_archive(Archive) > 0
        full = {
            tuple(sorted(p.parameters.items())): signs * np.array(
                [p.metrics[n] for n in names]
            )
            for p in fitness.history
            if p.source == "tool" and p.fidelity == "full-route"
        }
        patched = 0
        for p, row, old in zip(spec, Archive.F, before):
            expected = full.get(tuple(sorted(p.parameters.items())))
            if expected is None:
                assert np.array_equal(row, old)  # never promoted
            else:
                assert np.array_equal(row, expected)
                patched += 1
        assert patched > 0

    def test_promote_archive_idempotent(self):
        session, result = _explore(gate=True)
        before = session.fitness.simulated_seconds
        assert session.fitness.promote_archive(result.raw.archive) == 0
        assert session.fitness.simulated_seconds == before


class TestCliFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args(
            ["dse", "--design", "corundum-cqm"]
        )
        assert args.fidelity_gate == "off"
        assert args.gate_risk == 0.05

    def test_parses_on_with_risk(self):
        args = build_parser().parse_args(
            ["dse", "--design", "corundum-cqm",
             "--fidelity-gate", "on", "--gate-risk", "0.2"]
        )
        assert args.fidelity_gate == "on"
        assert args.gate_risk == 0.2

    def test_rejects_out_of_range_risk(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dse", "--design", "corundum-cqm", "--gate-risk", "1.5"]
            )

    def test_threads_into_session(self):
        import repro.core.cli as cli_mod

        captured = {}
        real = cli_mod.DseSession

        class Spy:
            def __new__(cls, *a, **kw):
                captured.update(kw)
                return real(*a, **kw)

        cli_mod.DseSession = Spy
        try:
            args = build_parser().parse_args(
                ["dse", "--design", "corundum-cqm",
                 "--fidelity-gate", "on", "--gate-risk", "0.1"]
            )
            session = cli_mod._make_session(args, need_space=True)
            session.close()
        finally:
            cli_mod.DseSession = real
        assert captured["fidelity_gate"] is True
        assert captured["gate_risk"] == 0.1
        assert session.fitness.fidelity_gate_enabled

    def test_gate_probe_runs_use_synth_estimate(self):
        session, gated = _explore(gate=True)
        runs = session.evaluator.sim.fidelity_runs
        assert runs[str(Fidelity.SYNTH_ESTIMATE)] > 0
        assert runs[str(Fidelity.FULL_ROUTE)] > 0
        assert runs[str(Fidelity.PLACED_ESTIMATE)] == 0
