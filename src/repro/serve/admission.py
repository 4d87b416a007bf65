"""Admission control for the serve loop: how many jobs to claim, when.

PR 8's serve loop admitted work on a fixed stagger — one claim per
``poll_interval_s`` tick — which is a *policy* (keep an earlier tenant
ahead of an overlapping one so its runs become the later tenant's memo
hits) implemented as a *constant*.  This module makes the policy a
first-class object the server consults every pass:

- :class:`FixedAdmission` reproduces the PR 8 stagger bit-for-bit: one
  claim per tick, always wait out the poll interval, never wake early
  on a submit.  It is the reference mode equivalence tests pin against.
- :class:`AdaptiveAdmission` is the AutoThrottle-style AIMD controller
  the ROADMAP names.  Its two signals are *fleet utilization* (running
  evaluations over scheduler capacity) and the *warm-hit ratio* of the
  last window (memo + store + coalesced answers over all answers):
  while the pool has headroom and overlapping tenants are feeding each
  other cache hits, claiming more jobs per pass is nearly free, so the
  claim budget grows additively; once in-flight saturates or cold
  tool-runs dominate the window, the budget halves back toward the
  one-claim stagger (multiplicative decrease).  It also opts the server
  into the event-driven claim loop: a queue submit wakes the loop
  immediately instead of riding out the tick.

Controllers are pure decision functions over :class:`AdmissionSignals`
snapshots — no clocks, no I/O — so the AIMD trajectory is unit-testable
with synthetic signal sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "AdmissionDecision",
    "AdmissionSignals",
    "AdaptiveAdmission",
    "FixedAdmission",
    "make_admission",
]


@dataclass(frozen=True)
class AdmissionSignals:
    """One serve-loop pass's view of the service, as the controller sees it.

    ``warm_hits`` / ``fresh_runs`` are *deltas* since the previous pass
    (the window), not lifetime totals — the controller reacts to what the
    fleet is doing now, not to a long-dead cold start.
    """

    utilization: float  #: in-flight evaluations / scheduler capacity, 0..1
    warm_hits: int  #: memo + store + coalesced answers this window
    fresh_runs: int  #: tool dispatches this window
    queue_depth: int  #: jobs still waiting in queued/


@dataclass(frozen=True)
class AdmissionDecision:
    """What the serve loop should do this pass."""

    claims: int  #: maximum jobs to claim from the queue this pass
    wait_s: float  #: how long to wait for a wake event before the next pass


class FixedAdmission:
    """The PR 8 stagger verbatim: one claim per tick, no submit wake-ups."""

    name = "fixed"
    #: Fixed mode keeps the poll-driven loop: the wait is a plain timer
    #: and a queue submit does *not* cut it short, preserving the exact
    #: claim spacing earlier releases shipped.
    event_driven = False

    def __init__(self, poll_interval_s: float = 0.05) -> None:
        if poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        self.poll_interval_s = poll_interval_s
        self.decisions = 0

    def decide(self, signals: AdmissionSignals) -> AdmissionDecision:
        self.decisions += 1
        return AdmissionDecision(claims=1, wait_s=self.poll_interval_s)

    def stats(self) -> dict[str, Any]:
        return {
            "mode": self.name,
            "decisions": self.decisions,
            "claim_budget": 1,
        }


class AdaptiveAdmission:
    """AIMD claim budget over fleet utilization and the warm-hit ratio.

    The budget starts at one claim per pass (the stagger).  Each pass:

    - **Back off** (``budget *= backoff``, floored at 1) when the pool is
      saturated (``utilization >= util_high``) or the window ran mostly
      cold tool dispatches (``warm ratio < warm_low`` with at least one
      fresh run) — admitting more tenants then only deepens the queue.
    - **Otherwise grow** (``budget += increase``, capped at
      ``max_claim``): the pool has headroom and overlapping tenants are
      resolving each other's points from memo/store/coalescing, so the
      marginal admitted job is cheap.

    A window with no answers at all (idle service) keeps growing toward
    the cap — an idle pool should drain a burst of submissions in one
    pass, which is exactly what the event-driven wake enables.
    """

    name = "adaptive"
    event_driven = True

    def __init__(
        self,
        poll_interval_s: float = 0.05,
        max_claim: int = 8,
        increase: float = 1.0,
        backoff: float = 0.5,
        util_high: float = 0.85,
        warm_low: float = 0.25,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        if max_claim < 1:
            raise ValueError(f"max_claim must be >= 1, got {max_claim}")
        if increase <= 0:
            raise ValueError(f"increase must be > 0, got {increase}")
        if not 0 < backoff < 1:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        #: The heartbeat between passes when nothing wakes the loop —
        #: cancel markers and the STOP file are still polled on it.
        self.poll_interval_s = poll_interval_s
        self.max_claim = max_claim
        self.increase = increase
        self.backoff = backoff
        self.util_high = util_high
        self.warm_low = warm_low
        self._budget = 1.0
        self.decisions = 0
        self.increases = 0
        self.backoffs = 0

    @property
    def claim_budget(self) -> int:
        return int(self._budget)

    def decide(self, signals: AdmissionSignals) -> AdmissionDecision:
        self.decisions += 1
        answered = signals.warm_hits + signals.fresh_runs
        warm_ratio = (signals.warm_hits / answered) if answered else None
        cold = (
            warm_ratio is not None
            and warm_ratio < self.warm_low
            and signals.fresh_runs > 0
        )
        if signals.utilization >= self.util_high or cold:
            self._budget = max(1.0, self._budget * self.backoff)
            self.backoffs += 1
        else:
            self._budget = min(float(self.max_claim), self._budget + self.increase)
            self.increases += 1
        return AdmissionDecision(
            claims=int(self._budget), wait_s=self.poll_interval_s
        )

    def stats(self) -> dict[str, Any]:
        return {
            "mode": self.name,
            "decisions": self.decisions,
            "increases": self.increases,
            "backoffs": self.backoffs,
            "claim_budget": self.claim_budget,
        }


def make_admission(
    mode: str,
    poll_interval_s: float,
    *,
    max_claim: int = 8,
    backoff: float = 0.5,
    util_high: float = 0.85,
    warm_low: float = 0.25,
) -> FixedAdmission | AdaptiveAdmission:
    """Build the controller the ``--admission`` flag names."""
    if mode == "fixed":
        return FixedAdmission(poll_interval_s)
    if mode == "adaptive":
        return AdaptiveAdmission(
            poll_interval_s,
            max_claim=max_claim,
            backoff=backoff,
            util_high=util_high,
            warm_low=warm_low,
        )
    raise ValueError(f"unknown admission mode {mode!r}")
