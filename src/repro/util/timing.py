"""Wall-clock helpers: soft deadlines.

The paper runs its cv32e40p DSE "with a four hour soft deadline to the
genetic algorithm": the GA finishes the current generation once the deadline
passes rather than aborting mid-evaluation.  :class:`SoftDeadline` models
exactly that contract and is consumed by ``repro.moo.termination``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["SoftDeadline"]


@dataclass
class SoftDeadline:
    """A soft wall-clock budget.

    ``expired()`` becomes true once ``budget_s`` seconds have passed since
    construction (or since :meth:`restart`).  A budget of ``None`` never
    expires.  ``virtual_elapsed`` lets the simulated flow charge *simulated*
    tool seconds against the budget, so benchmarks can reproduce the paper's
    four-hour run in milliseconds of real time.
    """

    budget_s: float | None = None
    virtual_elapsed: float = 0.0
    _t0: float = field(default_factory=time.perf_counter)

    def restart(self) -> None:
        self._t0 = time.perf_counter()
        self.virtual_elapsed = 0.0

    def charge(self, simulated_seconds: float) -> None:
        """Charge simulated tool time against the budget."""
        if simulated_seconds < 0:
            raise ValueError("cannot charge negative time")
        self.virtual_elapsed += simulated_seconds

    def elapsed(self) -> float:
        return (time.perf_counter() - self._t0) + self.virtual_elapsed

    def remaining(self) -> float:
        if self.budget_s is None:
            return float("inf")
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0
