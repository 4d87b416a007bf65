"""Tests for soft deadlines."""

import pytest

from repro.util.timing import SoftDeadline


class TestSoftDeadline:
    def test_unbounded_never_expires(self):
        d = SoftDeadline(budget_s=None)
        d.charge(1e9)
        assert not d.expired()
        assert d.remaining() == float("inf")

    def test_virtual_charge_expires(self):
        d = SoftDeadline(budget_s=100.0)
        assert not d.expired()
        d.charge(99.0)
        assert not d.expired()
        d.charge(5.0)
        assert d.expired()

    def test_paper_four_hour_budget(self):
        """The cv32e40p experiment's 4-hour soft deadline, in simulated
        seconds: ~80 full runs at ~180 s each fits, 100 does not."""
        d = SoftDeadline(budget_s=4 * 3600.0)
        for _ in range(70):
            d.charge(180.0)
        assert not d.expired()  # 12,600 s of tool time: within budget
        for _ in range(30):
            d.charge(180.0)
        assert d.expired()      # 18,000 s: past the 14,400 s budget

    def test_restart_clears_charges(self):
        d = SoftDeadline(budget_s=10.0)
        d.charge(50.0)
        assert d.expired()
        d.restart()
        assert not d.expired()

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SoftDeadline(budget_s=1.0).charge(-0.1)
