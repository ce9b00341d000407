"""Simulated clock and power-event log."""

import pytest

from repro.errors import PowerError
from repro.power.events import PowerEventKind, PowerEventLog, SimClock


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_time_cannot_reverse(self):
        with pytest.raises(PowerError):
            SimClock().advance(-1.0)


class TestLog:
    def test_records_are_timestamped(self):
        log = PowerEventLog()
        log.clock.advance(0.25)
        event = log.record(PowerEventKind.BOOT, "board")
        assert event.time_s == pytest.approx(0.25)

    def test_last_returns_most_recent(self):
        log = PowerEventLog()
        log.record(PowerEventKind.BOOT, "first")
        log.record(PowerEventKind.BOOT, "second")
        assert log.last(PowerEventKind.BOOT).subject == "second"

    def test_last_missing_kind_rejected(self):
        with pytest.raises(PowerError):
            PowerEventLog().last(PowerEventKind.BOOT)
