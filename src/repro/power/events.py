"""Simulated time and the power-event log.

Attacks are sequences of electrical events (probe attached, input cut,
surge, hold, reboot).  Experiments need to reconstruct and assert on that
sequence, so every board keeps a :class:`PowerEventLog` stamped by a
shared :class:`SimClock`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import PowerError
from ..obs import OBS


class SimClock:
    """A monotonically advancing simulated-time counter (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds since board creation."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance time by ``seconds`` and return the new now."""
        if seconds < 0.0:
            raise PowerError("time cannot run backwards")
        self._now += seconds
        return self._now


class PowerEventKind(enum.Enum):
    """Classification of power events, for filtering in reports."""

    INPUT_CONNECTED = "input-connected"
    INPUT_DISCONNECTED = "input-disconnected"
    DOMAIN_POWERED = "domain-powered"
    DOMAIN_UNPOWERED = "domain-unpowered"
    DOMAIN_HELD = "domain-held"
    DOMAIN_RELEASED = "domain-released"
    VOLTAGE_TRANSIENT = "voltage-transient"
    PROBE_ATTACHED = "probe-attached"
    PROBE_DETACHED = "probe-detached"
    BOOT = "boot"
    NOTE = "note"


@dataclass(frozen=True)
class PowerEvent:
    """One timestamped event on the board's power network."""

    time_s: float
    kind: PowerEventKind
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{self.time_s * 1e3:10.3f}ms] {self.kind.value}: {self.subject}{detail}"


@dataclass
class PowerEventLog:
    """Append-only log of :class:`PowerEvent` records."""

    clock: SimClock = field(default_factory=SimClock)
    events: list[PowerEvent] = field(default_factory=list)

    def record(
        self, kind: PowerEventKind, subject: str, detail: str = ""
    ) -> PowerEvent:
        """Append an event stamped with the current simulated time."""
        event = PowerEvent(self.clock.now, kind, subject, detail)
        self.events.append(event)
        if OBS.enabled:
            OBS.power_event(event)
        return event

    def last(self, kind: PowerEventKind) -> PowerEvent:
        """Most recent event of ``kind``."""
        for event in reversed(self.events):
            if event.kind is kind:
                return event
        raise PowerError(f"no event of kind {kind.value!r} recorded")
