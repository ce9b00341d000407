"""Fault specifications for chaos runs.

A :class:`FaultSpec` names what fires (``kind``), where (``index`` on
the kind's target axis, :data:`FAULT_KINDS`) and how often, for
example ``FaultSpec("kill", 3)`` (SIGKILL the worker the moment it
reaches plan unit 3), ``FaultSpec("torn", 1)`` (tear the second
journal *unit* record mid-write), or ``FaultSpec("slow", 2,
param=0.1)`` (stall unit 2 for 0.1 s before running it).

Targets are **deterministic coordinates**, never wall-clock moments:
``unit`` indices are the plan's unit indices (fixed at plan-build
time), ``record`` indices count the unit records appended to the
checkpoint journal.  Combined with the marker-file one-shot state in
:class:`~repro.chaos.inject.ChaosInjector`, this makes a chaos run a
pure function of ``(faults, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ChaosError

#: Every injectable fault kind and the target axis it fires on.
FAULT_KINDS: dict[str, str] = {
    "kill": "unit",     # SIGKILL the worker (simulated crash serially)
    "hang": "unit",     # stop making heartbeat progress
    "poison": "unit",   # raise a deterministic unit error
    "slow": "unit",     # stall before running the unit (no failure)
    "fsync": "record",  # journal fsync path raises OSError (EIO)
    "enospc": "record", # journal write raises OSError (ENOSPC)
    "torn": "record",   # journal record torn mid-write, then crash
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what fires, where, and how often.

    ``times`` bounds how many firings the fault gets before its
    marker-file budget is exhausted (1 = one-shot, the default —
    exactly what a bounded-retry engine must recover from).
    ``param`` carries ``slow``'s stall seconds.
    """

    kind: str
    index: int
    times: int = 1
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(sorted(FAULT_KINDS))
            raise ChaosError(
                f"unknown fault kind {self.kind!r}; choose from: {known}"
            )
        if self.index < 0 or self.times < 1:
            raise ChaosError(
                f"bad fault {self.describe()!r}: index must be >= 0 "
                f"and times >= 1"
            )

    @property
    def target(self) -> str:
        """The axis ``index`` counts on: ``unit`` or ``record``."""
        return FAULT_KINDS[self.kind]

    def describe(self) -> str:
        """Canonical text for trace events and error messages."""
        text = f"{self.kind}@{self.target}={self.index}"
        if self.times != 1:
            text += f":times={self.times}"
        if self.param is not None:
            text += f":s={self.param:g}"
        return text
