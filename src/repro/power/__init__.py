"""Power-domain architecture: domains, gating, sequencing, event logs.

Paper §2.3 divides an SoC's supplies into core, memory, and I/O domains,
each independently gate-able and each surfacing at its own board net.
This package models that separation — the design choice Volt Boot
weaponises:

* :mod:`~repro.power.domain` — a named power domain owning a set of
  volatile loads (SRAM arrays, register files, DRAM modules);
* :mod:`~repro.power.pmu` — the on-chip power management unit that
  sequences domains at startup;
* :mod:`~repro.power.events` — a simulated-time event log so attacks and
  experiments can reconstruct exactly what happened to each rail.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".domain": ("PowerDomain", "PowerLoad"),
    ".events": ("PowerEvent", "PowerEventKind", "PowerEventLog", "SimClock"),
    ".pmu": ("PowerManagementUnit",),
})
