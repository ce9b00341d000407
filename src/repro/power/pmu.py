"""The on-chip Power Management Unit.

The PMU owns the SoC's power domains and sequences them at startup.
Volt Boot does not subvert the PMU — it bypasses it entirely by driving
a rail from outside — but a faithful PMU is needed for the boot flows:
a domain the attacker holds up is handed back, not re-powered.
"""

from __future__ import annotations

from ..errors import PowerError
from .domain import PowerDomain
from .events import PowerEventLog


class PowerManagementUnit:
    """Startup sequencer for a set of power domains."""

    def __init__(self, log: PowerEventLog) -> None:
        self.log = log
        self._domains: dict[str, PowerDomain] = {}
        self._sequence: list[str] = []

    def add_domain(self, domain: PowerDomain) -> PowerDomain:
        """Register a domain; startup sequence follows registration order."""
        if domain.name in self._domains:
            raise PowerError(f"duplicate power domain {domain.name!r}")
        self._domains[domain.name] = domain
        self._sequence.append(domain.name)
        return domain

    def domain(self, name: str) -> PowerDomain:
        """Look up a domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise PowerError(f"unknown power domain {name!r}") from None

    def domains(self) -> list[PowerDomain]:
        """All domains in startup-sequence order."""
        return [self._domains[name] for name in self._sequence]

    # ------------------------------------------------------------------
    # Sequencing
    # ------------------------------------------------------------------

    def power_up_sequence(
        self, rail_voltages: dict[str, float]
    ) -> list[PowerDomain]:
        """Bring up all domains in order from the given rail voltages.

        ``rail_voltages`` maps domain name -> live rail voltage.  Domains
        that are already powered (e.g. held alive by an attacker's probe)
        are handed back to the PMIC rather than re-powered — this is the
        exact moment Volt Boot's retained state survives a reboot.
        Returns the domains that actually came up from dark, in order;
        each reports what its loads retained
        (:meth:`~repro.power.domain.PowerDomain.retained_fractions`).
        """
        came_up: list[PowerDomain] = []
        for name in self._sequence:
            domain = self._domains[name]
            voltage = rail_voltages.get(name, domain.nominal_v)
            if domain.powered:
                if domain.held_externally:
                    domain.release_external_hold(voltage)
                continue
            domain.apply_power(voltage)
            came_up.append(domain)
        return came_up
