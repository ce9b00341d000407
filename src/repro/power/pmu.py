"""The on-chip Power Management Unit.

The PMU owns the SoC's power domains, sequences them at startup, and
power-gates them at runtime (paper §2.3: domains "allow full power down
at runtime when not needed").  Volt Boot does not subvert the PMU — it
bypasses it entirely by driving a rail from outside — but a faithful PMU
is needed for the boot flows and for the runtime-gating behaviours the
countermeasures section discusses.
"""

from __future__ import annotations

from ..errors import PowerError
from .domain import PowerDomain
from .events import PowerEventLog


class PowerManagementUnit:
    """Sequencer and runtime gate controller for a set of power domains."""

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

    def power_down_all(self) -> None:
        """Collapse every still-powered, non-held domain (input cut)."""
        for name in reversed(self._sequence):
            domain = self._domains[name]
            if domain.powered and not domain.held_externally:
                domain.cut_power()

    # ------------------------------------------------------------------
    # Runtime gating
    # ------------------------------------------------------------------

    def gate(self, name: str) -> None:
        """Power-gate one domain at runtime (software-initiated)."""
        domain = self.domain(name)
        if not domain.powered:
            raise PowerError(f"{name}: cannot gate an unpowered domain")
        if domain.held_externally:
            raise PowerError(f"{name}: rail is externally held; gating fails")
        domain.cut_power()

    def ungate(self, name: str, voltage: float | None = None) -> None:
        """Re-enable a gated domain; its
        :meth:`~repro.power.domain.PowerDomain.retained_fractions` then
        report what each load kept."""
        domain = self.domain(name)
        if domain.powered:
            raise PowerError(f"{name}: domain is already powered")
        domain.apply_power(voltage)
