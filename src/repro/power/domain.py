"""Power domains: named supplies owning sets of volatile loads.

A :class:`PowerDomain` is the unit of separation the attack exploits.  It
owns every volatile load (SRAM array, register file, DRAM module) fed by
one board net, and exposes exactly the transitions a rail can make:

* ``apply_power(v)`` — rail comes up (PMIC sequencing or probe hold-over);
* ``cut_power()`` — rail collapses (input disconnect, power gating);
* ``hold_external(v, min_v)`` — the rail *would* collapse but an attacker's
  probe keeps it alive, modulo a transient sag to ``min_v`` during the
  disconnect surge;
* ``elapse_unpowered(t, T)`` — decay while dark.

Loads are duck-typed against the :class:`PowerLoad` protocol, which
:class:`~repro.circuits.sram.SramArray` satisfies directly.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..errors import PowerError
from ..obs import OBS
from .events import PowerEventKind, PowerEventLog


@runtime_checkable
class PowerLoad(Protocol):
    """What a volatile load must support to live inside a domain."""

    name: str

    @property
    def powered(self) -> bool:
        """Whether the load currently has a supply."""

    def restore_power(self, voltage: float | None = None) -> None:
        """Re-apply power after an unpowered interval."""

    def retained_fraction(self) -> float:
        """Fraction of cells that kept their data through the last
        :meth:`restore_power`.  A load may owe the work a restore's
        outcome needs and take it here, on the first call."""

    def power_down(self) -> None:
        """Remove the supply."""

    def elapse_unpowered(self, seconds: float, temperature_k: float) -> None:
        """Decay while unpowered."""

    def set_supply_voltage(self, voltage: float) -> int:
        """Move the supply to ``voltage``; returns cells lost."""

    def apply_voltage_transient(self, minimum_v: float) -> int:
        """Sag transiently to ``minimum_v``; returns cells lost."""


class PowerDomain:
    """One independently-powered region of the SoC."""

    def __init__(
        self,
        name: str,
        net_name: str,
        nominal_v: float,
        log: PowerEventLog | None = None,
    ) -> None:
        if nominal_v <= 0.0:
            raise PowerError(f"{name}: nominal voltage must be positive")
        self.name = name
        self.net_name = net_name
        self.nominal_v = nominal_v
        self.log = log or PowerEventLog()
        self._loads: list[PowerLoad] = []
        self._powered = False
        self._held_externally = False
        self._voltage = 0.0

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def attach_load(self, load: PowerLoad) -> PowerLoad:
        """Place a volatile load inside this domain."""
        if any(existing is load for existing in self._loads):
            raise PowerError(f"{self.name}: load {load.name!r} attached twice")
        self._loads.append(load)
        return load

    @property
    def loads(self) -> list[PowerLoad]:
        """The loads in this domain, in attachment order."""
        return list(self._loads)

    @property
    def powered(self) -> bool:
        """Whether the domain currently has a supply (PMIC or probe)."""
        return self._powered

    @property
    def held_externally(self) -> bool:
        """Whether an attacker's probe is the thing keeping this alive."""
        return self._held_externally

    @property
    def voltage(self) -> float:
        """Present domain voltage."""
        return self._voltage if self._powered else 0.0

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def apply_power(self, voltage: float | None = None) -> None:
        """Bring the rail up; every load restores from its decay.

        :meth:`retained_fractions` then reports what each load kept.
        """
        if self._powered:
            raise PowerError(f"{self.name}: domain already powered")
        voltage = self.nominal_v if voltage is None else voltage
        for load in self._loads:
            load.restore_power(voltage)
        self._powered = True
        self._held_externally = False
        self._voltage = voltage
        self.log.record(
            PowerEventKind.DOMAIN_POWERED, self.name, f"{voltage:.3f}V"
        )
        if OBS.enabled:
            OBS.gauge_set("power.domain.voltage_v", voltage, domain=self.name)
            for load_name, fraction in self.retained_fractions().items():
                OBS.histogram_record(
                    "power.domain.retained_fraction", fraction,
                    domain=self.name, load=load_name,
                )

    def retained_fractions(self) -> dict[str, float]:
        """Per-load retained-bit fractions of the last :meth:`apply_power`."""
        return {load.name: load.retained_fraction() for load in self._loads}

    def cut_power(self) -> None:
        """Collapse the rail; all loads begin unpowered decay."""
        if not self._powered:
            raise PowerError(f"{self.name}: domain already unpowered")
        for load in self._loads:
            load.power_down()
        self._powered = False
        self._held_externally = False
        self._voltage = 0.0
        self.log.record(PowerEventKind.DOMAIN_UNPOWERED, self.name)
        if OBS.enabled:
            OBS.gauge_set("power.domain.voltage_v", 0.0, domain=self.name)

    def hold_external(self, voltage: float, surge_minimum_v: float) -> int:
        """Keep the rail alive from a probe through a main-supply cut.

        ``surge_minimum_v`` is the lowest voltage reached during the
        disconnect surge (computed from the probe's electrical model);
        cells whose DRV it undercuts are lost.  Returns total cells lost.
        """
        if not self._powered:
            raise PowerError(
                f"{self.name}: cannot hold a rail that is already dark"
            )
        droop_depth_v = self._voltage - surge_minimum_v
        lost = 0
        for load in self._loads:
            lost += load.apply_voltage_transient(surge_minimum_v)
            lost += load.set_supply_voltage(voltage)
        self._held_externally = True
        self._voltage = voltage
        self.log.record(
            PowerEventKind.DOMAIN_HELD,
            self.name,
            f"{voltage:.3f}V, surge floor {surge_minimum_v:.3f}V, {lost} cells lost",
        )
        if OBS.enabled:
            OBS.counter_inc(
                "power.cells_lost_surge", lost, domain=self.name
            )
            OBS.gauge_set(
                "power.domain.surge_floor_v", surge_minimum_v, domain=self.name
            )
            OBS.gauge_set(
                "power.domain.droop_depth_v", droop_depth_v, domain=self.name
            )
            OBS.gauge_set("power.domain.voltage_v", voltage, domain=self.name)
        return lost

    def release_external_hold(self, pmic_voltage: float) -> None:
        """Hand the rail back to the PMIC after the system is repowered."""
        if not self._held_externally:
            raise PowerError(f"{self.name}: domain is not externally held")
        for load in self._loads:
            load.set_supply_voltage(pmic_voltage)
        self._held_externally = False
        self._voltage = pmic_voltage
        self.log.record(
            PowerEventKind.DOMAIN_RELEASED, self.name, f"{pmic_voltage:.3f}V"
        )

    def elapse_unpowered(self, seconds: float, temperature_k: float) -> None:
        """Decay every load for ``seconds`` at ``temperature_k``."""
        if self._powered:
            raise PowerError(f"{self.name}: domain is powered; nothing decays")
        for load in self._loads:
            load.elapse_unpowered(seconds, temperature_k)

    def scale_voltage(self, voltage: float) -> int:
        """DVFS / standby retention move: shift the rail while powered.

        Modern PMUs drop idle RAM domains toward the retention floor to
        cut leakage (paper §2.1).  Cells whose DRV the new level
        undercuts are lost; returns that count so callers can map the
        voltage/retention trade-off.
        """
        if not self._powered:
            raise PowerError(f"{self.name}: cannot scale an unpowered domain")
        if self._held_externally:
            raise PowerError(
                f"{self.name}: rail is externally held; the PMU cannot move it"
            )
        if voltage <= 0.0:
            raise PowerError("scaled voltage must be positive")
        lost = 0
        for load in self._loads:
            lost += load.set_supply_voltage(voltage)
        self._voltage = voltage
        self.log.record(
            PowerEventKind.NOTE,
            self.name,
            f"DVFS to {voltage:.3f}V, {lost} cells lost",
        )
        if OBS.enabled:
            OBS.counter_inc("power.cells_lost_dvfs", lost, domain=self.name)
            OBS.gauge_set("power.domain.voltage_v", voltage, domain=self.name)
        return lost

    def leakage_power_fraction(self) -> float:
        """Relative leakage power vs nominal (quadratic in voltage)."""
        if not self._powered:
            return 0.0
        return (self._voltage / self.nominal_v) ** 2
