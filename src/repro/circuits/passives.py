"""Board-level passive components and the supply-droop model.

Paper §5.1: every supply pin of an SoC is decorated with passive
components — decoupling capacitors against load transients on LDO-fed
domains, LC filters on switching-regulator domains.  Those passives are
exactly what gives the attacker a place to land a probe, and their values
govern whether the probed rail *survives the disconnect surge*.

When the main supply is cut, the compute cores momentarily draw their
current from whatever still feeds the rail — the attacker's probe.  The
rail voltage dips by the resistive drop across the probe plus whatever
charge deficit the decoupling network cannot cover:

    droop = I_supplied * R_source + max(0, I_surge - I_limit) * t_surge / C

If the dip undercuts a cell's data retention voltage, that cell is lost
(paper §6: "a power supply capable of supplying sufficient current is
essential").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CalibrationError
from ..units import microseconds, milliamps, milliohms


@dataclass(frozen=True)
class SupplyLineParasitics:
    """Series parasitics of a board supply line.

    ``resistance_ohm`` models trace + package resistance; it sets how far
    the rail drops under a current step.
    """

    resistance_ohm: float = milliohms(10)

    def __post_init__(self) -> None:
        if self.resistance_ohm < 0.0:
            raise CalibrationError("parasitics cannot be negative")

    def resistive_drop(self, current_a: float) -> float:
        """Voltage lost across the line resistance at ``current_a``."""
        return current_a * self.resistance_ohm


@dataclass(frozen=True)
class DecouplingNetwork:
    """Aggregate decoupling capacitance hanging off one supply net.

    Parameters
    ----------
    capacitance_f:
        Total decoupling capacitance on the net (bulk + ceramic).
    esr_ohm:
        Effective series resistance of the capacitor bank.
    """

    capacitance_f: float = 100e-6
    esr_ohm: float = milliohms(5)

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0.0:
            raise CalibrationError("decoupling capacitance must be positive")
        if self.esr_ohm < 0.0:
            raise CalibrationError("ESR cannot be negative")

    def sag_from_deficit(self, deficit_a: float, duration_s: float) -> float:
        """Voltage sag when the caps must cover ``deficit_a`` for a while.

        ΔV = I·t / C plus the ESR step.  ``deficit_a`` is the portion of
        the surge the active supply could not deliver.
        """
        if deficit_a < 0.0 or duration_s < 0.0:
            raise CalibrationError("deficit and duration cannot be negative")
        return deficit_a * duration_s / self.capacitance_f + deficit_a * self.esr_ohm


@dataclass(frozen=True)
class DisconnectSurge:
    """Electrical description of an abrupt main-supply disconnect.

    Paper §6: cutting the PMIC input makes the cores momentarily pull
    their supply current from the probed rail; on a Raspberry Pi 4 the
    probe sees 400–600 mA of load which spikes before settling to ~8 mA
    retention current a few microseconds later.
    """

    peak_current_a: float = 2.0
    duration_s: float = microseconds(5)
    settle_current_a: float = milliamps(8)

    def __post_init__(self) -> None:
        if self.peak_current_a < 0.0 or self.settle_current_a < 0.0:
            raise CalibrationError("surge currents cannot be negative")
        if self.duration_s <= 0.0:
            raise CalibrationError("surge duration must be positive")
