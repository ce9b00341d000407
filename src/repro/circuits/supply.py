"""The attacker's instruments: bench supplies and voltage probes.

Paper §6: the attack rides a rail through a power cycle by attaching an
external supply to a test pad at the rail's nominal voltage.  Whether the
rail *stays* above every cell's data retention voltage during the
disconnect surge depends on the supply's current capability and source
impedance — a ">3 A bench supply" succeeds; a feeble probe loses bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError, ProbeError
from ..units import milliohms
from .passives import DecouplingNetwork, DisconnectSurge, SupplyLineParasitics


@dataclass(frozen=True)
class BenchSupply:
    """An adjustable lab power supply.

    Parameters
    ----------
    voltage_v:
        Set-point voltage at the probe tip.
    current_limit_a:
        Maximum current before the supply current-limits (folds back).
    source_resistance_ohm:
        Output + lead resistance; multiplies the steady surge current
        into a voltage drop at the pad.
    """

    voltage_v: float
    current_limit_a: float = 3.0
    source_resistance_ohm: float = milliohms(50)

    def __post_init__(self) -> None:
        if self.voltage_v <= 0.0:
            raise CalibrationError("supply voltage must be positive")
        if self.current_limit_a <= 0.0:
            raise CalibrationError("current limit must be positive")
        if self.source_resistance_ohm < 0.0:
            raise CalibrationError("source resistance cannot be negative")

    def minimum_rail_voltage(
        self,
        surge: DisconnectSurge,
        decoupling: DecouplingNetwork,
        parasitics: SupplyLineParasitics | None = None,
    ) -> float:
        """Lowest rail voltage during a main-supply disconnect surge.

        The supply covers the surge up to its current limit; the
        decoupling network absorbs any deficit, sagging in proportion.
        """
        parasitics = parasitics or SupplyLineParasitics()
        supplied = min(surge.peak_current_a, self.current_limit_a)
        deficit = max(0.0, surge.peak_current_a - self.current_limit_a)
        droop = (
            parasitics.resistive_drop(supplied)
            + supplied * self.source_resistance_ohm
            + decoupling.sag_from_deficit(deficit, surge.duration_s)
        )
        return max(0.0, self.voltage_v - droop)

    def steady_state_voltage(self, load_a: float) -> float:
        """Pad voltage under a steady load (retention current)."""
        if load_a < 0.0:
            raise CalibrationError("load current cannot be negative")
        if load_a > self.current_limit_a:
            # Current limiting: the supply folds back toward zero volts.
            return 0.0
        return self.voltage_v - load_a * self.source_resistance_ohm


@dataclass(frozen=True)
class SupplyNoise:
    """Set-point imperfection of a real bench supply.

    ``setpoint_tolerance_v`` bounds the programming error: a supply set
    to 0.800 V actually lands uniformly within ±tolerance of it (the
    datasheet's "programming accuracy").  ``drift_v_per_s`` bounds a
    linear output drift over a hold — thermal settling of the sense
    loop — whose rate is drawn once per attach and accumulates over the
    hold time.  Both draws come from a dedicated ``rng.spawn`` stream,
    so a noisy supply is exactly reproducible from the rig seed.
    """

    setpoint_tolerance_v: float = 0.0
    drift_v_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.setpoint_tolerance_v < 0.0:
            raise CalibrationError("set-point tolerance cannot be negative")
        if self.drift_v_per_s < 0.0:
            raise CalibrationError("drift rate cannot be negative")

    def sample_setpoint_v(
        self,
        nominal_v: float,
        rng: np.random.Generator,
        hold_s: float = 0.0,
    ) -> float:
        """One attach's realised set-point after error and drift.

        Draws exactly two variates (programming error, drift rate) even
        when a bound is zero, so enabling one noise term never shifts
        the stream position of the other.
        """
        error_v = float(
            rng.uniform(-self.setpoint_tolerance_v, self.setpoint_tolerance_v)
        )
        drift_rate = float(
            rng.uniform(-self.drift_v_per_s, self.drift_v_per_s)
        )
        realised = nominal_v + error_v + drift_rate * hold_s
        return max(realised, 1e-6)


@dataclass
class VoltageProbe:
    """A bench supply landed on a specific test pad of a specific net.

    Probes are created by the attack orchestration
    (:mod:`repro.core.probe`) after planning against the board's PDN; the
    class only validates electrical sanity: the set-point must match the
    pad's live nominal voltage within a tolerance, otherwise attaching the
    probe would fight the PMIC (and, on real hardware, release the magic
    smoke).
    """

    supply: BenchSupply
    pad_name: str
    net_name: str
    attached: bool = False

    #: Maximum |set-point − rail| mismatch tolerated when attaching to a
    #: live rail, as a fraction of the rail voltage.
    ATTACH_TOLERANCE = 0.08

    def attach(self, live_rail_voltage: float) -> None:
        """Land the probe on the pad while the rail is at ``live_rail_voltage``.

        A zero rail voltage is allowed (attaching to an unpowered board);
        otherwise the mismatch check applies.
        """
        if self.attached:
            raise ProbeError(f"probe already attached to {self.pad_name}")
        if live_rail_voltage > 0.0:
            mismatch = abs(self.supply.voltage_v - live_rail_voltage)
            if mismatch > self.ATTACH_TOLERANCE * live_rail_voltage:
                raise ProbeError(
                    f"probe set-point {self.supply.voltage_v:.3f}V fights the "
                    f"live rail at {live_rail_voltage:.3f}V on {self.pad_name}"
                )
        self.attached = True

    def detach(self) -> None:
        """Lift the probe off the pad."""
        if not self.attached:
            raise ProbeError(f"probe is not attached to {self.pad_name}")
        self.attached = False
