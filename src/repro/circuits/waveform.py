"""Rail waveform reconstruction — the oscilloscope view of the attack.

Paper §6 narrates the electrical life of the probed rail: ~0.8 V
nominal, a current spike when the main input is cut (the probe momentarily
sources the whole cluster), recovery within microseconds, and an
indefinite ~8 mA retention hold.  This module synthesises that waveform
from the same electrical models the attack uses, so experiments and
examples can *show* the transient that decides whether cells survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..units import microseconds
from .passives import DecouplingNetwork, DisconnectSurge, SupplyLineParasitics
from .supply import BenchSupply


@dataclass(frozen=True)
class VoltageTrace:
    """A rail voltage sampled on a uniform time axis."""

    time_s: np.ndarray
    voltage_v: np.ndarray

    def minimum(self) -> float:
        """Lowest voltage in the trace."""
        return float(self.voltage_v.min())

    def time_below(self, threshold_v: float) -> float:
        """Total time the rail spends below ``threshold_v`` (seconds)."""
        dt = float(self.time_s[1] - self.time_s[0])
        return float(np.count_nonzero(self.voltage_v < threshold_v)) * dt


@dataclass(frozen=True)
class RailWaveform(VoltageTrace):
    """A reconstructed V(t) trace around the disconnect event."""

    floor_v: float
    steady_v: float

    def ascii_plot(self, width: int = 72, height: int = 12) -> str:
        """Render the trace as ASCII art (voltage on the y axis)."""
        idx = np.linspace(0, self.time_s.size - 1, width).astype(int)
        samples = self.voltage_v[idx]
        v_max = float(samples.max()) or 1.0
        rows = []
        for level in range(height, 0, -1):
            threshold = v_max * level / height
            rows.append(
                "".join("#" if v >= threshold else " " for v in samples)
            )
        rows.append("-" * width)
        return "\n".join(rows)


def disconnect_waveform(
    supply: BenchSupply,
    nominal_v: float,
    surge: DisconnectSurge,
    decoupling: DecouplingNetwork,
    parasitics: SupplyLineParasitics | None = None,
    pre_window_s: float = microseconds(20),
    post_window_s: float = microseconds(200),
    samples: int = 2048,
) -> RailWaveform:
    """Reconstruct the probed rail's V(t) around the main-supply cut.

    Piecewise model, consistent with
    :meth:`~repro.circuits.supply.BenchSupply.minimum_rail_voltage`:

    * before t=0: nominal rail voltage (PMIC in control);
    * [0, surge duration]: dip to the surge floor (probe + decoupling
      absorb the cluster's dying draw), recovering exponentially;
    * afterwards: the probe's steady retention hold (a few millivolts
      under its set-point from the retention current).
    """
    if pre_window_s < 0 or post_window_s <= 0 or samples < 16:
        raise CalibrationError("bad waveform window")
    parasitics = parasitics or SupplyLineParasitics()
    floor = supply.minimum_rail_voltage(surge, decoupling, parasitics)
    steady = supply.steady_state_voltage(surge.settle_current_a)
    time = np.linspace(-pre_window_s, post_window_s, samples)
    voltage = np.empty_like(time)
    # Recovery time constant: the decoupling bank recharged by the probe.
    tau = max(
        decoupling.capacitance_f
        * (supply.source_resistance_ohm + parasitics.resistance_ohm),
        surge.duration_s / 4,
    )
    for i, t in enumerate(time):
        if t < 0:
            voltage[i] = nominal_v
        elif t <= surge.duration_s:
            voltage[i] = floor
        else:
            elapsed = t - surge.duration_s
            voltage[i] = steady + (floor - steady) * np.exp(-elapsed / tau)
    return RailWaveform(
        time_s=time, voltage_v=voltage, floor_v=floor, steady_v=steady
    )
