"""Glitch pulse shapes and the rail voltage the die actually sees.

A voltage glitcher drives a brief trapezoidal dip into a supply rail:
the attacker parks a low-impedance source (a :class:`BenchSupply` in
this model, a MOSFET crowbar in practice) on a test pad and commands a
dip of ``depth_v`` volts, ``offset_s`` seconds after the victim starts,
for ``width_s`` seconds.  The die does not see that ideal trapezoid:
the net's decoupling network and line parasitics form an RC low-pass
(the reason real glitch campaigns begin by desoldering bulk decoupling
caps), so short pulses arrive attenuated and rounded.

:func:`die_waveform` superimposes a :class:`GlitchPulse` on a rail and
filters it through the same :mod:`repro.circuits.passives` components
the Volt Boot surge model uses, yielding a :class:`GlitchWaveform` the
fault model samples per retired instruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..circuits.passives import DecouplingNetwork, SupplyLineParasitics
from ..circuits.supply import BenchSupply
from ..circuits.waveform import VoltageTrace
from ..errors import CalibrationError
from ..units import nanoseconds

#: Hard cap on waveform sample counts: a mis-set resolution should fail
#: loudly instead of allocating gigabytes.
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class GlitchPulse:
    """One parameterised glitch: a trapezoidal dip in the drive voltage.

    Parameters
    ----------
    offset_s:
        Delay from victim start (t=0) to the falling edge.
    width_s:
        Time spent at full depth (flat bottom of the trapezoid).
    depth_v:
        How far below nominal the drive voltage dips.
    rise_s / fall_s:
        Edge times of the dip (glitcher slew limits).
    """

    offset_s: float
    width_s: float
    depth_v: float
    rise_s: float = nanoseconds(5)
    fall_s: float = nanoseconds(5)

    def __post_init__(self) -> None:
        if self.offset_s < 0.0:
            raise CalibrationError("glitch offset cannot be negative")
        if self.width_s <= 0.0:
            raise CalibrationError("glitch width must be positive")
        if self.depth_v <= 0.0:
            raise CalibrationError("glitch depth must be positive")
        if self.rise_s <= 0.0 or self.fall_s <= 0.0:
            raise CalibrationError("glitch edge times must be positive")

    @property
    def end_s(self) -> float:
        """When the drive voltage is back at nominal."""
        return self.offset_s + self.rise_s + self.width_s + self.fall_s

    def drive_voltage(self, t_s: float, nominal_v: float) -> float:
        """The glitcher's commanded voltage at ``t_s`` (unfiltered)."""
        if self.depth_v >= nominal_v:
            raise CalibrationError(
                f"glitch depth {self.depth_v:g}V swallows the whole "
                f"{nominal_v:g}V rail"
            )
        into = t_s - self.offset_s
        if into <= 0.0 or into >= self.rise_s + self.width_s + self.fall_s:
            return nominal_v
        if into < self.rise_s:
            return nominal_v - self.depth_v * (into / self.rise_s)
        into -= self.rise_s
        if into < self.width_s:
            return nominal_v - self.depth_v
        into -= self.width_s
        return nominal_v - self.depth_v * (1.0 - into / self.fall_s)

    def label(self) -> str:
        """A compact human-readable tag for work-unit labels."""
        return (
            f"o{self.offset_s * 1e9:g}ns"
            f"-w{self.width_s * 1e9:g}ns"
            f"-d{self.depth_v:g}V"
        )


@dataclass(frozen=True)
class GlitchWaveform(VoltageTrace):
    """The filtered, die-seen rail voltage over one glitch attempt."""

    nominal_v: float

    def __post_init__(self) -> None:
        if self.time_s.shape != self.voltage_v.shape or self.time_s.size < 2:
            raise CalibrationError("waveform needs matching time/voltage axes")

    def voltage_at(self, t_s: float) -> float:
        """Rail voltage at ``t_s`` (nominal after the sampled window)."""
        if t_s >= float(self.time_s[-1]):
            return self.nominal_v
        return float(np.interp(t_s, self.time_s, self.voltage_v))


def die_waveform(
    pulse: GlitchPulse,
    supply: BenchSupply,
    decoupling: DecouplingNetwork,
    parasitics: SupplyLineParasitics | None = None,
    resolution_s: float = nanoseconds(1),
    tail_s: float | None = None,
) -> GlitchWaveform:
    """Filter a glitch pulse through the rail's passives.

    The decoupling capacitance against the loop resistance (capacitor
    ESR + line parasitics + glitcher source resistance) sets a
    first-order time constant; the die-side voltage is the RC response
    of the commanded trapezoid.  A 470 nF net over ~65 mΩ gives
    τ ≈ 30 ns — pulses much shorter than τ barely reach the die, which
    is exactly the width axis a glitch campaign sweeps.
    """
    if resolution_s <= 0.0:
        raise CalibrationError("waveform resolution must be positive")
    if pulse.depth_v >= supply.voltage_v:
        raise CalibrationError(
            f"glitch depth {pulse.depth_v:g}V swallows the whole "
            f"{supply.voltage_v:g}V rail"
        )
    parasitics = parasitics or SupplyLineParasitics()
    nominal = supply.voltage_v
    tau = decoupling.capacitance_f * (
        decoupling.esr_ohm
        + parasitics.resistance_ohm
        + supply.source_resistance_ohm
    )
    if tail_s is None:
        tail_s = max(5.0 * tau, nanoseconds(50))
    total_s = pulse.end_s + tail_s
    n_samples = int(math.ceil(total_s / resolution_s)) + 1
    if n_samples > MAX_SAMPLES:
        raise CalibrationError(
            f"waveform would need {n_samples} samples (cap {MAX_SAMPLES}); "
            f"raise resolution_s or shorten the pulse"
        )
    time_s = np.arange(n_samples, dtype=np.float64) * resolution_s
    drive = _drive_samples(pulse, time_s, nominal)
    if tau <= 0.0:
        filtered = drive
    else:
        alpha = 1.0 - math.exp(-resolution_s / tau)
        # The level holds at exactly nominal until the drive first moves.
        start = int(np.argmax(drive != nominal))
        levels = [nominal] * start
        level = nominal
        for target in drive[start:].tolist():
            level += alpha * (target - level)
            levels.append(level)
        filtered = np.array(levels, dtype=np.float64)
    return GlitchWaveform(
        time_s=time_s, voltage_v=filtered, nominal_v=nominal
    )


def _drive_samples(
    pulse: GlitchPulse, time_s: np.ndarray, nominal_v: float
) -> np.ndarray:
    """:meth:`GlitchPulse.drive_voltage` at every sample, bit for bit:
    the same comparisons and float operations, one mask per branch."""
    into = time_s - pulse.offset_s
    dipped = (into > 0.0) & (
        into < pulse.rise_s + pulse.width_s + pulse.fall_s
    )
    rising = dipped & (into < pulse.rise_s)
    into_flat = into - pulse.rise_s
    flat = dipped & ~rising & (into_flat < pulse.width_s)
    falling = dipped & ~rising & ~flat
    into_fall = into_flat - pulse.width_s
    drive = np.full_like(time_s, nominal_v)
    drive[rising] = nominal_v - pulse.depth_v * (into[rising] / pulse.rise_s)
    drive[flat] = nominal_v - pulse.depth_v
    drive[falling] = nominal_v - pulse.depth_v * (
        1.0 - into_fall[falling] / pulse.fall_s
    )
    return drive
