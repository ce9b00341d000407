"""§3/§5 — intrinsic retention versus temperature and off-time.

The cell-physics ablation behind the paper's argument:

* SRAM retention collapses within microseconds at room temperature and
  only becomes partial below about -110 C for ~20 ms cuts (the
  remanence-literature numbers the model is calibrated against);
* DRAM retains for seconds at room temperature and minutes when chilled
  (the classic cold boot regime);
* Volt Boot is flat 100 % everywhere because it removes the decay
  variable entirely — its line does not depend on either axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.dram import DramArray
from ..circuits.sram import SramArray
from ..exec import ShardPlan, WorkUnit, execute, shard_unit
from ..rng import DEFAULT_SEED, generator
from ..units import celsius_to_kelvin, microseconds, milliseconds
from .common import manifested

#: Temperature axis (degrees C): room, chamber cold, cold boot classic,
#: extreme (liquid-nitrogen-ish) territory.
SWEEP_TEMPERATURES_C = (25.0, -40.0, -50.0, -110.0)

#: Off-time axis (seconds): instruction-scale to human battery pull.
SWEEP_OFF_TIMES_S = (
    microseconds(20), milliseconds(1), milliseconds(20), 0.5
)

#: Array size used for the statistical sweep.
SWEEP_BITS = 64 * 1024


@dataclass
class RetentionPoint:
    """Measured retention for one (technology, temperature, time) cell."""

    technology: str
    temperature_c: float
    off_time_s: float
    retained_fraction: float


@dataclass
class RetentionSweep:
    """The full grid plus the Volt Boot reference line."""

    points: list[RetentionPoint] = field(default_factory=list)

    def lookup(
        self, technology: str, temperature_c: float, off_time_s: float
    ) -> float:
        """Retention fraction for one grid point."""
        for point in self.points:
            if (
                point.technology == technology
                and point.temperature_c == temperature_c
                and point.off_time_s == off_time_s
            ):
                return point.retained_fraction
        raise KeyError((technology, temperature_c, off_time_s))


def _sram_retention(seed: int, temperature_c: float, off_time_s: float) -> float:
    sram = SramArray(SWEEP_BITS, rng=generator(seed, "sweep-sram"))
    sram.power_up()
    rng = generator(seed, "sweep-data")
    sram.write_bits(0, rng.integers(0, 2, SWEEP_BITS, dtype=np.uint8))
    reference = sram.image()
    sram.power_down()
    sram.elapse_unpowered(off_time_s, celsius_to_kelvin(temperature_c))
    sram.restore_power()
    return float(np.mean(sram.image() == reference))


def _dram_retention(seed: int, temperature_c: float, off_time_s: float) -> float:
    dram = DramArray(SWEEP_BITS, rng=generator(seed, "sweep-dram"))
    dram.restore_power()
    rng = generator(seed, "sweep-data")
    payload = rng.integers(0, 256, SWEEP_BITS // 8, dtype=np.uint8).tobytes()
    dram.write_bytes(0, payload)
    reference = dram.image()
    dram.power_down()
    dram.elapse_unpowered(off_time_s, celsius_to_kelvin(temperature_c))
    dram.restore_power()
    return float(np.mean(dram.image() == reference))


@shard_unit
def _voltboot_retention(seed: int) -> float:
    """Probe-held SRAM: supply never leaves the retention region."""
    sram = SramArray(SWEEP_BITS, rng=generator(seed, "sweep-vb"))
    sram.power_up()
    rng = generator(seed, "sweep-data")
    sram.write_bits(0, rng.integers(0, 2, SWEEP_BITS, dtype=np.uint8))
    reference = sram.image()
    # Rail held at nominal by the probe; the board power-cycles around it.
    sram.set_supply_voltage(sram.params.nominal_v)
    return float(np.mean(sram.image() == reference))


@shard_unit
def _grid_point(
    seed: int, temperature: float, off_time: float
) -> tuple[RetentionPoint, RetentionPoint]:
    """SRAM + DRAM retention at one grid cell — an independent unit.

    Every cell derives its generators from ``(seed, label)`` afresh,
    so the grid shares no RNG stream and shards freely.
    """
    return (
        RetentionPoint(
            "sram", temperature, off_time,
            _sram_retention(seed, temperature, off_time),
        ),
        RetentionPoint(
            "dram", temperature, off_time,
            _dram_retention(seed, temperature, off_time),
        ),
    )


def shard_plan(seed: int) -> ShardPlan:
    """Shardable axis: the (temperature x off-time) grid, plus one
    trailing unit for the Volt Boot reference line."""
    units = [
        WorkUnit(
            index=i,
            fn=_grid_point,
            args=(seed, temperature, off_time),
            label=f"retention[{temperature:g}C,{off_time * 1e3:g}ms]",
        )
        for i, (temperature, off_time) in enumerate(
            (t, ot)
            for t in SWEEP_TEMPERATURES_C
            for ot in SWEEP_OFF_TIMES_S
        )
    ]
    units.append(
        WorkUnit(
            index=len(units),
            fn=_voltboot_retention,
            args=(seed,),
            label="retention[voltboot]",
        )
    )
    return ShardPlan(units)


@manifested("retention-sweep", device="rpi4")
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> RetentionSweep:
    """Measure the full (technology x temperature x time) grid."""
    results = execute(shard_plan(seed), jobs=jobs)
    voltboot = results[-1]
    sweep = RetentionSweep()
    for sram_point, dram_point in results[:-1]:
        sweep.points.append(sram_point)
        sweep.points.append(dram_point)
    for temperature in SWEEP_TEMPERATURES_C:
        for off_time in SWEEP_OFF_TIMES_S:
            sweep.points.append(
                RetentionPoint("voltboot", temperature, off_time, voltboot)
            )
    return sweep


def report(sweep: RetentionSweep) -> AttackReport:
    """Render the grid with one row per (temperature, off-time)."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Retention sweep: intrinsic SRAM/DRAM remanence vs the Volt Boot "
        "hold (paper 3/5: SRAM dies in ms even at -40C; DRAM survives; "
        "Volt Boot is temperature/time-independent)"
    )
    for temperature in SWEEP_TEMPERATURES_C:
        for off_time in SWEEP_OFF_TIMES_S:
            out.add_row(
                temperature_c=temperature,
                off_time=f"{off_time * 1e3:g}ms",
                sram_retained=round(sweep.lookup("sram", temperature, off_time), 3),
                dram_retained=round(sweep.lookup("dram", temperature, off_time), 3),
                voltboot=round(sweep.lookup("voltboot", temperature, off_time), 3),
            )
    out.add_note(
        "retention of ~0.5 is chance level for bistable SRAM cells."
    )
    return out
