"""§6 ablation — probe adequacy: current capability and hold voltage.

The paper stresses that the external supply must (a) match the measured
pad voltage and (b) source enough current to ride out the disconnect
surge ("a bench power supply with >3A current driving capability").
This sweep quantifies both requirements:

* **Current-limit sweep** (board level, Pi 4 core rail at 0.8 V): an
  under-sized probe lets the disconnect surge droop the rail; once the
  dip undercuts the cell-DRV distribution, recovery collapses toward
  chance.
* **Hold-voltage sweep** (cell level): after the cut, the probe only
  needs to keep the rail above the per-cell data retention voltage
  (§2.1); dropping the hold voltage through the DRV distribution traces
  the retention cliff directly.
* **Attach mismatch**: a probe whose set-point fights the live rail
  cannot even be landed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.hamming import fractional_hamming_distance
from ..circuits.sram import SramArray
from ..circuits.supply import BenchSupply
from ..core.voltboot import VoltBootAttack
from ..devices import raspberry_pi_4
from ..errors import ProbeError
from ..exec import ShardPlan, WorkUnit, execute, shard_unit
from ..rng import DEFAULT_SEED, generator
from ..units import milliamps
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, fill_dcache, snapshot_l1d
from .common import manifested

#: Current limits swept at nominal voltage (amps).
CURRENT_LIMITS_A = (milliamps(50), 0.25, 0.5, 1.0, 3.0)

#: Hold voltages swept at cell level (volts; nominal is 0.8).
HOLD_VOLTAGES_V = (0.10, 0.18, 0.25, 0.32, 0.40, 0.80)

#: Cell-level sweep array size.
SWEEP_BITS = 64 * 1024


@dataclass
class ProbePoint:
    """One sweep sample."""

    sweep: str  # "current", "hold-voltage", or "attach"
    current_limit_a: float
    voltage_v: float
    accuracy_percent: float
    attached: bool


def _accuracy_with_supply(seed: int, supply: BenchSupply) -> tuple[float, bool]:
    """Run the d-cache attack with a specific supply; returns accuracy."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    fill_dcache(board, 0, pattern=0xAA)
    reference = b"".join(snapshot_l1d(board.soc.core(0)))
    attack = VoltBootAttack(
        board, target="l1-caches", supply=supply, boot_media=ATTACKER_MEDIA
    )
    try:
        result = attack.execute()
    except ProbeError:
        return 0.0, False  # set-point fought the live rail: cannot attach
    assert result.cache_images is not None
    observed = result.cache_images.dcache(0)
    error = fractional_hamming_distance(reference, observed)
    return 100.0 * (1.0 - 2.0 * error), True


def _hold_voltage_accuracy(seed: int, hold_v: float) -> float:
    """Cell-level: fraction of bits surviving a reduced hold voltage."""
    sram = SramArray(SWEEP_BITS, rng=generator(seed, "hold-sweep"))
    sram.power_up()
    data = generator(seed, "hold-data").integers(0, 2, SWEEP_BITS, dtype=np.uint8)
    sram.write_bits(0, data)
    sram.set_supply_voltage(hold_v)
    surviving = float(np.mean(sram.image() == data))
    # Chance-level survival is 0.5 for bistable cells; rescale to the
    # paper's "accuracy" notion where random == 0 %.
    return max(0.0, 100.0 * (2.0 * surviving - 1.0))


@shard_unit
def _current_point(seed: int, limit: float) -> ProbePoint:
    """Board-level attack under one probe current limit."""
    supply = BenchSupply(voltage_v=0.8, current_limit_a=limit)
    accuracy, attached = _accuracy_with_supply(seed, supply)
    return ProbePoint("current", limit, 0.8, accuracy, attached)


@shard_unit
def _hold_point(seed: int, hold_v: float) -> ProbePoint:
    """Cell-level retention at one reduced hold voltage."""
    accuracy = _hold_voltage_accuracy(seed, hold_v)
    return ProbePoint("hold-voltage", 3.0, hold_v, accuracy, True)


@shard_unit
def _attach_point(seed: int) -> ProbePoint:
    """A mis-set probe cannot be attached to the live rail at all."""
    bad_supply = BenchSupply(voltage_v=0.5, current_limit_a=3.0)
    accuracy, attached = _accuracy_with_supply(seed + 77, bad_supply)
    return ProbePoint("attach", 3.0, 0.5, accuracy, attached)


def shard_plan(seed: int) -> ShardPlan:
    """Shardable axis: every sweep sample (current limits, hold
    voltages, the attach-mismatch probe) is an independent unit."""
    units = [
        WorkUnit(
            index=i,
            fn=_current_point,
            args=(seed, limit),
            label=f"probe[current={limit:g}A]",
        )
        for i, limit in enumerate(CURRENT_LIMITS_A)
    ]
    units.extend(
        WorkUnit(
            index=len(CURRENT_LIMITS_A) + i,
            fn=_hold_point,
            args=(seed, hold_v),
            label=f"probe[hold={hold_v:g}V]",
        )
        for i, hold_v in enumerate(HOLD_VOLTAGES_V)
    )
    units.append(
        WorkUnit(
            index=len(units),
            fn=_attach_point,
            args=(seed,),
            label="probe[attach-mismatch]",
        )
    )
    return ShardPlan(units)


@manifested("probe-sweep", device="rpi4")
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> list[ProbePoint]:
    """Run all three sweeps; returns every sampled point."""
    return execute(shard_plan(seed), jobs=jobs)


def report(points: list[ProbePoint]) -> AttackReport:
    """Render all sweeps."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Probe adequacy sweeps (paper: >3A supply at the measured pad "
        "voltage gives 100%; retention only needs V > per-cell DRV)"
    )
    for point in points:
        out.add_row(
            sweep=point.sweep,
            current_limit_a=point.current_limit_a,
            voltage_v=point.voltage_v,
            attached=point.attached,
            accuracy_percent=round(point.accuracy_percent, 2),
        )
    out.add_note(
        "the hold-voltage cliff sits on the DRV distribution "
        "(~N(0.25V, 0.03V)) — far below the 0.8V nominal, as the paper "
        "notes in 2.1."
    )
    return out
