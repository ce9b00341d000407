"""The classic DRAM cold boot attack and its deployed mitigation (§9.1).

Volt Boot exists because the older attack path was closed twice over:
DRAM scramblers made raw dumps useless, and on-chip computation moved
the secrets out of DRAM entirely.  This experiment reproduces the
history:

1. **Halderman-style key recovery** — an AES-128 schedule sits in plain
   DRAM; the module is chilled, power is cut for seconds, and the
   attacker reconstructs the key from the decayed dump using the
   ground-state-aware decoder.  Recovery succeeds while the decayed
   fraction stays within the decoder's working range and fails beyond
   it — the trade-off curve the original paper reports.
2. **Scrambler mitigation** — the same dump through a session-keyed
   scrambler is uniform garbage after a reboot rolls the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.imaging import ones_fraction
from ..analysis.keycorrect import reconstruct_with_decay_model
from ..circuits.dram import DramArray
from ..crypto.aes import schedule_bytes
from ..rng import DEFAULT_SEED, generator
from ..soc.memory_map import MainMemory
from ..soc.scrambler import ScrambledMemory
from ..units import celsius_to_kelvin
from .common import manifested

#: The disk key the victim schedule derives from.
VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

#: Where the schedule sits in DRAM.
SCHEDULE_ADDR = 0x2000

#: Off-times swept (seconds without power at -50 C).
OFF_TIMES_S = (5.0, 60.0, 180.0, 300.0, 420.0, 900.0)


@dataclass
class DramColdBootPoint:
    """One off-time sample of the key-recovery sweep."""

    off_time_s: float
    decayed_fraction: float
    key_recovered: bool


@dataclass
class DramColdBootResult:
    """Sweep results plus the scrambler control."""

    points: list[DramColdBootPoint]
    scrambled_dump_ones: float
    scrambled_key_found: bool

    @property
    def recovery_horizon_s(self) -> float:
        """Longest off-time at which the key was still recovered."""
        recovered = [p.off_time_s for p in self.points if p.key_recovered]
        return max(recovered) if recovered else 0.0


def _build_dram(seed: int) -> tuple[DramArray, np.ndarray]:
    dram = DramArray(8 * 65536, rng=generator(seed, "dram-cb"))
    dram.restore_power()
    ground = dram.ground_state()  # the attacker profiles this per chip
    return dram, ground


def _ground_window(ground: np.ndarray) -> bytes:
    lo = SCHEDULE_ADDR * 8
    return np.packbits(
        ground[lo : lo + 176 * 8], bitorder="little"
    ).tobytes()


@manifested("dram-coldboot", device="rpi4")
def run(seed: int = DEFAULT_SEED) -> DramColdBootResult:
    """Run the off-time sweep and the scrambler control."""
    schedule = schedule_bytes(VICTIM_KEY)
    points = []
    for off_time in OFF_TIMES_S:
        dram, ground = _build_dram(seed + int(off_time))
        dram.write_bytes(SCHEDULE_ADDR, schedule)
        dram.power_down()
        dram.elapse_unpowered(off_time, celsius_to_kelvin(-50.0))
        dram.restore_power()
        window = dram.read_bytes(SCHEDULE_ADDR, 176)
        window_bits = np.unpackbits(
            np.frombuffer(window, dtype=np.uint8), bitorder="little"
        )
        schedule_bits = np.unpackbits(
            np.frombuffer(schedule, dtype=np.uint8), bitorder="little"
        )
        decayed = float(np.mean(window_bits != schedule_bits))
        key = reconstruct_with_decay_model(window, _ground_window(ground))
        points.append(
            DramColdBootPoint(
                off_time_s=off_time,
                decayed_fraction=decayed,
                key_recovered=key == VICTIM_KEY,
            )
        )

    # Scrambler control: same dump, session seed rolls across the boot.
    dram, ground = _build_dram(seed + 99)
    memory = ScrambledMemory(MainMemory(dram), session_seed=seed)
    memory.write_block(SCHEDULE_ADDR, schedule)
    dram.power_down()
    dram.elapse_unpowered(1.0, celsius_to_kelvin(-50.0))  # barely any decay
    dram.restore_power()
    memory.reseed(seed + 1)  # the reboot derives a fresh session key
    dump = memory.read_block(SCHEDULE_ADDR, 176)
    raw = memory.raw_array_read(SCHEDULE_ADDR, 176)
    key = reconstruct_with_decay_model(dump, _ground_window(ground))
    return DramColdBootResult(
        points=points,
        scrambled_dump_ones=ones_fraction(dump),
        scrambled_key_found=key == VICTIM_KEY or raw == schedule,
    )


def report(result: DramColdBootResult) -> AttackReport:
    """Render the sweep plus the mitigation row."""
    from ..core.report import AttackReport

    out = AttackReport(
        "DRAM cold boot baseline (Halderman-style) and the scrambler "
        "mitigation (paper section 9.1)"
    )
    for point in result.points:
        out.add_row(
            scenario="plain DRAM @ -50C",
            off_time_s=point.off_time_s,
            decayed_percent=round(100 * point.decayed_fraction, 2),
            key_recovered=point.key_recovered,
        )
    out.add_row(
        scenario="scrambled DRAM (seed rolled)",
        off_time_s=1.0,
        decayed_percent=round(100 * (0.5 - abs(result.scrambled_dump_ones - 0.5)), 2),
        key_recovered=result.scrambled_key_found,
    )
    out.add_note(
        "the decoder exploits known decay direction; SRAM's bistable "
        "cells offer no such ground state, which is why cold-boot-style "
        "error correction fails there (paper section 9.2)."
    )
    return out
