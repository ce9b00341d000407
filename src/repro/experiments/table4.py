"""Table 4 — Volt Boot against a Linux victim, array-size sweep (§7.1.2).

The paper's microbenchmark fills an array of unique 8-byte elements on
each of the four cores of a Raspberry Pi 4 while Raspberry Pi OS runs in
the background; Volt Boot then dumps the L1 d-caches and counts how many
elements survive in each way.  Three trials per size are averaged.

Expected shape: the full array is recovered while it fits comfortably in
the cache (4/8/16 KB -> ~100 %), and kernel eviction noise claims ~10 %
when the array equals the cache size (32 KB -> ~90 %).  Elements appear
in *both* ways (the W0+W1 sums exceed the array size) because DMA cache
maintenance invalidates lines without erasing their payload, and the
rewrite can land in the other way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.voltboot import VoltBootAttack
from ..analysis.patterns import elements_present
from ..cpu.programs import element_value
from ..devices import raspberry_pi_4
from ..osim.kernel import SimKernel
from ..osim.noise import NoiseProfile
from ..osim.process import ArrayFillProcess
from ..rng import DEFAULT_SEED
from ..units import kib
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, victim_buffer_base
from .common import manifested

#: Array sizes of the sweep (the paper's 12.5 % .. 100 % of the cache).
TABLE4_ARRAY_KIB = (4, 8, 16, 32)

#: Trials averaged per configuration (paper: three).
TRIALS = 3

#: Kernel background activity calibrated to an idle Raspberry Pi OS:
#: enough eviction pressure to cost ~10 % of a cache-sized array, plus
#: the DMA-maintenance rate that produces cross-way duplicates.
TABLE4_NOISE = NoiseProfile(fill_lines=1.1, maintenance_lines=0.5)


@dataclass
class Table4Cell:
    """Mean results for one (array size, core) pair."""

    array_kib: int
    core: int
    way_counts: list[float] = field(default_factory=list)  # mean per way
    union_count: float = 0.0
    n_elements: int = 0

    @property
    def percent_extracted(self) -> float:
        """Union recovery percentage (the paper's bottom row)."""
        return 100.0 * self.union_count / self.n_elements


def _run_single_trial(
    array_kib: int, seed: int
) -> list[tuple[list[int], int, int]]:
    """One board, one trial; returns per-core (way counts, union, total)."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    kernel = SimKernel(board, noise_profile=TABLE4_NOISE,
                       seed_label=f"t4-{array_kib}-{seed}")
    kernel.enable_caches()
    kernel.warm_caches()  # the system has been up for a while
    n_elements = kib(array_kib) // 8
    for core in board.soc.cores:
        kernel.spawn(
            ArrayFillProcess(
                name=f"bench{core.index}",
                core_index=core.index,
                base_addr=victim_buffer_base(core.index),
                n_elements=n_elements,
                passes=2,
            )
        )
    kernel.run()

    # Power is cut mid-system-life; the attack rides VDD_CORE through.
    attack = VoltBootAttack(
        board, target="l1-caches", boot_media=ATTACKER_MEDIA
    )
    result = attack.execute()
    assert result.cache_images is not None

    element_bytes = [
        element_value(i).to_bytes(8, "little") for i in range(n_elements)
    ]
    per_core = []
    for core in board.soc.cores:
        way_images = result.cache_images.l1d[core.index]
        found_per_way = [
            elements_present(image, element_bytes) for image in way_images
        ]
        union: set[int] = set()
        for found in found_per_way:
            union |= found
        per_core.append(
            ([len(found) for found in found_per_way], len(union), n_elements)
        )
    return per_core


def _headline(cells: "list[Table4Cell]") -> dict[str, float]:
    percents = [cell.percent_extracted for cell in cells]
    return {
        "cells": len(cells),
        "mean_percent_extracted": sum(percents) / len(percents),
        "min_percent_extracted": min(percents),
    }


@manifested("table4", device="rpi4", headline=_headline)
def run(
    seed: int = DEFAULT_SEED,
    array_sizes_kib: tuple[int, ...] = TABLE4_ARRAY_KIB,
    trials: int = TRIALS,
) -> list[Table4Cell]:
    """Run the full sweep; returns one cell per (size, core)."""
    cells: list[Table4Cell] = []
    for array_kib in array_sizes_kib:
        trial_results = [
            _run_single_trial(array_kib, seed + 1000 * array_kib + t)
            for t in range(trials)
        ]
        n_cores = len(trial_results[0])
        for core in range(n_cores):
            ways = len(trial_results[0][core][0])
            cell = Table4Cell(
                array_kib=array_kib,
                core=core,
                n_elements=trial_results[0][core][2],
            )
            cell.way_counts = [
                sum(trial[core][0][w] for trial in trial_results) / trials
                for w in range(ways)
            ]
            cell.union_count = (
                sum(trial[core][1] for trial in trial_results) / trials
            )
            cells.append(cell)
    return cells


def report(cells: list[Table4Cell]) -> AttackReport:
    """Render the sweep in the paper's Table 4 shape."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Table 4: d-cache elements extracted by Volt Boot on BCM2711 "
        "(paper: 100% at 4-16KB, ~86-92% at 32KB)"
    )
    for cell in cells:
        out.add_row(
            array_kib=cell.array_kib,
            core=cell.core,
            **{f"W{w}": round(c, 1) for w, c in enumerate(cell.way_counts)},
            union=round(cell.union_count, 1),
            of=cell.n_elements,
            percent=round(cell.percent_extracted, 2),
        )
    out.add_note(
        "W0+W1 exceeding the union reflects elements resident in both "
        "ways after DMA-maintenance invalidation + rewrite."
    )
    return out
