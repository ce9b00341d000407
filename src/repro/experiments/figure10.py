"""Figure 10 — Hamming distance profile over the recovered iRAM (§7.3).

The paper localises the Figure 9 errors by computing the Hamming
distance between the stored bitmap and the recovered image at 512-bit
granularity: the error clusters at the beginning and end of the iRAM,
with the largest contiguous error run at 0xF800083C-0xF80018CC — the
boot ROM's scratchpad.  The device resets this region on every boot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.hamming import block_hamming_profile
from ..devices.builders import IMX53_IRAM_BASE
from ..exec import ShardPlan, WorkUnit, execute, shard_unit
from ..rng import DEFAULT_SEED
from . import figure9
from .common import manifested

#: Profile granularity (bits), as in the paper.
BLOCK_BITS = 512

#: Blocks per shardable profile chunk.  Fixed — never derived from
#: ``jobs`` — so the unit enumeration (and thus the merged profile) is
#: identical at every parallelism level.
CHUNK_BLOCKS = 256


@dataclass
class ErrorCluster:
    """One contiguous run of erroneous blocks."""

    start_addr: int
    end_addr: int  # exclusive
    total_bit_errors: int

    @property
    def span_bytes(self) -> int:
        """Cluster length in bytes."""
        return self.end_addr - self.start_addr


@dataclass
class Figure10Result:
    """The block-level error profile and its clusters."""

    profile: np.ndarray
    clusters: list[ErrorCluster] = field(default_factory=list)

    @property
    def largest_cluster(self) -> ErrorCluster:
        """The widest contiguous error region (the ROM scratchpad)."""
        return max(self.clusters, key=lambda c: c.span_bytes)


def _find_clusters(profile: np.ndarray, threshold: int = 8) -> list[ErrorCluster]:
    """Group consecutive blocks whose error count exceeds ``threshold``."""
    clusters: list[ErrorCluster] = []
    block_bytes = BLOCK_BITS // 8
    run_start: int | None = None
    run_errors = 0
    for index, errors in enumerate([*profile.tolist(), 0]):
        if errors > threshold:
            if run_start is None:
                run_start = index
                run_errors = 0
            run_errors += int(errors)
        elif run_start is not None:
            clusters.append(
                ErrorCluster(
                    start_addr=IMX53_IRAM_BASE + run_start * block_bytes,
                    end_addr=IMX53_IRAM_BASE + index * block_bytes,
                    total_bit_errors=run_errors,
                )
            )
            run_start = None
    return clusters


@shard_unit
def _profile_chunk(stored: bytes, recovered: bytes) -> np.ndarray:
    """Hamming profile of one contiguous slice of the iRAM image."""
    return block_hamming_profile(stored, recovered, block_bits=BLOCK_BITS)


def shard_plan(seed: int) -> ShardPlan:
    """Shardable axis: fixed-size contiguous chunks of the iRAM image.

    The Figure 9 recovery itself runs in the parent (its attack is one
    indivisible sequence); only the block-profile computation shards.
    """
    recovery = figure9.run(seed=seed)
    chunk_bytes = CHUNK_BLOCKS * BLOCK_BITS // 8
    units = [
        WorkUnit(
            index=i,
            fn=_profile_chunk,
            args=(
                recovery.stored[offset : offset + chunk_bytes],
                recovery.recovered[offset : offset + chunk_bytes],
            ),
            label=f"figure10[blocks {i * CHUNK_BLOCKS}+]",
        )
        for i, offset in enumerate(
            range(0, len(recovery.stored), chunk_bytes)
        )
    ]
    return ShardPlan(units)


@manifested("figure10", device="imx53")
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> Figure10Result:
    """Compute the profile from a fresh Figure 9 recovery."""
    chunks = execute(shard_plan(seed), jobs=jobs)
    profile = np.concatenate(chunks)
    return Figure10Result(profile=profile, clusters=_find_clusters(profile))


def report(result: Figure10Result) -> AttackReport:
    """Summarise the spatial error structure."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Figure 10: Hamming distance between stored and recovered iRAM at "
        "512-bit granularity (paper: clusters at start+end; largest run "
        "0xF800083C-0xF80018CC)"
    )
    for cluster in result.clusters:
        out.add_row(
            start=f"{cluster.start_addr:#010x}",
            end=f"{cluster.end_addr:#010x}",
            span_bytes=cluster.span_bytes,
            bit_errors=cluster.total_bit_errors,
        )
    clean_blocks = int(np.count_nonzero(result.profile == 0))
    out.add_note(
        f"{clean_blocks}/{result.profile.size} blocks recovered without a "
        f"single bit error."
    )
    return out
