"""Table 1 — cold booting on-chip SRAM is ineffective (paper §3).

A BCM2711 runs bare-metal software populating each core's d-cache; the
board is soaked in a thermal chamber at 0 / −5 / −40 °C, power-cycled
for a few milliseconds, and the caches are extracted.  The paper finds
~50 % mean error at every temperature — no retention — and a fractional
Hamming distance of ~0.10 between the post-cycle cache and the cache's
*power-on* state (confirming the array simply reset to its fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.hamming import bit_error_percent, fractional_hamming_distance
from ..core.coldboot import ColdBootAttack
from ..devices import raspberry_pi_4
from ..exec import ShardPlan, execute, shard_unit
from ..rng import DEFAULT_SEED
from ..units import milliseconds
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, fill_dcache, snapshot_l1d
from .common import manifested

#: The temperatures of paper Table 1: the recommended minimum operating
#: point, just below it, and the SoC's hard limit.
TABLE1_TEMPERATURES_C = (0.0, -5.0, -40.0)

#: How long the power stays cut ("a few milliseconds").
OFF_TIME_S = milliseconds(4)


@dataclass
class Table1Row:
    """One temperature point of the experiment."""

    temperature_c: float
    per_core_error_percent: list[float] = field(default_factory=list)
    fhd_to_powerup: float = 0.0

    @property
    def mean_error_percent(self) -> float:
        """Mean d-cache error over the four cores."""
        return sum(self.per_core_error_percent) / len(self.per_core_error_percent)


def _headline(rows: "list[Table1Row]") -> dict[str, float]:
    return {
        "temperatures": len(rows),
        "mean_error_percent": sum(r.mean_error_percent for r in rows)
        / len(rows),
        "mean_fhd_to_powerup": sum(r.fhd_to_powerup for r in rows)
        / len(rows),
    }


@shard_unit
def _temperature_point(
    seed: int, position: int, temperature: float
) -> Table1Row:
    """One chamber soak on a fresh board — an independent work unit.

    Each temperature gets its own board seeded ``seed + position``, so
    the points share no RNG stream and shard freely.
    """
    board = raspberry_pi_4(seed=seed + position)
    board.boot(VICTIM_MEDIA)
    # Capture the power-on fingerprint before the victim writes.
    powerup = {
        core.index: snapshot_l1d(core) for core in board.soc.cores
    }
    ground_truth = {}
    for core in board.soc.cores:
        fill_dcache(board, core.index, pattern=0xAA)
        ground_truth[core.index] = snapshot_l1d(core)

    attack = ColdBootAttack(
        board,
        temperature_c=temperature,
        off_time_s=OFF_TIME_S,
        boot_media=ATTACKER_MEDIA,
    )
    result = attack.execute()
    assert result.cache_images is not None

    row = Table1Row(temperature_c=temperature)
    fhd_values = []
    for core in board.soc.cores:
        observed = result.cache_images.dcache(core.index)
        reference = b"".join(ground_truth[core.index])
        row.per_core_error_percent.append(
            bit_error_percent(reference, observed)
        )
        fhd_values.append(
            fractional_hamming_distance(
                b"".join(powerup[core.index]), observed
            )
        )
    row.fhd_to_powerup = sum(fhd_values) / len(fhd_values)
    return row


def shard_plan(seed: int) -> ShardPlan:
    """Shardable axis: one unit per chamber temperature."""
    return ShardPlan.enumerate(
        _temperature_point,
        [
            (seed, position, temperature)
            for position, temperature in enumerate(TABLE1_TEMPERATURES_C)
        ],
        labels=[f"table1[{t:g}C]" for t in TABLE1_TEMPERATURES_C],
    )


@manifested("table1", device="rpi4", headline=_headline)
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> list[Table1Row]:
    """Run the three-temperature cold boot sweep on fresh Pi 4 boards."""
    return execute(shard_plan(seed), jobs=jobs)


def report(rows: list[Table1Row]) -> AttackReport:
    """Render the sweep in the paper's Table 1 shape."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Table 1: d-cache error after cold boot on BCM2711 (paper: ~50% at "
        "0/-5/-40C; fHD to power-on state ~0.10)"
    )
    for row in rows:
        out.add_row(
            temperature_c=row.temperature_c,
            mean_error_percent=row.mean_error_percent,
            fhd_to_powerup=round(row.fhd_to_powerup, 3),
            **{
                f"core{i}_err%": round(err, 2)
                for i, err in enumerate(row.per_core_error_percent)
            },
        )
    out.add_note(
        "~50% error means the cache reset to a random-looking power-on "
        "state: no retention at any survivable temperature."
    )
    return out
