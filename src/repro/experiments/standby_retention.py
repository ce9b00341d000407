"""Extension experiment: standby voltage scaling vs retention (§2.1).

Paper §2.1: "modern processors dynamically scale down the voltage when
the RAM is not actively accessed because it reduces the energy leakage"
— the very mechanism that makes the DRV headroom exist also creates the
probe-hold window Volt Boot exploits.  This experiment maps that
trade-off on the Pi 4 core domain: for each standby level, how much
leakage power is saved (quadratic in V) and how many cells the move
costs.

The safe-standby floor sits just above the DRV distribution's upper
tail; a PMU that scales below it starts silently corrupting cached
state — the same cliff the attacker's probe must stay above.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.patterns import count_pattern_lines
from ..devices import raspberry_pi_4
from ..rng import DEFAULT_SEED
from .common import VICTIM_MEDIA, fill_dcache
from .common import manifested

#: Standby voltages swept on the 0.8 V core rail.
STANDBY_LEVELS_V = (0.80, 0.60, 0.45, 0.40, 0.35, 0.30, 0.25)


@dataclass
class StandbyPoint:
    """One standby-level sample."""

    standby_v: float
    leakage_fraction: float
    cells_lost: int
    pattern_lines_intact: int


@manifested("standby-retention", device="rpi4")
def run(seed: int = DEFAULT_SEED) -> list[StandbyPoint]:
    """Sweep standby levels on fresh boards holding a cache pattern."""
    points = []
    total_lines = None
    for index, standby_v in enumerate(STANDBY_LEVELS_V):
        board = raspberry_pi_4(seed=seed + index)
        board.boot(VICTIM_MEDIA)
        fill_dcache(board, 0, pattern=0xAA)
        if total_lines is None:
            total_lines = (
                board.soc.core(0).l1d.geometry.size_bytes // 64
            )
        domain = board.soc.pmu.domain("VDD_CORE")
        lost = domain.scale_voltage(standby_v)
        leakage = domain.leakage_power_fraction()
        unit = board.soc.core(0)
        image = b"".join(
            unit.l1d.raw_way_image(w) for w in range(unit.l1d.geometry.ways)
        )
        points.append(
            StandbyPoint(
                standby_v=standby_v,
                leakage_fraction=leakage,
                cells_lost=lost,
                pattern_lines_intact=count_pattern_lines(image, 0xAA),
            )
        )
    return points


def report(points: list[StandbyPoint]) -> AttackReport:
    """Render the standby trade-off table."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Extension: standby voltage scaling vs retention on the Pi 4 core "
        "domain (paper section 2.1's leakage/retention trade-off)"
    )
    for point in points:
        out.add_row(
            standby_v=point.standby_v,
            leakage_vs_nominal=round(point.leakage_fraction, 3),
            cells_lost=point.cells_lost,
            pattern_lines_intact=point.pattern_lines_intact,
        )
    out.add_note(
        "the safe floor sits just above the DRV tail (~0.35-0.40V here); "
        "the same headroom is what the attacker's probe exploits."
    )
    return out
