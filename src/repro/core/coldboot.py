"""The cold boot baseline attack (paper §3).

Classic cold boot: chill the device, cut power, reboot quickly, dump
memory, and hope intrinsic capacitance preserved the bits.  The paper
reproduces FROST-style cold boot against the Pi 4's *SRAM* caches and
shows it recovers nothing at any survivable temperature (Table 1,
Figure 3) — the negative result that motivates Volt Boot.

The same class attacks DRAM, where cold boot famously *does* work; the
retention-sweep experiment uses that to confirm the model separates the
two technologies the way the literature does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import OBS
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from .extraction import CacheImages, attacker_context, extract_l1_images

#: How long a human takes to physically cut and restore power (paper:
#: "more than a few hundred milliseconds").
MANUAL_POWER_CYCLE_S = 0.5


@dataclass
class ColdBootResult:
    """Output of one cold boot attempt."""

    temperature_c: float
    off_time_s: float
    cache_images: CacheImages | None = None
    retained_fractions: dict[str, dict[str, float]] = field(default_factory=dict)


class ColdBootAttack:
    """Temperature-based data-remanence attack (no probe)."""

    def __init__(
        self,
        board: Board,
        temperature_c: float = -40.0,
        off_time_s: float = MANUAL_POWER_CYCLE_S,
        boot_media: BootMedia | None = None,
    ) -> None:
        self.board = board
        self.temperature_c = temperature_c
        self.off_time_s = off_time_s
        self.boot_media = boot_media

    def execute(self, extract_caches: bool = True) -> ColdBootResult:
        """Chill, power cycle, reboot, and (optionally) dump the L1
        d-caches (every cold-boot result reads only those)."""
        with OBS.span(
            "attack.coldboot",
            device=self.board.name,
            temperature_c=self.temperature_c,
        ) as root:
            with OBS.span("attack.chill", temperature_c=self.temperature_c):
                self.board.set_temperature_c(self.temperature_c)
            with OBS.span(
                "attack.power-cycle", off_time_s=self.off_time_s
            ) as cycle_span:
                self.board.unplug()
                self.board.wait(self.off_time_s)
                retained = {
                    domain.name: domain.retained_fractions()
                    for domain in self.board.plug_in()
                }
                cycle_span.set_attribute(
                    "retention_metrics",
                    OBS.metrics.snapshot("sram.retained"),
                )
            result = ColdBootResult(
                temperature_c=self.temperature_c,
                off_time_s=self.off_time_s,
                retained_fractions=retained,
            )
            with OBS.span(
                "attack.reboot",
                media=self.boot_media.name if self.boot_media else "internal ROM",
            ):
                self.board.boot(self.boot_media)
            if extract_caches:
                with OBS.span("attack.extract", target="l1-caches"):
                    result.cache_images = extract_l1_images(
                        self.board, attacker_context(self.board)
                    )
        if OBS.enabled:
            from ..obs.manifest import RunManifest

            mean_retained = {
                domain: sum(loads.values()) / len(loads)
                for domain, loads in retained.items()
                if loads
            }
            OBS.record_manifest(
                RunManifest(
                    kind="attack",
                    name="coldboot",
                    seed=self.board.seed_root,
                    device=self.board.name,
                    parameters={
                        "temperature_c": self.temperature_c,
                        "off_time_s": self.off_time_s,
                        "boot_media": (
                            self.boot_media.name if self.boot_media else None
                        ),
                    },
                    phases=root.phases("attack."),
                    headline={
                        "mean_retained_fraction_by_domain": mean_retained
                    },
                    metrics=OBS.metrics.snapshot(),
                )
            )
        return result
