"""The Volt Boot attack pipeline (paper §5–§6).

:class:`VoltBootAttack` drives a victim :class:`~repro.soc.board.Board`
through the four steps of §6.1: plan the probe against the PDN, attach a
bench supply at the measured pad voltage, cut the main input while the
probed domain rides through, reboot from attacker media (or internal
ROM), and extract the retained SRAM.

The class is deliberately stateful and explicit — each step can be run
and inspected on its own, which is how the experiments exercise failure
modes (weak probes, wrong voltages, countermeasures).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.supply import BenchSupply
from ..errors import AttackError
from ..obs import OBS
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from ..soc.jtag import JtagProbe
from .extraction import (
    CacheImages,
    attacker_context,
    extract_iram,
    extract_l1_images,
    extract_vector_registers,
)
from .probe import ProbePlan, plan_probe

#: Default time the board sits dark between unplug and re-plug.  Volt
#: Boot is insensitive to this (that is the point); the default matches
#: a deliberate human-speed power cycle.
DEFAULT_OFF_TIME_S = 10.0


@dataclass
class VoltBootResult:
    """Everything one attack run produced."""

    plan: ProbePlan
    cells_lost_in_surge: int
    off_time_s: float
    cache_images: CacheImages | None = None
    vector_registers: dict[int, list[bytes]] = field(default_factory=dict)
    iram_image: bytes | None = None

    @property
    def surge_clean(self) -> bool:
        """True when the probe rode the disconnect surge without losses."""
        return self.cells_lost_in_surge == 0


class VoltBootAttack:
    """One attacker, one victim board, one target memory kind.

    Each target extracts only its own RAMs: ``"l1-caches"`` dumps the
    d-cache ways of every core (and the i-cache ways with ``icache``),
    ``"registers"`` the vector files, ``"iram"`` the iRAM.
    """

    def __init__(
        self,
        board: Board,
        target: str = "l1-caches",
        supply: BenchSupply | None = None,
        boot_media: BootMedia | None = None,
        off_time_s: float = DEFAULT_OFF_TIME_S,
        icache: bool = False,
    ) -> None:
        self.board = board
        self.target = target
        self.icache = icache
        self.boot_media = boot_media
        self.off_time_s = off_time_s
        self.plan: ProbePlan | None = None
        self._supply_override = supply
        self._attached = False

    # ------------------------------------------------------------------
    # Individual steps (paper §6.1)
    # ------------------------------------------------------------------

    def identify(self) -> ProbePlan:
        """Step 1: locate the domain, pad, and required supply."""
        with OBS.span("attack.identify", target=self.target) as span:
            self.plan = plan_probe(self.board, self.target)
            span.set_attributes(
                domain=self.plan.domain_name,
                pad=self.plan.pad.name,
                set_voltage_v=self.plan.set_voltage_v,
                required_current_a=self.plan.required_current_a,
            )
        return self.plan

    def attach(self) -> None:
        """Step 2: land the probe at the measured pad voltage."""
        if self.plan is None:
            self.identify()
        assert self.plan is not None
        supply = self._supply_override or self.plan.recommended_supply()
        with OBS.span(
            "attack.attach",
            pad=self.plan.pad.name,
            supply_voltage_v=supply.voltage_v,
            current_limit_a=supply.current_limit_a,
        ):
            self.board.attach_probe(self.plan.pad.name, supply)
        self._attached = True

    def power_cycle(self) -> int:
        """Step 3a: cut main power, sit dark, re-plug.

        Returns the number of cells lost to the disconnect surge in the
        held domain (0 for an adequately-sized supply).
        """
        if not self._attached:
            raise AttackError("attach the probe before power cycling")
        assert self.plan is not None
        with OBS.span(
            "attack.power-cycle", off_time_s=self.off_time_s
        ) as span:
            losses = self.board.unplug()
            self.board.wait(self.off_time_s)
            self.board.plug_in()
            lost = losses.get(self.plan.domain_name, 0)
            span.set_attributes(
                held_domain=self.plan.domain_name,
                cells_lost_in_surge=lost,
                cells_below_drv_total=OBS.metrics.counter_total(
                    "sram.cells_below_drv"
                ),
            )
        return lost

    def reboot(self) -> None:
        """Step 3b: boot the attacker's media (or the internal ROM)."""
        media = self.boot_media.name if self.boot_media else "internal ROM"
        with OBS.span("attack.reboot", media=media):
            self.board.boot(self.boot_media)

    def extract(self) -> VoltBootResult:
        """Step 4: dump the target memory through the debug interfaces."""
        if self.plan is None:
            raise AttackError("run the pipeline before extracting")
        result = VoltBootResult(
            plan=self.plan,
            cells_lost_in_surge=self._surge_losses,
            off_time_s=self.off_time_s,
        )
        with OBS.span("attack.extract", target=self.target) as span:
            cores = len(self.board.soc.cores)
            if self.target == "l1-caches":
                result.cache_images = extract_l1_images(
                    self.board,
                    attacker_context(self.board),
                    skip_secure=self.board.soc.config.trustzone_enforced,
                    icache=self.icache,
                )
                span.set_attribute("cores_dumped", cores)
            elif self.target == "registers":
                for core_index in range(cores):
                    result.vector_registers[core_index] = (
                        extract_vector_registers(self.board, core_index)
                    )
                span.set_attribute("cores_dumped", cores)
            elif self.target == "iram":
                jtag = JtagProbe(
                    self.board.soc.memory_map,
                    enabled=self.board.soc.config.jtag_enabled,
                )
                result.iram_image = extract_iram(self.board, jtag)
                span.set_attribute("iram_bytes", len(result.iram_image))
            else:
                raise AttackError(
                    f"no extraction path for target {self.target!r}"
                )
            span.set_attributes(
                cells_lost_in_surge=result.cells_lost_in_surge,
                surge_clean=result.surge_clean,
                retention_metrics=OBS.metrics.snapshot("sram.retained"),
            )
        return result

    # ------------------------------------------------------------------
    # The full pipeline
    # ------------------------------------------------------------------

    _surge_losses: int = 0

    def execute(self) -> VoltBootResult:
        """Run all four steps and return the extraction result."""
        with OBS.span(
            "attack.voltboot", device=self.board.name, target=self.target
        ) as root:
            self.identify()
            self.attach()
            self._surge_losses = self.power_cycle()
            self.reboot()
            result = self.extract()
        if OBS.enabled:
            from ..obs.manifest import RunManifest

            OBS.record_manifest(
                RunManifest(
                    kind="attack",
                    name="voltboot",
                    seed=self.board.seed_root,
                    device=self.board.name,
                    parameters={
                        "target": self.target,
                        "off_time_s": self.off_time_s,
                        "boot_media": (
                            self.boot_media.name if self.boot_media else None
                        ),
                    },
                    phases=root.phases("attack."),
                    headline={
                        "surge_clean": result.surge_clean,
                        "cells_lost_in_surge": result.cells_lost_in_surge,
                        "probe_pad": result.plan.pad.name,
                        "held_domain": result.plan.domain_name,
                    },
                    metrics=OBS.metrics.snapshot(),
                )
            )
        return result

    def cleanup(self) -> None:
        """Lift the probe (ends the artificial retention)."""
        if self._attached and self.plan is not None:
            self.board.detach_probe(self.plan.pad.name)
            self._attached = False
