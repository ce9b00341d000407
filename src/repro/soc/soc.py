"""SoC composition: cores, caches, iRAM, domains, and boot machinery.

A :class:`Soc` assembles the architectural blocks out of the circuit
substrate and wires every SRAM macro into the power domain that feeds it
(paper §2.3 / Figure 2).  Device-specific shapes (cache geometries, iRAM
windows, domain-to-rail assignments) come from a :class:`SocConfig`; the
concrete boards the paper evaluates are built in :mod:`repro.devices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.dram import DramArray
from ..circuits.passives import DisconnectSurge
from ..circuits.sram import SramParameters
from ..errors import PowerError
from ..power.domain import PowerDomain
from ..power.events import PowerEventLog
from ..power.pmu import PowerManagementUnit
from ..rng import SeedSequenceFactory
from .bootrom import BootRom
from .cache import CacheGeometry, SetAssociativeCache
from .cp15 import Cp15Interface
from .iram import Iram
from .mbist import MbistEngine
from .memory_map import MemoryMap
from .regfile import RegisterFile, general_purpose_file, vector_file
from .tlb import BTB_ENTRIES, TLB_ENTRIES, Btb, Tlb
from .videocore import VideoCore

#: Domain-membership keywords accepted in :class:`DomainSpec.members`.
MEMBER_KINDS = ("l1-caches", "registers", "l2", "iram", "dram")


@dataclass(frozen=True)
class DomainSpec:
    """One power domain of the SoC and what it feeds.

    ``members`` uses the keywords in :data:`MEMBER_KINDS`.  ``surge``
    describes the current transient this domain sees when the main input
    is cut while the domain is externally held — core domains that feed
    hungry CPU clusters spike hard; memory-only domains barely blip.
    """

    name: str
    nominal_v: float
    members: tuple[str, ...]
    surge: DisconnectSurge = field(default_factory=DisconnectSurge)

    def __post_init__(self) -> None:
        for member in self.members:
            if member not in MEMBER_KINDS:
                raise PowerError(
                    f"domain {self.name!r}: unknown member kind {member!r}"
                )


@dataclass(frozen=True)
class SocConfig:
    """Shape of one SoC."""

    name: str
    cpu_name: str
    core_count: int
    l1d_geometry: CacheGeometry
    l1i_geometry: CacheGeometry
    l2_geometry: CacheGeometry | None = None
    l2_shared_with_videocore: bool = False
    l1i_interleave: bool = False
    l1_replacement: str = "lru"
    iram_base: int | None = None
    iram_size: int | None = None
    domains: tuple[DomainSpec, ...] = ()
    bootrom: BootRom | None = None
    trustzone_enforced: bool = False
    mbist_enabled: bool = False
    jtag_enabled: bool = True


class CoreUnit:
    """One CPU core's private hardware: L1s, register files, TLB, BTB."""

    def __init__(
        self,
        index: int,
        l1d: SetAssociativeCache,
        l1i: SetAssociativeCache,
        gpr: RegisterFile,
        vreg: RegisterFile,
        tlb: Tlb,
        btb: Btb,
        trustzone_enforced: bool,
    ) -> None:
        self.index = index
        self.l1d = l1d
        self.l1i = l1i
        self.gpr = gpr
        self.vreg = vreg
        self.tlb = tlb
        self.btb = btb
        self.cp15 = Cp15Interface(index, l1d, l1i, tlb, btb, trustzone_enforced)


class Soc:
    """A system-on-chip instance assembled from a :class:`SocConfig`."""

    def __init__(
        self,
        config: SocConfig,
        memory_map: MemoryMap,
        dram: DramArray,
        seeds: SeedSequenceFactory,
        log: PowerEventLog,
    ) -> None:
        self.config = config
        self.memory_map = memory_map
        self.dram = dram
        self.log = log
        self._seeds = seeds
        # One process corner for the whole die; the nominal voltage per
        # domain is applied by the power layer, so the macro default is
        # only a fallback.
        params = SramParameters()

        # Optional shared L2 between the memory map and the L1s.
        self.l2: SetAssociativeCache | None = None
        l1_backing = memory_map
        if config.l2_geometry is not None:
            self.l2 = SetAssociativeCache(
                f"{config.name}.l2",
                config.l2_geometry,
                memory_map,
                params,
                seeds.generator("l2"),
            )
            l1_backing = self.l2

        self.cores: list[CoreUnit] = []
        for index in range(config.core_count):
            core_seeds = seeds.child(f"core{index}")
            l1d = SetAssociativeCache(
                f"{config.name}.c{index}.l1d",
                config.l1d_geometry,
                l1_backing,
                params,
                core_seeds.generator("l1d"),
                replacement=config.l1_replacement,
            )
            l1i = SetAssociativeCache(
                f"{config.name}.c{index}.l1i",
                config.l1i_geometry,
                l1_backing,
                params,
                core_seeds.generator("l1i"),
                line_interleave=config.l1i_interleave,
                replacement=config.l1_replacement,
            )
            gpr = general_purpose_file(
                params, core_seeds.generator("gpr"), name=f"c{index}.gpr"
            )
            vreg = vector_file(
                params, core_seeds.generator("vreg"), name=f"c{index}.vreg"
            )
            tlb = Tlb(
                TLB_ENTRIES, params, core_seeds.generator("tlb"),
                name=f"c{index}.tlb",
            )
            btb = Btb(
                BTB_ENTRIES, params, core_seeds.generator("btb"),
                name=f"c{index}.btb",
            )
            self.cores.append(
                CoreUnit(
                    index, l1d, l1i, gpr, vreg, tlb, btb,
                    config.trustzone_enforced,
                )
            )

        self.iram: Iram | None = None
        if config.iram_base is not None and config.iram_size is not None:
            self.iram = Iram(
                f"{config.name}.iram",
                config.iram_base,
                config.iram_size,
                params,
                seeds.generator("iram"),
            )
            memory_map.add_region(
                "iram", config.iram_base, config.iram_size, self.iram
            )

        self.videocore: VideoCore | None = None
        if config.l2_shared_with_videocore and self.l2 is not None:
            self.videocore = VideoCore(self.l2, seeds.seed("videocore"))

        self.bootrom = config.bootrom or BootRom(name=f"{config.name}.bootrom")
        self.mbist = MbistEngine(enabled=config.mbist_enabled)

        # Power domains.
        self.pmu = PowerManagementUnit(log)
        self._build_domains()

        # MBIST covers every macro in the chip.
        for domain in self.pmu.domains():
            for load in domain.loads:
                if hasattr(load, "fill_bytes"):
                    self.mbist.cover(load)

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------

    def _domain_members(self, spec: DomainSpec):
        members = []
        for kind in spec.members:
            if kind == "l1-caches":
                # The per-core microarchitectural RAMs (TLB, BTB) share
                # the L1 power domain on the modelled parts.
                for core in self.cores:
                    members.extend(core.l1d.sram_macros())
                    members.extend(core.l1i.sram_macros())
                    members.extend((core.tlb.sram, core.btb.sram))
            elif kind == "registers":
                for core in self.cores:
                    members.append(core.gpr.sram)
                    members.append(core.vreg.sram)
            elif kind == "l2":
                if self.l2 is None:
                    raise PowerError(
                        f"domain {spec.name!r} claims an L2 this SoC lacks"
                    )
                members.extend(self.l2.sram_macros())
            elif kind == "iram":
                if self.iram is None:
                    raise PowerError(
                        f"domain {spec.name!r} claims an iRAM this SoC lacks"
                    )
                members.append(self.iram.sram)
            elif kind == "dram":
                members.append(self.dram)
        return members

    def _build_domains(self) -> None:
        claimed: set[int] = set()
        for spec in self.config.domains:
            domain = PowerDomain(spec.name, spec.name, spec.nominal_v, self.log)
            for load in self._domain_members(spec):
                if id(load) in claimed:
                    raise PowerError(
                        f"load {load.name!r} claimed by two domains"
                    )
                claimed.add(id(load))
                domain.attach_load(load)
            self.pmu.add_domain(domain)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def domain_spec(self, name: str) -> DomainSpec:
        """Look up the config spec of a domain."""
        for spec in self.config.domains:
            if spec.name == name:
                return spec
        raise PowerError(f"{self.config.name}: unknown domain {name!r}")

    def domain_for_target(self, target: str) -> str:
        """Name of the domain feeding a target memory kind.

        ``target`` is one of the member keywords (``"l1-caches"``,
        ``"registers"``, ``"iram"``, ``"l2"``, ``"dram"``) — attack step 1
        of paper §6.1.
        """
        for spec in self.config.domains:
            if target in spec.members:
                return spec.name
        raise PowerError(f"{self.config.name}: nothing feeds target {target!r}")

    def core(self, index: int) -> CoreUnit:
        """Look up a core by index."""
        if not 0 <= index < len(self.cores):
            raise PowerError(f"{self.config.name}: no core {index}")
        return self.cores[index]

    def boot_rng(self, boot_count: int) -> np.random.Generator:
        """Deterministic-but-per-boot RNG for boot-time clobber data."""
        return self._seeds.generator("boot", str(boot_count))
