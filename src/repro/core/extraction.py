"""Attack step 3/4: post-reboot data extraction.

The attacker's post-reboot software must (a) avoid touching the retained
SRAM — so it never enables the caches — and (b) move the raw contents to
somewhere durable (paper §6.1 step 3 tasks A/B).  Extraction paths:

* **CP15 RAMINDEX** for L1 caches: the well-barriered
  ``SYS``/``DSB``/``ISB``/data-register sequence at EL3
  (:meth:`~repro.soc.cp15.Cp15Interface.dump_way`);
* **direct register reads** for the vector file — the extraction stub
  stores each ``v`` register before any code clobbers it;
* **JTAG** block reads for memory-mapped iRAM on ROM-booting parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AttackError
from ..soc.board import Board
from ..soc.context import ExecutionContext, EL2_NS, EL3_SECURE
from ..soc.cp15 import RamId
from ..soc.jtag import JtagProbe


def attacker_context(board: Board) -> ExecutionContext:
    """The execution context attacker-booted code obtains on this board.

    Without enforced secure boot the attacker's image runs at EL3 in the
    secure world; a TrustZone-locked device pins third-party code to the
    non-secure world.
    """
    if board.soc.config.trustzone_enforced:
        return EL2_NS
    return EL3_SECURE


@dataclass
class CacheImages:
    """Raw L1 way images for every core of a board.

    ``i_ways`` is ``None`` when the dump skipped the i-caches; reading
    :attr:`l1i` or :meth:`icache` then raises :class:`AttackError`.
    """

    l1d: dict[int, list[bytes]] = field(default_factory=dict)
    i_ways: dict[int, list[bytes]] | None = None

    @property
    def l1i(self) -> dict[int, list[bytes]]:
        """The i-cache way images by core (the dump must include them)."""
        if self.i_ways is None:
            raise AttackError(
                "this dump skipped the i-caches; extract with icache=True"
            )
        return self.i_ways

    def dcache(self, core: int) -> bytes:
        """All d-cache ways of one core, concatenated."""
        return b"".join(self.l1d[core])

    def icache(self, core: int) -> bytes:
        """All i-cache ways of one core, concatenated."""
        return b"".join(self.l1i[core])

    def everything(self) -> bytes:
        """Every dumped byte (key-search convenience): d-caches, then
        i-caches if dumped."""
        blobs = []
        for ways in (self.l1d, self.i_ways or {}):
            for core in sorted(ways):
                blobs.extend(ways[core])
        return b"".join(blobs)


def extract_l1_images(
    board: Board,
    ctx: ExecutionContext | None = None,
    skip_secure: bool = False,
    icache: bool = False,
) -> CacheImages:
    """Dump the L1 ways of every core over CP15 RAMINDEX.

    Every d-cache way is dumped, and with ``icache`` every i-cache way
    too (per core, d-cache ways first, then i-cache ways; a read-noise
    model sees that order).  The board must be booted (the extraction
    program has to run); the caches themselves stay disabled, so the
    dump does not disturb them.
    """
    if not board.booted:
        raise AttackError("extraction software needs a booted system")
    ctx = ctx or attacker_context(board)
    images = CacheImages(i_ways={} if icache else None)
    for core_index in range(len(board.soc.cores)):
        unit = board.soc.core(core_index)
        if unit.l1d.enabled or unit.l1i.enabled:
            raise AttackError(
                f"core {core_index}: caches are enabled; the extraction "
                f"stub must keep them off to avoid self-contamination"
            )
        images.l1d[core_index] = [
            unit.cp15.dump_way(ctx, RamId.L1D_DATA, way, skip_secure=skip_secure)
            for way in range(unit.l1d.geometry.ways)
        ]
        if icache:
            images.i_ways[core_index] = [
                unit.cp15.dump_way(
                    ctx, RamId.L1I_DATA, way, skip_secure=skip_secure
                )
                for way in range(unit.l1i.geometry.ways)
            ]
    return images


def extract_vector_registers(board: Board, core: int) -> list[bytes]:
    """Dump the 128-bit vector file of one core.

    Models the paper's register-extraction stub: straight-line code that
    stores ``v0..v31`` to DRAM before any FP/SIMD-using code runs.  The
    GPRs are useless post-boot (boot code burns them); the vector file is
    untouched by the boot flow.
    """
    if not board.booted:
        raise AttackError("extraction software needs a booted system")
    unit = board.soc.core(core)
    return [unit.vreg.read_bytes(i) for i in range(unit.vreg.count)]


def extract_iram(board: Board, jtag: JtagProbe | None = None) -> bytes:
    """Dump the whole iRAM over JTAG (the i.MX53 path, §7.3)."""
    iram = board.soc.iram
    if iram is None:
        raise AttackError(f"{board.name} has no iRAM to extract")
    probe = jtag or JtagProbe(board.soc.memory_map,
                              enabled=board.soc.config.jtag_enabled)
    return probe.read_block(iram.base_addr, iram.size_bytes)
