"""The CPU interpreter: executes machine code through the cache hierarchy.

Every instruction fetch streams through the core's L1 i-cache and every
load/store through its L1 d-cache (when enabled), so running a program
populates the SRAM macros exactly the way the paper's bare-metal victims
do.  Register reads and writes go to the SRAM-backed register files, so
whatever a program leaves in ``x``/``v`` registers is physically present
for the attack.

A small line-sized fetch buffer models the real front-end: a line is read
through the i-cache once and subsequent sequential fetches decode from
the buffer (flushed by branches landing outside it and by ``ISB``).
"""

from __future__ import annotations

import operator
from collections.abc import Callable

from ..errors import CpuFault
from ..soc.memory_map import MemoryMap
from ..soc.soc import CoreUnit
from .isa import Instruction, Opcode, XZR, decode

_MASK64 = (1 << 64) - 1


class Core:
    """One executing CPU core bound to its :class:`~repro.soc.soc.CoreUnit`."""

    def __init__(
        self, unit: CoreUnit, memory_map: MemoryMap, asid: int = 0
    ) -> None:
        self.unit = unit
        self.memory_map = memory_map
        self.asid = asid
        self.pc = 0
        self.halted = False
        self.instructions_retired = 0
        #: One-shot decoded-instruction override consumed by the next
        #: fetch.  The seam the glitch injector uses to model a
        #: corrupted fetch: the front-end "sees" this instruction
        #: instead of reading the i-cache, for exactly one step.
        self.fetch_override: Instruction | None = None
        self._fetch_line_addr: int | None = None
        self._fetch_line: bytes = b""
        # Host-side micro-TLB / micro-BTB filters: real front-ends keep
        # tiny L0 structures so the big SRAM arrays are only written on
        # genuine misses; here they keep simulation cost linear.
        self._utlb_pages: set[int] = set()
        self._ubtb_branches: set[int] = set()

    # ------------------------------------------------------------------
    # Register access (through the SRAM-backed files)
    # ------------------------------------------------------------------

    def read_x(self, index: int) -> int:
        """Read a general-purpose register (``xzr`` reads zero)."""
        if index == XZR:
            return 0
        return self.unit.gpr.read(index)

    def write_x(self, index: int, value: int) -> None:
        """Write a general-purpose register (writes to ``xzr`` vanish)."""
        if index != XZR:
            self.unit.gpr.write(index, value & _MASK64)

    # ------------------------------------------------------------------
    # Memory access (through the caches when enabled)
    # ------------------------------------------------------------------

    def _tlb_fill(self, addr: int) -> None:
        tlb = self.unit.tlb
        page = addr >> tlb.PAGE_SHIFT
        if page not in self._utlb_pages:
            self._utlb_pages.add(page)
            tlb.touch_address(self.asid, addr)

    def _btb_record(self, branch_pc: int, target_pc: int) -> None:
        if branch_pc not in self._ubtb_branches:
            self._ubtb_branches.add(branch_pc)
            self.unit.btb.record(branch_pc, target_pc)

    def _dread(self, addr: int, size: int) -> bytes:
        self._tlb_fill(addr)
        if self.unit.l1d.enabled:
            return self.unit.l1d.read(addr, size)
        return self.memory_map.read_block(addr, size)

    def _dwrite(self, addr: int, data: bytes) -> None:
        self._tlb_fill(addr)
        if self.unit.l1d.enabled:
            self.unit.l1d.write(addr, data)
        else:
            self.memory_map.write_block(addr, data)

    def _fetch(self) -> Instruction:
        if self.fetch_override is not None:
            instr = self.fetch_override
            self.fetch_override = None
            return instr
        line_bytes = self.unit.l1i.geometry.line_bytes
        line_addr = self.pc & ~(line_bytes - 1)
        if line_addr != self._fetch_line_addr:
            self._tlb_fill(self.pc)
            if self.unit.l1i.enabled:
                self._fetch_line = self.unit.l1i.read(line_addr, line_bytes)
            else:
                self._fetch_line = self.memory_map.read_block(line_addr, line_bytes)
            self._fetch_line_addr = line_addr
        offset = self.pc - line_addr
        return decode(self._fetch_line[offset : offset + 4])

    def flush_fetch_buffer(self) -> None:
        """Discard the line buffer (ISB, or external code modification)."""
        self._fetch_line_addr = None
        self._fetch_line = b""
        self.fetch_override = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def load_program(self, machine_code: bytes, base_addr: int) -> None:
        """Place machine code in memory and point the PC at it."""
        self.memory_map.write_block(base_addr, machine_code)
        self.pc = base_addr
        self.halted = False
        self.flush_fetch_buffer()

    def step(self) -> None:
        """Fetch, decode, and execute a single instruction."""
        if self.halted:
            raise CpuFault("core is halted")
        instr = self._fetch()
        target = _EXECUTE[instr.opcode](self, instr)
        self.pc = self.pc + 4 if target is None else target
        self.instructions_retired += 1

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until HLT or ``max_steps``; returns instructions retired."""
        start = self.instructions_retired
        for _ in range(max_steps):
            if self.halted:
                break
            self.step()
        if not self.halted:
            raise CpuFault(f"program exceeded {max_steps} steps without HLT")
        return self.instructions_retired - start


# ----------------------------------------------------------------------
# Instruction handlers: ``_EXECUTE`` gives every opcode one.  A handler
# returns its branch target, or ``None`` to fall through to pc + 4.
# ----------------------------------------------------------------------

_Handler = Callable[[Core, Instruction], int | None]


def _alu(fn: Callable[[int, int], int], immediate: bool) -> _Handler:
    """``x[a] = fn(x[b], c)``, with ``x[c]`` for ``c`` unless ``immediate``."""

    def execute(core: Core, instr: Instruction) -> None:
        lhs = core.read_x(instr.b)
        rhs = instr.c if immediate else core.read_x(instr.c)
        core.write_x(instr.a, fn(lhs, rhs))

    return execute


def _load(size: int) -> _Handler:
    """``x[a] = mem[x[b] + c * size]``, ``size`` bytes little-endian."""

    def execute(core: Core, instr: Instruction) -> None:
        addr = core.read_x(instr.b) + instr.c * size
        core.write_x(instr.a, int.from_bytes(core._dread(addr, size), "little"))

    return execute


def _store(size: int) -> _Handler:
    """``mem[x[b] + c * size] = x[a]``, its low ``size`` bytes."""
    mask = (1 << 8 * size) - 1

    def execute(core: Core, instr: Instruction) -> None:
        addr = core.read_x(instr.b) + instr.c * size
        core._dwrite(addr, (core.read_x(instr.a) & mask).to_bytes(size, "little"))

    return execute


def _branch(taken: Callable[[int], bool] | None) -> _Handler:
    """``pc += simm16`` instructions, always or when ``taken(x[a])``."""

    def execute(core: Core, instr: Instruction) -> int | None:
        if taken is not None and not taken(core.read_x(instr.a)):
            return None
        target = core.pc + instr.simm16 * 4
        core._btb_record(core.pc, target)
        return target

    return execute


def _halt(core: Core, instr: Instruction) -> None:
    core.halted = True


def _isb(core: Core, instr: Instruction) -> None:
    core.unit.cp15.isb()
    core.flush_fetch_buffer()


def _vfill(core: Core, instr: Instruction) -> None:
    core.unit.vreg.write_bytes(instr.a, bytes([instr.b]) * 16)


def _vins(core: Core, instr: Instruction) -> None:
    if instr.b not in (0, 1):
        raise CpuFault(f"VINS: lane {instr.b} out of range")
    current = bytearray(core.unit.vreg.read_bytes(instr.a))
    lane = core.read_x(instr.c).to_bytes(8, "little")
    current[instr.b * 8 : instr.b * 8 + 8] = lane
    core.unit.vreg.write_bytes(instr.a, bytes(current))


def _vext(core: Core, instr: Instruction) -> None:
    if instr.c not in (0, 1):
        raise CpuFault(f"VEXT: lane {instr.c} out of range")
    raw = core.unit.vreg.read_bytes(instr.b)
    core.write_x(instr.a, int.from_bytes(raw[instr.c * 8 : instr.c * 8 + 8], "little"))


def _cache_control(enable: bool) -> _Handler:
    """Enable or disable both L1 caches, then refetch.

    Real enable sequences invalidate first (random power-on tag state
    would otherwise alias); invalidation only clears valid bits — data
    RAM contents survive, per paper §5.2.4.
    """

    def execute(core: Core, instr: Instruction) -> None:
        for cache in (core.unit.l1d, core.unit.l1i):
            if enable and not cache.enabled:
                cache.invalidate_all()
            cache.enabled = enable
        core.flush_fetch_buffer()

    return execute


#: The ALU opcodes' operations; an immediate shape's right operand is ``c``.
_ALU = {
    Opcode.LSLI: operator.lshift,
    Opcode.LSRI: operator.rshift,
    Opcode.ORRI: operator.or_,
    Opcode.ADD: operator.add,
    Opcode.ADDI: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.SUBI: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.ORR: operator.or_,
    Opcode.EOR: operator.xor,
    Opcode.MUL: operator.mul,
}

_EXECUTE: dict[Opcode, _Handler] = {
    **{op: _alu(fn, op.shape.endswith("#")) for op, fn in _ALU.items()},
    Opcode.NOP: lambda core, instr: None,
    Opcode.HLT: _halt,
    Opcode.LDI: lambda core, instr: core.write_x(instr.a, instr.b),
    Opcode.LDR: _load(8),
    Opcode.LDRB: _load(1),
    Opcode.STR: _store(8),
    Opcode.STRB: _store(1),
    Opcode.B: _branch(None),
    Opcode.CBZ: _branch(operator.not_),
    Opcode.CBNZ: _branch(bool),
    Opcode.DCZVA: lambda core, instr: core.unit.l1d.zero_line(core.read_x(instr.a)),
    Opcode.DSB: lambda core, instr: core.unit.cp15.dsb(),
    Opcode.ISB: _isb,
    Opcode.VFILL: _vfill,
    Opcode.VINS: _vins,
    Opcode.VEXT: _vext,
    Opcode.CACHEEN: _cache_control(True),
    Opcode.CACHEDIS: _cache_control(False),
}
