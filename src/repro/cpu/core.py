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
        next_pc = self.pc + 4
        op = instr.opcode

        if op is Opcode.NOP:
            pass
        elif op is Opcode.HLT:
            self.halted = True
        elif op is Opcode.LDI:
            self.write_x(instr.a, instr.b)
        elif op is Opcode.LSLI:
            self.write_x(instr.a, self.read_x(instr.b) << instr.c)
        elif op is Opcode.LSRI:
            self.write_x(instr.a, self.read_x(instr.b) >> instr.c)
        elif op is Opcode.ORRI:
            self.write_x(instr.a, self.read_x(instr.b) | instr.c)
        elif op is Opcode.ADD:
            self.write_x(instr.a, self.read_x(instr.b) + self.read_x(instr.c))
        elif op is Opcode.ADDI:
            self.write_x(instr.a, self.read_x(instr.b) + instr.c)
        elif op is Opcode.SUB:
            self.write_x(instr.a, self.read_x(instr.b) - self.read_x(instr.c))
        elif op is Opcode.SUBI:
            self.write_x(instr.a, self.read_x(instr.b) - instr.c)
        elif op is Opcode.AND:
            self.write_x(instr.a, self.read_x(instr.b) & self.read_x(instr.c))
        elif op is Opcode.ORR:
            self.write_x(instr.a, self.read_x(instr.b) | self.read_x(instr.c))
        elif op is Opcode.EOR:
            self.write_x(instr.a, self.read_x(instr.b) ^ self.read_x(instr.c))
        elif op is Opcode.MUL:
            self.write_x(instr.a, self.read_x(instr.b) * self.read_x(instr.c))
        elif op is Opcode.LDR:
            addr = self.read_x(instr.b) + instr.c * 8
            self.write_x(instr.a, int.from_bytes(self._dread(addr, 8), "little"))
        elif op is Opcode.STR:
            addr = self.read_x(instr.b) + instr.c * 8
            self._dwrite(addr, (self.read_x(instr.a) & _MASK64).to_bytes(8, "little"))
        elif op is Opcode.LDRB:
            addr = self.read_x(instr.b) + instr.c
            self.write_x(instr.a, self._dread(addr, 1)[0])
        elif op is Opcode.STRB:
            addr = self.read_x(instr.b) + instr.c
            self._dwrite(addr, bytes([self.read_x(instr.a) & 0xFF]))
        elif op is Opcode.B:
            next_pc = self.pc + instr.simm16 * 4
            self._btb_record(self.pc, next_pc)
        elif op is Opcode.CBZ:
            if self.read_x(instr.a) == 0:
                next_pc = self.pc + instr.simm16 * 4
                self._btb_record(self.pc, next_pc)
        elif op is Opcode.CBNZ:
            if self.read_x(instr.a) != 0:
                next_pc = self.pc + instr.simm16 * 4
                self._btb_record(self.pc, next_pc)
        elif op is Opcode.DCZVA:
            self.unit.l1d.zero_line(self.read_x(instr.a))
        elif op is Opcode.DSB:
            self.unit.cp15.dsb()
        elif op is Opcode.ISB:
            self.unit.cp15.isb()
            self.flush_fetch_buffer()
        elif op is Opcode.VFILL:
            self.unit.vreg.write_bytes(instr.a, bytes([instr.b]) * 16)
        elif op is Opcode.VINS:
            if instr.b not in (0, 1):
                raise CpuFault(f"VINS: lane {instr.b} out of range")
            current = bytearray(self.unit.vreg.read_bytes(instr.a))
            lane = self.read_x(instr.c).to_bytes(8, "little")
            current[instr.b * 8 : instr.b * 8 + 8] = lane
            self.unit.vreg.write_bytes(instr.a, bytes(current))
        elif op is Opcode.VEXT:
            if instr.c not in (0, 1):
                raise CpuFault(f"VEXT: lane {instr.c} out of range")
            raw = self.unit.vreg.read_bytes(instr.b)
            self.write_x(instr.a, int.from_bytes(raw[instr.c * 8 : instr.c * 8 + 8], "little"))
        elif op is Opcode.CACHEEN:
            # Real enable sequences invalidate first (random power-on
            # tag state would otherwise alias); invalidation only clears
            # valid bits — data RAM contents survive, per paper §5.2.4.
            if not self.unit.l1d.enabled:
                self.unit.l1d.invalidate_all()
                self.unit.l1d.enabled = True
            if not self.unit.l1i.enabled:
                self.unit.l1i.invalidate_all()
                self.unit.l1i.enabled = True
            self.flush_fetch_buffer()
        elif op is Opcode.CACHEDIS:
            self.unit.l1d.enabled = False
            self.unit.l1i.enabled = False
            self.flush_fetch_buffer()
        else:  # pragma: no cover - the decoder rejects unknown opcodes
            raise CpuFault(f"unimplemented opcode {op!r}")

        self.pc = next_pc
        self.instructions_retired += 1

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until HLT or ``max_steps``; returns instructions retired."""
        start = self.instructions_retired
        for _ in range(max_steps):
            if self.halted:
                break
            self.step()
        else:
            raise CpuFault(f"program exceeded {max_steps} steps without HLT")
        return self.instructions_retired - start
