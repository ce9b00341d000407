"""The interpreter's former ``if``/``elif`` dispatch, kept as a test oracle.

:func:`reference_step` is the body :meth:`repro.cpu.core.Core.step` had
before it dispatched through one table keyed by opcode: one ``op is
Opcode.X`` test per opcode, each executing inline on the core's own
fetch, register and memory helpers.  The differential tests in
``test_dispatch.py`` run both on twin rigs and compare every effect.
"""

from __future__ import annotations

from repro.cpu.core import Core
from repro.cpu.isa import Opcode
from repro.errors import CpuFault

_MASK64 = (1 << 64) - 1


def reference_step(core: Core) -> None:
    """Fetch, decode, and execute a single instruction, chain-dispatched."""
    if core.halted:
        raise CpuFault("core is halted")
    instr = core._fetch()
    next_pc = core.pc + 4
    op = instr.opcode

    if op is Opcode.NOP:
        pass
    elif op is Opcode.HLT:
        core.halted = True
    elif op is Opcode.LDI:
        core.write_x(instr.a, instr.b)
    elif op is Opcode.LSLI:
        core.write_x(instr.a, core.read_x(instr.b) << instr.c)
    elif op is Opcode.LSRI:
        core.write_x(instr.a, core.read_x(instr.b) >> instr.c)
    elif op is Opcode.ORRI:
        core.write_x(instr.a, core.read_x(instr.b) | instr.c)
    elif op is Opcode.ADD:
        core.write_x(instr.a, core.read_x(instr.b) + core.read_x(instr.c))
    elif op is Opcode.ADDI:
        core.write_x(instr.a, core.read_x(instr.b) + instr.c)
    elif op is Opcode.SUB:
        core.write_x(instr.a, core.read_x(instr.b) - core.read_x(instr.c))
    elif op is Opcode.SUBI:
        core.write_x(instr.a, core.read_x(instr.b) - instr.c)
    elif op is Opcode.AND:
        core.write_x(instr.a, core.read_x(instr.b) & core.read_x(instr.c))
    elif op is Opcode.ORR:
        core.write_x(instr.a, core.read_x(instr.b) | core.read_x(instr.c))
    elif op is Opcode.EOR:
        core.write_x(instr.a, core.read_x(instr.b) ^ core.read_x(instr.c))
    elif op is Opcode.MUL:
        core.write_x(instr.a, core.read_x(instr.b) * core.read_x(instr.c))
    elif op is Opcode.LDR:
        addr = core.read_x(instr.b) + instr.c * 8
        core.write_x(instr.a, int.from_bytes(core._dread(addr, 8), "little"))
    elif op is Opcode.STR:
        addr = core.read_x(instr.b) + instr.c * 8
        core._dwrite(addr, (core.read_x(instr.a) & _MASK64).to_bytes(8, "little"))
    elif op is Opcode.LDRB:
        addr = core.read_x(instr.b) + instr.c
        core.write_x(instr.a, core._dread(addr, 1)[0])
    elif op is Opcode.STRB:
        addr = core.read_x(instr.b) + instr.c
        core._dwrite(addr, bytes([core.read_x(instr.a) & 0xFF]))
    elif op is Opcode.B:
        next_pc = core.pc + instr.simm16 * 4
        core._btb_record(core.pc, next_pc)
    elif op is Opcode.CBZ:
        if core.read_x(instr.a) == 0:
            next_pc = core.pc + instr.simm16 * 4
            core._btb_record(core.pc, next_pc)
    elif op is Opcode.CBNZ:
        if core.read_x(instr.a) != 0:
            next_pc = core.pc + instr.simm16 * 4
            core._btb_record(core.pc, next_pc)
    elif op is Opcode.DCZVA:
        core.unit.l1d.zero_line(core.read_x(instr.a))
    elif op is Opcode.DSB:
        core.unit.cp15.dsb()
    elif op is Opcode.ISB:
        core.unit.cp15.isb()
        core.flush_fetch_buffer()
    elif op is Opcode.VFILL:
        core.unit.vreg.write_bytes(instr.a, bytes([instr.b]) * 16)
    elif op is Opcode.VINS:
        if instr.b not in (0, 1):
            raise CpuFault(f"VINS: lane {instr.b} out of range")
        current = bytearray(core.unit.vreg.read_bytes(instr.a))
        lane = core.read_x(instr.c).to_bytes(8, "little")
        current[instr.b * 8 : instr.b * 8 + 8] = lane
        core.unit.vreg.write_bytes(instr.a, bytes(current))
    elif op is Opcode.VEXT:
        if instr.c not in (0, 1):
            raise CpuFault(f"VEXT: lane {instr.c} out of range")
        raw = core.unit.vreg.read_bytes(instr.b)
        core.write_x(
            instr.a, int.from_bytes(raw[instr.c * 8 : instr.c * 8 + 8], "little")
        )
    elif op is Opcode.CACHEEN:
        if not core.unit.l1d.enabled:
            core.unit.l1d.invalidate_all()
            core.unit.l1d.enabled = True
        if not core.unit.l1i.enabled:
            core.unit.l1i.invalidate_all()
            core.unit.l1i.enabled = True
        core.flush_fetch_buffer()
    elif op is Opcode.CACHEDIS:
        core.unit.l1d.enabled = False
        core.unit.l1i.enabled = False
        core.flush_fetch_buffer()
    else:
        raise CpuFault(f"unimplemented opcode {op!r}")

    core.pc = next_pc
    core.instructions_retired += 1
