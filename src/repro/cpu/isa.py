"""Instruction set and binary encoding.

Every instruction is 4 bytes — ``[opcode][a][b][c]`` — mirroring the
fixed-width aarch64 encoding closely enough that instruction streams have
realistic density in the i-cache.  Register fields address ``x0..x30``;
register 31 is ``xzr`` (reads as zero, writes vanish), as on real ARM.

The set covers what the paper's victim programs need:

* data movement and ALU ops to build addresses and pattern values;
* 8-byte and 1-byte loads/stores through the d-cache;
* branches for loops;
* ``DC ZVA`` plus barriers (``DSB``/``ISB``) — the maintenance ops the
  paper discusses;
* vector-register fills and lane moves (``v0..v31``) for the §7.2 attack;
* a cache-enable control op standing in for the SCTLR dance.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from ..errors import AssemblerError

#: Encoded index of the zero register.
XZR = 31


class Opcode(enum.IntEnum):
    """Binary opcodes (byte 0 of each instruction) and their operand shapes.

    The one place an opcode is declared.  Its mnemonic is
    ``name.lower()``; its ``shape`` lists the assembly operands, which
    fill the fields ``a``, ``b``, ``c`` in order:

    * ``d`` — destination x register; ``x`` — source x register;
    * ``v`` — vector register; ``#`` — byte immediate;
    * ``[x#]`` — base x register plus byte offset (two fields);
    * ``L`` — branch label, the signed offset in ``b:c``.
    """

    shape: str

    def __new__(cls, value: int, shape: str) -> Opcode:
        member = int.__new__(cls, value)
        member._value_ = value
        member.shape = shape
        return member

    @property
    def writes_x(self) -> bool:
        """Whether field ``a`` is a general-purpose destination register."""
        return self.shape.startswith("d")

    NOP = 0x00, ""
    HLT = 0x01, ""
    LDI = 0x02, "d #"        # rd = imm8
    LSLI = 0x03, "d x #"     # rd = rn << imm8
    LSRI = 0x04, "d x #"     # rd = rn >> imm8
    ORRI = 0x05, "d x #"     # rd = rn | imm8
    ADD = 0x06, "d x x"      # rd = rn + rm
    ADDI = 0x07, "d x #"     # rd = rn + imm8
    SUB = 0x08, "d x x"      # rd = rn - rm
    SUBI = 0x09, "d x #"     # rd = rn - imm8
    AND = 0x0A, "d x x"      # rd = rn & rm
    ORR = 0x0B, "d x x"      # rd = rn | rm
    EOR = 0x0C, "d x x"      # rd = rn ^ rm
    MUL = 0x0D, "d x x"      # rd = rn * rm
    LDR = 0x0E, "d [x#]"     # rd = mem64[rn + imm8*8]
    STR = 0x0F, "x [x#]"     # mem64[rn + imm8*8] = rd
    LDRB = 0x10, "d [x#]"    # rd = mem8[rn + imm8]
    STRB = 0x11, "x [x#]"    # mem8[rn + imm8] = rd
    B = 0x12, "L"            # pc += simm16 instructions
    CBZ = 0x13, "x L"        # if ra == 0: pc += simm16 instructions
    CBNZ = 0x14, "x L"       # if ra != 0: pc += simm16 instructions
    DCZVA = 0x15, "x"        # zero the cache line containing [ra]
    DSB = 0x16, ""           # data synchronisation barrier
    ISB = 0x17, ""           # instruction synchronisation barrier
    VFILL = 0x18, "v #"      # v[a] = imm8 repeated over 16 bytes
    VINS = 0x19, "v # x"     # v[a].d[b] = x[c]  (64-bit lane insert)
    VEXT = 0x1A, "d v #"     # x[a] = v[b].d[c]  (64-bit lane extract)
    CACHEEN = 0x1B, ""       # enable L1 caches (SCTLR.C/I stand-in)
    CACHEDIS = 0x1C, ""      # disable L1 caches


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    opcode: Opcode
    a: int = 0
    b: int = 0
    c: int = 0

    def __post_init__(self) -> None:
        for field_name in ("a", "b", "c"):
            value = getattr(self, field_name)
            if not 0 <= value <= 0xFF:
                raise AssemblerError(
                    f"{self.opcode.name}: field {field_name}={value} "
                    f"out of byte range"
                )

    @property
    def simm16(self) -> int:
        """Fields b:c interpreted as a signed 16-bit branch offset."""
        raw = (self.b << 8) | self.c
        return raw - 0x10000 if raw >= 0x8000 else raw


def encode(instruction: Instruction) -> bytes:
    """Encode an instruction to its 4-byte machine form."""
    return bytes(
        (int(instruction.opcode), instruction.a, instruction.b, instruction.c)
    )


@functools.lru_cache(maxsize=4096)
def decode(word: bytes) -> Instruction:
    """Decode 4 machine bytes into an :class:`Instruction`.

    Memoised by word: a program's loop body decodes once per process,
    and every later fetch of the same word returns the same (frozen)
    :class:`Instruction`.  A word that fails to decode raises on every
    call and is never cached.  ``decode.__wrapped__`` is the uncached
    decoder.
    """
    if len(word) != 4:
        raise AssemblerError(f"instruction words are 4 bytes, got {len(word)}")
    try:
        opcode = Opcode(word[0])
    except ValueError:
        raise AssemblerError(f"unknown opcode byte {word[0]:#04x}") from None
    return Instruction(opcode, word[1], word[2], word[3])


def branch_fields(offset_instructions: int) -> tuple[int, int]:
    """Split a signed instruction-count offset into (b, c) fields."""
    if not -0x8000 <= offset_instructions < 0x8000:
        raise AssemblerError(f"branch offset {offset_instructions} out of range")
    raw = offset_instructions & 0xFFFF
    return raw >> 8, raw & 0xFF
