"""Two-pass assembler for the mini ISA.

Source syntax, one instruction per line::

    ; comments run to end of line (also //)
    start:
        ldi   x0, #0x10
        lsli  x0, x0, #8
        ldimm x1, #0xdeadbeefcafef00d   ; pseudo-instruction, expands
    loop:
        str   x1, [x0, #0]
        addi  x0, x0, #8
        subi  x2, x2, #1
        cbnz  x2, loop
        hlt

Registers are ``x0..x30`` plus ``xzr``; vector registers are ``v0..v31``.
Immediates take ``#`` and accept decimal or ``0x`` hex.  Each line is
parsed against its opcode's operand shape (:class:`~repro.cpu.isa.Opcode`),
so a missing or extra operand is an error.  The ``ldimm``
pseudo-instruction expands into an LDI/LSLI/ORRI sequence building an
arbitrary 64-bit constant, because the fixed 4-byte encoding only carries
byte immediates (the same game real aarch64 plays with MOVZ/MOVK).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import AssemblerError
from .isa import Instruction, Opcode, XZR, branch_fields, encode

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class AssembledProgram:
    """The output of :func:`assemble`."""

    machine_code: bytes
    labels: dict[str, int]  # label -> byte offset from program start
    source: str


def _strip(line: str) -> str:
    for marker in (";", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_register(token: str, line: str) -> int:
    token = token.lower()
    if token == "xzr":
        return XZR
    match = re.fullmatch(r"x(\d+)", token)
    if not match or not 0 <= int(match.group(1)) <= 30:
        raise AssemblerError(f"bad register {token!r} in {line!r}")
    return int(match.group(1))


def _parse_vector(token: str, line: str) -> int:
    match = re.fullmatch(r"v(\d+)", token.lower())
    if not match or not 0 <= int(match.group(1)) <= 31:
        raise AssemblerError(f"bad vector register {token!r} in {line!r}")
    return int(match.group(1))


def _parse_imm(token: str, line: str) -> int:
    if not token.startswith("#"):
        raise AssemblerError(f"immediate must start with # in {line!r}")
    try:
        return int(token[1:], 0)
    except ValueError:
        raise AssemblerError(f"bad immediate {token!r} in {line!r}") from None


def _parse_mem(token: str, line: str) -> list[int]:
    """Parse ``[xN, #imm]`` or ``[xN]`` into [base register, immediate]."""
    match = re.fullmatch(r"\[\s*(x\d+|xzr)\s*(?:[,\s]\s*(#[^\]]+?))?\s*\]", token)
    if not match:
        raise AssemblerError(f"bad memory operand in {line!r}")
    imm = _parse_imm(match.group(2), line) if match.group(2) else 0
    return [_parse_register(match.group(1), line), imm]


#: Operand parsers by shape token (see :class:`~repro.cpu.isa.Opcode`).
_OPERANDS = {
    "d": _parse_register,
    "x": _parse_register,
    "v": _parse_vector,
    "#": _parse_imm,
}

#: One operand: a bracketed memory operand or a run without commas.
_OPERAND_RE = re.compile(r"\[[^\]]*\]|[^\s,]+")


def _parse_fields(
    shape: str, args: list[str], line: str
) -> tuple[list[int], str | None]:
    """Parse ``args`` against an operand shape: the fields and any label."""
    kinds = shape.split()
    if len(args) != len(kinds):
        raise AssemblerError(
            f"expected {len(kinds)} operand(s), got {len(args)} in {line!r}"
        )
    fields: list[int] = []
    label = None
    for kind, token in zip(kinds, args):
        if kind == "L":
            label = token
        elif kind == "[x#]":
            fields += _parse_mem(token, line)
        else:
            fields.append(_OPERANDS[kind](token, line))
    return fields, label


def _expand_ldimm(rd: int, value: int) -> list[Instruction]:
    """Build a 64-bit constant with LDI/LSLI/ORRI (MSB-first)."""
    value &= (1 << 64) - 1
    data = value.to_bytes(8, "big").lstrip(b"\x00") or b"\x00"
    out = [Instruction(Opcode.LDI, rd, data[0])]
    for byte in data[1:]:
        out.append(Instruction(Opcode.LSLI, rd, rd, 8))
        if byte:
            out.append(Instruction(Opcode.ORRI, rd, rd, byte))
    return out


def _parse_line(
    line: str, pending_branches: list[tuple[int, str, Instruction]],
    instructions: list[Instruction | None],
) -> None:
    """Append one source line's instructions (a placeholder per branch)."""
    mnemonic, *args = _OPERAND_RE.findall(line) or [""]
    mnemonic = mnemonic.lower()
    if mnemonic == "ldimm":
        fields, _ = _parse_fields("d #", args, line)
        instructions.extend(_expand_ldimm(*fields))
        return
    try:
        opcode = Opcode[mnemonic.upper()]
    except KeyError:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r} in {line!r}") from None
    fields, label = _parse_fields(opcode.shape, args, line)
    try:
        instruction = Instruction(opcode, *fields)
    except AssemblerError as error:
        raise AssemblerError(f"{error} in {line!r}") from None
    if label is not None:
        # Record a fixup; the offset fills b:c in pass two.
        pending_branches.append((len(instructions), label, instruction))
        instructions.append(None)  # placeholder
    else:
        instructions.append(instruction)


def assemble(source: str) -> AssembledProgram:
    """Assemble source text into machine code.

    Raises :class:`~repro.errors.AssemblerError` on any syntax problem,
    unknown mnemonic, duplicate label, or out-of-range operand.
    """
    instructions: list[Instruction | None] = []
    labels: dict[str, int] = {}
    pending: list[tuple[int, str, Instruction]] = []

    for raw_line in source.splitlines():
        line = _strip(raw_line)
        if not line:
            continue
        while line.split(maxsplit=1) and line.split(maxsplit=1)[0].endswith(":"):
            head, _, rest = line.partition(":")
            head = head.strip()
            if not _LABEL_RE.fullmatch(head):
                raise AssemblerError(f"bad label {head!r}")
            if head in labels:
                raise AssemblerError(f"duplicate label {head!r}")
            labels[head] = len(instructions) * 4
            line = rest.strip()
            if not line:
                break
        if line:
            _parse_line(line, pending, instructions)

    for position, label, branch in pending:
        if label not in labels:
            raise AssemblerError(f"undefined label {label!r}")
        offset = labels[label] // 4 - position
        b, c = branch_fields(offset)
        instructions[position] = Instruction(branch.opcode, branch.a, b, c)

    machine_code = b"".join(encode(i) for i in instructions)  # type: ignore[arg-type]
    return AssembledProgram(machine_code=machine_code, labels=labels, source=source)
