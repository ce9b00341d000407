"""The ISA table and the interpreter that dispatches through it.

Three contracts:

* every opcode's shape assembles: a line built from the shape decodes
  back to the fields it was built from;
* the register writers derived from the shapes are the fifteen opcodes
  the glitch injector used to list by hand;
* :meth:`Core.step`'s table dispatch is indistinguishable from the
  former ``if``/``elif`` chain (``reference_core.py``) on random
  programs: same registers, memory, caches, ``pc``, retired count and
  faults, and the same SRAM accesses in the same order.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.dram import DramArray
from repro.circuits.sram import SramArray
from repro.cpu.assembler import assemble
from repro.cpu.core import Core
from repro.cpu.isa import XZR, Opcode, decode
from repro.errors import ReproError

from .reference_core import reference_step
from .test_core import make_rig

#: The opcodes whose field ``a`` is a general-purpose destination, as
#: the glitch injector listed them before the ISA table declared them.
REGISTER_WRITERS = frozenset(
    {
        Opcode.LDI,
        Opcode.LSLI,
        Opcode.LSRI,
        Opcode.ORRI,
        Opcode.ADD,
        Opcode.ADDI,
        Opcode.SUB,
        Opcode.SUBI,
        Opcode.AND,
        Opcode.ORR,
        Opcode.EOR,
        Opcode.MUL,
        Opcode.LDR,
        Opcode.LDRB,
        Opcode.VEXT,
    }
)

#: Encoded fields each shape token fills (``L`` fills ``b:c`` in pass two).
TOKEN_FIELDS = {"d": 1, "x": 1, "v": 1, "#": 1, "[x#]": 2, "L": 0}


class TestIsaTable:
    def test_register_writers_are_the_former_list(self):
        assert {op for op in Opcode if op.writes_x} == REGISTER_WRITERS

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
    def test_every_shape_fits_the_encoding(self, opcode):
        kinds = opcode.shape.split()
        assert set(kinds) <= set(TOKEN_FIELDS)
        assert sum(TOKEN_FIELDS[kind] for kind in kinds) <= 3
        if "L" in kinds:
            assert kinds[-1] == "L" and len(kinds) <= 2

    @given(data=st.data(), opcode=st.sampled_from(list(Opcode)))
    @settings(max_examples=120, deadline=None)
    def test_a_line_built_from_the_shape_round_trips(self, data, opcode):
        operands, fields, offset = [], [], None
        for kind in opcode.shape.split():
            if kind in "dx":
                reg = data.draw(st.integers(0, XZR))
                operands.append("xzr" if reg == XZR else f"x{reg}")
                fields.append(reg)
            elif kind == "v":
                reg = data.draw(st.integers(0, 31))
                operands.append(f"v{reg}")
                fields.append(reg)
            elif kind == "#":
                imm = data.draw(st.integers(0, 0xFF))
                operands.append(f"#{imm:#x}")
                fields.append(imm)
            elif kind == "[x#]":
                base = data.draw(st.integers(0, 30))
                imm = data.draw(st.integers(0, 0xFF))
                operands.append(f"[x{base}, #{imm}]")
                fields += [base, imm]
            else:
                offset = data.draw(st.integers(-3, 3))
                operands.append("target")
        before = 3 if offset is None else max(0, -offset)
        line = f"{opcode.name.lower()} {', '.join(operands)}"
        source = ["nop"] * before + [line] + ["nop"] * 3 + ["hlt"]
        if offset is not None:
            source.insert(before + offset, "target:")
        program = assemble("\n".join(source))
        instr = decode(program.machine_code[4 * before : 4 * before + 4])
        assert instr.opcode is opcode
        padded = fields + [0] * (3 - len(fields))
        if offset is None:
            assert [instr.a, instr.b, instr.c] == padded
        else:
            assert instr.a == padded[0]
            assert instr.simm16 == offset


# ----------------------------------------------------------------------
# Table dispatch against the chain
# ----------------------------------------------------------------------

#: Data registers the random programs compute in; x28 holds the base of
#: a 2 KiB data window at 0x2000, so every load and store is mapped.
DATA = [f"x{i}" for i in range(8)] + ["xzr"]
SOURCES = DATA + ["x28"]
PROLOGUE = ["ldi x28, #0x20", "lsli x28, x28, #8"]

ALU_REG = ["add", "sub", "and", "orr", "eor", "mul"]
ALU_IMM = ["addi", "subi", "lsli", "lsri", "orri"]


def _line(draw, index, n_lines):
    kind = draw(st.sampled_from(
        ["alu", "alui", "ldi", "mem", "branch", "vector", "control"]
    ))
    if kind == "alu":
        op = draw(st.sampled_from(ALU_REG))
        d, n, m = (draw(st.sampled_from(regs)) for regs in (DATA, SOURCES, SOURCES))
        return f"{op} {d}, {n}, {m}"
    if kind == "alui":
        op = draw(st.sampled_from(ALU_IMM))
        d, n = draw(st.sampled_from(DATA)), draw(st.sampled_from(SOURCES))
        return f"{op} {d}, {n}, #{draw(st.integers(0, 0xFF))}"
    if kind == "ldi":
        return f"ldi {draw(st.sampled_from(DATA))}, #{draw(st.integers(0, 0xFF))}"
    if kind == "mem":
        op = draw(st.sampled_from(["ldr", "str", "ldrb", "strb"]))
        reg = draw(st.sampled_from(DATA if op.startswith("ldr") else SOURCES))
        return f"{op} {reg}, [x28, #{draw(st.integers(0, 0xFF))}]"
    if kind == "branch":
        op = draw(st.sampled_from(["b", "cbz", "cbnz"]))
        target = min(n_lines, index + 1 + draw(st.integers(0, 2)))
        reg = "" if op == "b" else f"{draw(st.sampled_from(SOURCES))}, "
        return f"{op} {reg}l{target}"
    if kind == "vector":
        v = draw(st.integers(0, 31))
        lane = draw(st.sampled_from((0, 1, 0, 1, 2)))  # lane 2 faults
        return draw(st.sampled_from([
            f"vfill v{v}, #{draw(st.integers(0, 0xFF))}",
            f"vins v{v}, #{lane}, {draw(st.sampled_from(SOURCES))}",
            f"vext {draw(st.sampled_from(DATA))}, v{v}, #{lane}",
        ]))
    return draw(st.sampled_from(
        ["nop", "dsb", "isb", "cacheen", "cachedis", "dczva x28"]
    ))


@st.composite
def programs(draw):
    n_lines = draw(st.integers(1, 40))
    body = [
        f"l{index}: {_line(draw, index, n_lines)}" for index in range(n_lines)
    ]
    return "\n".join(PROLOGUE + body + [f"l{n_lines}: hlt"])


@contextlib.contextmanager
def _logged_accesses(log):
    """Record every SRAM and DRAM read and write, in order."""
    ordinals: dict[int, int] = {}
    originals = []
    for cls, names in (
        (SramArray, ("read_bytes", "write_bytes", "fill_bytes", "and_words")),
        (DramArray, ("read_bytes", "write_bytes")),
    ):
        for name in names:
            original = getattr(cls, name)

            def logged(self, *args, _original=original, _name=name):
                ordinal = ordinals.setdefault(id(self), len(ordinals))
                summary = [len(a) if isinstance(a, bytes) else a for a in args]
                log.append((ordinal, _name, repr(summary)))
                return _original(self, *args)

            originals.append((cls, name, original))
            setattr(cls, name, logged)
    try:
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


def _execute(step, source):
    """Run ``source`` to HLT or a fault with ``step``; every effect."""
    core, memmap = make_rig()
    core.load_program(assemble(source).machine_code, 0x1000)
    log: list[tuple] = []
    fault = None
    with _logged_accesses(log):
        try:
            for _ in range(1000):  # forward branches only: always ends
                if core.halted:
                    break
                step(core)
        except ReproError as error:
            fault = (type(error), str(error))
    unit = core.unit
    caches = [
        (cache.enabled, cache.tags.words(), [
            cache.raw_way_image(way) for way in range(cache.geometry.ways)
        ])
        for cache in (unit.l1d, unit.l1i)
    ]
    return {
        "fault": fault,
        "pc": core.pc,
        "retired": core.instructions_retired,
        "halted": core.halted,
        "x": [core.read_x(i) for i in range(31)],
        "v": [unit.vreg.read_bytes(i) for i in range(32)],
        "memory": memmap.read_block(0, 65536),
        "caches": caches,
        "tlb": unit.tlb.words(),
        "btb": unit.btb.words(),
        "accesses": log,
    }


class TestTableDispatch:
    @given(source=programs())
    @settings(max_examples=60, deadline=None)
    def test_table_dispatch_matches_the_chain(self, source):
        assert _execute(Core.step, source) == _execute(reference_step, source)

    @pytest.mark.parametrize("op", ALU_REG + ALU_IMM)
    def test_every_alu_opcode_matches_the_chain(self, op):
        """Operands with the top bit set and wide shifts: the 64-bit
        wrap-around of every ALU result goes through ``write_x``."""
        rhs = ("x2", "x1") if op in ALU_REG else ("#5", "#63")
        source = (
            "ldi x1, #200\nlsli x1, x1, #56\nldi x2, #5\n"
            f"{op} x3, x1, {rhs[0]}\n{op} x4, x2, {rhs[1]}\nhlt"
        )
        assert _execute(Core.step, source) == _execute(reference_step, source)
