"""Two-pass assembler: syntax, labels, expansions, fixups."""

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.isa import Opcode, decode
from repro.errors import AssemblerError


def decode_all(program):
    return [
        decode(program.machine_code[i : i + 4])
        for i in range(0, len(program.machine_code), 4)
    ]


class TestBasicSyntax:
    def test_simple_program(self):
        program = assemble("nop\nhlt")
        ops = [i.opcode for i in decode_all(program)]
        assert ops == [Opcode.NOP, Opcode.HLT]

    def test_comments_stripped(self):
        program = assemble("nop ; trailing\n// whole line\nhlt")
        assert len(program.machine_code) // 4 == 2

    def test_blank_lines_ignored(self):
        assert len(assemble("\n\nnop\n\n").machine_code) // 4 == 1

    def test_case_insensitive_mnemonics(self):
        program = assemble("NOP\nHlt")
        assert len(program.machine_code) // 4 == 2

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate x1")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("ldi x99, #1")

    def test_immediate_needs_hash(self):
        with pytest.raises(AssemblerError):
            assemble("ldi x1, 5")

    def test_hex_immediates(self):
        program = assemble("ldi x1, #0x7f\nhlt")
        assert decode_all(program)[0].b == 0x7F


class TestOperandForms:
    def test_three_register_alu(self):
        instr = decode_all(assemble("add x1, x2, x3\nhlt"))[0]
        assert (instr.opcode, instr.a, instr.b, instr.c) == (Opcode.ADD, 1, 2, 3)

    def test_memory_operand_with_offset(self):
        instr = decode_all(assemble("str x1, [x2, #16]\nhlt"))[0]
        assert (instr.opcode, instr.a, instr.b, instr.c) == (Opcode.STR, 1, 2, 16)

    def test_memory_operand_without_offset(self):
        instr = decode_all(assemble("ldr x1, [x2]\nhlt"))[0]
        assert instr.c == 0

    def test_xzr_register(self):
        instr = decode_all(assemble("add x1, xzr, x2\nhlt"))[0]
        assert instr.b == 31

    def test_vector_forms(self):
        program = assemble("vfill v3, #0xAA\nvins v3, #1, x2\nvext x1, v3, #0\nhlt")
        ops = [i.opcode for i in decode_all(program)]
        assert ops[:3] == [Opcode.VFILL, Opcode.VINS, Opcode.VEXT]

    def test_out_of_range_memory_offset_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("ldr x1, [x2, #300]")


class TestOperandCount:
    @pytest.mark.parametrize(
        "line",
        [
            "add x0, x1",
            "ldi x0",
            "cbnz x1",
            "vins v0, #0",
            "ldimm x0",
            "str x1",
            "b",
            "nop x1",
            "hlt #0",
            "add x0, x1, x2, x3",
            "ldr x1, [x2], #8",
        ],
    )
    def test_wrong_operand_count_rejected(self, line):
        with pytest.raises(AssemblerError, match="operand"):
            assemble(f"target: {line}\nhlt")


class TestLabels:
    def test_forward_branch(self):
        program = assemble("b end\nnop\nend: hlt")
        assert decode_all(program)[0].simm16 == 2

    def test_backward_branch(self):
        program = assemble("top: nop\ncbnz x1, top\nhlt")
        assert decode_all(program)[1].simm16 == -1

    def test_label_on_own_line(self):
        program = assemble("loop:\n  nop\n  b loop")
        assert program.labels["loop"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x: nop\nx: hlt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("b nowhere")

    def test_bad_label_name_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("3bad: nop")


class TestLdimm:
    def test_small_value_single_instruction(self):
        program = assemble("ldimm x1, #5\nhlt")
        assert len(program.machine_code) // 4 == 2

    def test_large_value_expands(self):
        program = assemble("ldimm x1, #0xDEADBEEF\nhlt")
        assert len(program.machine_code) // 4 > 2

    def test_zero_value(self):
        program = assemble("ldimm x1, #0\nhlt")
        instr = decode_all(program)[0]
        assert instr.opcode is Opcode.LDI and instr.b == 0
