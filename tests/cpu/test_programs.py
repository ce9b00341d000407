"""Canned victim programs: structure and effects."""

import hashlib

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.programs import (
    ARRAY_ELEMENT_MAGIC,
    byte_pattern_store,
    dczva_wipe,
    element_value,
    nop_fill,
    pin_check,
    vector_fill,
)
from repro.errors import AssemblerError


class TestElementValues:
    def test_magic_prefix(self):
        assert element_value(0) == ARRAY_ELEMENT_MAGIC

    def test_uniqueness(self):
        values = {element_value(i) for i in range(1000)}
        assert len(values) == 1000

    def test_out_of_range_rejected(self):
        with pytest.raises(AssemblerError):
            element_value(-1)


class TestProgramBuilders:
    def test_nop_fill_size(self):
        program = assemble(nop_fill(1024))
        # 256 NOPs + cacheen + hlt.
        assert len(program.machine_code) // 4 == 256 + 2

    def test_nop_fill_rejects_unaligned(self):
        with pytest.raises(AssemblerError):
            nop_fill(1023)

    def test_vector_fill_touches_all_registers(self):
        source = vector_fill()
        assert source.count("vfill") == 32

    def test_byte_pattern_store_rejects_unaligned(self):
        with pytest.raises(AssemblerError):
            byte_pattern_store(0x4000, 13)

    def test_dczva_wipe_rejects_unaligned(self):
        with pytest.raises(AssemblerError):
            dczva_wipe(0x4000, 100, line_bytes=64)

    def test_all_builders_produce_valid_assembly(self):
        for source in (
            nop_fill(256),
            vector_fill(),
            byte_pattern_store(0x4000, 64),
            dczva_wipe(0x4000, 128),
        ):
            assert len(assemble(source).machine_code) // 4 > 0


#: The first 16 hex digits of each canned program's machine-code
#: sha256, as the assembler emitted them before it parsed operands by
#: the ISA table's shapes.
CANNED_DIGESTS = [
    (lambda: nop_fill(4096), "b781b29ecc0b01b8"),
    (lambda: vector_fill(), "c1df8c1b6f4f1349"),
    (lambda: vector_fill((1, 2, 3)), "5e6b946267087850"),
    (lambda: byte_pattern_store(0x30000, 512, 0x5A), "21bb8b02dc18fa7b"),
    (lambda: pin_check(0x4000, 0x1A2B3C, 0x5E77C0), "aef5954dca2b76b2"),
    (lambda: pin_check(0x4000, 7, 7, 3), "1ebd2c8e6c1be36c"),
    (lambda: dczva_wipe(0x8000, 1024), "4ac2d3c7b460db75"),
]


@pytest.mark.parametrize("build, digest", CANNED_DIGESTS)
def test_canned_programs_assemble_to_the_same_bytes(build, digest):
    code = assemble(build()).machine_code
    assert hashlib.sha256(code).hexdigest()[:16] == digest
