"""ISA encoding/decoding contracts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.assembler import assemble
from repro.cpu.isa import Instruction, Opcode, branch_fields, decode, encode
from repro.cpu.programs import pin_check
from repro.errors import AssemblerError


class TestEncoding:
    def test_fixed_width(self):
        assert len(encode(Instruction(Opcode.NOP))) == 4

    def test_roundtrip_simple(self):
        instr = Instruction(Opcode.ADDI, 3, 4, 25)
        assert decode(encode(instr)) == instr

    def test_unknown_opcode_rejected(self):
        with pytest.raises(AssemblerError):
            decode(b"\xff\x00\x00\x00")

    def test_wrong_length_rejected(self):
        with pytest.raises(AssemblerError):
            decode(b"\x00\x00")

    def test_field_range_checked(self):
        with pytest.raises(AssemblerError):
            Instruction(Opcode.LDI, 300, 0, 0)


class TestBranchFields:
    def test_positive_offset(self):
        b, c = branch_fields(5)
        assert Instruction(Opcode.B, 0, b, c).simm16 == 5

    def test_negative_offset(self):
        b, c = branch_fields(-4)
        assert Instruction(Opcode.B, 0, b, c).simm16 == -4

    def test_out_of_range_rejected(self):
        with pytest.raises(AssemblerError):
            branch_fields(40_000)

    @given(offset=st.integers(min_value=-0x8000, max_value=0x7FFF))
    @settings(max_examples=50, deadline=None)
    def test_any_offset_roundtrips(self, offset):
        b, c = branch_fields(offset)
        assert Instruction(Opcode.CBZ, 1, b, c).simm16 == offset


class TestPropertyBased:
    @given(
        opcode=st.sampled_from(list(Opcode)),
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        c=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, opcode, a, b, c):
        instr = Instruction(opcode, a, b, c)
        assert decode(encode(instr)) == instr


def _outcome(decoder, word: bytes):
    """What ``decoder`` makes of ``word``: an instruction or the error."""
    try:
        return decoder(word)
    except AssemblerError as error:
        return f"error: {error}"


class TestDecodeMemo:
    def test_repeated_word_returns_the_same_instruction(self):
        word = encode(Instruction(Opcode.ADDI, 3, 4, 25))
        assert decode(bytes(word)) is decode(bytes(bytearray(word)))

    def test_unknown_opcode_raises_every_time_and_is_not_cached(self):
        word = b"\xfe\x01\x02\x03"
        before = decode.cache_info()
        for _ in range(3):
            with pytest.raises(AssemblerError, match="unknown opcode"):
                decode(word)
        after = decode.cache_info()
        assert after.misses - before.misses == 3
        assert after.hits == before.hits
        assert after.currsize == before.currsize

    def test_memo_matches_uncached_decode(self):
        operands = list(itertools.product((0, 1, 31, 0x80, 0xFF), repeat=3))
        words = [
            bytes((opcode, *fields))
            for opcode in range(256)
            for fields in operands
        ]
        # Every single-bit corruption of the glitch victim's fetches, as
        # the injector's corrupted-fetch fault decodes them.
        code = assemble(pin_check(0x4000, 0x1A2B3C, 0x5E77C0)).machine_code
        for offset in range(0, len(code), 4):
            for bit in range(32):
                corrupted = bytearray(code[offset : offset + 4])
                corrupted[bit // 8] ^= 1 << (bit % 8)
                words.append(bytes(corrupted))
        for word in words:
            expected = _outcome(decode.__wrapped__, word)
            assert _outcome(decode, word) == expected, word
            assert _outcome(decode, word) == expected, word
