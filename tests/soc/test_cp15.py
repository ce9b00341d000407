"""CP15 RAMINDEX front-end: privilege, barriers, TrustZone filtering."""

import pytest

import numpy as np

from repro.circuits.sram import SramParameters
from repro.errors import AccessViolation, PrivilegeViolation, SecureAccessViolation
from repro.soc.context import EL2_NS, EL3_SECURE, ExecutionContext
from repro.soc.cp15 import Cp15Interface, RamId
from repro.soc.tlb import Btb, Tlb

from ..conftest import DictBacking, make_cache


def make_cp15(trustzone=False):
    backing = DictBacking()
    l1d = make_cache(backing, seed=1)
    l1i = make_cache(backing, seed=2)
    tlb = Tlb(16, SramParameters(), np.random.default_rng(3))
    btb = Btb(16, SramParameters(), np.random.default_rng(4))
    cp15 = Cp15Interface(0, l1d, l1i, tlb, btb, trustzone_enforced=trustzone)
    return cp15, l1d, l1i


class TestPrivilege:
    def test_el1_cannot_ramindex(self):
        cp15, _, _ = make_cp15()
        with pytest.raises(PrivilegeViolation):
            cp15.ramindex(ExecutionContext(el=1), RamId.L1D_DATA, 0, 0)

    def test_el3_can_ramindex(self):
        cp15, _, _ = make_cp15()
        cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, 0)

    def test_el2_can_ramindex(self):
        cp15, _, _ = make_cp15()
        cp15.ramindex(EL2_NS, RamId.L1D_DATA, 0, 0)

    def test_data_register_needs_privilege_too(self):
        cp15, _, _ = make_cp15()
        with pytest.raises(PrivilegeViolation):
            cp15.read_data_register(ExecutionContext(el=1))

    def test_bad_way_rejected(self):
        cp15, _, _ = make_cp15()
        with pytest.raises(AccessViolation):
            cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 9, 0)

    def test_bad_set_rejected(self):
        cp15, _, _ = make_cp15()
        with pytest.raises(AccessViolation):
            cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, 10_000)


class TestBarriers:
    """Paper §6.1: DSB SY + ISB must follow the RAMINDEX op."""

    def test_correct_sequence_returns_line(self):
        cp15, l1d, _ = make_cp15()
        l1d.write(0x40, b"\xab" * 64)
        tag, index, _ = l1d.geometry.split(0x40)
        for way in range(l1d.geometry.ways):
            line = cp15.read_line(EL3_SECURE, RamId.L1D_DATA, way, index)
            if line == b"\xab" * 64:
                return
        pytest.fail("line not found in any way")

    def test_skipping_barriers_yields_stale_register(self):
        cp15, l1d, _ = make_cp15()
        l1d.write(0x40, b"\xab" * 64)
        _, index, _ = l1d.geometry.split(0x40)
        cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, index)
        stale = cp15.read_data_register(EL3_SECURE)
        assert stale == b"\x00" * 64  # initial register content

    def test_isb_alone_is_insufficient(self):
        cp15, l1d, _ = make_cp15()
        l1d.write(0x40, b"\xab" * 64)
        _, index, _ = l1d.geometry.split(0x40)
        cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, index)
        cp15.isb()  # ISB without preceding DSB does not commit the read
        assert cp15.read_data_register(EL3_SECURE) == b"\x00" * 64

    def test_register_holds_last_committed_read(self):
        cp15, l1d, _ = make_cp15()
        l1d.write(0x40, b"\xcd" * 64)
        tag, index, _ = l1d.geometry.split(0x40)
        first = None
        for way in range(l1d.geometry.ways):
            line = cp15.read_line(EL3_SECURE, RamId.L1D_DATA, way, index)
            if line == b"\xcd" * 64:
                first = line
                break
        assert first is not None
        # A fresh un-barriered request leaves the old value visible.
        cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, index + 1)
        assert cp15.read_data_register(EL3_SECURE) == first


class TestTagReads:
    def test_tag_entry_readout(self):
        cp15, l1d, _ = make_cp15()
        l1d.write(0x40, b"x" * 8)
        tag, index, _ = l1d.geometry.split(0x40)
        words = [
            int.from_bytes(
                cp15.read_line(EL3_SECURE, RamId.L1D_TAG, way, index), "little"
            )
            for way in range(l1d.geometry.ways)
        ]
        assert any(
            (word & ((1 << 48) - 1)) == tag and word & (1 << 48)
            for word in words
        )

    def test_only_the_entry_bits_are_served(self):
        """Bits 51-63 of a tag word hold no entry field (power-up noise)."""
        cp15, l1d, _ = make_cp15()
        l1d.tags.write(5, (1 << 64) - 1)  # entry 5 = set 2, way 1
        raw = cp15.read_line(EL3_SECURE, RamId.L1D_TAG, 1, 2)
        assert int.from_bytes(raw, "little") == (1 << 51) - 1


class TestTrustZone:
    def test_secure_line_blocked_from_nonsecure(self):
        cp15, l1d, _ = make_cp15(trustzone=True)
        l1d.write(0x40, b"key material here...", ns=False)
        _, index, _ = l1d.geometry.split(0x40)
        blocked = 0
        for way in range(l1d.geometry.ways):
            try:
                cp15.read_line(EL2_NS, RamId.L1D_DATA, way, index)
            except SecureAccessViolation:
                blocked += 1
        assert blocked >= 1

    def test_secure_world_reads_secure_lines(self):
        cp15, l1d, _ = make_cp15(trustzone=True)
        l1d.write(0x40, b"\x99" * 64, ns=False)
        _, index, _ = l1d.geometry.split(0x40)
        lines = [
            cp15.read_line(EL3_SECURE, RamId.L1D_DATA, way, index)
            for way in range(l1d.geometry.ways)
        ]
        assert b"\x99" * 64 in lines

    def test_unenforced_trustzone_ignores_ns(self):
        cp15, l1d, _ = make_cp15(trustzone=False)
        l1d.write(0x40, b"\x77" * 64, ns=False)
        _, index, _ = l1d.geometry.split(0x40)
        lines = [
            cp15.read_line(EL2_NS, RamId.L1D_DATA, way, index)
            for way in range(l1d.geometry.ways)
        ]
        assert b"\x77" * 64 in lines

    def test_dump_way_skip_secure_zeroes(self):
        cp15, l1d, _ = make_cp15(trustzone=True)
        l1d.write(0x40, b"\x55" * 64, ns=False)
        dump = cp15.dump_way(EL2_NS, RamId.L1D_DATA, 0, skip_secure=True)
        assert len(dump) == l1d.geometry.way_bytes
        assert b"\x55" * 64 not in dump


class TestDumpWay:
    def test_dump_way_concatenates_all_sets(self):
        cp15, l1d, _ = make_cp15()
        dump = cp15.dump_way(EL3_SECURE, RamId.L1D_DATA, 0)
        assert dump == l1d.raw_way_image(0)

    def test_icache_dump_path(self):
        cp15, _, l1i = make_cp15()
        l1i.write(0x80, b"\x1f\x20\x03\xd5" * 16)  # NOP-ish encodings
        dump = cp15.dump_way(EL3_SECURE, RamId.L1I_DATA, 0) + cp15.dump_way(
            EL3_SECURE, RamId.L1I_DATA, 1
        )
        assert b"\x1f\x20\x03\xd5" * 16 in dump
