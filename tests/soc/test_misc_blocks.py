"""JTAG, VideoCore, MBIST, and execution-context blocks."""

import numpy as np
import pytest

from repro.circuits.dram import DramArray
from repro.circuits.sram import SramArray
from repro.errors import AccessViolation, PrivilegeViolation
from repro.soc.context import EL2_NS, EL3_SECURE, ExecutionContext
from repro.soc.jtag import JtagProbe
from repro.soc.mbist import MbistEngine
from repro.soc.memory_map import MainMemory, MemoryMap
from repro.soc.videocore import VideoCore

from ..conftest import DictBacking, make_cache


def make_memmap():
    dram = DramArray(8 * 1024, rng=np.random.default_rng(0))
    dram.restore_power()
    memmap = MemoryMap()
    memmap.add_region("dram", 0, 1024, MainMemory(dram))
    return memmap


class TestJtag:
    def test_read_write_through_dap(self):
        probe = JtagProbe(make_memmap())
        probe.write_block(0x10, b"dapdata")
        assert probe.read_block(0x10, 7) == b"dapdata"

    def test_fused_off_port_rejects(self):
        probe = JtagProbe(make_memmap(), enabled=False)
        with pytest.raises(AccessViolation):
            probe.read_block(0, 1)
        with pytest.raises(AccessViolation):
            probe.write_block(0, b"\x00")

    def test_disabled_at_construction(self):
        probe = JtagProbe(make_memmap(), enabled=False)
        assert not probe.enabled
        with pytest.raises(AccessViolation):
            probe.read_block(0, 1)


class TestVideoCore:
    def test_boot_firmware_clobbers_l2(self):
        backing = DictBacking()
        l2 = make_cache(backing, size_bytes=8192, ways=4)
        for way in range(4):
            l2.data_rams[way].fill_bytes(0xAA)
        videocore = VideoCore(l2, rng_seed=9)
        clobbered = videocore.run_boot_firmware()
        assert clobbered == 8192
        for way in range(4):
            assert l2.raw_way_image(way) != b"\xaa" * l2.geometry.way_bytes

    def test_boot_disables_and_invalidates(self):
        backing = DictBacking()
        l2 = make_cache(backing, size_bytes=8192, ways=4)
        l2.write(0x40, b"x" * 8)
        VideoCore(l2, rng_seed=9).run_boot_firmware()
        assert not l2.enabled
        for index in range(l2.geometry.sets):
            for way in range(l2.geometry.ways):
                assert not l2.raw_tag_entry(index, way)[1]

    def test_each_boot_differs(self):
        backing = DictBacking()
        l2 = make_cache(backing, size_bytes=8192, ways=4)
        videocore = VideoCore(l2, rng_seed=9)
        videocore.run_boot_firmware()
        first = l2.raw_way_image(0)
        videocore.run_boot_firmware()
        assert l2.raw_way_image(0) != first
        assert videocore.boot_count == 2


class TestMbist:
    def _powered_array(self, seed=3):
        array = SramArray(8 * 128, rng=np.random.default_rng(seed))
        array.power_up()
        array.fill_bytes(0x5A)
        return array

    def test_disabled_engine_is_a_noop(self):
        array = self._powered_array()
        engine = MbistEngine(enabled=False)
        engine.cover(array)
        assert engine.run_boot_reset() == 0
        assert array.read_bytes(0, 4) == b"\x5a" * 4

    def test_enabled_engine_zeroes_covered_arrays(self):
        array = self._powered_array()
        engine = MbistEngine(enabled=True)
        engine.cover(array)
        assert engine.run_boot_reset() == array.n_bytes
        assert array.read_bytes() == bytes(array.n_bytes)
        assert engine.resets_performed == 1

    def test_unpowered_arrays_skipped(self):
        array = self._powered_array()
        array.power_down()
        engine = MbistEngine(enabled=True)
        engine.cover(array)
        assert engine.run_boot_reset() == 0


class TestExecutionContext:
    def test_invalid_el_rejected(self):
        with pytest.raises(PrivilegeViolation):
            ExecutionContext(el=4)

    def test_require_el(self):
        EL3_SECURE.require_el(3, "x")
        with pytest.raises(PrivilegeViolation):
            ExecutionContext(el=0).require_el(1, "x")

    def test_canned_contexts(self):
        assert EL3_SECURE.secure and EL3_SECURE.el == 3
        assert not EL2_NS.secure and EL2_NS.el == 2
