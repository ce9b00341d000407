"""Memory map routing, main memory, and iRAM windows."""

import numpy as np
import pytest

from repro.circuits.dram import DramArray
from repro.errors import MemoryMapError
from repro.soc.iram import Iram
from repro.circuits.sram import SramParameters
from repro.soc.memory_map import MainMemory, MemoryMap


def make_map():
    dram = DramArray(8 * 4096, rng=np.random.default_rng(0))
    dram.restore_power()
    memmap = MemoryMap()
    memmap.add_region("dram", 0, 4096, MainMemory(dram))
    return memmap, dram


class TestMainMemory:
    def test_roundtrip(self):
        memmap, _ = make_map()
        memmap.write_block(0x100, b"hello")
        assert memmap.read_block(0x100, 5) == b"hello"

    def test_nonzero_base_offsets(self):
        dram = DramArray(8 * 256, rng=np.random.default_rng(1))
        dram.restore_power()
        memory = MainMemory(dram, base_addr=0x8000)
        memory.write_block(0x8010, b"hi")
        assert memory.read_block(0x8010, 2) == b"hi"
        with pytest.raises(MemoryMapError):
            memory.read_block(0x0, 1)


class TestRouting:
    def test_unmapped_address_rejected(self):
        memmap, _ = make_map()
        with pytest.raises(MemoryMapError):
            memmap.read_block(0x100000, 4)

    def test_overlap_rejected(self):
        memmap, dram = make_map()
        with pytest.raises(MemoryMapError):
            memmap.add_region("dup", 0x800, 0x1000, MainMemory(dram))

    def test_zero_size_region_rejected(self):
        memmap, dram = make_map()
        with pytest.raises(MemoryMapError):
            memmap.add_region("zero", 0x10000, 0, MainMemory(dram))

    def test_routes_to_iram_region(self):
        memmap, _ = make_map()
        iram = Iram("iram", 0xF8000000, 1024, SramParameters(),
                    np.random.default_rng(2))
        iram.sram.power_up()
        memmap.add_region("iram", iram.base_addr, iram.size_bytes, iram)
        memmap.write_block(0xF8000010, b"onchip")
        assert memmap.read_block(0xF8000010, 6) == b"onchip"

    def test_regions_sorted_by_base(self):
        memmap, _ = make_map()
        memmap.add_region("high", 0x20000, 64, MainMemory(
            DramArray(8 * 64, rng=np.random.default_rng(3)),
            base_addr=0x20000,
        ))
        assert memmap.region_for(0x0).name == "dram"
        assert memmap.region_for(0x20000, 64).name == "high"


class TestIram:
    def test_contains(self):
        iram = Iram("i", 0x1000, 256, SramParameters(), np.random.default_rng(4))
        iram.sram.power_up()
        assert len(iram.read_block(0x1000, 1)) == 1
        assert len(iram.read_block(0x10FF, 1)) == 1
        with pytest.raises(MemoryMapError):
            iram.read_block(0x1100, 1)

    def test_out_of_window_rejected(self):
        iram = Iram("i", 0x1000, 256, SramParameters(), np.random.default_rng(4))
        iram.sram.power_up()
        with pytest.raises(MemoryMapError):
            iram.read_block(0x10F0, 32)

    def test_image_matches_writes(self):
        iram = Iram("i", 0x1000, 256, SramParameters(), np.random.default_rng(4))
        iram.sram.power_up()
        iram.write_block(0x1000, b"\x42" * 256)
        assert iram.image() == b"\x42" * 256
