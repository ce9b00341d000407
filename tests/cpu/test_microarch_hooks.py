"""Interpreter hooks into the TLB and BTB."""

import pytest

from repro.cpu.assembler import assemble
from repro.devices import raspberry_pi_4
from repro.cpu.core import Core
from repro.soc.bootrom import BootMedia
from repro.soc.context import EL3_SECURE
from repro.soc.cp15 import RamId
from repro.soc.tlb import Btb, Tlb


@pytest.fixture
def rig():
    board = raspberry_pi_4(seed=601)
    board.boot(BootMedia("os"))
    unit = board.soc.core(0)
    unit.tlb.invalidate_all()
    unit.btb.invalidate_all()
    return board, unit


def run_program(board, unit, source, asid=0):
    core = Core(unit, board.soc.memory_map, asid=asid)
    program = assemble(source)
    core.load_program(program.machine_code, 0x8000)
    core.run(max_steps=50_000)
    return core


class TestTlbHooks:
    def test_data_access_fills_tlb(self, rig):
        board, unit = rig
        run_program(
            board, unit,
            "ldimm x1, #0x41000\nldi x2, #7\nstr x2, [x1]\nhlt",
            asid=3,
        )
        assert unit.tlb.lookup(3, 0x41)

    def test_fetch_fills_tlb_with_code_page(self, rig):
        board, unit = rig
        run_program(board, unit, "nop\nhlt", asid=3)
        assert unit.tlb.lookup(3, 0x8)

    def test_utlb_suppresses_duplicate_fills(self, rig):
        board, unit = rig
        run_program(
            board, unit,
            "ldimm x1, #0x41000\nldi x3, #50\n"
            "loop: str x3, [x1]\nsubi x3, x3, #1\ncbnz x3, loop\nhlt",
            asid=3,
        )
        entries = [
            e for e in unit.tlb.valid_entries() if e.asid == 3 and e.vpn == 0x41
        ]
        assert len(entries) == 1  # one fill despite 50 touches


class TestBtbHooks:
    def test_taken_branch_recorded(self, rig):
        board, unit = rig
        run_program(
            board, unit,
            "ldi x1, #3\nloop: subi x1, x1, #1\ncbnz x1, loop\nhlt",
        )
        entries = unit.btb.valid_entries()
        assert any(e.target_pc < e.branch_pc for e in entries)  # back edge

    def test_not_taken_branch_not_recorded(self, rig):
        board, unit = rig
        run_program(board, unit, "ldi x1, #0\ncbnz x1, away\nhlt\naway: hlt")
        assert unit.btb.valid_entries() == []


class TestCp15EntryDumps:
    def test_tlb_dump_roundtrips(self, rig):
        board, unit = rig
        run_program(board, unit, "ldimm x1, #0x55000\nldr x2, [x1]\nhlt", asid=9)
        image = unit.cp15.dump_entry_ram(EL3_SECURE, RamId.TLB)
        decoded = Tlb.decode_raw_image(image)
        assert any(e.asid == 9 and e.vpn == 0x55 for e in decoded)

    def test_btb_dump_roundtrips(self, rig):
        board, unit = rig
        run_program(
            board, unit, "ldi x1, #2\nloop: subi x1, x1, #1\ncbnz x1, loop\nhlt"
        )
        image = unit.cp15.dump_entry_ram(EL3_SECURE, RamId.BTB)
        assert Btb.decode_raw_image(image)

    def test_entry_dump_requires_privilege(self, rig):
        from repro.errors import PrivilegeViolation
        from repro.soc.context import ExecutionContext

        _board, unit = rig
        with pytest.raises(PrivilegeViolation):
            unit.cp15.dump_entry_ram(ExecutionContext(el=1), RamId.TLB)

    def test_out_of_range_entry_rejected(self, rig):
        from repro.errors import AccessViolation

        _board, unit = rig
        with pytest.raises(AccessViolation):
            unit.cp15.ramindex(EL3_SECURE, RamId.TLB, 0, 9999)
