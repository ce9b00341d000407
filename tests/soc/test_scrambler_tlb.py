"""Memory scrambler, TLB, and BTB blocks."""

import numpy as np
import pytest

from repro.circuits.dram import DramArray
from repro.circuits.sram import SramArray, SramParameters
from repro.errors import MemoryMapError
from repro.soc.memory_map import MainMemory
from repro.soc.scrambler import ScrambledMemory
from repro.soc.tlb import Btb, BtbEntry, Tlb


def make_scrambled(seed=1):
    dram = DramArray(8 * 4096, rng=np.random.default_rng(seed))
    dram.restore_power()
    return ScrambledMemory(MainMemory(dram), session_seed=seed)


def make_tlb(seed=2, entries=16):
    rng = np.random.default_rng(seed)
    tlb = Tlb(entries, SramParameters(), rng)
    tlb.sram.power_up()
    tlb.invalidate_all()
    return tlb


def make_btb(seed=3, entries=16):
    rng = np.random.default_rng(seed)
    btb = Btb(entries, SramParameters(), rng)
    btb.sram.power_up()
    btb.invalidate_all()
    return btb


class TestScrambler:
    def test_transparent_within_a_session(self):
        memory = make_scrambled()
        memory.write_block(0x40, b"plaintext payload")
        assert memory.read_block(0x40, 17) == b"plaintext payload"

    def test_array_stores_ciphertext(self):
        memory = make_scrambled()
        memory.write_block(0x40, b"plaintext payload")
        assert memory.raw_array_read(0x40, 17) != b"plaintext payload"

    def test_reseed_turns_reads_to_garbage(self):
        memory = make_scrambled()
        memory.write_block(0x40, b"\x00" * 64)
        memory.reseed(999)
        scrambled = memory.read_block(0x40, 64)
        assert scrambled != b"\x00" * 64
        ones = np.unpackbits(np.frombuffer(scrambled, dtype=np.uint8)).mean()
        assert 0.3 < ones < 0.7  # keystream-shaped, not structured

    def test_keystream_deterministic_per_seed(self):
        a, b = make_scrambled(5), make_scrambled(5)
        a.write_block(0x80, b"same")
        b.write_block(0x80, b"same")
        assert a.raw_array_read(0x80, 4) == b.raw_array_read(0x80, 4)

    def test_unaligned_spanning_access(self):
        memory = make_scrambled()
        payload = bytes(range(200))
        memory.write_block(60, payload)  # spans keystream blocks
        assert memory.read_block(60, 200) == payload

    def test_zero_read_rejected(self):
        with pytest.raises(MemoryMapError):
            make_scrambled().read_block(0, 0)


class TestTlb:
    def test_insert_and_lookup(self):
        tlb = make_tlb()
        tlb.insert(asid=5, vpn=0x40, ppn=0x40)
        entry = tlb.lookup(5, 0x40)
        assert entry is not None and entry.ppn == 0x40

    def test_asid_separation(self):
        tlb = make_tlb()
        tlb.insert(asid=5, vpn=0x40, ppn=0x40)
        assert tlb.lookup(6, 0x40) is None

    def test_round_robin_fill(self):
        tlb = make_tlb(entries=4)
        slots = [tlb.insert(0, vpn, vpn) for vpn in range(6)]
        assert slots == [0, 1, 2, 3, 0, 1]

    def test_touch_address_uses_pages(self):
        tlb = make_tlb()
        tlb.touch_address(asid=1, addr=0x40123)
        assert tlb.lookup(1, 0x40)

    def test_invalidate_keeps_payload_bits(self):
        tlb = make_tlb()
        tlb.insert(asid=1, vpn=0x1234, ppn=0x1234)
        raw_before = tlb.image()
        tlb.invalidate_all()
        assert not tlb.valid_entries()
        # Only valid bits changed; the vpn payload survives in the RAM.
        assert raw_before != tlb.image()

    def test_raw_image_decodes(self):
        tlb = make_tlb()
        tlb.insert(asid=9, vpn=0x77, ppn=0x77)
        entries = Tlb.decode_raw_image(tlb.image())
        assert any(e.asid == 9 and e.vpn == 0x77 for e in entries)

    def test_raw_entries_tile_raw_image(self):
        tlb = make_tlb()
        tlb.insert(asid=3, vpn=0x42, ppn=0x42)
        entries = b"".join(tlb.read_bytes(i) for i in range(tlb.count))
        assert entries == tlb.image()

    def test_reboot_resets_fill_pointer_only(self):
        tlb = make_tlb(entries=4)
        tlb.insert(0, 1, 1)
        tlb.reset_architectural_state()
        assert tlb.insert(0, 2, 2) == 0  # pointer restarted
        assert tlb.valid_entries()  # SRAM contents untouched


class TestBtb:
    def test_record_and_predict(self):
        btb = make_btb()
        btb.record(branch_pc=0x8004, target_pc=0x8000)
        assert BtbEntry(0x8004, 0x8000) in btb.valid_entries()

    def test_unknown_branch_unpredicted(self):
        entries = make_btb().valid_entries()
        assert all(entry.branch_pc != 0x9000 for entry in entries)

    def test_direct_mapped_collision_evicts(self):
        btb = make_btb(entries=16)
        btb.record(0x8004, 0x8000)
        btb.record(0x8004 + 16 * 4, 0x9000)  # same slot
        entries = btb.valid_entries()
        assert BtbEntry(0x8004 + 16 * 4, 0x9000) in entries
        assert all(entry.branch_pc != 0x8004 for entry in entries)

    def test_power_of_two_entries_required(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MemoryMapError):
            Btb(12, SramParameters(), rng)

    def test_raw_image_decodes(self):
        btb = make_btb()
        btb.record(0xABCD0, 0xABC00)
        entries = Btb.decode_raw_image(btb.image())
        assert any(
            e.branch_pc == 0xABCD0 and e.target_pc == 0xABC00 for e in entries
        )


class TestEntryMirror:
    @pytest.mark.parametrize(
        "make, fill",
        [
            (make_tlb, lambda tlb: tlb.insert(asid=4, vpn=0x40, ppn=0x40)),
            (make_btb, lambda btb: btb.record(0x8004, 0x8000)),
        ],
        ids=["tlb", "btb"],
    )
    def test_valid_entries_read_the_word_mirror(self, make, fill, monkeypatch):
        """Once the mirror is current, listing the valid entries decodes
        it and reads nothing from the SRAM."""
        ram = make()
        fill(ram)
        expected = type(ram).decode_raw_image(ram.image())
        ram.words()
        reads = []
        monkeypatch.setattr(
            SramArray, "read_bytes", lambda *args, **kwargs: reads.append(args)
        )
        assert ram.valid_entries() == expected
        assert expected and reads == []
