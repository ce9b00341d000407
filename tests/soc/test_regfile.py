"""SRAM-backed register files and the word stores they share."""

import copy

import numpy as np
import pytest

from repro.circuits.manufacture import Snapshot
from repro.circuits.sram import SramParameters
from repro.errors import CircuitError, CpuFault
from repro.soc.regfile import RegisterFile, general_purpose_file, vector_file
from repro.soc.tlb import BTB_ENTRIES, TLB_ENTRIES, Btb, Tlb

from ..conftest import DictBacking, make_cache


def make_vreg():
    return vector_file(SramParameters(), np.random.default_rng(5))


class TestShapes:
    def test_gpr_file_shape(self):
        gpr = general_purpose_file(SramParameters(), np.random.default_rng(1))
        gpr.sram.power_up()
        assert gpr.count == 31
        assert gpr.width_bits == 64

    def test_vector_file_shape(self):
        vreg = make_vreg()
        assert vreg.count == 32
        assert vreg.width_bits == 128

    def test_non_byte_width_rejected(self):
        with pytest.raises(CpuFault):
            RegisterFile("x", 4, 13, SramParameters(), np.random.default_rng(0))


class TestAccess:
    def test_int_roundtrip(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write(7, 0x0123456789ABCDEF0011223344556677)
        assert vreg.read(7) == 0x0123456789ABCDEF0011223344556677

    def test_write_truncates_to_width(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write(0, 1 << 200)
        assert vreg.read(0) == 0

    def test_bytes_roundtrip(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write_bytes(3, bytes(range(16)))
        assert vreg.read_bytes(3) == bytes(range(16))

    def test_wrong_byte_width_rejected(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        with pytest.raises(CpuFault):
            vreg.write_bytes(0, b"short")

    def test_out_of_range_register_rejected(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        with pytest.raises(CpuFault):
            vreg.read(32)

    def test_dump_lists_all(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        for i in range(vreg.count):
            vreg.write(i, i)
        assert vreg.words() == list(range(32))

    def test_image_is_contiguous_sram(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write_bytes(0, b"\xff" * 16)
        assert vreg.image()[:16] == b"\xff" * 16


class TestRetentionCoupling:
    def test_registers_survive_held_supply(self):
        """The §7.2 property: register SRAM is just SRAM."""
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write_bytes(0, b"\xaa" * 16)
        vreg.sram.set_supply_voltage(0.79)  # probe hold
        assert vreg.read_bytes(0) == b"\xaa" * 16

    def test_registers_randomise_across_dark_cycle(self):
        vreg = make_vreg()
        vreg.sram.power_up()
        vreg.write_bytes(0, b"\xaa" * 16)
        vreg.sram.power_down()
        vreg.sram.elapse_unpowered(0.5, 300.0)
        vreg.sram.restore_power()
        assert vreg.read_bytes(0) != b"\xaa" * 16


STORES = {
    "gpr": lambda rng: general_purpose_file(SramParameters(), rng),
    "vreg": lambda rng: vector_file(SramParameters(), rng),
    "tlb": lambda rng: Tlb(TLB_ENTRIES, SramParameters(), rng),
    "btb": lambda rng: Btb(BTB_ENTRIES, SramParameters(), rng),
    "tag": lambda rng: make_cache(DictBacking()).tags,
}


@pytest.fixture(params=sorted(STORES))
def store(request):
    """A powered store of each kind (8- and 16-byte words), its mirror
    current and holding a few written words."""
    ram = STORES[request.param](np.random.default_rng(17))
    if not ram.sram.powered:
        ram.sram.power_up()
    for index in range(4):
        ram.write(index, 0x1111 * (index + 1))
    ram.words()
    assert _current(ram)
    return ram


def _current(ram) -> bool:
    return ram._seen == ram.sram.mutations


def _decoded(ram) -> list[int]:
    """The words as the raw SRAM image holds them."""
    raw, width = ram.image(), ram.width_bytes
    return [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, ram.count * width, width)
    ]


class TestWordMirror:
    """:class:`WordRam` reads its mirror, and sees every change the
    SRAM takes behind it."""

    def test_own_writes_keep_the_mirror_current(self, store):
        store.write(5, -1)
        store.write_bytes(6, bytes(range(store.width_bytes)))
        assert _current(store)
        assert store.words() == _decoded(store)

    def test_direct_sram_write_is_seen(self, store):
        width = store.width_bytes
        store.sram.write_bytes(2 * width, b"\x5a" * width)
        assert not _current(store)
        assert store.read(2) == int.from_bytes(b"\x5a" * width, "little")
        assert store.words() == _decoded(store)

    def test_mbist_fill_is_seen(self, store):
        store.sram.fill_bytes(0xA5)
        assert not _current(store)
        word = int.from_bytes(b"\xa5" * store.width_bytes, "little")
        assert store.words() == [word] * store.count

    def test_and_all_is_seen(self, store):
        before = list(store.words())
        store.and_all(0xFF00)
        assert not _current(store)
        assert store.words() == [word & 0xFF00 for word in before]

    def test_power_down_makes_reads_raise(self, store):
        store.sram.power_down()
        with pytest.raises(CircuitError):
            store.read(0)
        with pytest.raises(CircuitError):
            store.write(0, 1)

    def test_restore_is_seen(self, store):
        store.sram.power_down()
        store.sram.elapse_unpowered(0.5, 300.0)
        store.sram.restore_power()
        assert not _current(store)
        assert store.words() == _decoded(store)
        assert store.read(1) != 0x2222  # the dark cycle randomised it

    def test_drv_collapse_is_seen(self, store):
        assert store.sram.set_supply_voltage(0.25) > 0
        assert not _current(store)
        assert store.words() == _decoded(store)

    def test_write_while_stale_leaves_it_stale(self, store):
        store.sram.fill_bytes(0x00)
        store.write(3, 0x77)
        assert not _current(store)
        assert store.read(3) == 0x77
        assert store.read(0) == 0
        assert _current(store)

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_a_pending_power_up_is_drawn_only_when_read(self, kind):
        """Invalidating a freshly powered store takes no draw (a Pi 4's
        L2 tag RAM is invalidated at boot and never looked up)."""
        ram = STORES[kind](np.random.default_rng(17))
        ram.sram.power_up()
        ram.and_all(0)
        assert not ram.sram._manufactured
        assert ram.words() == [0] * ram.count
        assert ram.sram._manufactured

    @pytest.mark.parametrize("copies", ["deepcopy", "snapshot"])
    def test_copies_diverge_independently(self, store, copies):
        if copies == "deepcopy":
            first, second = store, copy.deepcopy(store)
        else:
            snapshot = Snapshot(store)
            first, second = snapshot.restore(), snapshot.restore()
        assert first._words is not second._words
        first.write(0, 0xAB)
        second.write(0, 0xCD)
        assert _current(first) and _current(second)
        assert (first.read(0), second.read(0)) == (0xAB, 0xCD)
        assert first.read(1) == second.read(1) == 0x2222
        for ram in (first, second):
            assert ram.words() == _decoded(ram)
