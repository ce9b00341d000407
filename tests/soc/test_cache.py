"""Set-associative cache: geometry, controller, maintenance, raw access."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import CalibrationError, CircuitError
from repro.soc.cache import CacheGeometry, decode_tag, encode_tag

from ..conftest import DictBacking, make_cache


class TestGeometry:
    def test_derived_shapes(self):
        g = CacheGeometry(size_bytes=32768, ways=2, line_bytes=64)
        assert g.sets == 256
        assert g.way_bytes == 16384
        assert g.offset_bits == 6
        assert g.index_bits == 8

    def test_split_and_line_base(self):
        g = CacheGeometry(size_bytes=4096, ways=2, line_bytes=64)
        tag, index, offset = g.split(0x12345)
        assert offset == 0x12345 % 64
        assert index == (0x12345 // 64) % g.sets
        assert tag == 0x12345 // (64 * g.sets)
        assert g.line_base(0x12345) == 0x12345 & ~63

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(CalibrationError):
            CacheGeometry(size_bytes=4096, ways=2, line_bytes=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(CalibrationError):
            CacheGeometry(size_bytes=1000, ways=3, line_bytes=64)


def _count(o, name, cache) -> int:
    """Value of the ``cache.<name>`` counter of ``cache`` in capture ``o``."""
    return o.metrics.counter(f"cache.{name}", cache=cache.name).value


class TestBasicAccess:
    def test_write_then_read_hits(self, small_cache):
        with obs.capture() as o:
            small_cache.write(0x100, b"payload!")
            assert small_cache.read(0x100, 8) == b"payload!"
            assert _count(o, "line_fills", small_cache) == 1

    def test_miss_fills_from_backing(self, backing, small_cache):
        backing.data[0x200:0x208] = b"fromdram"
        with obs.capture() as o:
            assert small_cache.read(0x200, 8) == b"fromdram"
            assert _count(o, "line_fills", small_cache) == 1

    def test_disabled_cache_bypasses(self, backing):
        cache = make_cache(backing, enabled=False)
        with obs.capture() as o:
            cache.write(0x40, b"direct")
            assert bytes(backing.data[0x40:0x46]) == b"direct"
            assert _count(o, "line_fills", cache) == 0

    def test_access_spanning_lines(self, small_cache):
        data = bytes(range(100))
        small_cache.write(60, data)  # crosses a 64-byte boundary
        assert small_cache.read(60, 100) == data

    def test_write_back_not_write_through(self, backing, small_cache):
        small_cache.write(0x300, b"dirty!!!")
        assert bytes(backing.data[0x300:0x308]) != b"dirty!!!"

    def test_zero_size_access_rejected(self, small_cache):
        from repro.errors import MemoryMapError

        with pytest.raises(MemoryMapError):
            small_cache.read(0, 0)


class TestReplacement:
    def test_conflicting_lines_fill_both_ways(self, backing, small_cache):
        way_span = small_cache.geometry.way_bytes
        with obs.capture() as o:
            small_cache.write(0x0, b"way-zero")
            small_cache.write(way_span, b"way-one!")
            assert small_cache.read(0x0, 8) == b"way-zero"
            assert small_cache.read(way_span, 8) == b"way-one!"
            assert _count(o, "evictions", small_cache) == 0

    def test_third_conflict_evicts_lru(self, backing, small_cache):
        way_span = small_cache.geometry.way_bytes
        with obs.capture() as o:
            small_cache.write(0x0, b"aaaaaaaa")
            small_cache.write(way_span, b"bbbbbbbb")
            small_cache.read(0x0, 8)  # make way holding "a" the MRU
            small_cache.write(2 * way_span, b"cccccccc")  # evicts "b"
            assert _count(o, "evictions", small_cache) == 1
        # "b" was dirty: it must have been written back.
        assert bytes(backing.data[way_span : way_span + 8]) == b"bbbbbbbb"

    def test_eviction_preserves_reconstructed_address(self, backing, small_cache):
        addr = 3 * small_cache.geometry.way_bytes + 5 * 64
        small_cache.write(addr, b"victim!!")
        small_cache.write(addr + small_cache.geometry.way_bytes, b"x" * 8)
        small_cache.write(addr + 2 * small_cache.geometry.way_bytes, b"y" * 8)
        assert bytes(backing.data[addr : addr + 8]) == b"victim!!"


class TestMaintenance:
    def test_invalidate_all_keeps_data_ram(self, small_cache):
        """Paper §5.2.4: invalidation does not erase contents."""
        small_cache.write(0x40, b"\xaa" * 64)
        small_cache.invalidate_all()
        assert b"\xaa" * 64 in small_cache.raw_way_image(0) + small_cache.raw_way_image(1)

    def test_invalidate_all_forces_refetch(self, backing, small_cache):
        small_cache.write(0x40, b"\xaa" * 64)
        small_cache.invalidate_all()
        # The dirty line was dropped without writeback: stale data returns.
        assert small_cache.read(0x40, 8) == bytes(8)

    def test_clean_invalidate_writes_back(self, backing, small_cache):
        small_cache.write(0x40, b"\xbb" * 64)
        small_cache.clean_invalidate_all()
        assert bytes(backing.data[0x40:0x80]) == b"\xbb" * 64
        assert b"\xbb" * 64 in small_cache.raw_way_image(0) + small_cache.raw_way_image(1)

    def test_clean_invalidate_line_by_va(self, backing, small_cache):
        small_cache.write(0x80, b"\xcc" * 64)
        assert small_cache.clean_invalidate_line(0x85)
        assert bytes(backing.data[0x80:0xC0]) == b"\xcc" * 64
        # Data RAM payload still present (the duplication mechanism).
        assert b"\xcc" * 64 in small_cache.raw_way_image(0) + small_cache.raw_way_image(1)

    def test_clean_invalidate_line_miss_returns_false(self, small_cache):
        assert not small_cache.clean_invalidate_line(0x5000)

    def test_zero_line_erases_data_ram(self, small_cache):
        small_cache.write(0x40, b"\xdd" * 64)
        small_cache.zero_line(0x40)
        combined = small_cache.raw_way_image(0) + small_cache.raw_way_image(1)
        assert b"\xdd" * 64 not in combined

    def test_zero_line_requires_enabled(self, backing):
        cache = make_cache(backing, enabled=False)
        with pytest.raises(CircuitError):
            cache.zero_line(0x40)


class RecordingBacking:
    """A backing store that logs every write-back, in order."""

    def __init__(self) -> None:
        self.written: list[tuple[int, bytes]] = []

    def read_block(self, addr: int, size: int) -> bytes:
        return bytes(size)

    def write_block(self, addr: int, data: bytes) -> None:
        self.written.append((addr, bytes(data)))


def _reference_maintenance(cache, write_back: bool) -> None:
    """The per-entry loop the bulk maintenance operations must equal."""
    g = cache.geometry
    for index in range(g.sets):
        for way in range(g.ways):
            entry = index * g.ways + way
            tag, valid, dirty, _ns = decode_tag(cache.tags.read(entry))
            if write_back and valid and dirty:
                addr = (tag << (g.offset_bits + g.index_bits)) | (
                    index << g.offset_bits
                )
                line = cache.data_rams[way].read_bytes(
                    index * g.line_bytes, g.line_bytes
                )
                cache.backing.write_block(addr, line)
            sram = cache.tags.sram
            word = int.from_bytes(sram.read_bytes(entry * 8, 8), "little")
            sram.write_bytes(entry * 8, (word & ~(1 << 48)).to_bytes(8, "little"))


class TestBulkMaintenance:
    """Bulk tag operations equal a per-entry loop over the tag RAM.

    The caches are left disabled after power-up, so the tag RAM holds
    the random power-up image: valid, dirty and NS bits and the unused
    high bits of every word are all random, and a few lines of each
    cache are valid and dirty, so they are written back.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ways=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_per_entry_loop(self, seed, ways):
        for write_back in (False, True):
            caches = [
                make_cache(RecordingBacking(), size_bytes=2048, ways=ways,
                           seed=seed, enabled=False)
                for _ in range(2)
            ]
            bulk, reference = caches
            if write_back:
                bulk.clean_invalidate_all()
            else:
                bulk.invalidate_all()
            _reference_maintenance(reference, write_back)
            tag_ram = bulk.tags.sram.read_bytes()
            assert tag_ram == reference.tags.sram.read_bytes()
            assert bulk.backing.written == reference.backing.written

    def test_keeps_tag_dirty_and_ns(self, small_cache):
        tags = small_cache.tags
        tags.write(3, encode_tag(0xABC, valid=True, dirty=True, ns=False))
        tags.write(4, encode_tag(0x123, valid=True, dirty=False, ns=True))
        small_cache.invalidate_all()
        assert decode_tag(tags.read(3)) == (0xABC, False, True, False)
        assert decode_tag(tags.read(4)) == (0x123, False, False, True)


def _assert_mirror(cache, written_through=True):
    """The tag words the cache's next access uses equal the tag RAM.

    After the cache's own per-line operations the mirror must already
    match (no reload pending); after a bulk invalidate (one word mask
    on the tag RAM) or a change made behind its back, the mutation
    counter must show it stale.
    """
    tags = cache.tags
    assert (tags._seen == tags.sram.mutations) is written_through
    raw = np.frombuffer(tags.image(), dtype="<u8").tolist()
    assert tags.words() == raw


class TestTagMirror:
    """The cache's tag mirror stays coherent with its tag RAM."""

    def test_fill_evict_hit_write(self, backing, small_cache):
        way_span = small_cache.geometry.way_bytes
        small_cache.read(0x40, 8)  # fill, clean
        _assert_mirror(small_cache)
        small_cache.write(0x40, b"hit-hit!")  # hit: dirty bit set
        _assert_mirror(small_cache)
        small_cache.write(0x40 + way_span, b"second!!")  # fill, dirty
        _assert_mirror(small_cache)
        small_cache.read(0x40, 8)  # hit
        _assert_mirror(small_cache)
        small_cache.write(0x40 + 2 * way_span, b"evictor!")  # dirty victim
        _assert_mirror(small_cache)
        assert bytes(backing.data[0x40 + way_span : 0x48 + way_span]) == (
            b"second!!"
        )
        data = bytes(range(150))
        small_cache.write(50, data)  # spans three lines
        _assert_mirror(small_cache)
        assert small_cache.read(50, 150) == data
        _assert_mirror(small_cache)

    def test_maintenance(self, small_cache):
        for addr in (0x0, 0x80, 0x1000, 0x2000):
            small_cache.write(addr, b"\x5a" * 8)
        small_cache.clean_invalidate_line(0x80)
        _assert_mirror(small_cache)
        small_cache.zero_line(0x80)  # miss: allocate dirty
        _assert_mirror(small_cache)
        small_cache.zero_line(0x1000)  # hit
        _assert_mirror(small_cache)
        small_cache.clean_invalidate_all()
        _assert_mirror(small_cache, written_through=False)
        small_cache.write(0x40, b"again")
        small_cache.invalidate_all()
        _assert_mirror(small_cache, written_through=False)

    def test_mbist_fill_is_seen(self, small_cache):
        small_cache.write(0x40, b"resident")
        small_cache.tags.sram.fill_bytes(0x00)  # MBIST: every line invalid
        _assert_mirror(small_cache, written_through=False)
        with obs.capture() as o:
            small_cache.read(0x40, 8)
            assert _count(o, "line_fills", small_cache) == 1

    def test_direct_tag_write_is_seen(self, backing, small_cache):
        small_cache.write(0x40, b"resident")
        tag, index, _ = small_cache.geometry.split(0x40)
        way = next(
            way for way in range(small_cache.geometry.ways)
            if small_cache.raw_tag_entry(index, way)[1]
        )
        entry = index * small_cache.geometry.ways + way
        small_cache.tags.sram.write_bytes(entry * 8, bytes(8))  # invalid
        _assert_mirror(small_cache, written_through=False)
        backing.data[0x40:0x48] = b"backing!"
        assert small_cache.read(0x40, 8) == b"backing!"  # refetched
        _assert_mirror(small_cache)

    def test_power_cycle_and_collapse_are_seen(self, small_cache):
        small_cache.write(0x40, b"resident")
        sram = small_cache.tags.sram
        sram.power_down()
        with pytest.raises(CircuitError):
            small_cache.read(0x40, 8)
        with pytest.raises(CircuitError):
            small_cache.write(0x40, b"x")
        sram.restore_power()
        _assert_mirror(small_cache, written_through=False)
        small_cache.read(0x40, 8)
        sram.set_supply_voltage(0.7)  # above every DRV: nothing lost
        _assert_mirror(small_cache)
        assert sram.set_supply_voltage(0.25) > 0  # collapse
        _assert_mirror(small_cache, written_through=False)

    def test_unpowered_tag_ram_raises_on_first_access(self, backing):
        cache = make_cache(backing)
        cache.tags.sram.power_down()
        with pytest.raises(CircuitError):
            cache.read(0x40, 8)

    def test_unpowered_data_ram_raises_on_hit(self, small_cache):
        small_cache.write(0x40, b"resident")
        for ram in small_cache.data_rams:
            ram.power_down()
        with pytest.raises(CircuitError):
            small_cache.read(0x40, 8)
        with pytest.raises(CircuitError):
            small_cache.write(0x40, b"x")

    def test_deepcopy_diverges_independently(self, small_cache):
        small_cache.write(0x40, b"original")
        clone = copy.deepcopy(small_cache)
        assert clone.tags._words is not small_cache.tags._words
        _assert_mirror(clone)
        way_span = small_cache.geometry.way_bytes
        clone.write(0x40 + way_span, b"clone-only")
        clone.invalidate_all()
        small_cache.write(0x80, b"parent-only")
        _assert_mirror(clone, written_through=False)
        _assert_mirror(small_cache)
        assert small_cache.read(0x40, 8) == b"original"
        assert clone.tags.words() != small_cache.tags.words()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "line", "zero", "all"]),
                st.integers(min_value=0, max_value=0x3FFF),
                st.integers(min_value=1, max_value=80),
            ),
            min_size=1,
            max_size=30,
        ),
        policy=st.sampled_from(["lru", "round-robin", "random"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_operation_sequences(self, ops, policy):
        cache = make_cache(DictBacking(size=0x10000), replacement=policy)
        for op, addr, size in ops:
            if op == "read":
                cache.read(addr, size)
            elif op == "write":
                cache.write(addr, bytes([size]) * size)
            elif op == "line":
                cache.clean_invalidate_line(addr)
            elif op == "zero":
                cache.zero_line(addr)
            else:
                cache.clean_invalidate_all()
            _assert_mirror(cache, written_through=op != "all")


class TestArchitecturalReset:
    def test_reset_disables_and_clears_lru_only(self, small_cache):
        small_cache.write(0x40, b"\xaa" * 64)
        small_cache.reset_architectural_state()
        assert not small_cache.enabled
        combined = small_cache.raw_way_image(0) + small_cache.raw_way_image(1)
        assert b"\xaa" * 64 in combined  # SRAM untouched


class TestRawAccess:
    def test_raw_way_image_size(self, small_cache):
        assert len(small_cache.raw_way_image(0)) == small_cache.geometry.way_bytes

    def test_raw_lines_tile_the_way_image(self, small_cache):
        small_cache.write(0x40, b"line" * 16)
        for way in range(small_cache.geometry.ways):
            lines = b"".join(
                small_cache.raw_line(way, index)
                for index in range(small_cache.geometry.sets)
            )
            assert lines == small_cache.raw_way_image(way)

    def test_raw_line_out_of_range(self, small_cache):
        from repro.errors import MemoryMapError

        with pytest.raises(MemoryMapError):
            small_cache.raw_line(5, 0)
        with pytest.raises(MemoryMapError):
            small_cache.raw_line(0, small_cache.geometry.sets)

    def test_raw_way_out_of_range(self, small_cache):
        from repro.errors import MemoryMapError

        with pytest.raises(MemoryMapError):
            small_cache.raw_way_image(5)

    def test_raw_tag_entry_reflects_fill(self, small_cache):
        small_cache.write(0x40, b"x" * 8)
        tag, index, _ = small_cache.geometry.split(0x40)
        found = [
            small_cache.raw_tag_entry(index, way)
            for way in range(small_cache.geometry.ways)
        ]
        assert any(
            entry[0] == tag and entry[1] and entry[2] for entry in found
        )

    def test_line_security_tracks_ns_flag(self, small_cache):
        small_cache.write(0x40, b"s" * 8, ns=False)
        tag, index, _ = small_cache.geometry.split(0x40)
        secure_ways = [
            way
            for way in range(small_cache.geometry.ways)
            if not small_cache.raw_tag_entry(index, way)[3]
        ]
        assert secure_ways


class TestLineInterleave:
    def test_interleaved_storage_roundtrips_architecturally(self, backing):
        cache = make_cache(backing, line_interleave=True)
        cache.write(0x40, b"interleaved line ok!")
        assert cache.read(0x40, 20) == b"interleaved line ok!"

    def test_raw_image_is_permuted(self, backing):
        cache = make_cache(backing, line_interleave=True)
        cache.write(0x40, b"\xaa" * 64)
        combined = cache.raw_way_image(0) + cache.raw_way_image(1)
        # The raw RAM holds a bit-permuted form, not the plain pattern...
        assert b"\xaa" * 64 not in combined
        # ...but population count is preserved by any permutation.
        bits = np.unpackbits(np.frombuffer(combined, dtype=np.uint8))
        assert bits.sum() >= 64 * 4  # the 0xAA line contributes 256 ones


class TestPropertyBased:
    @given(
        addr=st.integers(min_value=0, max_value=0x7FF0),
        payload=st.binary(min_size=1, max_size=128),
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_is_transparent(self, addr, payload):
        backing = DictBacking(size=0x10000)
        cache = make_cache(backing)
        cache.write(addr, payload)
        assert cache.read(addr, len(payload)) == payload

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFF0),
                st.binary(min_size=1, max_size=16),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_clean_invalidate_flushes_exact_memory_state(self, writes):
        backing = DictBacking(size=0x10000)
        mirror = bytearray(0x10000)
        cache = make_cache(backing)
        for addr, payload in writes:
            cache.write(addr, payload)
            mirror[addr : addr + len(payload)] = payload
        cache.clean_invalidate_all()
        assert bytes(backing.data[:0x1000]) == bytes(mirror[:0x1000])
