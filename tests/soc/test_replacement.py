"""Cache replacement policy variants."""

import pytest

from repro import obs

from repro.errors import CalibrationError

from ..conftest import DictBacking, make_cache


def fill_all_ways(cache, base=0):
    """Occupy every way of set 0 with distinct lines."""
    way_span = cache.geometry.way_bytes
    for way in range(cache.geometry.ways):
        cache.write(base + way * way_span, bytes([way + 1]) * 8)


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(CalibrationError):
            make_cache(DictBacking(), replacement="fifo")

    def test_round_robin_cycles_victims(self):
        cache = make_cache(DictBacking(), ways=2, replacement="round-robin")
        way_span = cache.geometry.way_bytes
        fill_all_ways(cache)
        with obs.capture() as o:
            cache.write(2 * way_span, b"c" * 8)  # evicts way 0
            cache.write(3 * way_span, b"d" * 8)  # evicts way 1
            cache.write(4 * way_span, b"e" * 8)  # evicts way 0 again
            evicted = o.metrics.counter("cache.evictions", cache=cache.name)
            assert evicted.value == 3
        assert cache.read(4 * way_span, 8) == b"e" * 8

    def test_random_policy_spreads_victims(self):
        cache = make_cache(
            DictBacking(), size_bytes=8192, ways=4, replacement="random"
        )
        way_span = cache.geometry.way_bytes
        fill_all_ways(cache)
        victims = set()
        for extra in range(12):
            before = [
                cache.raw_tag_entry(0, way)[0]
                for way in range(cache.geometry.ways)
            ]
            cache.write((4 + extra) * way_span, b"x" * 8)
            after = [
                cache.raw_tag_entry(0, way)[0]
                for way in range(cache.geometry.ways)
            ]
            victims |= {
                way for way in range(4) if before[way] != after[way]
            }
        assert len(victims) >= 3  # random selection touches most ways

    def test_lru_protects_recently_used(self):
        cache = make_cache(DictBacking(), ways=2, replacement="lru")
        way_span = cache.geometry.way_bytes
        with obs.capture() as o:
            cache.write(0, b"a" * 8)
            cache.write(way_span, b"b" * 8)
            cache.read(0, 8)  # refresh "a"
            cache.write(2 * way_span, b"c" * 8)  # must evict "b"
            assert cache.read(0, 8) == b"a" * 8
            # Both reads of "a" hit: only the three writes filled.
            fills = o.metrics.counter("cache.line_fills", cache=cache.name)
            assert fills.value == 3

    def test_replacement_transparent_to_contents(self):
        for policy in ("lru", "round-robin", "random"):
            backing = DictBacking()
            cache = make_cache(backing, replacement=policy)
            payload = bytes(range(64))
            for offset in range(0, 16384, 64):
                cache.write(offset, payload)
            cache.clean_invalidate_all()
            for offset in range(0, 16384, 64):
                assert bytes(backing.data[offset : offset + 64]) == payload
