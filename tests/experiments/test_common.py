"""Tests for the experiment victim-preparation helpers and the
manifest decorator."""

import pytest

from repro import obs
from repro.experiments import figure3, glitch_campaign, table1
from repro.experiments.common import (
    VICTIM_MEDIA,
    fill_dcache,
    manifested,
    victim_buffer_base,
    victim_code_base,
)
from repro.devices import raspberry_pi_4


def _dcache(board, core_index=0):
    return board.soc.core(core_index).l1d


class TestFillDcache:
    def test_touches_every_set_and_way(self):
        board = raspberry_pi_4(seed=31)
        board.boot(VICTIM_MEDIA)
        written = fill_dcache(board, 0)
        cache = _dcache(board)
        geometry = cache.geometry
        assert written == geometry.size_bytes
        for index in range(geometry.sets):
            for way in range(geometry.ways):
                _, valid, _, _ = cache.raw_tag_entry(index, way)
                assert valid, f"set {index} way {way} left unfilled"

    def test_fresh_fill_causes_no_evictions(self):
        board = raspberry_pi_4(seed=32)
        board.boot(VICTIM_MEDIA)
        with obs.capture() as o:
            fill_dcache(board, 0)
            cache = _dcache(board)
            evicted = o.metrics.counter("cache.evictions", cache=cache.name)
            fills = o.metrics.counter("cache.line_fills", cache=cache.name)
            assert evicted.value == 0
            assert fills.value == cache.geometry.sets * cache.geometry.ways

    def test_refill_at_new_base_evicts_every_line(self):
        board = raspberry_pi_4(seed=33)
        board.boot(VICTIM_MEDIA)
        fill_dcache(board, 0)
        cache = _dcache(board)
        lines = cache.geometry.sets * cache.geometry.ways
        with obs.capture() as o:
            # A second whole-cache streaming write from a distant base
            # must displace every previously-resident line exactly once.
            line = cache.geometry.line_bytes
            base = victim_buffer_base(2)  # far from core 0's buffer
            payload = b"\x55" * line
            for offset in range(0, cache.geometry.size_bytes, line):
                cache.write(base + offset, payload)
            evicted = o.metrics.counter("cache.evictions", cache=cache.name)
            assert evicted.value == lines

    def test_pattern_lands_in_data_ram(self):
        board = raspberry_pi_4(seed=34)
        board.boot(VICTIM_MEDIA)
        fill_dcache(board, 0, pattern=0x5A)
        cache = _dcache(board)
        image = b"".join(
            cache.raw_way_image(way) for way in range(cache.geometry.ways)
        )
        assert image.count(0x5A) == len(image)


class TestVictimAddresses:
    def test_buffers_never_alias_across_cores(self):
        board = raspberry_pi_4(seed=35)
        cache = _dcache(board)
        span = cache.geometry.size_bytes
        ranges = [
            range(victim_buffer_base(core), victim_buffer_base(core) + span)
            for core in range(len(board.soc.cores))
        ]
        for i, a in enumerate(ranges):
            for b in ranges[i + 1 :]:
                assert a.stop <= b.start or b.stop <= a.start, (
                    f"victim buffers overlap: {a} vs {b}"
                )

    def test_code_never_aliases_buffers_or_other_code(self):
        from repro.experiments.common import CODE_STRIDE

        board = raspberry_pi_4(seed=36)
        n_cores = len(board.soc.cores)
        code = [
            range(victim_code_base(core), victim_code_base(core) + CODE_STRIDE)
            for core in range(n_cores)
        ]
        data_start = min(victim_buffer_base(core) for core in range(n_cores))
        for i, a in enumerate(code):
            assert a.stop <= data_start, "victim code runs into data buffers"
            for b in code[i + 1 :]:
                assert a.stop <= b.start or b.stop <= a.start

    def test_bases_are_line_aligned(self):
        board = raspberry_pi_4(seed=37)
        line = _dcache(board).geometry.line_bytes
        for core in range(len(board.soc.cores)):
            assert victim_buffer_base(core) % line == 0
            assert victim_code_base(core) % line == 0


@manifested("toy")
def _toy_run(seed: int = 1) -> dict:
    return {"seed": seed}


class TestManifested:
    def test_run_phase_is_the_experiment_span(self):
        with obs.capture() as o:
            _toy_run(seed=7)
            (span,) = o.tracer.spans_named("experiment.toy")
            manifest = o.last_manifest
        assert manifest.phases == [{"name": "run", "wall_s": span.wall_s}]
        assert manifest.headline == {"seed": 7}

    @pytest.mark.parametrize(
        "module, metrics",
        [(figure3, 258), (table1, 265), (glitch_campaign, 54)],
        ids=["figure3", "table1", "glitch-campaign"],
    )
    def test_manifests_carry_no_perf_metrics(self, module, metrics):
        # Pinned at seed 2022: a new metric family shows up here.
        with obs.capture() as o:
            module.run(seed=2022)
            manifest = o.last_manifest
        assert not [k for k in manifest.metrics if k.startswith("perf.")]
        assert len(manifest.metrics) == metrics
