"""Reduced-scale runs of every paper experiment.

These validate the *shape* of each result (who wins, by roughly what
factor) at test-friendly scale; the benchmark harness runs the full
configurations.
"""

import pytest

from repro.circuits.sram import SramArray
from repro.experiments import (
    accessibility,
    countermeasures,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    platforms,
    probe_sweep,
    registers,
    retention_sweep,
    table1,
    table4,
)


class TestTable1:
    def test_cold_boot_errors_near_chance(self):
        rows = table1.run(seed=900)
        assert len(rows) == 3
        for row in rows:
            assert 48.0 < row.mean_error_percent < 52.0
            assert 0.05 < row.fhd_to_powerup < 0.15
        report = table1.report(rows)
        assert "Table 1" in report.render()

    def test_cold_boot_builds_no_drv_or_restore_field(self, monkeypatch):
        """Every voltage a Pi 4 cold boot applies lies outside the DRV
        and restore-threshold extents, so no array replays a field."""
        built = []
        manufacture = SramArray.__init__

        def record(array, *args, **kwargs):
            manufacture(array, *args, **kwargs)
            built.append(array)

        monkeypatch.setattr(SramArray, "__init__", record)
        table1._temperature_point(900, 0, table1.TABLE1_TEMPERATURES_C[0])
        assert len(built) == 61
        for array in built:
            assert "_drv" not in vars(array), array.name
            assert "_restore_threshold" not in vars(array), array.name


class TestFigure3:
    def test_cold_booted_way_is_random(self):
        result = figure3.run(seed=901)
        assert 0.45 < result.ones < 0.55
        assert result.way0_image.count(b"\xaa" * 64) == 0
        assert len(result.ascii_art().splitlines()) > 0

    def test_pgm_export(self, tmp_path):
        result = figure3.run(seed=902)
        result.save_pgm(str(tmp_path / "fig3.pgm"))
        assert (tmp_path / "fig3.pgm").stat().st_size > 16000


class TestTable4:
    def test_small_array_full_recovery(self):
        cells = table4.run(seed=903, array_sizes_kib=(4,), trials=1)
        assert len(cells) == 4  # one per core
        for cell in cells:
            assert cell.percent_extracted > 99.0

    def test_cache_sized_array_loses_to_noise(self):
        cells = table4.run(seed=904, array_sizes_kib=(32,), trials=1)
        for cell in cells:
            assert 80.0 < cell.percent_extracted < 97.0

    def test_report_renders(self):
        cells = table4.run(seed=905, array_sizes_kib=(4,), trials=1)
        assert "Table 4" in table4.report(cells).render()


class TestFigure7:
    def test_bare_metal_icache_100_percent(self):
        results = figure7.run(seed=906)
        assert {r.device for r in results} == {"BCM2711", "BCM2837"}
        for result in results:
            assert result.all_perfect


class TestFigure8:
    def test_os_victim_leaks_pattern_and_code(self):
        result = figure8.run(seed=907)
        assert result.pattern_found
        assert result.instructions_found


class TestFigure9And10:
    def test_iram_error_shape(self):
        result = figure9.run(seed=908)
        assert 0.02 < result.overall_error < 0.04  # paper: 2.7%
        assert 0.93 < result.accessible_fraction < 0.97  # paper: ~95%
        # Middle panels are untouched by the scratchpad.
        assert result.panel_errors[1] == 0.0
        assert result.panel_errors[2] == 0.0

    def test_error_clusters_at_scratchpad(self):
        result = figure10.run(seed=909)
        assert len(result.clusters) == 2
        largest = result.largest_cluster
        # Paper: largest run around 0xF800083C-0xF80018CC.
        assert largest.start_addr <= 0xF800083C + 0x200
        assert 0xF80018CC - 0x200 <= largest.end_addr <= 0xF80018CC + 0x400


class TestRegisters:
    def test_vector_files_fully_retained(self):
        results = registers.run(seed=910)
        for result in results:
            assert result.fully_retained
            assert result.registers_total == 128  # 32 regs x 4 cores


class TestAccessibility:
    def test_availability_fractions(self):
        rows = accessibility.run(seed=911)
        by_memory = {row.memory: row for row in rows}
        assert by_memory["L1 caches"].available_fraction > 0.99
        assert by_memory["L2 (VideoCore-shared)"].available_fraction < 0.02
        assert 0.90 < by_memory["iRAM (128KiB)"].available_fraction < 0.97


class TestRetentionSweep:
    def test_grid_shape(self):
        sweep = retention_sweep.run(seed=912)
        # SRAM at -40C / 20ms: chance.  Volt Boot: always 1.0.
        assert sweep.lookup("sram", -40.0, 20e-3) < 0.6
        assert sweep.lookup("voltboot", -40.0, 20e-3) == 1.0
        # DRAM survives chilled cuts far better than SRAM.
        assert sweep.lookup("dram", -50.0, 0.5) > sweep.lookup(
            "sram", -50.0, 0.5
        )
        # Extreme cold gives SRAM partial retention at 20ms (ref [2]).
        assert 0.6 < sweep.lookup("sram", -110.0, 20e-3) < 0.99


class TestProbeSweep:
    def test_current_cliff_and_voltage_cliff(self):
        points = probe_sweep.run(seed=913)
        current = {
            p.current_limit_a: p.accuracy_percent
            for p in points
            if p.sweep == "current"
        }
        assert current[3.0] == 100.0
        assert current[0.05] < 5.0
        hold = {
            p.voltage_v: p.accuracy_percent
            for p in points
            if p.sweep == "hold-voltage"
        }
        assert hold[0.80] == 100.0
        assert hold[0.10] < 5.0
        assert hold[0.40] > 95.0
        attach = [p for p in points if p.sweep == "attach"]
        assert attach and not attach[0].attached


class TestCountermeasures:
    def test_defense_matrix_shape(self):
        outcomes = {o.defense: o for o in countermeasures.run(seed=914)}
        assert outcomes["none (baseline)"].pattern_lines_recovered > 100
        assert outcomes["none (baseline)"].secure_schedule_recovered
        abrupt = outcomes["purge on power-down (abrupt cut)"]
        assert abrupt.pattern_lines_recovered > 100  # purge never ran
        graceful = outcomes["purge on power-down (graceful)"]
        assert graceful.pattern_lines_recovered == 0
        assert outcomes["MBIST reset at startup"].pattern_lines_recovered == 0
        trustzone = outcomes["TrustZone enforcement"]
        assert trustzone.pattern_lines_recovered > 100
        assert not trustzone.secure_schedule_recovered
        assert not outcomes["authenticated boot"].attack_completed


class TestPlatforms:
    def test_registry_matches_hardware(self):
        rows = platforms.run(seed=915)
        assert len(rows) == 3
        for row in rows:
            assert row["pad_matches_registry"]
            assert row["voltage_matches_registry"]
