"""Regenerates paper Table 1: cold boot on BCM2711 SRAM vs temperature."""

from repro.experiments import table1


def test_table1_cold_boot_temperature_sweep(run_once, record_report):
    rows = run_once(table1.run, seed=11)
    record_report("table1", table1.report(rows).render())
    # Shape: ~50% error at every temperature; fHD to power-on ~0.10.
    assert [row.temperature_c for row in rows] == [0.0, -5.0, -40.0]
    for row in rows:
        assert 48.0 < row.mean_error_percent < 52.0
        assert 0.05 < row.fhd_to_powerup < 0.15
        assert len(row.per_core_error_percent) == 4
