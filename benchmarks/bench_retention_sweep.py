"""Regenerates the section 3/5 physics argument: remanence vs Volt Boot."""

from repro.experiments import retention_sweep


def test_retention_sweep_grid(record_report):
    sweep = retention_sweep.run(seed=35)
    record_report("retention_sweep", retention_sweep.report(sweep).render())
    # SRAM: hopeless at any achievable temperature for manual cut times.
    assert sweep.lookup("sram", 25.0, 0.5) < 0.6
    assert sweep.lookup("sram", -40.0, 20e-3) < 0.6
    # SRAM: partial retention only in the exotic < -110C regime.
    assert 0.6 < sweep.lookup("sram", -110.0, 20e-3) < 0.99
    # DRAM: the classic cold boot regime works.
    assert sweep.lookup("dram", -50.0, 0.5) > 0.95
    # Volt Boot: flat 100% — no temperature or time dependence at all.
    for temperature in retention_sweep.SWEEP_TEMPERATURES_C:
        for off_time in retention_sweep.SWEEP_OFF_TIMES_S:
            assert sweep.lookup("voltboot", temperature, off_time) == 1.0
