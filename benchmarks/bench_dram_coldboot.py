"""Regenerates the section 9.1 baseline: DRAM cold boot + scrambler."""

from repro.experiments import dram_coldboot


def test_dram_coldboot_baseline(record_report):
    result = dram_coldboot.run(seed=91)
    record_report("dram_coldboot", dram_coldboot.report(result).render())
    # Shape: short chilled cuts recover the key, long ones do not; the
    # scrambler denies the attack entirely.
    assert result.recovery_horizon_s >= 60.0
    assert not result.points[-1].key_recovered
    assert not result.scrambled_key_found
    fractions = [p.decayed_fraction for p in result.points]
    assert fractions == sorted(fractions)
