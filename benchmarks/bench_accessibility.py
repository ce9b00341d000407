"""Regenerates paper section 6.2: post-boot accessible memory fractions."""

from repro.experiments import accessibility


def test_accessibility_fractions(record_report):
    rows = accessibility.run(seed=62)
    record_report("accessibility", accessibility.report(rows).render())
    by_memory = {row.memory: row.available_fraction for row in rows}
    # Shape: L1 fully available, L2 destroyed by the VideoCore, iRAM ~95%.
    assert by_memory["L1 caches"] > 0.99
    assert by_memory["L2 (VideoCore-shared)"] < 0.02
    assert 0.90 < by_memory["iRAM (128KiB)"] < 0.97
