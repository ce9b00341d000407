"""Regenerates paper Figure 3: cold-booted d-cache way snapshot."""

from pathlib import Path

from repro.experiments import figure3


def test_figure3_cold_boot_snapshot(record_report):
    result = figure3.run(seed=13)
    rendered = figure3.report(result).render()
    rendered += "\n\nWAY0 snapshot (8x downsampled):\n" + result.ascii_art()
    record_report("figure3", rendered)
    result.save_pgm(str(Path(__file__).parent / "results" / "figure3_way0.pgm"))
    # Shape: an even 1/0 mix, the stored pattern gone.
    assert 0.45 < result.ones < 0.55
    assert result.way0_image.count(b"\xaa" * 64) == 0
