"""Regenerates paper Figure 9: i.MX53 iRAM bitmap recovery."""

from pathlib import Path

from repro.experiments import figure9


def test_figure9_iram_bitmap_recovery(record_report):
    result = figure9.run(seed=99)
    rendered = figure9.report(result).render()
    rendered += "\n\nRecovered panel (a) (16x downsampled):\n"
    rendered += result.panel_ascii(0)
    record_report("figure9", rendered)
    for panel in range(4):
        result.save_panel_pgm(
            panel,
            str(Path(__file__).parent / "results" / f"figure9_panel{panel}.pgm"),
        )
    # Shape: ~2.7% overall error, clean middle panels, ~95% accessible.
    assert 0.02 < result.overall_error < 0.04
    assert result.panel_errors[1] == 0.0
    assert result.panel_errors[2] == 0.0
    assert result.panel_errors[0] > 0.0
    assert result.panel_errors[3] > 0.0
