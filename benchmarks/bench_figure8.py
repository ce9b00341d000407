"""Regenerates paper Figure 8: attacking an application under an OS."""

from repro.experiments import figure8


def test_figure8_os_victim(record_report):
    result = figure8.run(seed=88)
    record_report("figure8", figure8.report(result).render())
    # Shape: the 0xAA payload and the app's machine code both recovered.
    assert result.pattern_found
    assert result.pattern_lines_in_dcache >= 64
    assert result.instructions_found
