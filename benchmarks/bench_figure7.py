"""Regenerates paper Figure 7: bare-metal i-cache retention snapshots."""

from repro.experiments import figure7


def test_figure7_bare_metal_icache(record_report):
    results = figure7.run(seed=77)
    record_report("figure7", figure7.report(results).render())
    assert {result.device for result in results} == {"BCM2711", "BCM2837"}
    for result in results:
        # Paper: 100% retention accuracy on every core of both devices.
        assert result.all_perfect
        assert len(result.per_core_accuracy) == 4
