"""Regenerates the section 2.1 standby-voltage/retention trade-off."""

from repro.experiments import standby_retention


def test_standby_retention_tradeoff(record_report):
    points = standby_retention.run(seed=93)
    record_report(
        "standby_retention", standby_retention.report(points).render()
    )
    by_v = {p.standby_v: p for p in points}
    # Shape: safe plateau above the DRV tail, cliff below it.
    assert by_v[0.45].pattern_lines_intact == 512
    assert by_v[0.45].leakage_fraction < 0.5
    assert by_v[0.25].pattern_lines_intact == 0
    losses = [p.cells_lost for p in points]
    assert losses == sorted(losses)
