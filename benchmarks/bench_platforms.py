"""Regenerates paper Tables 2 and 3: platform and probe-pad inventory."""

from repro.experiments import platforms


def test_platform_inventory_cross_check(record_report):
    rows = platforms.run(seed=23)
    record_report("platforms", platforms.report(rows).render())
    assert len(rows) == 3
    for row in rows:
        # The registry (the paper's tables) matches the simulated boards.
        assert row["pad_matches_registry"]
        assert row["voltage_matches_registry"]
