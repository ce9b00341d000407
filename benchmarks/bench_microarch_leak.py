"""Regenerates the TLB/BTB execution-footprint extension experiment."""

from repro.experiments import microarch_leak


def test_microarch_footprint_leak(record_report):
    result = microarch_leak.run(seed=92)
    record_report("microarch_leak", microarch_leak.report(result).render())
    # Shape: data wiped (control == 0) but the footprint fully exposed.
    assert result.data_lines_surviving == 0
    assert result.page_recovery_fraction == 1.0
    assert result.branch_recovery_fraction == 1.0
