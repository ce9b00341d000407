"""Regenerates the section 6 probe-adequacy ablation."""

from repro.experiments import probe_sweep


def test_probe_adequacy_sweeps(run_once, record_report):
    points = run_once(probe_sweep.run, seed=66)
    record_report("probe_sweep", probe_sweep.report(points).render())
    current = {
        p.current_limit_a: p.accuracy_percent
        for p in points
        if p.sweep == "current"
    }
    # Paper: a >3A bench supply gives 100%; a starved probe loses the rail.
    assert current[3.0] == 100.0
    assert current[0.05] < 5.0
    # Monotone recovery as the supply grows.
    ordered = [current[limit] for limit in sorted(current)]
    assert ordered == sorted(ordered)
    hold = {
        p.voltage_v: p.accuracy_percent
        for p in points
        if p.sweep == "hold-voltage"
    }
    # The retention cliff sits on the DRV distribution (~0.25 V).
    assert hold[0.10] < 5.0
    assert 20.0 < hold[0.25] < 80.0
    assert hold[0.40] > 95.0
