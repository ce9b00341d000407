"""Times the voltage-glitch parameter-search campaign."""

from repro.experiments import glitch_campaign


def test_glitch_campaign(run_once, record_report):
    result = run_once(glitch_campaign.run, seed=66)
    record_report(
        "glitch_campaign", glitch_campaign.report(result).render()
    )
    unprotected = result.exploitable_rate("unprotected")
    protected = result.exploitable_rate("brownout")
    # The campaign must actually break the PIN guard somewhere on the
    # grid, and the brown-out detector must measurably suppress it.
    assert unprotected > 0.0
    assert protected < unprotected
    # Both legs ran the same pulse schedule.
    assert len(result.leg_attempts("brownout")) == len(
        result.leg_attempts("unprotected")
    )
    # Deep glitches never endanger stored state: the flag SRAM either
    # reads back locked or unlocked, only computation faults — so every
    # attempt classifies into the four outcome taxonomy classes.
    for leg in result.spec.legs:
        assert sum(result.outcome_rates(leg).values()) > 0.99
