"""Regenerates the section 8 countermeasure survey."""

from repro.experiments import countermeasures


def test_countermeasure_survey(record_report):
    outcomes = countermeasures.run(seed=8)
    record_report(
        "countermeasures", countermeasures.report(outcomes).render()
    )
    by_name = {o.defense: o for o in outcomes}
    # Broken defenses: baseline and shutdown purge under an abrupt cut.
    assert by_name["none (baseline)"].pattern_lines_recovered > 100
    assert by_name["none (baseline)"].secure_schedule_recovered
    assert by_name[
        "purge on power-down (abrupt cut)"
    ].pattern_lines_recovered > 100
    # Working defenses.
    assert by_name["purge on power-down (graceful)"].pattern_lines_recovered == 0
    assert by_name["MBIST reset at startup"].pattern_lines_recovered == 0
    assert not by_name["authenticated boot"].attack_completed
    # TrustZone: partial — normal world leaks, secure lines hold.
    trustzone = by_name["TrustZone enforcement"]
    assert trustzone.pattern_lines_recovered > 100
    assert not trustzone.secure_schedule_recovered
