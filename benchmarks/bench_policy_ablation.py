"""Regenerates the replacement-policy ablation of the Table 4 scenario."""

from repro.experiments import policy_ablation


def test_replacement_policy_ablation(record_report):
    points = policy_ablation.run(seed=94)
    record_report(
        "policy_ablation", policy_ablation.report(points).render()
    )
    assert {p.policy for p in points} == set(policy_ablation.POLICIES)
    # Shape: the ~90% band holds regardless of victim selection.
    for point in points:
        assert 78.0 < point.percent_extracted < 97.0
