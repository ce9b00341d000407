"""The gate: the shipped source tree must be lint-clean.

This is the enforcement point for the repo's physics/determinism/error
contracts — if any RL001–RL006 finding fires on ``src/``, or any
project-wide flow finding (RL007 shard-race, RL008 iteration-order,
RL009 fingerprint-purity), this test fails and names it.
"""

from pathlib import Path

import repro
from repro.lint import (
    all_flow_rules,
    all_rules,
    flow_findings,
    iter_python_files,
    lint_paths,
)

SRC = Path(repro.__file__).resolve().parent


def test_shipped_tree_is_clean():
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro-lint findings on src/:\n{rendered}"


def test_shipped_tree_is_flow_clean():
    # The --project half of the gate: zero RL007/RL008/RL009 findings.
    # The linter has no way to silence a finding, so the acceptance bar
    # is an outright-clean tree.
    findings = flow_findings(iter_python_files([SRC]))
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro-lint --project findings on src/:\n{rendered}"


def test_flow_gate_actually_analyses_the_tree():
    # Guard against the flow gate passing vacuously: the project model
    # must discover the experiment/campaign shard units.
    from repro.lint.flow import build_project

    project = build_project(iter_python_files([SRC]))
    entries = project.entry_points()
    assert len(entries) >= 10, sorted(entries)
    assert any("glitch.campaign" in name for name in entries)
    assert any("retention_sweep" in name for name in entries)
    reachable = project.reachable_from(entries)
    assert len(reachable) > len(entries)


def test_all_six_domain_rules_are_registered():
    assert [rule.id for rule in all_rules()] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
    ]


def test_all_three_flow_rules_are_registered():
    assert [rule.id for rule in all_flow_rules()] == [
        "RL007", "RL008", "RL009",
    ]
