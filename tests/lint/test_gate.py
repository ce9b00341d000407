"""The gate: the shipped source tree must be lint-clean.

This is the enforcement point for the repo's physics/determinism/error
contracts — if any RL001–RL006 finding fires on ``src/``, or any
project-wide flow finding (RL007 shard-race, RL008 iteration-order,
RL009 fingerprint-purity), this test fails and names it.
"""

import ast
import json
from pathlib import Path

import repro
from repro.lint import (
    FlowRule,
    Rule,
    all_rules,
    build_project,
    cli,
    iter_python_files,
    lint,
)

SRC = Path(repro.__file__).resolve().parent


def test_shipped_tree_is_clean():
    # Every rule, per-file and project-wide, in one pass.  The linter
    # has no way to silence a finding, so the acceptance bar is an
    # outright-clean tree.
    findings = lint([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro-lint findings on src/:\n{rendered}"


def test_shipped_tree_is_flow_clean(capsys):
    # The CI lint step's command, through the CLI: the default run
    # includes RL007/RL008/RL009 and must exit 0 with no finding.
    assert cli.main(["--format", "json", str(SRC)]) == 0
    assert json.loads(capsys.readouterr().out)["findings"] == []


def test_flow_gate_actually_analyses_the_tree():
    # Guard against the flow gate passing vacuously: the project model
    # must discover the experiment/campaign shard units.
    project = build_project({
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in iter_python_files([SRC])
    })
    entries = project.entry_points()
    assert len(entries) >= 10, sorted(entries)
    assert any("glitch.campaign" in name for name in entries)
    assert any("retention_sweep" in name for name in entries)
    reachable = project.reachable_from(entries)
    assert len(reachable) > len(entries)


def test_all_nine_rules_are_registered():
    assert [rule.id for rule in all_rules()] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        "RL007", "RL008", "RL009",
    ]


def test_all_six_domain_rules_are_registered():
    # The per-file rules, checked on each module's parse.
    assert [rule.id for rule in all_rules() if isinstance(rule, Rule)] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
    ]


def test_all_three_flow_rules_are_registered():
    # The project-wide rules, checked on the linked project model.
    assert [rule.id for rule in all_rules() if isinstance(rule, FlowRule)] == [
        "RL007", "RL008", "RL009",
    ]
