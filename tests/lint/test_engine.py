"""The lint engine's single pass: one parse per file feeds every rule."""

import ast

from repro.lint import lint

FIXTURE = {
    "pkg/__init__.py": "",
    # A per-file finding: RL001 bans ambient entropy.
    "pkg/dirty.py": "import random\n",
    # A project-wide finding: RL008 bans unsorted filesystem scans.
    "pkg/scan.py": (
        "from pathlib import Path\n"
        "def scan(root):\n"
        "    return [p for p in Path(root).glob('*.json')]\n"
    ),
}


def _count_parses(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return parsed


def _located(findings, root):
    return [
        (finding.rule, finding.path[len(str(root)) + 1:])
        for finding in findings
    ]


def test_default_run_parses_each_file_once(monkeypatch, make_tree):
    root = make_tree(FIXTURE)
    parsed = _count_parses(monkeypatch)
    findings = lint([root])
    assert len(parsed) == 3
    assert len(set(parsed)) == 3
    assert _located(findings, root) == [
        ("RL001", "pkg/dirty.py"), ("RL008", "pkg/scan.py"),
    ]


def test_unparsable_file_adds_one_rl000(monkeypatch, make_tree):
    root = make_tree({**FIXTURE, "pkg/broken.py": "def nope(:\n"})
    parsed = _count_parses(monkeypatch)
    findings = lint([root])
    assert len(parsed) == 4
    assert _located(findings, root) == [
        ("RL000", "pkg/broken.py"),
        ("RL001", "pkg/dirty.py"),
        ("RL008", "pkg/scan.py"),
    ]
