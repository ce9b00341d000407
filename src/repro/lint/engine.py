"""The lint engine: file discovery, parsing, rule dispatch.

The engine is deliberately import-light (ast + stdlib only) so the
linter itself never perturbs the simulation it polices.  It parses each
file once and hands the same tree to the per-file rules and, when a
project-wide rule is selected, to the flow layer.  Parse failures
are reported as rule ``RL000`` findings rather than crashing the run;
unreadable paths raise :class:`~repro.errors.LintError`, which the CLI
maps to exit code 2.

The engine reports every finding a rule yields.  A rule that must
tolerate a file (a quarantine module) says so itself, through
:meth:`~repro.lint.rules.Rule.exempt`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import LintError
from .findings import Finding

# The rules load first: the flow layer imports ``rules.base``, and the
# flow rules import the flow layer.
from .rules import FileContext, FlowRule, Rule, select_rules  # isort: skip
from .flow import build_project  # isort: skip

#: Pseudo-rule id for files that do not parse.
PARSE_ERROR_RULE = "RL000"


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into the ordered list of files to lint.

    Explicitly named files are always included; directories are walked
    for ``*.py`` in sorted order.  A path that does not exist raises
    :class:`LintError`.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"path does not exist: {path}")
    seen: set[Path] = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _parse(path: Path) -> ast.Module | Finding:
    """Read and parse one file: its tree, or an ``RL000`` finding.

    An unreadable file raises :class:`LintError`.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}")
    except UnicodeDecodeError as error:
        raise LintError(f"cannot decode {path}: {error}")
    try:
        return ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Finding(
            path=str(path),
            line=error.lineno or 1,
            col=(error.offset or 1),
            rule=PARSE_ERROR_RULE,
            severity="error",
            message=f"file does not parse: {error.msg}",
        )


def lint(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint files and directory trees; returns the sorted findings.

    Each file is read and parsed once.  The selected per-file rules
    (default: every rule) check each tree; when a project-wide flow rule
    is selected, the same trees are linked into one
    :class:`~repro.lint.flow.ProjectModel` for it.
    """
    rules = select_rules(tuple(select) if select else None)
    file_rules = [rule for rule in rules if isinstance(rule, Rule)]
    flow_rules = [rule for rule in rules if isinstance(rule, FlowRule)]
    findings: list[Finding] = []
    trees: dict[Path, ast.Module | None] = {}
    for path in iter_python_files(paths):
        parsed = _parse(path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            trees[path] = None
            continue
        trees[path] = parsed
        context = FileContext(path=str(path), tree=parsed)
        findings.extend(
            finding for rule in file_rules for finding in rule.check(context)
        )
    if flow_rules:
        project = build_project(trees)
        findings.extend(
            finding
            for rule in flow_rules
            for finding in rule.check_project(project)
        )
    return sorted(findings)
