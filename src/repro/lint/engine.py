"""The lint engine: file discovery, parsing, rule dispatch.

The engine is deliberately import-light (ast + stdlib only) so the
linter itself never perturbs the simulation it polices.  Parse failures
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
from .rules import FileContext, Rule, select_rules

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


def lint_source(
    source: str, path: str, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one in-memory module; returns its sorted findings."""
    if rules is None:
        rules = select_rules(None)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1),
                rule=PARSE_ERROR_RULE,
                severity="error",
                message=f"file does not parse: {error.msg}",
            )
        ]
    context = FileContext(path=path, source=source, tree=tree)
    return sorted(
        finding for rule in rules for finding in rule.check(context)
    )


def lint_file(path: Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint one file on disk; unreadable files raise :class:`LintError`."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}")
    except UnicodeDecodeError as error:
        raise LintError(f"cannot decode {path}: {error}")
    return lint_source(source, str(path), rules)


def lint_paths(
    paths: Iterable[str | Path],
    select: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Lint files and directory trees; the library-level entry point."""
    rules = select_rules(tuple(select) if select else None)
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules))
    return findings


def flow_findings(
    files: Sequence[Path], select: tuple[str, ...] | None = None
) -> list[Finding]:
    """Run the project-wide flow rules (RL007+) over ``files``.

    Builds one linked :class:`~repro.lint.flow.ProjectModel` and checks
    every selected flow rule against it.
    """
    from .flow import build_project
    from .rules import select_flow_rules

    rules = select_flow_rules(tuple(select) if select else None)
    if not rules:
        return []
    project = build_project(files)
    return sorted(
        finding for rule in rules for finding in rule.check_project(project)
    )


def lint_project(
    paths: Iterable[str | Path],
    select: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Per-file rules plus project-wide flow rules over whole trees.

    The library-level equivalent of ``repro-lint --project``: findings
    from both rule families, merged and sorted.
    """
    files = iter_python_files(paths)
    return sorted([*lint_paths(files, select), *flow_findings(files, select)])
