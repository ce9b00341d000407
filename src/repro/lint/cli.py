"""The ``repro-lint`` console script.

Exit codes follow the PR 1 CLI convention: 0 for a clean tree, 1 when
findings are reported, 2 for usage/IO failures — the latter always as
a one-line error on stderr, never a traceback.

Every run checks all rules, RL001–RL009, from one parse of each file:
the per-file checks plus the project-wide flow rules (RL007 shard-race,
RL008 iteration-order, RL009 fingerprint-purity), which link every
module into one call graph.  ``--rule`` narrows the run; a run that
selects no flow rule builds no call graph.

The linter is a pure function of the files it is given: it reads no
configuration and writes nothing but its report.  With no ``PATH``
arguments it lints ``src/`` (or ``.`` where there is no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from ..errors import LintError
from .engine import iter_python_files, lint
from .rules import FlowRule, all_rules

#: Version of the ``--format json`` document layout.
JSON_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based checks for the simulation's physics, determinism "
            "and error contracts"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule", action="append", default=[], metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        scope = " (project-wide)" if isinstance(rule, FlowRule) else ""
        print(f"{rule.id}  {rule.name}{scope}: {rule.description}")
    return 0


def _default_paths() -> tuple[str, ...]:
    return ("src",) if Path("src").is_dir() else (".",)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-lint``; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    try:
        files = iter_python_files(args.paths or _default_paths())
        findings = lint(files, args.rule)
    except LintError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        document = {
            "schema_version": JSON_SCHEMA_VERSION,
            "checked": len(files),
            "findings": [finding.to_dict() for finding in findings],
        }
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"repro-lint: {len(findings)} finding(s) in "
            f"{len(files)} file(s) checked"
            if findings
            else f"repro-lint: clean ({len(files)} file(s) checked)"
        )
        print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
