"""``repro.lint`` — AST-based static analysis for the reproduction.

The simulation's credibility rests on invariants Python cannot enforce
at runtime: all entropy derives from one seed (RL001), quantities stay
in SI units (RL002), failures surface through the ``ReproError``
taxonomy (RL003), physics paths never compare floats exactly (RL004),
and observability names come from one taxonomy (RL005).  This package
checks them statically, with a pluggable rule framework and a
``repro-lint`` console script.  A finding is fixed in the code or, for
a file a rule itself sanctions, by that rule's ``exempt`` hook; no
comment, configuration file or recorded finding list silences one.

Three rules are project-wide (:mod:`repro.lint.flow`): every module is
distilled into an in-memory summary (imports, call sites, shared-state
writes, unordered iterations, timing taint), the summaries are linked
into a :class:`~repro.lint.flow.ProjectModel` with a cross-module call
graph, and interprocedural rules check it — shard-race freedom
(RL007), iteration-order determinism (RL008), and fingerprint purity
(RL009).  Every ``repro-lint`` run checks RL001–RL009 from one parse
of each file and writes nothing to disk.

Library use::

    from repro.lint import lint

    findings = lint(["src"])                     # [] when clean
    findings = lint(["src"], select=["RL008"])   # one rule
"""

from __future__ import annotations

from .engine import PARSE_ERROR_RULE, iter_python_files, lint
from .findings import Finding
from .flow import ProjectModel, build_project
from .rules import (
    FileContext,
    FlowRule,
    Rule,
    all_rules,
    register,
    select_rules,
)

__all__ = [
    "Finding",
    "FileContext",
    "FlowRule",
    "PARSE_ERROR_RULE",
    "ProjectModel",
    "Rule",
    "all_rules",
    "build_project",
    "iter_python_files",
    "lint",
    "register",
    "select_rules",
]
