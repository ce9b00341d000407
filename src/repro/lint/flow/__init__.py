"""Project-wide flow analysis behind the RL007–RL009 rules.

Where the per-file rules (RL001–RL006) police one AST at a time, this
package links every module of the tree into a :class:`ProjectModel` —
module/symbol tables, import resolution, a call graph — and runs
reachability and taint engines over it.  The interprocedural rules
RL007 (shard-race), RL008 (iteration order), and RL009
(fingerprint-purity taint) are built on top, in
:mod:`repro.lint.rules`.

Everything here is ``ast``-plus-stdlib only: the analysed code is
never imported, so linting cannot perturb the simulation it audits.
The model is built from the trees the lint engine already parsed, and
nothing is written to disk.
"""

from __future__ import annotations

from .project import ProjectModel, build_project, module_name_for
from .summarize import FunctionSummary, ModuleSummary, summarize_tree

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectModel",
    "build_project",
    "module_name_for",
    "summarize_tree",
]
