"""The project model: linked module summaries plus the call graph.

:func:`build_project` summarizes every parsed file and returns a
:class:`ProjectModel`, which resolves dotted references across
modules — chasing import re-exports like ``repro.exec.ShardPlan`` ->
``repro.exec.plan.ShardPlan`` and method lookups through base classes
— and answers the questions the flow rules ask: what does each
function call, which functions are shard-unit entry points, and what
is reachable from them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Mapping

from .summarize import (
    FunctionSummary,
    ModuleSummary,
    module_name_for,
    summarize_tree,
)

#: Guard against pathological import-alias cycles while chasing
#: re-exports.
_MAX_CHASE = 32


class ProjectModel:
    """Linked view over a set of module summaries."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.modules = summaries
        #: canonical function name -> (module summary, function summary).
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        for module, summary in summaries.items():
            for qualname, fn in summary.functions.items():
                self.functions[f"{module}.{qualname}"] = (summary, fn)
        self._resolve_memo: dict[str, str | None] = {}
        self._call_graph: dict[str, set[str]] | None = None

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def _split_module(self, dotted: str) -> tuple[str, list[str]] | None:
        """Longest module prefix of ``dotted`` plus the symbol tail."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None

    def resolve_function(self, dotted: str) -> str | None:
        """Canonical function key for a dotted reference, if resolvable.

        Chases import re-exports (``from .plan import ShardPlan`` in a
        package ``__init__``) and walks base classes for method lookups.
        """
        if dotted in self._resolve_memo:
            return self._resolve_memo[dotted]
        self._resolve_memo[dotted] = None  # cycle guard
        resolved = self._resolve_function_uncached(dotted, _MAX_CHASE)
        self._resolve_memo[dotted] = resolved
        return resolved

    def _resolve_function_uncached(
        self, dotted: str, budget: int
    ) -> str | None:
        if budget <= 0:
            return None
        if dotted in self.functions:
            return dotted
        split = self._split_module(dotted)
        if split is None:
            return None
        module, tail = split
        if not tail:
            return None
        summary = self.modules[module]
        head = tail[0]
        if head in summary.imports:
            rechased = ".".join([summary.imports[head], *tail[1:]])
            return self._resolve_function_uncached(rechased, budget - 1)
        if head in summary.classes and len(tail) == 2:
            return self._resolve_method(module, head, tail[1], budget - 1)
        return None

    def _resolve_method(
        self, module: str, cls: str, method: str, budget: int
    ) -> str | None:
        """Find ``method`` on ``cls`` or (breadth-first) its bases."""
        queue = [(module, cls)]
        seen = set()
        while queue and budget > 0:
            budget -= 1
            mod, name = queue.pop(0)
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            key = f"{mod}.{name}.{method}"
            if key in self.functions:
                return key
            summary = self.modules.get(mod)
            if summary is None or name not in summary.classes:
                continue
            for base in summary.classes[name].bases:
                located = self._resolve_class(base, budget)
                if located is not None:
                    queue.append(located)
        return None

    def _resolve_class(
        self, dotted: str, budget: int
    ) -> tuple[str, str] | None:
        """Resolve a dotted class reference to ``(module, classname)``."""
        for _ in range(budget):
            split = self._split_module(dotted)
            if split is None:
                return None
            module, tail = split
            if len(tail) != 1:
                return None
            summary = self.modules[module]
            name = tail[0]
            if name in summary.classes:
                return module, name
            if name in summary.imports:
                dotted = summary.imports[name]
                continue
            return None
        return None

    # ------------------------------------------------------------------
    # Call graph and reachability
    # ------------------------------------------------------------------

    def call_graph(self) -> dict[str, set[str]]:
        """Resolved caller -> callees over every summarized function."""
        if self._call_graph is None:
            graph: dict[str, set[str]] = {}
            for key, (_, fn) in self.functions.items():
                callees = set()
                for name, _line, _col in fn.calls:
                    resolved = self.resolve_function(name)
                    if resolved is not None:
                        callees.add(resolved)
                graph[key] = callees
            self._call_graph = graph
        return self._call_graph

    def entry_points(self) -> dict[str, str]:
        """Shard-unit entry points: canonical fn key -> display name."""
        entries: dict[str, str] = {}
        for module in sorted(self.modules):
            for ref in self.modules[module].shard_entries:
                resolved = self.resolve_function(ref)
                if resolved is not None:
                    entries.setdefault(resolved, ref)
        return entries

    def reachable_from(self, roots: Iterable[str]) -> dict[str, str]:
        """Every function reachable from ``roots`` -> the root reaching it.

        Breadth-first over the call graph, so the recorded root is one
        with a shortest call chain (stable across runs: roots and
        neighbours are visited in sorted order).
        """
        graph = self.call_graph()
        origin: dict[str, str] = {}
        queue: list[str] = []
        for root in sorted(set(roots)):
            if root in graph and root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(graph.get(current, ())):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin


def build_project(trees: Mapping[Path, ast.Module | None]) -> ProjectModel:
    """Summarize the parsed ``trees`` (path -> module AST) into a model.

    A file that does not parse (tree ``None``) contributes an empty
    summary: the engine already reports it as an ``RL000`` finding.
    """
    summaries: dict[str, ModuleSummary] = {}
    for path, tree in trees.items():
        module = module_name_for(path)
        summary = (
            ModuleSummary(module=module, path=str(path))
            if tree is None
            else summarize_tree(tree, str(path), module)
        )
        # Last-one-wins on module-name collisions (e.g. two fixture
        # trees both containing ``conftest``); project rules only ever
        # see one of them, which keeps resolution deterministic.
        summaries[module] = summary
    return ProjectModel(summaries)


__all__ = [
    "ProjectModel",
    "build_project",
    "module_name_for",
]
