"""Rule framework: per-file context, the rule base class, the registry."""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from ...errors import LintError
from ..findings import Finding


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: str
    tree: ast.Module
    #: POSIX-style path used for role matching (exemptions, scoping).
    posix: str = field(init=False)

    def __post_init__(self) -> None:
        self.posix = self.path.replace("\\", "/")

    def matches_module(self, *tails: str) -> bool:
        """Whether this file *is* one of the named library modules.

        Matching is suffix-based so it works from any invocation
        directory: ``repro/rng.py`` matches ``src/repro/rng.py`` and a
        bare ``rng.py`` linted from inside the package.
        """
        for tail in tails:
            if (
                self.posix == tail
                or self.posix.endswith("/" + tail)
                or tail.endswith("/" + self.posix)
            ):
                return True
        return False

    def in_dir(self, name: str) -> bool:
        """Whether the file lives under a directory called ``name``."""
        return f"/{name}/" in f"/{self.posix}"


class Rule(ABC):
    """One lint rule: a stable id plus an AST check.

    Subclasses set the class attributes and implement :meth:`visit`;
    :meth:`exempt` opts whole files out (the quarantine files a rule
    itself sanctions, e.g. ``rng.py`` for the determinism rule).
    """

    id: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[str] = "error"
    description: ClassVar[str]

    def exempt(self, ctx: FileContext) -> bool:
        """Whether this rule skips ``ctx``'s file entirely."""
        return False

    @abstractmethod
    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Run the rule unless the file is exempt."""
        if not self.exempt(ctx):
            yield from self.visit(ctx)

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding for ``node`` in ``ctx``'s file."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
            hint=hint,
        )


class FlowRule(ABC):
    """One project-wide rule: checks a linked :class:`ProjectModel`.

    A flow rule needs the whole module graph, so there is no per-file
    ``visit``.  Subclasses implement :meth:`check_project` and yield
    findings pinned to the file/line of the offending event.
    """

    id: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[str] = "error"
    description: ClassVar[str]

    @abstractmethod
    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings for one linked project model."""

    def finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding at an explicit location."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            severity=self.severity,
            message=message,
            hint=hint,
        )


_REGISTRY: dict[str, Rule | FlowRule] = {}


def register(cls: type[Rule | FlowRule]) -> type[Rule | FlowRule]:
    """Class decorator adding a rule (by instance) to the registry."""
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> tuple[Rule | FlowRule, ...]:
    """Every registered rule, per-file and project-wide, ordered by id."""
    return tuple(rule for _, rule in sorted(_REGISTRY.items()))


def select_rules(ids: tuple[str, ...] | None) -> tuple[Rule | FlowRule, ...]:
    """Resolve rule ids to rules; unknown ids raise :class:`LintError`."""
    if not ids:
        return all_rules()
    rules = []
    for rule_id in ids:
        key = rule_id.upper()
        if key not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise LintError(f"unknown rule {rule_id!r} (known rules: {known})")
        rules.append(_REGISTRY[key])
    return tuple(dict.fromkeys(rules))
