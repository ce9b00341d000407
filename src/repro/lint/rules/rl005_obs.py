"""RL005 — observability contract: names come from the taxonomy.

Trace consumers, ``repro-verify``'s span check, and trend tooling all
key off the literal span/event/metric names, so an instrumentation point
whose name is not declared in :mod:`repro.obs.names` is invisible to all
of them.  This rule checks

* the name literal of every ``OBS.span`` / ``OBS.event`` /
  ``OBS.counter_inc`` / ``OBS.gauge_set`` / ``OBS.histogram_record``
  (and ``metrics.counter/gauge/histogram``) call against the taxonomy —
  f-strings must open with a declared dynamic-family prefix;
* that experiment modules register through ``experiments.common``: a
  top-level ``run`` function in ``experiments/`` must carry the
  ``@manifested(...)`` decorator.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...obs import names as taxonomy
from ..findings import Finding
from .base import FileContext, Rule, dotted_name, register

#: method attr -> (name family checker, family label)
_SPAN_METHODS = {"span"}
_EVENT_METHODS = {"event"}
_METRIC_METHODS = {"counter_inc", "gauge_set", "histogram_record"}
_REGISTRY_METHODS = {"counter", "gauge", "histogram"}

#: Modules under experiments/ that legitimately have no ``run``.
_EXEMPT_EXPERIMENT_MODULES = ("common.py", "render.py", "__init__.py")


def _receiver_tail(func: ast.Attribute) -> str | None:
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _literal_prefix(node: ast.AST) -> tuple[str | None, bool]:
    """(name-or-prefix, is_complete) for a string or f-string argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr):
        if node.values and isinstance(node.values[0], ast.Constant):
            first = node.values[0].value
            if isinstance(first, str):
                return first, False
        return "", False
    return None, False


@register
class ObsContractRule(Rule):
    id = "RL005"
    name = "obs-contract"
    description = (
        "span/event/metric names must come from repro.obs.names; "
        "experiment modules must register via experiments.common"
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_names(ctx)
        yield from self._check_experiment_registration(ctx)

    # ------------------------------------------------------------------
    # Name taxonomy
    # ------------------------------------------------------------------

    def _check_names(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                continue
            attr = node.func.attr
            receiver = _receiver_tail(node.func)
            if attr in _SPAN_METHODS and receiver in {"OBS", "tracer"}:
                family, known = "span", taxonomy.is_known_span
                prefixes = taxonomy.SPAN_PREFIXES
            elif attr in _EVENT_METHODS and receiver in {"OBS", "tracer"}:
                family, known = "event", taxonomy.is_known_event
                prefixes = taxonomy.EVENT_PREFIXES
            elif attr in _METRIC_METHODS or (
                attr in _REGISTRY_METHODS and receiver == "metrics"
            ):
                family, known = "metric", taxonomy.is_known_metric
                prefixes = ()
            else:
                continue
            name, complete = _literal_prefix(node.args[0])
            if name is None:
                continue  # dynamic expression; nothing checkable
            if complete and not known(name):
                yield self.finding(
                    ctx, node.args[0],
                    f"{family} name {name!r} is not in the repro.obs.names "
                    "taxonomy",
                    hint="declare the name (or its family prefix) in "
                    "repro/obs/names.py",
                )
            elif not complete and not any(
                name.startswith(p) for p in prefixes
            ):
                yield self.finding(
                    ctx, node.args[0],
                    f"dynamic {family} name must open with a declared "
                    f"family prefix ({', '.join(prefixes) or 'none'})",
                    hint="declare the family prefix in repro/obs/names.py",
                )

    # ------------------------------------------------------------------
    # Experiment registration
    # ------------------------------------------------------------------

    def _check_experiment_registration(
        self, ctx: FileContext
    ) -> Iterator[Finding]:
        if not ctx.in_dir("experiments"):
            return
        if any(ctx.posix.endswith("/" + m) for m in _EXEMPT_EXPERIMENT_MODULES):
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "run":
                if not any(
                    self._is_manifested(decorator)
                    for decorator in node.decorator_list
                ):
                    yield self.finding(
                        ctx, node,
                        "experiment run() is not registered through "
                        "experiments.common",
                        hint="decorate run() with "
                        "@manifested(<experiment-name>, ...)",
                    )

    @staticmethod
    def _is_manifested(decorator: ast.AST) -> bool:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = dotted_name(decorator)
        return name is not None and name.split(".")[-1] == "manifested"
