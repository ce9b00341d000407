"""RL008 — iteration order: no unordered collections feed ordered output.

Manifests, checkpoint journals, and experiment result lists are
fingerprinted byte-for-byte, so any iteration whose order the platform
chooses — ``set`` iteration (hash-seed dependent across processes) or
unsorted filesystem scans (``Path.glob``/``iterdir``/``os.listdir``
return directory order) — is a reproducibility bug waiting for a
different machine.  A since-deleted benchmark-document sequencer
shipped exactly this bug before this rule existed: an unsorted
``Path(root).glob(...)`` scan feeding sequence numbering.

The rule flags ``for`` loops and comprehensions over set expressions,
set-typed locals, or unsorted scan results, anywhere in the project.
Order-preserving wrappers (``list``/``tuple``/``reversed``) propagate
the verdict; ``sorted(...)`` clears it.  Dict iteration is ordered in
Python and is never flagged; membership tests don't iterate and are
out of scope.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .base import FlowRule, register_flow

_HINT = (
    "wrap the iterable in sorted(...) (with an explicit key if element "
    "order matters), or use an ordered collection"
)


@register_flow
class IterationOrderRule(FlowRule):
    id = "RL008"
    name = "iteration-order"
    description = (
        "iteration over unordered sets or unsorted filesystem scans is "
        "banned: their order leaks into manifests, journals, and "
        "returned experiment data"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module in sorted(project.modules):
            summary = project.modules[module]
            for qualname in sorted(summary.functions):
                fn = summary.functions[qualname]
                where = (
                    f"module body of {module}"
                    if qualname == "<module>"
                    else f"{module}.{qualname}"
                )
                for event in fn.iters:
                    yield self.finding(
                        summary.path, event.line, event.col,
                        f"{event.detail} in {where}",
                        hint=_HINT,
                    )
