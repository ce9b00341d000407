"""RL006 — timing: wall-clock reads go through ``repro.obs.timing``.

RL001 already bans ``import time`` inside the library; this rule holds
the narrower, sharper line for *clock reads* specifically — including
in harness code (tools, benchmarks) where importing :mod:`time` is
legitimate for ``time.sleep``.  A direct ``time.time()`` /
``time.perf_counter()`` call scatters untracked timing through the
codebase: spans cannot see it, the disabled-observability zero-overhead
guarantee cannot account for it, and manifests cannot strip it.  Every
duration measurement must come from :func:`repro.obs.timing.wall_clock`
(or the spans built on it), so there is exactly one clock to audit.

``time.sleep`` stays legal — it spends time rather than reading it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, dotted_name, register

#: The one module allowed to read the process clocks directly.
_EXEMPT = ("repro/obs/timing.py",)

#: ``time``-module clock readers (and their nanosecond variants).
_CLOCK_FNS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "clock_gettime_ns",
}

_HINT = (
    "measure durations with repro.obs.timing.wall_clock (or an OBS.span)"
)


@register
class TimingRule(Rule):
    id = "RL006"
    name = "timing"
    description = (
        "direct time.time()/time.perf_counter()-style clock reads are "
        "banned outside repro.obs.timing"
    )

    def exempt(self, ctx: FileContext) -> bool:
        return ctx.matches_module(*_EXEMPT)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in _CLOCK_FNS:
                            yield self.finding(
                                ctx, node,
                                f"import of clock reader "
                                f"time.{alias.name}",
                                hint=_HINT,
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "time"
                    and parts[1] in _CLOCK_FNS
                ):
                    yield self.finding(
                        ctx, node,
                        f"direct clock read via {name}()",
                        hint=_HINT,
                    )
