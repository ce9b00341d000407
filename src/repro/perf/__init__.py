"""Live campaign progress from exec checkpoint journals.

The observability layer (:mod:`repro.obs`) explains a single run and
its ``perf.*`` profiling hooks say where the time went; this package
answers the operator's question about a campaign that is still
running (or has crashed): ``repro progress`` turns an exec checkpoint
journal into shards done/total, rolling throughput and an ETA
(:mod:`repro.perf.progress`).

Timing claims are made with the end-to-end benchmark in
``benchmarks/e2e`` (see ``docs/perf.md``), not here.
"""

from __future__ import annotations

from ..errors import PerfError
from .progress import (
    ProgressReport,
    find_journals,
    read_progress,
    render_progress,
)

__all__ = [
    "PerfError",
    "ProgressReport",
    "find_journals",
    "read_progress",
    "render_progress",
]
