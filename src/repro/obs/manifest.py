"""Machine-readable run manifests.

A manifest is the one-document summary of a run — what was attacked or
measured, with which parameters, how long each phase took, and what the
headline numbers were.  The CLI's ``--json`` mode prints it, and the
determinism test and the golden pins compare
:meth:`RunManifest.fingerprint` across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .export import SCHEMA_VERSION, _jsonable, validate_manifest

#: Parameters that describe execution topology, not physics.  ``jobs``
#: shards the same work units over more processes; the repro.exec
#: engine guarantees the merged result is byte-identical, so the
#: fingerprint must compare equal across ``--jobs`` settings.
EXECUTION_PARAMETERS = ("jobs",)

#: Metric-name prefixes that carry wall-clock-derived values (engine
#: accounting).  They vary run to run and with ``--jobs``, so the
#: fingerprint strips them.
TIMING_METRIC_PREFIXES = ("exec.",)


@dataclass
class RunManifest:
    """One run's machine-readable summary.

    ``kind`` is ``"attack"`` or ``"experiment"``;
    ``phases`` is a list of ``{"name": ..., "wall_s": ...}`` dicts (see
    :meth:`~repro.obs.trace.Span.phases`); ``headline`` carries the
    few numbers a human would quote; ``metrics`` is a registry snapshot.

    ``partial`` is set only when the run completed *around* quarantined
    work units (see ``docs/robustness.md``): it carries a
    ``{"quarantined": [...]}`` section listing each lost unit's index,
    label, failure class, and error text.  The section is deliberately
    free of timings and attempt counts, so it is part of the
    fingerprint — a partial run must never compare equal to a complete
    one, but the *same* partial run must fingerprint identically
    whatever ``--jobs`` was.
    """

    kind: str
    name: str
    seed: int | None
    device: str | None = None
    parameters: dict[str, Any] = field(default_factory=dict)
    phases: list[dict[str, Any]] = field(default_factory=list)
    headline: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    partial: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """Manifest as a schema-conformant plain dict."""
        doc = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "name": self.name,
            "device": self.device,
            "seed": self.seed,
            "parameters": _jsonable(self.parameters),
            "phases": [dict(p) for p in self.phases],
            "headline": _jsonable(self.headline),
            "metrics": _jsonable(self.metrics),
        }
        if self.partial:
            doc["partial"] = _jsonable(self.partial)
        return doc

    def fingerprint(self) -> str:
        """SHA-256 over the timing-free, topology-free view.

        Two runs with identical seeds and physics must produce equal
        fingerprints; wall-clock jitter and execution topology
        (``--jobs``, see :data:`EXECUTION_PARAMETERS`) are excluded by
        construction, alongside the ``exec.*`` metrics they influence
        (:data:`TIMING_METRIC_PREFIXES`).
        """
        return manifest_fingerprint(self.to_dict())

    def validate(self) -> "RunManifest":
        """Schema-check the manifest; returns self for chaining."""
        validate_manifest(self.to_dict())
        return self


def manifest_fingerprint(doc: dict[str, Any]) -> str:
    """Fingerprint a manifest *dict* (e.g. parsed from ``--json``).

    Applies the same normalisation as :meth:`RunManifest.fingerprint`
    — wall-clock timings, :data:`EXECUTION_PARAMETERS`, and the
    wall-clock-derived :data:`TIMING_METRIC_PREFIXES` metrics
    (``exec.*`` engine accounting) are stripped before hashing — so a manifest hashed from a JSON
    document compares equal to one hashed in-process.  The CLI kill -9
    test (``tests/chaos/test_kill_resume.py``) relies on this to check
    an interrupted-then-resumed campaign against an uninterrupted
    reference run.
    """
    doc = dict(doc)
    doc["phases"] = [
        {k: v for k, v in phase.items() if k != "wall_s"}
        for phase in doc.get("phases", [])
    ]
    doc["parameters"] = {
        k: v
        for k, v in doc.get("parameters", {}).items()
        if k not in EXECUTION_PARAMETERS
    }
    doc["metrics"] = {
        k: v
        for k, v in doc.get("metrics", {}).items()
        if not k.startswith(TIMING_METRIC_PREFIXES)
    }
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
