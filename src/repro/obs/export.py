"""JSON/JSONL writers and the export schema contract.

Everything the observability layer persists — run manifests, JSONL
traces, metrics snapshots, the CLI's ``--json`` documents — flows
through this module so that every export carries a ``schema_version``
field and downstream tooling (the CLI tests, CI validators) can evolve
against a stable contract.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, IO

#: Version of every JSON document this package emits.  Bump on any
#: backwards-incompatible change to the manifest or trace record shape.
SCHEMA_VERSION = 1

#: Fields every run manifest must carry (see DESIGN.md "Observability").
MANIFEST_REQUIRED_FIELDS = (
    "schema_version",
    "kind",
    "name",
    "seed",
    "parameters",
    "phases",
    "headline",
    "metrics",
)

#: Allowed values of a manifest's ``kind`` field.
MANIFEST_KINDS = ("attack", "experiment")


class SchemaError(ValueError):
    """An exported document does not match the published schema."""


def stamp(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with ``schema_version`` guaranteed present."""
    if "schema_version" not in payload:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
    return payload


def _jsonable(value: Any) -> Any:
    """Coerce a value into something ``json.dumps`` accepts: a
    dataclass becomes a dict of its fields, bytes become hex, and
    anything else unknown its ``repr``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def dumps(payload: dict[str, Any], indent: int | None = 2) -> str:
    """Serialise a stamped document to a JSON string."""
    return json.dumps(_jsonable(stamp(dict(payload))), indent=indent)


def validate_manifest(doc: dict[str, Any]) -> dict[str, Any]:
    """Check a manifest dict against the schema; returns it unchanged.

    Raises :class:`SchemaError` naming every violated constraint, so CI
    failures point straight at the offending field.
    """
    problems: list[str] = []
    for field in MANIFEST_REQUIRED_FIELDS:
        if field not in doc:
            problems.append(f"missing required field {field!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}"
        )
    if "kind" in doc and doc["kind"] not in MANIFEST_KINDS:
        problems.append(f"kind {doc['kind']!r} not in {MANIFEST_KINDS}")
    if "parameters" in doc and not isinstance(doc["parameters"], dict):
        problems.append("parameters must be an object")
    if "headline" in doc and not isinstance(doc["headline"], dict):
        problems.append("headline must be an object")
    if "metrics" in doc and not isinstance(doc["metrics"], dict):
        problems.append("metrics must be an object")
    # "partial" is optional: present only on runs that quarantined
    # work units (docs/robustness.md).
    if "partial" in doc and not isinstance(doc["partial"], dict):
        problems.append("partial must be an object when present")
    phases = doc.get("phases", [])
    if not isinstance(phases, list):
        problems.append("phases must be a list")
    else:
        for i, phase in enumerate(phases):
            if not isinstance(phase, dict) or "name" not in phase:
                problems.append(f"phase[{i}] must be an object with a name")
    if problems:
        raise SchemaError("; ".join(problems))
    return doc


class JsonlWriter:
    """Line-delimited JSON sink for trace records.

    The first line of every file is a header record carrying the schema
    version, so a consumer can reject traces from a different producer
    generation before parsing the body.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w")
        self.write({"type": "header", "producer": "repro.obs"})

    def write(self, record: dict[str, Any]) -> None:
        """Append one stamped record as a JSON line."""
        if self._fh is None:
            return
        self._fh.write(json.dumps(_jsonable(stamp(dict(record)))) + "\n")

    def close(self) -> None:
        """Flush and close the underlying file."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse every record of a JSONL file (helper for tests/tools)."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records
