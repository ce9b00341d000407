"""Crash-safe checkpoint journal for long campaigns.

An append-only JSONL file that records each completed work unit of one
:func:`repro.exec.execute` call — its result, its captured metrics
dump, its finished trace spans, and the events no span caught — so a
campaign killed mid-run (``kill -9``, SIGINT, power loss) can be
resumed and complete **only the missing units**, with a final run
manifest byte-identical to the uninterrupted run.

Durability model: each record is one line, written with a single
``write`` call and then ``flush`` + ``fsync`` — a crash can at worst
leave one truncated *final* line, which :meth:`CheckpointJournal.
load_resume` tolerates and discards.  A corrupt line anywhere *before*
the tail means the file was tampered with or the disk lied, and raises
:class:`~repro.errors.CheckpointError` instead of silently resuming
from bad state.

The header pins the journal to a plan via :func:`plan_fingerprint`
(unit count, labels, and function identities — unit *arguments* are
excluded because they carry RNG generator objects whose pickle bytes
are not a stable identity).  Resuming against a different plan is
refused.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Any

from ..errors import CheckpointError, JournalWriteError
from .plan import ShardPlan

#: Bumped when the journal line format changes incompatibly.
JOURNAL_VERSION = 1


@dataclass
class UnitRecord:
    """One completed unit: its result plus captured observability.

    ``metrics``, ``spans`` and ``events`` are what
    :func:`repro.exec.runtime.captured` collected while the unit ran
    (``events`` are the ones no span caught); they stay empty when the
    unit ran uncaptured.

    ``failure`` is set only for *quarantined* units (the unit exhausted
    its bounded retries under a quarantine-enabled supervision policy):
    the result is ``None`` and ``failure`` carries the unit's label,
    failure class, attempt count, and error text — the structured
    partial-result record that lands in the run manifest.
    """

    index: int
    result: Any
    metrics: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    failure: dict[str, Any] | None = None


def plan_fingerprint(plan: ShardPlan) -> str:
    """A stable identity for a plan's shape (not its argument values).

    Covers the unit count, every label, and every unit function's
    ``module.qualname`` — enough to catch resuming the wrong experiment
    or a plan whose enumeration changed size or order.
    """
    identity = [
        [unit.index, unit.describe(), f"{unit.fn.__module__}.{unit.fn.__qualname__}"]
        for unit in plan.units
    ]
    blob = json.dumps(identity, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class CheckpointJournal:
    """Append-only unit journal for one ``execute`` call."""

    def __init__(self, path: str, plan_fp: str, total: int) -> None:
        self.path = path
        self.plan_fp = plan_fp
        self.total = total
        self.units_written = 0
        self.bytes_written = 0
        #: Set when a write failure degraded the journal to a pure
        #: in-memory bank (the engine keeps completing units; only
        #: crash-resume durability is lost for the rest of the call).
        self.degraded_by: JournalWriteError | None = None
        self._valid_bytes = 0
        self._handle = None

    # ------------------------------------------------------------------
    # Resume side
    # ------------------------------------------------------------------

    def load_resume(self) -> dict[int, UnitRecord]:
        """Read completed units from an existing journal, if any.

        A missing file is an empty resume (fresh start).  A truncated
        final line — the ``kill -9`` signature — is discarded; any
        other malformed content raises
        :class:`~repro.errors.CheckpointError`.
        """
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if not raw:
            return {}
        lines = raw.split(b"\n")
        # A complete journal ends with a newline, so the final split
        # element is empty; anything else is a torn tail from a crash.
        body, tail = lines[:-1], (lines[-1] or None)
        self._valid_bytes = len(raw) - (len(tail) if tail else 0)
        records: dict[int, UnitRecord] = {}
        header_seen = False
        for position, line in enumerate(body):
            if not line:
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise CheckpointError(
                    f"{self.path}: corrupt journal line {position + 1}: "
                    f"{error}"
                ) from error
            if not header_seen:
                self._check_header(doc)
                header_seen = True
                continue
            records[int(doc["index"])] = self._decode_unit(doc, position)
        if not header_seen:
            # Nothing usable: a torn header (the crash landed mid-first
            # -write), or a file of blank lines.  Either way there is
            # nothing to resume — the caller starts fresh.
            self._valid_bytes = 0
            return {}
        return records

    def _check_header(self, doc: dict[str, Any]) -> None:
        if doc.get("kind") != "header":
            raise CheckpointError(
                f"{self.path}: first journal line is not a header"
            )
        if doc.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path}: journal version {doc.get('version')!r}, "
                f"expected {JOURNAL_VERSION}"
            )
        if doc.get("plan") != self.plan_fp or doc.get("units") != self.total:
            raise CheckpointError(
                f"{self.path}: journal belongs to a different plan "
                f"(plan {doc.get('plan')!r} with {doc.get('units')!r} "
                f"unit(s); this run has {self.total})"
            )

    def _decode_unit(self, doc: dict[str, Any], position: int) -> UnitRecord:
        if doc.get("kind") != "unit":
            raise CheckpointError(
                f"{self.path}: unexpected journal record kind "
                f"{doc.get('kind')!r} at line {position + 1}"
            )
        index = int(doc["index"])
        if not 0 <= index < self.total:
            raise CheckpointError(
                f"{self.path}: journal unit index {index} out of range "
                f"for a {self.total}-unit plan"
            )
        try:
            payload = pickle.loads(base64.b64decode(doc["blob"]))
        except Exception as error:
            raise CheckpointError(
                f"{self.path}: cannot decode journal unit {index}: {error}"
            ) from error
        return UnitRecord(
            index=index,
            result=payload["result"],
            metrics=payload["metrics"],
            spans=payload["spans"],
            events=payload.get("events", []),
            failure=payload.get("failure"),
        )

    # ------------------------------------------------------------------
    # Append side
    # ------------------------------------------------------------------

    def start(self, fresh: bool) -> None:
        """Open the journal for appending.

        ``fresh`` truncates and writes a new header (a non-resume run,
        or a resume that found nothing usable); otherwise the file is
        first cut back to its last *valid* byte — discarding a torn
        tail line from a crash — and records append after that.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if fresh or not os.path.exists(self.path):
            self._handle = open(self.path, "wb")
            self._write_line(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "plan": self.plan_fp,
                    "units": self.total,
                }
            )
            return
        self._handle = open(self.path, "r+b")
        self._handle.truncate(self._valid_bytes)
        self._handle.seek(0, os.SEEK_END)

    def append(self, record: UnitRecord) -> None:
        """Durably append one completed unit.

        Raises :class:`~repro.errors.JournalWriteError` when the OS
        write fails (ENOSPC, I/O error) — the engine's cue to
        :meth:`degrade` the journal and keep the campaign going from
        an in-memory bank.
        """
        if self.degraded_by is not None:
            return
        if self._handle is None:
            raise CheckpointError(
                f"{self.path}: journal not started before append"
            )
        payload = {
            "result": record.result,
            "metrics": record.metrics,
            "spans": record.spans,
            "events": record.events,
            "failure": record.failure,
        }
        blob = base64.b64encode(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        self._write_line({"kind": "unit", "index": record.index, "blob": blob})
        self.units_written += 1

    def _write_line(self, doc: dict[str, Any]) -> None:
        line = (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")
        assert self._handle is not None
        try:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as error:
            raise JournalWriteError(self.path, error) from error
        self.bytes_written += len(line)

    def degrade(self, error: JournalWriteError) -> None:
        """Abandon the on-disk journal after a write failure.

        Subsequent :meth:`append` calls become no-ops; the engine banks
        records in memory instead.  The broken handle is closed
        best-effort (the close itself may fail on a sick filesystem).
        """
        self.degraded_by = error
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                # The filesystem is already failing; nothing is lost —
                # the journal is abandoned either way.
                self.degraded_by = error

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
