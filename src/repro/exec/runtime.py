"""Process-global runtime policies for :func:`repro.exec.execute`.

Checkpointing and supervision are *operational* concerns — the CLI
(or a test harness) decides them, not the experiment code.
Experiments call ``execute(plan, jobs=jobs)`` exactly as before; when
policies are installed here, every ``execute`` call transparently
picks them up:

* a :class:`CheckpointPolicy` journals completed units under a
  directory and, on ``resume``, completes only the missing ones;
* a :class:`SupervisionPolicy` tunes the supervised worker pool
  (heartbeat hang detection and poison-unit quarantine).

Each ``execute`` call in a run claims the next journal path in a
deterministic sequence (``journal-000.jsonl``, ``journal-001.jsonl``,
…), so an experiment that executes several plans (e.g. a sweep plus a
baseline) checkpoints each independently, and a resumed process —
which replays the same ``execute`` calls in the same order — pairs
every call back up with its own journal.

This module is also the engine's **incident ledger**: quarantined
units and journal degradations are recorded here so the manifest
layer can attach a structured partial-result section and the CLI can
honour its ``EXIT_DEGRADED`` exit-code contract, and it keeps the
per-process **booted-board snapshot** that :func:`booted_board` hands
units copies of.  (This module and the ``repro.obs.OBS`` singleton are
the only whitelisted holders of cross-unit process state — see the
RL007 lint rule.)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..circuits.manufacture import Snapshot
from ..errors import ExecError
from ..obs import OBS, MetricsRegistry, Tracer


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where journals live and whether to resume from them."""

    directory: str
    resume: bool = False

    def __post_init__(self) -> None:
        if not self.directory:
            raise ExecError("checkpoint policy needs a directory")


_policy: CheckpointPolicy | None = None
_claims: int = 0


def checkpoint_policy() -> CheckpointPolicy | None:
    """The installed policy, if any."""
    return _policy


def claim_journal_path() -> str:
    """The next ``execute`` call's journal path (creates the dir)."""
    global _claims
    if _policy is None:
        raise ExecError("no checkpoint policy installed")
    os.makedirs(_policy.directory, exist_ok=True)
    path = os.path.join(_policy.directory, f"journal-{_claims:03d}.jsonl")
    _claims += 1
    return path


@contextmanager
def checkpointing(directory: str, resume: bool = False) -> Iterator[None]:
    """Install a checkpoint policy for a block, restoring the old one.

    Entering and leaving the block each restart the journal sequence.
    """
    global _policy, _claims
    previous = _policy
    _policy, _claims = CheckpointPolicy(directory, resume=resume), 0
    try:
        yield
    finally:
        _policy, _claims = previous, 0


# ----------------------------------------------------------------------
# Supervision policy (heartbeats, quarantine)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervised pool polices its workers.

    ``hang_timeout_s`` is how long a worker may go without a heartbeat
    tick (one per completed unit) before it is killed and its shard
    re-attempted.  ``quarantine``
    turns exhausted-retry failures into per-unit quarantine records
    instead of a fatal :class:`~repro.errors.ShardError`.
    """

    hang_timeout_s: float = 120.0
    quarantine: bool = False

    def __post_init__(self) -> None:
        if self.hang_timeout_s <= 0.0:
            raise ExecError("hang_timeout_s must be positive")


#: The default when nothing is installed: supervision on, quarantine off.
DEFAULT_SUPERVISION = SupervisionPolicy()

_supervision: SupervisionPolicy | None = None


def supervision_policy() -> SupervisionPolicy:
    """The installed policy, or :data:`DEFAULT_SUPERVISION`."""
    return _supervision if _supervision is not None else DEFAULT_SUPERVISION


@contextmanager
def supervised(policy: SupervisionPolicy) -> Iterator[None]:
    """Install a supervision policy for a block, restoring the old one."""
    global _supervision
    previous, _supervision = _supervision, policy
    try:
        yield
    finally:
        _supervision = previous


# ----------------------------------------------------------------------
# Unit execution
# ----------------------------------------------------------------------


def run_unit(unit: Any) -> Any:
    """The single unit-execution choke point.

    The engine's one worker function runs every unit through here —
    in-process, on a pool worker, or on a re-attempt — and calls it
    through this module, so a profiler that wraps this one function
    sees each execution exactly once however the unit was dispatched.
    """
    return unit.run()


# ----------------------------------------------------------------------
# Observability capture and booted-board templates
# ----------------------------------------------------------------------


@dataclass
class Capture:
    """What :func:`captured` collected.

    ``metrics`` is a registry dump and ``spans`` the finished span
    records.  ``events`` holds the events emitted while no span was
    open, as ``{"name": ..., "attributes": {...}}`` dicts, so the
    caller can re-emit them on its own tracer.
    """

    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)


class _LooseEvents:
    """Trace sink keeping only the events no open span caught."""

    def __init__(self, events: list[dict[str, Any]]) -> None:
        self.events = events

    def write(self, record: dict[str, Any]) -> None:
        if record["type"] == "event" and record["span"] is None:
            self.events.append(
                {"name": record["name"], "attributes": record["attributes"]}
            )


@contextmanager
def captured() -> Iterator[Capture]:
    """Run a block against a private, enabled registry and tracer.

    The live registry/tracer are swapped out for the block (never
    reset: the caller keeps its open trace writer and collected state)
    and restored after it; the yielded :class:`Capture` is filled in on
    exit, whether the block raised or not.
    """
    capture = Capture()
    saved = OBS.enabled, OBS.metrics, OBS.tracer
    tracer = Tracer(sink=_LooseEvents(capture.events))
    OBS.metrics, OBS.tracer, OBS.enabled = MetricsRegistry(), tracer, True
    try:
        yield capture
    finally:
        capture.metrics = OBS.metrics.dump()
        capture.spans = [span.to_record() for span in OBS.tracer.finished]
        OBS.enabled, OBS.metrics, OBS.tracer = saved


#: The one cached post-boot board: ``(key, snapshot, build metrics dump)``.
_template: tuple[tuple[Any, ...], Snapshot, dict[str, Any]] | None = None


def booted_board(builder: Callable[..., Any], seed: int, media: Any) -> Any:
    """A private copy of ``builder(seed=seed)`` booted from ``media``.

    The board is built, booted and snapshotted
    (:class:`~repro.circuits.manufacture.Snapshot`) once per process,
    keyed on ``(builder, seed, media)`` (a new key replaces it); only
    the snapshot is kept, holding the board's arrays frozen.  Every
    call restores a copy from the snapshot, which shares the arrays'
    read-only manufacture fields and copies everything else, RNG
    streams included — so a copy is indistinguishable from a fresh
    build and a unit's result cannot depend on which units ran before
    it.  The build's metrics are captured privately and merged into the
    live registry on every call, so each unit records exactly what
    building its own board would have recorded.
    """
    global _template
    key = (builder, seed, media)
    if _template is None or _template[0] != key:
        with captured() as build:
            board = builder(seed=seed)
            board.boot(media)
        _template = (key, Snapshot(board), build.metrics)
    _, snapshot, metrics = _template
    if OBS.enabled:
        OBS.metrics.merge(metrics)
    return snapshot.restore()


# ----------------------------------------------------------------------
# Incident ledger (quarantine + journal degradation)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Incident:
    """One survivable runtime incident the run completed *around*.

    ``kind`` is ``"quarantined-unit"`` or ``"journal-degraded"``;
    ``failure_class`` is the :data:`repro.errors.FAILURE_CLASSES`
    entry; ``detail`` carries kind-specific fields (unit index/label,
    journal path, attempt counts).
    """

    kind: str
    failure_class: str
    detail: dict[str, Any]


_incidents: list[Incident] = []


def note_incident(incident: Incident) -> None:
    """Append one incident to the ledger."""
    _incidents.append(incident)


def incidents() -> tuple[Incident, ...]:
    """Every incident recorded since the last :func:`clear_incidents`."""
    return tuple(_incidents)


def clear_incidents() -> None:
    """Reset the ledger (the CLI does this per invocation)."""
    _incidents.clear()
