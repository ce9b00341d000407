"""Deterministic parallel experiment execution.

The scaling substrate for the benchmark suite: experiments enumerate
their independent work units (sweep grid points, trials, per-device
runs) into a :class:`ShardPlan`, and :func:`execute` fans the shards
out over a process pool — with the hard guarantee that ``jobs=N``
produces **byte-identical** results to ``jobs=1``.

The guarantee rests on three rules, enforced by this package's API:

1. unit enumeration, arguments, and RNG streams are fixed at
   plan-build time in the parent (``ShardPlan.with_spawned_streams``
   draws per-unit streams via :func:`repro.rng.spawn` in unit order);
2. units are pure functions of their arguments — no shared mutable
   state, no ambient entropy (the RL001 lint holds the entropy line;
   the project-wide RL007 shard-race lint walks the call graph from
   every unit — syntactically discovered or marked with
   :func:`shard_unit` — and flags shared-state writes);
3. results merge by unit index, never by completion order.

See ``docs/determinism.md`` for the full contract and
``docs/architecture.md`` for how the layer fits the system.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "..errors": (
        "CampaignInterrupted", "CheckpointError", "ExecError", "ShardError",
    ),
    ".engine": ("execute",),
    ".journal": ("CheckpointJournal", "UnitRecord", "plan_fingerprint"),
    ".plan": ("CHUNKS_PER_JOB", "ShardPlan", "WorkUnit", "shard_unit"),
    ".runtime": (
        "CheckpointPolicy", "Incident", "SupervisionPolicy", "booted_board",
        "checkpoint_policy", "checkpointing", "clear_incidents", "incidents",
        "supervised", "supervision_policy",
    ),
})
