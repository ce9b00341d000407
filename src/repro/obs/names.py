"""The span/event/metric name taxonomy.

Every name the simulator emits through :data:`repro.obs.OBS` is declared
here, so that trace consumers, the CLI trace tests, and the RL005 lint
rule all agree on one vocabulary.  Adding an instrumentation
point means adding its name here first — a literal that is not in the
taxonomy fails ``repro-lint``.

Names are dotted, lowercase, hyphenated within a segment
(``attack.power-cycle``).  Dynamic families (one span per experiment,
one event per power-event kind) are admitted by prefix.
"""

from __future__ import annotations

#: Attack-step spans, in paper §6.1 order (plus the cold boot baseline).
ATTACK_SPANS: tuple[str, ...] = (
    "attack.voltboot",
    "attack.coldboot",
    "attack.identify",
    "attack.attach",
    "attack.power-cycle",
    "attack.chill",
    "attack.reboot",
    "attack.extract",
)

#: Parallel-execution spans (``repro.exec``): the outer engine run and
#: the per-shard unit batches (attributes carry shard index and jobs).
EXEC_SPANS: tuple[str, ...] = (
    "exec.run",
    "exec.shard",
)

#: Fault-injection spans (``repro.glitch``): one per glitch attempt
#: (attributes carry pulse offset/width/depth and the outcome).
GLITCH_SPANS: tuple[str, ...] = (
    "glitch.attempt",
)

#: Resilient-driver spans (``repro.resilience``): the whole recovery
#: (attributes carry the policy and outcome) and each bounded attempt.
RESILIENCE_SPANS: tuple[str, ...] = (
    "resilience.recover",
    "resilience.attempt",
)

#: Every statically-named span the simulator may open.
SPAN_NAMES: frozenset[str] = frozenset(
    ATTACK_SPANS + EXEC_SPANS + GLITCH_SPANS + RESILIENCE_SPANS
)

#: Span families named dynamically (``experiment.<name>``, ...).
SPAN_PREFIXES: tuple[str, ...] = ("experiment.",)

#: Statically-named point-in-time trace events.
EVENT_NAMES: frozenset[str] = frozenset(
    {"bootrom.scratchpad", "glitch.brownout-reset"}
)

#: Event families named dynamically (``power.<event-kind>``,
#: ``exec.<engine-event>`` — fallback/retry/hang/checkpoint notices,
#: ``resilience.<driver-event>`` — retry/backoff/degraded notices).
EVENT_PREFIXES: tuple[str, ...] = ("power.", "exec.", "resilience.")

#: Every statically-named counter/gauge/histogram.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # SRAM cell physics.
        "sram.tau_s",
        "sram.retained_fraction",
        "sram.cells_decayed",
        "sram.cells_below_drv",
        # DRAM cell physics.
        "dram.tau_s",
        "dram.retained_fraction",
        "dram.cells_decayed",
        # Cache activity.
        "cache.evictions",
        "cache.line_fills",
        "cache.lines_zeroed",
        # Boot ROM clobbering.
        "bootrom.bytes_clobbered",
        # Power timeline and domain state.
        "power.events",
        "power.cells_lost_surge",
        "power.cells_lost_dvfs",
        "power.domain.voltage_v",
        "power.domain.surge_floor_v",
        "power.domain.droop_depth_v",
        "power.domain.retained_fraction",
        # Parallel execution engine.
        "exec.units",
        "exec.shards",
        "exec.jobs",
        "exec.retries",
        "exec.fallbacks",
        "exec.shard_wall_s",
        # Supervised runtime: per-class failure accounting (labelled
        # failure_class=<repro.errors.FAILURE_CLASSES>) and poison-unit
        # quarantine.
        "exec.failures",
        "exec.quarantined_units",
        # Checkpoint/resume journal.
        "exec.checkpointed_units",
        "exec.resumed_units",
        "exec.journal_bytes",
        "exec.journal_failures",
        # Imperfect-rig instrumentation noise.
        "rig.bit_flips",
        "rig.bits_read",
        "rig.contact_resistance_ohm",
        "rig.setpoint_error_v",
        # Resilient attack driver.
        "resilience.attempts",
        "resilience.retries",
        "resilience.reads",
        "resilience.backoff_s",
        "resilience.setpoint_boost_v",
        "resilience.recovered_fraction",
        "resilience.confident_fraction",
        "resilience.mean_confidence",
        "resilience.degraded",
        # Voltage-glitch fault injection.
        "glitch.attempts",
        "glitch.faults",
        "glitch.outcomes",
        "glitch.min_rail_v",
    }
)


def _known(name: str, names: frozenset[str], prefixes: tuple[str, ...]) -> bool:
    return name in names or any(name.startswith(p) for p in prefixes)


def is_known_span(name: str) -> bool:
    """Whether ``name`` is a declared span name or span-family prefix."""
    return _known(name, SPAN_NAMES, SPAN_PREFIXES)


def is_known_event(name: str) -> bool:
    """Whether ``name`` is a declared event name or event-family prefix."""
    return _known(name, EVENT_NAMES, EVENT_PREFIXES)


def is_known_metric(name: str) -> bool:
    """Whether ``name`` is a declared metric name (no metric family is
    named dynamically)."""
    return name in METRIC_NAMES
