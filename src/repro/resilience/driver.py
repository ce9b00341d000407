"""The resilient attack driver: bounded retries over a flaky bench.

Wraps the §6.1 Volt Boot pipeline for the bench the paper actually ran
on: supplies that miss their set-point, probes whose contact resistance
changes per landing, and debug reads that flip bits.  Each **attempt**
lands the probe on a *fresh* victim board (a failed power cycle destroys
the retained secret — the paper's answer is simply another trial),
applies the :class:`~repro.resilience.rig.RigNoiseProfile`'s realised
imperfections, and — when the domain rides the surge — dumps the target
memory ``reads_per_extraction`` times for per-bit majority voting.

Failure handling follows :class:`~repro.resilience.retry.RetryPolicy`:
bounded exponential backoff (simulated bench-settle time, never a wall
clock), and an adaptive re-search that raises the probe set-point after
a surge-lossy attempt.  The driver **never raises** for rig flakiness —
when every attempt fails it degrades gracefully to a partial
:class:`RecoveryReport` carrying the best-effort image and its per-bit
confidence map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.extraction import attacker_context, extract_iram, extract_l1_images
from ..core.probe import plan_probe
from ..core.voltboot import DEFAULT_OFF_TIME_S, VoltBootAttack
from ..errors import ReproError, ResilienceError
from ..obs import OBS
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from ..soc.jtag import JtagProbe
from .retry import RetryPolicy
from .rig import IDEAL_RIG, RigNoiseProfile, RigStreams
from .vote import VoteResult, majority_vote

#: Targets the driver knows how to multi-read.  ``registers`` is not
#: here: the vector-file read path has no modelled noise source, so the
#: plain :class:`~repro.core.voltboot.VoltBootAttack` already suffices.
SUPPORTED_TARGETS = ("l1-caches", "iram")


@dataclass
class AttemptRecord:
    """What one bounded attempt did and how it ended."""

    index: int
    setpoint_v: float
    setpoint_boost_v: float
    contact_resistance_ohm: float
    backoff_before_s: float
    reads: int = 0
    cells_lost_in_surge: int = 0
    confident_fraction: float = 0.0
    accepted: bool = False
    failure: str | None = None


@dataclass
class RecoveryReport:
    """The driver's graceful-degradation output.

    Always returned — ``degraded`` distinguishes a run where some
    attempt met the policy's acceptance bar from a best-effort partial
    result after exhausting ``max_attempts``.  ``image`` is ``None``
    only when *no* attempt produced a single readable dump.
    """

    target: str
    policy: RetryPolicy
    rig_name: str
    image: bytes | None = None
    vote: VoteResult | None = None
    degraded: bool = True
    attempts: list[AttemptRecord] = field(default_factory=list)
    total_backoff_s: float = 0.0

    @property
    def succeeded(self) -> bool:
        """Whether some attempt met the policy's acceptance bar."""
        return not self.degraded and self.image is not None

    @property
    def confidence(self) -> np.ndarray | None:
        """Per-bit agreement map of the reported image (if any)."""
        return self.vote.confidence if self.vote is not None else None

    @property
    def confident_fraction(self) -> float:
        """Fraction of bits at or above the policy's confidence bar."""
        if self.vote is None:
            return 0.0
        return self.vote.confident_fraction(self.policy.confidence_threshold)

    @property
    def mean_confidence(self) -> float:
        """Mean per-bit agreement of the reported image (0.0 if none)."""
        return self.vote.mean_confidence if self.vote is not None else 0.0

    def headline(self) -> dict[str, object]:
        """Manifest-ready summary of the recovery."""
        return {
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "attempts": len(self.attempts),
            "confident_fraction": round(self.confident_fraction, 6),
            "mean_confidence": round(self.mean_confidence, 6),
            "total_backoff_s": self.total_backoff_s,
            "rig": self.rig_name,
        }


class ResilientVoltBoot:
    """Retry/vote/degrade wrapper around the Volt Boot pipeline.

    ``board_factory`` must return a **fresh, prepared victim** each call
    (booted, secret planted): the driver consumes one board per attempt,
    mirroring the repeated physical trials of the paper's bench work.
    ``rng`` is the driver's root stream; per-attempt noise streams are
    spawned from it in a fixed order, so a recovery is byte-reproducible
    and independent of how earlier attempts ended.
    """

    def __init__(
        self,
        board_factory: Callable[[], Board],
        target: str = "l1-caches",
        policy: RetryPolicy | None = None,
        rig: RigNoiseProfile = IDEAL_RIG,
        rng: np.random.Generator | None = None,
        boot_media: BootMedia | None = None,
        off_time_s: float = DEFAULT_OFF_TIME_S,
    ) -> None:
        if target not in SUPPORTED_TARGETS:
            raise ResilienceError(
                f"resilient driver has no multi-read path for "
                f"{target!r}; supported: {', '.join(SUPPORTED_TARGETS)}"
            )
        if not rig.is_ideal and rng is None:
            raise ResilienceError(
                f"rig profile {rig.name!r} is noisy; pass a seeded rng "
                f"(see repro.rng.generator)"
            )
        self.board_factory = board_factory
        self.target = target
        self.policy = policy or RetryPolicy()
        self.rig = rig
        self.rng = rng
        self.boot_media = boot_media
        self.off_time_s = off_time_s

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------

    def _read_target(
        self, board: Board, streams: RigStreams | None
    ) -> list[bytes]:
        """Dump the target ``reads_per_extraction`` times.

        Reads are non-destructive (the extraction stubs never enable
        the caches and JTAG reads don't disturb the array), so each
        repeat sees the same retained image under fresh read noise.
        """
        reads: list[bytes] = []
        if self.target == "l1-caches":
            noise = (
                self.rig.cp15_noise(streams) if streams is not None else None
            )
            for core in board.soc.cores:
                core.cp15.set_read_noise(noise)
            ctx = attacker_context(board)
            skip_secure = board.soc.config.trustzone_enforced
            for _ in range(self.policy.reads_per_extraction):
                images = extract_l1_images(
                    board, ctx, skip_secure=skip_secure, icache=True
                )
                reads.append(images.everything())
        else:  # iram
            noise = (
                self.rig.jtag_noise(streams) if streams is not None else None
            )
            probe = JtagProbe(
                board.soc.memory_map,
                enabled=board.soc.config.jtag_enabled,
                read_noise=noise,
            )
            for _ in range(self.policy.reads_per_extraction):
                reads.append(extract_iram(board, probe))
        return reads

    def _attempt(
        self, record: AttemptRecord
    ) -> tuple[VoteResult | None, int]:
        """Run one full trial on a fresh board; returns (vote, lost)."""
        streams = None
        if self.rng is not None:
            # Spawned unconditionally (fixed count per attempt) so the
            # stream layout never depends on how prior attempts ended.
            streams = self.rig.streams(self.rng)
        board = self.board_factory()
        plan = plan_probe(board, self.target)
        nominal_v = plan.set_voltage_v + record.setpoint_boost_v
        realised_v = nominal_v
        contact_ohm = 0.0
        if streams is not None:
            realised_v = self.rig.supply.sample_setpoint_v(
                nominal_v, streams.supply, hold_s=self.off_time_s
            )
            contact_ohm = self.rig.contact.sample_resistance_ohm(
                streams.contact
            )
        record.setpoint_v = realised_v
        record.contact_resistance_ohm = contact_ohm
        if OBS.enabled:
            OBS.gauge_set("rig.setpoint_error_v", realised_v - nominal_v)
            OBS.gauge_set("rig.contact_resistance_ohm", contact_ohm)
        attack = VoltBootAttack(
            board,
            target=self.target,
            supply=plan.recommended_supply(
                set_voltage_v=realised_v,
                contact_resistance_ohm=contact_ohm,
            ),
            boot_media=self.boot_media,
            off_time_s=self.off_time_s,
        )
        attack.plan = plan
        try:
            attack.attach()
            lost = attack.power_cycle()
            attack.reboot()
            reads = self._read_target(board, streams)
        finally:
            attack.cleanup()
        record.reads = len(reads)
        if OBS.enabled:
            OBS.counter_inc("resilience.reads", len(reads))
        return majority_vote(reads), lost

    # ------------------------------------------------------------------
    # The bounded-retry loop
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Run up to ``max_attempts`` trials; always return a report."""
        policy = self.policy
        report = RecoveryReport(
            target=self.target, policy=policy, rig_name=self.rig.name
        )
        best_vote: VoteResult | None = None
        best_key = (-1, -1.0)  # (surge_clean, confident_fraction)
        failures = 0
        lossy_failures = 0
        with OBS.span(
            "resilience.recover",
            target=self.target,
            rig=self.rig.name,
            max_attempts=policy.max_attempts,
            reads_per_extraction=policy.reads_per_extraction,
        ) as span:
            for index in range(1, policy.max_attempts + 1):
                backoff = 0.0
                if failures:
                    backoff = policy.backoff_s(failures)
                    report.total_backoff_s += backoff
                    if OBS.enabled:
                        OBS.histogram_record("resilience.backoff_s", backoff)
                        OBS.event(
                            "resilience.retry",
                            attempt=index,
                            backoff_s=backoff,
                        )
                        OBS.counter_inc("resilience.retries")
                boost = policy.setpoint_boost_v(lossy_failures)
                record = AttemptRecord(
                    index=index,
                    setpoint_v=0.0,
                    setpoint_boost_v=boost,
                    contact_resistance_ohm=0.0,
                    backoff_before_s=backoff,
                )
                report.attempts.append(record)
                if OBS.enabled:
                    OBS.counter_inc("resilience.attempts")
                    OBS.gauge_set("resilience.setpoint_boost_v", boost)
                with OBS.span(
                    "resilience.attempt", attempt=index, boost_v=boost
                ) as attempt_span:
                    try:
                        vote, lost = self._attempt(record)
                    except ResilienceError:
                        raise  # driver misuse, not rig flakiness
                    except ReproError as exc:
                        record.failure = f"{type(exc).__name__}: {exc}"
                        attempt_span.set_attribute("failure", record.failure)
                        failures += 1
                        continue
                    record.cells_lost_in_surge = lost
                    record.confident_fraction = vote.confident_fraction(
                        policy.confidence_threshold
                    )
                    surge_clean = lost == 0
                    key = (int(surge_clean), record.confident_fraction)
                    if key > best_key:
                        best_key = key
                        best_vote = vote
                    attempt_span.set_attributes(
                        cells_lost_in_surge=lost,
                        confident_fraction=record.confident_fraction,
                    )
                    if (
                        surge_clean
                        and record.confident_fraction
                        >= policy.min_confident_fraction
                    ):
                        record.accepted = True
                        report.degraded = False
                        break
                    record.failure = (
                        f"surge lost {lost} cell(s)"
                        if not surge_clean
                        else "vote confidence below policy bar"
                    )
                    failures += 1
                    if not surge_clean:
                        lossy_failures += 1
            if best_vote is not None:
                report.vote = best_vote
                report.image = best_vote.decoded
            if OBS.enabled:
                OBS.gauge_set(
                    "resilience.confident_fraction",
                    report.confident_fraction,
                )
                OBS.gauge_set(
                    "resilience.mean_confidence", report.mean_confidence
                )
                if report.degraded:
                    OBS.counter_inc("resilience.degraded")
                    OBS.event(
                        "resilience.degraded",
                        target=self.target,
                        attempts=len(report.attempts),
                        confident_fraction=report.confident_fraction,
                    )
            span.set_attributes(
                succeeded=report.succeeded,
                degraded=report.degraded,
                attempts=len(report.attempts),
                confident_fraction=report.confident_fraction,
            )
        return report
