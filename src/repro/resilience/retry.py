"""Retry policies for the resilient attack driver.

Related glitching work (Bittner et al., Mitard et al.) reports needing
hundreds of imperfect trials per successful extraction; the policy
object is the contract for how those trials are paced and when the
driver gives up and degrades to a partial report.

Backoff is **simulated bench-settle time** (probe re-seating, supply
recovery), not wall-clock sleeping: the driver records it in the
attempt log and metrics, and advances the board's simulated clock.
Nothing here reads the wall clock or draws ambient randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ResilienceError
from ..units import millivolts


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and adaptive re-search.

    ``max_attempts`` bounds full attack attempts (fresh board, fresh
    probe landing).  ``reads_per_extraction`` is the majority-vote
    width per successful power cycle (odd values avoid tie bits).
    After an attempt that lost cells in the disconnect surge, the next
    attempt's probe set-point is raised by ``setpoint_step_v`` (capped
    at ``max_setpoint_boost_v``) — the adaptive re-search of the hold
    voltage.  A recovery is accepted when the surge was clean and at
    least ``min_confident_fraction`` of the voted bits reach
    ``confidence_threshold`` agreement.
    """

    max_attempts: int = 4
    reads_per_extraction: int = 5
    base_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 8.0
    setpoint_step_v: float = millivolts(15)
    max_setpoint_boost_v: float = millivolts(60)
    confidence_threshold: float = 0.8
    min_confident_fraction: float = 0.995

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if self.reads_per_extraction < 1:
            raise ResilienceError("reads_per_extraction must be >= 1")
        if self.base_backoff_s < 0.0 or self.max_backoff_s < 0.0:
            raise ResilienceError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ResilienceError("backoff multiplier must be >= 1.0")
        if self.setpoint_step_v < 0.0 or self.max_setpoint_boost_v < 0.0:
            raise ResilienceError("set-point search steps cannot be negative")
        if not 0.5 <= self.confidence_threshold <= 1.0:
            raise ResilienceError(
                "confidence threshold must be in [0.5, 1.0]"
            )
        if not 0.0 <= self.min_confident_fraction <= 1.0:
            raise ResilienceError(
                "min confident fraction must be in [0.0, 1.0]"
            )

    def backoff_s(self, failures: int) -> float:
        """Settle time before the attempt after ``failures`` failures.

        Bounded exponential: ``base * multiplier**(failures-1)``,
        clamped to ``max_backoff_s``.  ``failures`` counts completed
        failed attempts and must be >= 1.
        """
        if failures < 1:
            raise ResilienceError("backoff is defined after >= 1 failure")
        raw = self.base_backoff_s * self.backoff_multiplier ** (failures - 1)
        return min(raw, self.max_backoff_s)

    def setpoint_boost_v(self, lossy_failures: int) -> float:
        """Adaptive hold-voltage boost after surge-lossy attempts."""
        if lossy_failures < 0:
            raise ResilienceError("lossy failure count cannot be negative")
        return min(
            self.setpoint_step_v * lossy_failures, self.max_setpoint_boost_v
        )

    @classmethod
    def single_shot(cls) -> "RetryPolicy":
        """The naive baseline: one attempt, one read, accept anything.

        ``min_confident_fraction=0`` makes the lone read's outcome the
        final answer — what every pre-resilience experiment implicitly
        did.
        """
        return cls(
            max_attempts=1,
            reads_per_extraction=1,
            min_confident_fraction=0.0,
        )
