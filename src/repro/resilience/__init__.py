"""Flaky-rig hardening: noise profiles, retry policies, voting, driver.

The simulator's physics was, until this package, executed on a perfect
bench.  ``repro.resilience`` models the *imperfect* bench the paper's
attack actually ran on and provides the machinery to succeed on it
anyway:

* :mod:`~repro.resilience.rig` — seeded noise profiles covering supply
  set-point error/drift, probe contact-resistance jitter, and per-bit
  JTAG/CP15 read errors;
* :mod:`~repro.resilience.retry` — bounded-backoff retry policies with
  adaptive set-point re-search;
* :mod:`~repro.resilience.vote` — per-bit majority voting with a
  confidence map;
* :mod:`~repro.resilience.driver` — the resilient attack driver that
  retries, votes, and degrades gracefully to a partial report.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".driver": (
        "AttemptRecord", "RecoveryReport", "ResilientVoltBoot",
        "SUPPORTED_TARGETS",
    ),
    ".retry": ("RetryPolicy",),
    ".rig": (
        "DEFAULT_NOISY_RIG", "IDEAL_RIG", "RigNoiseProfile", "RigStreams",
    ),
    ".vote": ("VoteResult", "majority_vote"),
})
