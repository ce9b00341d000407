"""The one wall-clock source.

Wall-clock time is the one observability input that is *not*
deterministic, so it is quarantined here: spans read it to time each
step, their durations land in manifests under ``wall_s`` keys, and
:meth:`~repro.obs.manifest.RunManifest.fingerprint` drops those keys
when comparing runs — so traced runs stay byte-equivalent across
``--jobs``.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic wall-clock reading, in seconds.

    The one sanctioned clock source: everything outside this module
    (spans, exec shard accounting) takes its wall-clock readings from
    here, so the RL001 determinism lint can quarantine ``time`` imports
    to this file.
    """
    return time.perf_counter()
