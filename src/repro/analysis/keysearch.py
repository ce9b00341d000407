"""AES key-schedule search over extracted memory images.

The original cold boot work located AES keys in DRAM dumps by scanning
for regions whose layout is consistent with an AES key expansion, then
correcting bit errors against the expansion's redundancy.  The Volt Boot
paper notes this search becomes *trivial* for its attack because images
come back error-free (§5.1) — but also notes that for noisy SRAM images
the bistable-cell property makes correction harder than on DRAM (§9.2),
because decayed cells don't collapse toward a known ground state.

:func:`search_aes128_schedules` supports both regimes: with
``max_fraction_errors=0`` it is an exact scan; with a tolerance it scores
each candidate window by the Hamming distance between the observed bytes
and the schedule recomputed from the window's first 16 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.aes import schedule_bytes
from ..errors import ReproError
from .hamming import fractional_hamming_distance

#: Bytes in a full AES-128 schedule (11 round keys × 16 bytes).
AES128_SCHEDULE_BYTES = 176


@dataclass(frozen=True)
class KeyScheduleHit:
    """One candidate AES-128 key found in a memory image."""

    offset: int
    key: bytes
    fraction_errors: float


def search_aes128_schedules(
    image: bytes,
    alignment: int = 4,
    max_fraction_errors: float = 0.0,
    quick_reject_bytes: int = 32,
) -> list[KeyScheduleHit]:
    """Scan ``image`` for AES-128 key schedules.

    For every ``alignment``-aligned offset, the first 16 bytes of the
    window are treated as a candidate key; the full 176-byte expansion is
    recomputed and compared against the observed window.  Windows within
    ``max_fraction_errors`` (fractional Hamming distance) are reported,
    best first.

    ``quick_reject_bytes`` controls a cheap pre-filter: the second round
    key is recomputed first and candidates whose initial bytes diverge
    wildly are skipped before paying for the full expansion.  Exact
    searches (tolerance 0) use pure byte comparison and are fast.
    """
    if alignment <= 0:
        raise ReproError("alignment must be positive")
    if not 0.0 <= max_fraction_errors < 0.5:
        raise ReproError("error tolerance must be in [0, 0.5)")
    hits: list[KeyScheduleHit] = []
    limit = len(image) - AES128_SCHEDULE_BYTES
    for offset in range(0, max(limit + 1, 0), alignment):
        window = image[offset : offset + AES128_SCHEDULE_BYTES]
        key = window[:16]
        expected = schedule_bytes(key)
        if max_fraction_errors <= 0.0:
            if window == expected:
                hits.append(KeyScheduleHit(offset, key, 0.0))
            continue
        # Quick reject on the first bytes after the key itself.
        head = slice(16, 16 + quick_reject_bytes)
        head_err = fractional_hamming_distance(window[head], expected[head])
        if head_err > max_fraction_errors * 3:
            continue
        errors = fractional_hamming_distance(window, expected)
        if errors <= max_fraction_errors:
            hits.append(KeyScheduleHit(offset, key, errors))
    hits.sort(key=lambda hit: (hit.fraction_errors, hit.offset))
    return hits


def recover_key_from_registers(register_values: list[bytes]) -> KeyScheduleHit | None:
    """Recover an AES-128 key parked TRESOR-style in 128-bit registers.

    Scans consecutive 16-byte register values for a run consistent with
    a key expansion (the first register of the run is the key itself).
    """
    for start in range(0, len(register_values)):
        candidate = register_values[start]
        if len(candidate) != 16:
            raise ReproError("register values must be 16 bytes")
        expected = schedule_bytes(candidate)
        observed = b"".join(
            register_values[start : start + AES128_SCHEDULE_BYTES // 16]
        )
        if len(observed) == AES128_SCHEDULE_BYTES and observed == expected:
            return KeyScheduleHit(start, candidate, 0.0)
    return None
