"""Per-bit majority voting over repeated noisy extractions.

The debug reads of an imperfect rig flip bits independently per read
(:mod:`repro.soc.readnoise`), so ``k`` repeated dumps of the *same*
retained image disagree only where a read erred.  Per-bit majority
voting then recovers the image wherever fewer than ``ceil(k/2)`` of the
reads were wrong at that bit, and the vote margin doubles as a per-bit
confidence map.

Two properties the tests pin down (and that make the resilient driver's
"vote of k reads is never worse than one read" claim precise):

* **Bounded-corruption exactness** — if every bit is wrong in fewer
  than ``ceil(k/2)`` of the reads, the vote equals the true image
  exactly, whereas a single read is wrong wherever it erred.
* **Error amortisation** — the voted image's Hamming distance to the
  truth is at most ``total_read_errors / ceil(k/2)``: each voted-wrong
  bit needs at least ``ceil(k/2)`` read errors to flip it.

Ties (possible only for even ``k``) decode as the bit value ``0`` and
carry confidence ``0.5`` — which is why policies default to odd widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..circuits.engine import ENGINE
from ..errors import ResilienceError


@dataclass
class VoteResult:
    """The decoded image plus its per-bit vote margins."""

    #: Majority-decoded bytes (same length as every input read).
    decoded: bytes
    #: Per-bit agreement fraction in ``[0.5, 1.0]``, little-endian bit
    #: order within each byte (``np.unpackbits(..., bitorder="little")``).
    confidence: np.ndarray
    #: How many reads were voted.
    reads: int

    @property
    def mean_confidence(self) -> float:
        """Average per-bit agreement (1.0 when every read agreed)."""
        if self.confidence.size == 0:
            return 1.0
        return float(self.confidence.mean())

    def confident_fraction(self, threshold: float) -> float:
        """Fraction of bits whose agreement reaches ``threshold``."""
        if self.confidence.size == 0:
            return 1.0
        return float(np.count_nonzero(self.confidence >= threshold)) / float(
            self.confidence.size
        )


def majority_vote(reads: Sequence[bytes]) -> VoteResult:
    """Decode ``reads`` (equal-length dumps of one image) bit-by-bit.

    Parameters
    ----------
    reads:
        ``k >= 1`` byte strings of equal length — repeated dumps of the
        same retained image.  Bits are voted little-endian within each
        byte (the array accessors' order); the counting core is the
        engine's ``vote_counts`` kernel.

    Returns
    -------
    VoteResult
        The majority-decoded bytes, the per-bit agreement fractions in
        ``[0.5, 1.0]``, and ``k``.

    Raises
    ------
    ResilienceError
        On an empty read list or length-mismatched reads — both
        indicate a driver bug, not rig noise, and must not be silently
        papered over.
    """
    if not reads:
        raise ResilienceError("majority vote needs at least one read")
    length = len(reads[0])
    for index, read in enumerate(reads):
        if len(read) != length:
            raise ResilienceError(
                f"read {index} is {len(read)} byte(s), expected {length}; "
                f"votes must cover the same image"
            )
    k = len(reads)
    if length == 0:
        return VoteResult(
            decoded=b"", confidence=np.zeros(0, dtype=np.float64), reads=k
        )
    if k == 1:
        # A single read is its own decode; every bit is unanimous.
        return VoteResult(
            decoded=bytes(reads[0]),
            confidence=np.ones(length * 8, dtype=np.float64),
            reads=1,
        )
    ones = ENGINE.vote_counts(list(reads), length)
    majority = (2 * ones > k).astype(np.uint8)
    decoded = np.packbits(majority, bitorder="little").tobytes()
    agree = np.maximum(ones, k - ones).astype(np.float64) / float(k)
    return VoteResult(decoded=decoded, confidence=agree, reads=k)
