"""Deterministic random-number plumbing.

Every stochastic element of the simulation (process variation, power-up
fingerprints, kernel noise, trial repetition) draws from a
:class:`numpy.random.Generator` derived from a named seed, so that a whole
board — and a whole experiment — is reproducible from a single integer.

Seeds are derived by hashing a root seed with a string *purpose* label.
This keeps independent subsystems statistically independent while remaining
stable across runs and insertion order.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

#: Root seed used by device builders when the caller does not supply one.
DEFAULT_SEED = 0x5EC12E7


def derive_seed(root: int, *labels: str) -> int:
    """Derive a 63-bit child seed from ``root`` and a label path.

    The derivation is a SHA-256 over the root and labels, so children are
    independent of each other and insensitive to call ordering.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root)).encode("ascii"))
    for label in labels:
        digest.update(b"/")
        digest.update(label.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def generator(root: int, *labels: str) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` for ``root`` + label path."""
    return np.random.default_rng(derive_seed(root, *labels))


def from_entropy(entropy: int | tuple[int, ...]) -> np.random.Generator:
    """Build a generator from an explicit entropy value.

    The sanctioned wrapper for call sites whose seed is already a
    deterministic quantity (a session key, a ``(seed, counter)`` pair):
    the stream is exactly ``np.random.default_rng(entropy)``, but RNG
    construction stays greppable and inside this module, which is what
    the RL001 determinism lint enforces.
    """
    return np.random.default_rng(entropy)


@functools.cache
def _restore_words(n_words: int, dtype: np.dtype) -> np.ndarray:
    words = np.random.SeedSequence(0).generate_state(n_words, dtype)
    words.flags.writeable = False
    return words


@functools.cache
def _restore_seed() -> np.random.bit_generator.ISeedSequence:
    """Seeds the throwaway initial state of a restored bit generator
    (every :func:`from_state` call overwrites it at once) with words
    generated once, so a restore hashes no seed.  Built on first use:
    defining it imports :mod:`numpy.random`, which nothing else needs
    at import time."""

    class RestoreSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(
            self, n_words: int, dtype: type = np.uint32
        ) -> np.ndarray:
            return _restore_words(n_words, np.dtype(dtype))

        def __reduce__(self) -> tuple:
            return _restore_seed, ()

    return RestoreSeed()


def from_state(state: dict) -> np.random.Generator:
    """Build a generator positioned exactly at ``state``.

    ``state`` is a ``bit_generator.state`` dict, buffered half-words
    included, so the new generator's draws continue the original's.
    Board snapshots (:mod:`repro.circuits.manufacture`) restore their
    streams through here: seeding from fixed words and assigning the
    state costs a fraction of ``copy.deepcopy`` or a pickle round trip
    of the generator.
    """
    bit_generator = getattr(np.random, state["bit_generator"])(_restore_seed())
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def spawn(parent: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``parent``'s stream.

    Draws one 63-bit integer from the parent, so repeated spawns are
    decorrelated yet fully determined by the parent's seed and position.
    """
    return np.random.default_rng(int(parent.integers(0, 2**63)))


class SeedSequenceFactory:
    """Hands out named, reproducible generators below one root seed.

    A board holds one factory; every SRAM array, DRAM array, and noise
    source asks it for a generator by name.  Asking twice for the same name
    yields *fresh* generators with the same stream, which is what trial
    repetition wants — pass a distinct ``trial`` label to decorrelate runs.
    """

    def __init__(self, root: int = DEFAULT_SEED) -> None:
        self._root = int(root)

    @property
    def root(self) -> int:
        """The root seed this factory derives from."""
        return self._root

    def seed(self, *labels: str) -> int:
        """Derive the child seed for a label path."""
        return derive_seed(self._root, *labels)

    def generator(self, *labels: str) -> np.random.Generator:
        """Derive a generator for a label path."""
        return generator(self._root, *labels)

    def child(self, *labels: str) -> "SeedSequenceFactory":
        """Derive a sub-factory rooted at the given label path."""
        return SeedSequenceFactory(self.seed(*labels))
