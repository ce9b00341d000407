"""Bit-error metrics over extracted memory images.

The paper reports its results as Hamming-distance statistics: Table 1's
~50 % cold boot errors, the ~0.10 fractional HD between power-up states,
Figure 10's 512-bit-granularity error profile over the iRAM.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


#: Set bits in each byte value: XOR plus this table counts packed bits
#: (``np.bitwise_count`` needs numpy 2.0).
_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1, dtype=np.uint8)


def _as_bytes(data: bytes) -> np.ndarray:
    return np.frombuffer(bytes(data), dtype=np.uint8)


def _as_bits(data: bytes | np.ndarray) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data.astype(np.uint8) & 1
    return np.unpackbits(_as_bytes(data), bitorder="little")


def _check_sizes(n_a: int, n_b: int) -> None:
    if n_a != n_b:
        raise ReproError(f"image sizes differ: {n_a} vs {n_b} bits")


def _compare(
    a: bytes | np.ndarray, b: bytes | np.ndarray
) -> tuple[int, int]:
    """The number of differing bits between two equal-length images,
    and the images' length in bits.

    Two byte images are compared packed; an array of 0/1 cells on
    either side is compared cell by cell.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        bits_a, bits_b = _as_bits(a), _as_bits(b)
        _check_sizes(len(bits_a), len(bits_b))
        return int(np.count_nonzero(bits_a != bits_b)), len(bits_a)
    bytes_a, bytes_b = _as_bytes(a), _as_bytes(b)
    _check_sizes(8 * len(bytes_a), 8 * len(bytes_b))
    differing = int(_POPCOUNT[bytes_a ^ bytes_b].sum(dtype=np.int64))
    return differing, 8 * len(bytes_a)


def fractional_hamming_distance(
    a: bytes | np.ndarray, b: bytes | np.ndarray
) -> float:
    """Hamming distance normalised to [0, 1]."""
    differing, n_bits = _compare(a, b)
    if n_bits == 0:
        raise ReproError("cannot compare empty images")
    return differing / n_bits


def bit_error_percent(
    reference: bytes | np.ndarray, observed: bytes | np.ndarray
) -> float:
    """Error percentage the way the paper's Table 1 quotes it."""
    return 100.0 * fractional_hamming_distance(reference, observed)


def block_hamming_profile(
    reference: bytes | np.ndarray,
    observed: bytes | np.ndarray,
    block_bits: int = 512,
) -> np.ndarray:
    """Per-block Hamming distances (Figure 10's 512-bit granularity).

    Returns an integer array with one entry per ``block_bits`` chunk;
    a trailing partial block is counted as its own entry.
    """
    if block_bits <= 0:
        raise ReproError("block size must be positive")
    bits_a, bits_b = _as_bits(reference), _as_bits(observed)
    if len(bits_a) != len(bits_b):
        raise ReproError("image sizes differ")
    diff = (bits_a != bits_b).astype(np.int64)
    n_blocks = (diff.size + block_bits - 1) // block_bits
    padded = np.zeros(n_blocks * block_bits, dtype=np.int64)
    padded[: diff.size] = diff
    return padded.reshape(n_blocks, block_bits).sum(axis=1)
