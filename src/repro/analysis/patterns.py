"""Byte-pattern scans over raw memory images.

Table 4's accounting rule: an array element counts as extracted only
when its *entire* 8-byte value appears in the dumped cache image.  These
helpers implement that scan plus the repeated-byte line counts used by
the Figure 8 narrative ("the d-cache contains the expected pattern").
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ReproError


def find_all(haystack: bytes, needle: bytes) -> list[int]:
    """All (possibly overlapping) offsets of ``needle`` in ``haystack``."""
    if not needle:
        raise ReproError("empty needle")
    offsets = []
    position = haystack.find(needle)
    while position >= 0:
        offsets.append(position)
        position = haystack.find(needle, position + 1)
    return offsets


def find_aligned(haystack: bytes, needle: bytes, alignment: int) -> list[int]:
    """Offsets of ``needle`` that fall on ``alignment``-byte boundaries."""
    if alignment <= 0:
        raise ReproError("alignment must be positive")
    return [o for o in find_all(haystack, needle) if o % alignment == 0]


def elements_present(
    image: bytes, elements: Sequence[bytes], alignment: int = 8
) -> set[int]:
    """Indices of ``elements`` whose full value appears in ``image``.

    This is Table 4's per-way scan.  The alignment constraint mirrors
    the natural placement of 8-byte stores inside cache lines.  Equal to
    testing each element with :func:`find_aligned`, but the image is
    cut once per distinct element length into its aligned windows, and
    each element is then one set lookup.
    """
    if alignment <= 0:
        raise ReproError("alignment must be positive")
    image = bytes(image)
    windows: dict[int, set[bytes]] = {}
    present: set[int] = set()
    for index, element in enumerate(elements):
        if not element:
            raise ReproError("empty needle")
        size = len(element)
        if size not in windows:
            windows[size] = {
                image[start : start + size]
                for start in range(0, len(image) - size + 1, alignment)
            }
        if bytes(element) in windows[size]:
            present.add(index)
    return present


def count_pattern_lines(image: bytes, pattern: int, line_bytes: int = 64) -> int:
    """Count whole cache lines filled with one repeated byte value."""
    if not 0 <= pattern <= 0xFF:
        raise ReproError("pattern must be a byte value")
    needle = bytes([pattern]) * line_bytes
    count = 0
    for start in range(0, len(image) - line_bytes + 1, line_bytes):
        if image[start : start + line_bytes] == needle:
            count += 1
    return count
