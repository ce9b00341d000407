"""Manufacture-time fields shared between copies of one cell array.

A memory array's process variation (per-cell DRV, restore thresholds,
wake probabilities, DRAM anti-cell layout and retention multipliers) is
drawn once, when the array is built, and never written again: every
kernel in :mod:`repro.circuits.engine` returns a fresh array, and the
only later change — aging — rebinds the field to a new one.  Those
fields are marked read-only, so a copy of the array can share them
instead of copying megabytes of ``float16``; only the electrical state
(the bit image, DRAM charge levels, the RNG stream, scalar supply
state) is per-copy.

This is what makes :func:`repro.exec.runtime.booted_board` cheap: one
booted board is built per process and every work unit receives a deep
copy of it that is indistinguishable from a fresh build.
"""

from __future__ import annotations

import copy
from typing import Any, ClassVar

import numpy as np


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it."""
    array.flags.writeable = False
    return array


class ManufacturedArray:
    """Mixin: deep copies share the fields named in ``MANUFACTURED``.

    Subclasses list their manufacture-time attributes and pass each one
    through :func:`read_only` when it is bound, so an in-place write
    to a shared field raises ``ValueError`` instead of silently leaking
    into every copy.
    """

    #: Attribute names of the read-only, copy-shared fields.
    MANUFACTURED: ClassVar[tuple[str, ...]] = ()

    def __deepcopy__(self, memo: dict[int, Any]) -> "ManufacturedArray":
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in vars(self).items():
            if name not in self.MANUFACTURED:
                value = copy.deepcopy(value, memo)
            setattr(clone, name, value)
        return clone
