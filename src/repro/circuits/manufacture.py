"""Manufacture-time fields, and board snapshots that share them.

A memory array's process variation (per-cell DRV, restore thresholds,
wake probabilities, DRAM anti-cell layout and retention multipliers) is
drawn once, when the array is built, and never written again: every
kernel in :mod:`repro.circuits.engine` returns a fresh array, and the
only later change — aging — rebinds the field to a new one.  (An SRAM
array defers all of its draws until something reads its cells, and
even then keeps only the stream state of its DRV and restore-threshold
draws until a result reads those fields; each replays the same draw.
A DRAM array draws the anti-cell flags of each page of a ground-state
image when that page is first read or written, the whole layout only
when every page is needed, and its retention field only when something
reads the outcome of a restore that cannot be decided without it.)
Those fields are marked read-only, so copies of the array can share
them instead of copying megabytes of ``float16``; only the electrical
state (the bit image, DRAM's start charge level and owed decays, the
RNG stream, scalar supply state) is per-copy.

A :class:`Snapshot` is the one way to copy a board.  It materializes
every array (so copies share its fields instead of each drawing its
own) and pickles the board once, sharing exactly the fields each array
names in ``MANUFACTURED`` and freezing the board's other arrays as the
source of every copy, and every :meth:`Snapshot.restore` unpickles a
private copy that is indistinguishable from a fresh build.  This is
what makes :func:`repro.exec.runtime.booted_board` cheap: one booted
board is built and snapshotted per process, and every work unit
receives a restored copy.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, ClassVar

import numpy as np

from ..rng import from_state


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it."""
    array.flags.writeable = False
    return array


def pack_cells(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 cells eight to a byte, cell ``8k + i`` into bit ``i``."""
    return np.packbits(bits, bitorder="little")


def unpack_cells(cells: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_cells`: one ``uint8`` 0/1 per cell."""
    return np.unpackbits(cells, bitorder="little")


class ManufacturedArray:
    """Base of cell arrays whose copies share ``MANUFACTURED`` fields.

    Subclasses list their manufacture-time attributes and pass each one
    through :func:`read_only` when it is bound, so an in-place write
    to a shared field raises ``ValueError`` instead of silently leaking
    into every copy a :class:`Snapshot` restores.  A field may be built
    on first need (a :func:`functools.cached_property` of the same
    name); a copy then shares it if it was built before the snapshot,
    and builds its own, equal one otherwise.
    """

    #: Attribute names of the read-only, copy-shared fields.
    MANUFACTURED: ClassVar[tuple[str, ...]] = ()

    def materialize(self) -> None:
        """Take any draws the array deferred; a no-op unless overridden."""


class _SnapshotPickler(pickle.Pickler):
    """Pickles an object graph for :class:`Snapshot`.

    Each :class:`ManufacturedArray` is materialized when the pickler
    meets it; each array named in its ``MANUFACTURED`` is then noted in
    ``shared`` and saved as a persistent reference into that list; a
    field built on first need that is not built yet is absent from the
    object's ``__dict__`` and is neither shared nor built.  Every other
    array is noted in ``arrays`` and its data goes out of band to
    ``buffers``.  Generators are saved as their ``bit_generator.state``
    and rebuilt by :func:`repro.rng.from_state`.
    """

    def __init__(self, file: io.BytesIO) -> None:
        self.shared: list[np.ndarray] = []
        self.arrays: list[np.ndarray] = []
        self.buffers: list[pickle.PickleBuffer] = []
        self._shared_ids: dict[int, int] = {}
        super().__init__(file, protocol=5, buffer_callback=self.buffers.append)

    def persistent_id(self, obj: Any) -> int | None:
        return self._shared_ids.get(id(obj))

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, ManufacturedArray):
            obj.materialize()
            for name in obj.MANUFACTURED:
                field = vars(obj).get(name)
                if field is not None and id(field) not in self._shared_ids:
                    self._shared_ids[id(field)] = len(self.shared)
                    self.shared.append(field)
        elif isinstance(obj, np.random.Generator):
            return from_state, (obj.bit_generator.state,)
        elif isinstance(obj, np.ndarray):
            self.arrays.append(obj)
        return NotImplemented


class Snapshot:
    """A frozen object graph that restores private copies of itself.

    Taking the snapshot pickles ``obj`` once and takes over its arrays:
    every array outside ``MANUFACTURED`` is marked read-only and kept
    as the source each restore copies, so the snapshot holds no second
    copy of ``obj``'s state, and a later write through ``obj`` raises
    ``ValueError`` instead of reaching the snapshot.  Everything else
    is in the pickle.  :meth:`restore` returns a new graph that shares
    the ``MANUFACTURED`` fields by identity and holds a private,
    writable copy of everything else — arrays, RNG streams, plain
    attributes.
    """

    def __init__(self, obj: Any) -> None:
        stream = io.BytesIO()
        pickler = _SnapshotPickler(stream)
        pickler.dump(obj)
        for array in pickler.arrays:
            array.flags.writeable = False
        self._blob = stream.getvalue()
        self._shared = pickler.shared
        self._buffers = pickler.buffers

    def restore(self) -> Any:
        """A private copy of the snapshotted graph."""
        unpickler = pickle.Unpickler(
            io.BytesIO(self._blob),
            buffers=[bytearray(buffer) for buffer in self._buffers],
        )
        unpickler.persistent_load = self._shared.__getitem__
        return unpickler.load()
