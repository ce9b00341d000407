"""Victim process models.

Two fidelity levels:

* :class:`InterpretedProcess` runs real machine code on the
  :class:`~repro.cpu.core.Core` interpreter — used when instruction-
  stream realism matters (Figure 8's i-cache contents).
* :class:`ArrayFillProcess` replays the paper's Table 4 microbenchmark
  as a direct d-cache access stream — behaviourally identical to the
  compiled C loop (sequential 8-byte element writes + read-backs) but
  fast enough for the 48-experiment sweep.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..cpu.core import Core
from ..cpu.programs import element_value
from ..errors import CpuFault
from ..soc.memory_map import MemoryMap
from ..soc.soc import CoreUnit


class Process(ABC):
    """A schedulable unit of victim work pinned to one core."""

    def __init__(self, name: str, core_index: int) -> None:
        self.name = name
        self.core_index = core_index
        self.finished = False

    @abstractmethod
    def quantum(self, unit: CoreUnit, memory_map: MemoryMap) -> None:
        """Run one scheduler quantum on ``unit``."""


#: Instructions an interpreted process retires per scheduler quantum.
STEPS_PER_QUANTUM = 256


class InterpretedProcess(Process):
    """A process executing real machine code through the interpreter."""

    def __init__(
        self, name: str, core_index: int, machine_code: bytes, load_addr: int
    ) -> None:
        super().__init__(name, core_index)
        self.machine_code = machine_code
        self.load_addr = load_addr
        self._core: Core | None = None

    def quantum(self, unit: CoreUnit, memory_map: MemoryMap) -> None:
        """Execute up to :data:`STEPS_PER_QUANTUM` instructions."""
        if self.finished:
            return
        if self._core is None:
            self._core = Core(unit, memory_map)
            self._core.load_program(self.machine_code, self.load_addr)
        for _ in range(STEPS_PER_QUANTUM):
            if self._core.halted:
                self.finished = True
                return
            self._core.step()


class ArrayFillProcess(Process):
    """The Table 4 microbenchmark: unique 8-byte elements streamed in a loop.

    Element ``i`` carries :func:`repro.cpu.programs.element_value`\\ (i),
    written at ``base_addr + 8*i`` and immediately read back, pass after
    pass — the load/store mix of the paper's C loop.
    """

    def __init__(
        self,
        name: str,
        core_index: int,
        base_addr: int,
        n_elements: int,
        passes: int = 2,
        elements_per_quantum: int = 64,
    ) -> None:
        super().__init__(name, core_index)
        if n_elements <= 0 or passes <= 0:
            raise CpuFault("element and pass counts must be positive")
        self.base_addr = base_addr
        self.n_elements = n_elements
        self.passes = passes
        self.elements_per_quantum = elements_per_quantum
        self._payload = b"".join(
            self.element_bytes(index) for index in range(n_elements)
        )
        self._cursor = 0
        self._pass = 0

    @property
    def array_bytes(self) -> int:
        """Total array footprint in bytes."""
        return self.n_elements * 8

    def element_bytes(self, index: int) -> bytes:
        """The unique on-disk form of one element."""
        return element_value(index).to_bytes(8, "little")

    def quantum(self, unit: CoreUnit, memory_map: MemoryMap) -> None:
        """Write+read the next chunk of elements through the d-cache.

        Consecutive elements inside one cache line go out as one write
        and one read-back.  Nothing else touches the cache inside a
        quantum, so the line fills, victims, write-backs and per-set LRU
        order equal those of a write+read per element; an element that
        straddles a line boundary is sent on its own.
        """
        if self.finished:
            return
        cache = unit.l1d
        line_bytes = cache.geometry.line_bytes
        budget = self.elements_per_quantum
        while budget > 0:
            addr = self.base_addr + self._cursor * 8
            run = min(
                max(1, (line_bytes - addr % line_bytes) // 8),
                budget,
                self.n_elements - self._cursor,
            )
            start = self._cursor * 8
            cache.write(addr, self._payload[start : start + run * 8])
            cache.read(addr, run * 8)
            budget -= run
            self._cursor += run
            if self._cursor >= self.n_elements:
                self._cursor = 0
                self._pass += 1
                if self._pass >= self.passes:
                    self.finished = True
                    return
