"""Physical memory map: address decoding over heterogeneous backends.

The simulated CPU and the debug interfaces address one flat physical
space; this module routes each access to the region that owns it — main
DRAM or iRAM.  Regions, caches and the map itself all expose one
``read_block``/``write_block`` port (:class:`MemoryPort`), so a cache's
backing store can simply be the memory map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import MemoryMapError
from ..circuits.dram import DramArray


class MemoryPort(Protocol):
    """Anything addressable by physical address: a region, a cache, the map."""

    def read_block(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at absolute address ``addr``."""

    def write_block(self, addr: int, data: bytes) -> None:
        """Write ``data`` at absolute address ``addr``."""


class AddressWindow:
    """A port mapped at ``[base_addr, base_addr + size_bytes)``."""

    name: str
    base_addr: int
    size_bytes: int

    def _offset(self, addr: int, size: int) -> int:
        """Offset of ``[addr, addr + size)``, which must lie in the window."""
        end = self.base_addr + self.size_bytes
        if not (self.base_addr <= addr and addr + size <= end):
            raise MemoryMapError(
                f"{self.name}: [{addr:#x}, {addr + size:#x}) outside "
                f"[{self.base_addr:#x}, {end:#x})"
            )
        return addr - self.base_addr


class MainMemory(AddressWindow):
    """DRAM module exposed as a memory-mapped port."""

    name = "dram"

    def __init__(self, dram: DramArray, base_addr: int = 0) -> None:
        self.dram = dram
        self.base_addr = base_addr
        self.size_bytes = dram.n_bytes

    def read_block(self, addr: int, size: int) -> bytes:
        """Read from DRAM at an absolute physical address."""
        return self.dram.read_bytes(self._offset(addr, size), size)

    def write_block(self, addr: int, data: bytes) -> None:
        """Write to DRAM at an absolute physical address."""
        self.dram.write_bytes(self._offset(addr, len(data)), data)


@dataclass(frozen=True)
class Region:
    """One entry in the memory map."""

    name: str
    base_addr: int
    size_bytes: int
    port: MemoryPort

    @property
    def end_addr(self) -> int:
        """One past the last address of the region."""
        return self.base_addr + self.size_bytes


class MemoryMap:
    """Flat physical address decoder."""

    def __init__(self) -> None:
        self._regions: list[Region] = []

    def add_region(
        self, name: str, base_addr: int, size_bytes: int, port: MemoryPort
    ) -> Region:
        """Map ``port`` at ``[base_addr, base_addr + size)``, no overlaps."""
        if size_bytes <= 0:
            raise MemoryMapError(f"{name}: region size must be positive")
        new = Region(name, base_addr, size_bytes, port)
        for existing in self._regions:
            if new.base_addr < existing.end_addr and existing.base_addr < new.end_addr:
                raise MemoryMapError(
                    f"{name} overlaps {existing.name} at {base_addr:#x}"
                )
        self._regions.append(new)
        self._regions.sort(key=lambda r: r.base_addr)
        return new

    def region_for(self, addr: int, size: int = 1) -> Region:
        """Find the region containing ``[addr, addr + size)``."""
        for region in self._regions:
            if region.base_addr <= addr and addr + size <= region.end_addr:
                return region
        raise MemoryMapError(f"no region maps [{addr:#x}, {addr + size:#x})")

    def read_block(self, addr: int, size: int) -> bytes:
        """Read through the map (access must not straddle regions)."""
        return self.region_for(addr, size).port.read_block(addr, size)

    def write_block(self, addr: int, data: bytes) -> None:
        """Write through the map (access must not straddle regions)."""
        self.region_for(addr, len(data)).port.write_block(addr, data)
