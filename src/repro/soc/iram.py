"""On-chip iRAM (OCRAM) — directly addressable internal SRAM.

Multimedia and microcontroller-class SoCs carry tens to hundreds of
kilobytes of internal RAM used for boot firmware scratch space, DMA
buffers, and — in schemes like Sentry — as cold-boot-safe working memory.
The i.MX53's 128 KB iRAM lives in the L1 memory power domain (rail
VDDAL1), *separate from the CPU core rail* (VCCGP), which is exactly what
lets the paper hold it alive while the core reboots (§7.3).
"""

from __future__ import annotations

import numpy as np

from ..circuits.sram import SramArray, SramParameters
from .memory_map import AddressWindow


class Iram(AddressWindow):
    """Memory-mapped internal SRAM."""

    def __init__(
        self,
        name: str,
        base_addr: int,
        size_bytes: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
    ) -> None:
        self.name = name
        self.base_addr = base_addr
        self.size_bytes = size_bytes
        self.sram = SramArray(size_bytes * 8, sram_params, rng, name=f"{name}.sram")

    def read_block(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at absolute address ``addr``."""
        return self.sram.read_bytes(self._offset(addr, size), size)

    def write_block(self, addr: int, data: bytes) -> None:
        """Write ``data`` at absolute address ``addr``."""
        self.sram.write_bytes(self._offset(addr, len(data)), data)

    def image(self) -> bytes:
        """Full iRAM contents."""
        return self.sram.read_bytes()
