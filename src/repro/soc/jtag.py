"""JTAG debug probe access.

The i.MX53 boots from internal ROM with no external firmware, so the
paper extracts its iRAM directly over JTAG (§6.1 step 3, §7.3).  The
model exposes block reads/writes over the SoC's physical memory map,
gated on the debug port not being fused off.
"""

from __future__ import annotations

from ..errors import AccessViolation
from .memory_map import MemoryMap
from .readnoise import BitErrorModel


class JtagProbe:
    """A debug adapter wired to the SoC's DAP.

    ``read_noise`` arms the imperfect-adapter model: every block read
    passes through a :class:`~repro.soc.readnoise.BitErrorModel`, so a
    marginal adapter occasionally returns flipped bits (writes are
    verified on real adapters and stay exact).
    """

    def __init__(
        self,
        memory_map: MemoryMap,
        enabled: bool = True,
        read_noise: BitErrorModel | None = None,
    ) -> None:
        self._map = memory_map
        self._enabled = enabled
        self.read_noise = read_noise

    @property
    def enabled(self) -> bool:
        """Whether the debug port is usable (not fused off)."""
        return self._enabled

    def _check(self) -> None:
        if not self._enabled:
            raise AccessViolation("JTAG port is fused off")

    def read_block(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of physical memory through the DAP.

        With a ``read_noise`` model armed, the returned bytes carry the
        adapter's per-bit read errors; the memory itself is untouched.
        """
        self._check()
        data = self._map.read_block(addr, size)
        if self.read_noise is not None:
            data = self.read_noise.corrupt(data)
        return data

    def write_block(self, addr: int, data: bytes) -> None:
        """Write physical memory through the DAP."""
        self._check()
        self._map.write_block(addr, data)
