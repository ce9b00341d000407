"""Kernel interference: the error source of paper §7.1.2.

Two realistic mechanisms disturb the victim's working set on a Linux
system, and both are needed to reproduce the structure of Table 4:

* **Fill noise** — interrupt handlers, daemons, and the kernel itself
  pull their own lines through the L1, evicting (and overwriting) the
  LRU way of random sets.  This is what loses ~9 % of a cache-sized
  array.
* **DMA maintenance noise** — ARM boards with non-coherent DMA make the
  kernel clean/invalidate buffer lines by VA around device transfers.
  Invalidation drops the valid bit but leaves the data RAM payload; when
  the victim later rewrites the element, the refill can land in the
  *other* way, leaving the same element physically present in both ways
  — the "element can be in both ways" duplication the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..soc.soc import CoreUnit


#: Where the kernel's own working set sits in the address space.
KERNEL_BASE = 0x60000
KERNEL_SPAN = 0x10000


@dataclass(frozen=True)
class NoiseProfile:
    """Intensity of kernel interference per victim quantum.

    ``fill_lines`` / ``maintenance_lines`` are Poisson means for the two
    mechanisms.
    """

    fill_lines: float = 1.0
    maintenance_lines: float = 0.25

    def __post_init__(self) -> None:
        if self.fill_lines < 0 or self.maintenance_lines < 0:
            raise CalibrationError("noise rates cannot be negative")


#: Background load of a mostly-idle Raspberry Pi OS (the paper's setup).
IDLE_LINUX = NoiseProfile(fill_lines=1.0, maintenance_lines=0.25)


class KernelNoise:
    """Injects kernel interference into one core's d-cache."""

    def __init__(
        self,
        profile: NoiseProfile,
        rng: np.random.Generator,
        victim_base: int,
        victim_span: int,
    ) -> None:
        self.profile = profile
        self._rng = rng
        self._victim_base = victim_base
        self._victim_span = max(victim_span, 64)
        self.fills_done = 0
        self.maintenance_done = 0

    def _random_kernel_addr(self) -> int:
        offset = int(self._rng.integers(0, KERNEL_SPAN // 64)) * 64
        return KERNEL_BASE + offset

    def _random_victim_addr(self) -> int:
        offset = int(self._rng.integers(0, self._victim_span // 64)) * 64
        return self._victim_base + offset

    def interfere(self, unit: CoreUnit) -> None:
        """Run one quantum's worth of kernel activity on ``unit``."""
        if not unit.l1d.enabled:
            return
        n_fills = int(self._rng.poisson(self.profile.fill_lines))
        for _ in range(n_fills):
            unit.l1d.read(self._random_kernel_addr(), 8)
            self.fills_done += 1
        n_maintenance = int(self._rng.poisson(self.profile.maintenance_lines))
        for _ in range(n_maintenance):
            # DMA buffers share the victim's address neighbourhood; the
            # maintenance sweep occasionally catches victim lines.
            unit.l1d.clean_invalidate_line(self._random_victim_addr())
            self.maintenance_done += 1
