"""Boot ROM behaviour: scratchpad clobbering and authenticated boot.

Two boot-time behaviours decide how much retained SRAM an attacker can
actually read back (paper §6.2):

* **Scratchpad clobbering.** Boot ROMs that bring up DRAM controllers use
  part of the iRAM as scratch space *before* any external code or debug
  connection runs.  On the i.MX53 this wipes the region around
  ``0xF800083C``–``0xF80018CC`` plus a tail block — ~5 % of the iRAM —
  and is the sole error source in the paper's Figure 10.
* **Authenticated boot.**  Devices that fuse an OEM image hash refuse to
  boot attacker-supplied media, removing the attacker's post-reboot
  readout capability entirely (§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AuthenticatedBootError, BootError
from ..obs import OBS
from .iram import Iram


@dataclass(frozen=True)
class ClobberRegion:
    """A byte range of on-chip RAM the boot ROM uses as scratch space."""

    start: int
    end: int  # exclusive

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise BootError(f"empty clobber region [{self.start:#x}, {self.end:#x})")

    @property
    def size(self) -> int:
        """Region size in bytes."""
        return self.end - self.start


@dataclass(frozen=True)
class BootMedia:
    """A bootable image on external media (USB mass storage, SD card)."""

    name: str
    signature: str = "unsigned"
    kernel: str = "extractor"


@dataclass
class BootRom:
    """Mask ROM boot behaviour of one SoC.

    Parameters
    ----------
    name:
        ROM identity for reports.
    scratchpad_regions:
        iRAM byte ranges (relative to iRAM base) clobbered before any
        external code runs.
    internal_boot:
        True when the SoC boots entirely from ROM (i.MX53-style) and
        external media is optional; False when boot requires media.
    auth_fused:
        When True, only media whose ``signature`` equals
        ``expected_signature`` boots.
    """

    name: str
    scratchpad_regions: list[ClobberRegion] = field(default_factory=list)
    internal_boot: bool = False
    auth_fused: bool = False
    expected_signature: str = "oem-signed"

    def check_media(self, media: BootMedia | None) -> None:
        """Validate boot media against the SoC's boot policy."""
        if media is None:
            if not self.internal_boot:
                raise BootError(f"{self.name}: no boot media and no internal ROM boot")
            return
        if self.auth_fused and media.signature != self.expected_signature:
            raise AuthenticatedBootError(
                f"{self.name}: media {media.name!r} signature "
                f"{media.signature!r} rejected by boot fuses"
            )

    def run_scratchpad(self, iram: Iram | None, rng: np.random.Generator) -> int:
        """Execute the ROM's pre-boot phase, clobbering iRAM scratch space.

        The clobber data is ROM working state (stack frames, DDR training
        buffers), modelled as pseudo-random bytes.  Returns the number of
        bytes clobbered.
        """
        if iram is None or not self.scratchpad_regions:
            return 0
        clobbered = 0
        for region in self.scratchpad_regions:
            if region.end > iram.size_bytes:
                raise BootError(
                    f"{self.name}: clobber region [{region.start:#x}, "
                    f"{region.end:#x}) exceeds iRAM of {iram.size_bytes:#x} bytes"
                )
            junk = rng.integers(0, 256, region.size, dtype=np.uint8).tobytes()
            iram.write_block(iram.base_addr + region.start, junk)
            clobbered += region.size
        if OBS.enabled and clobbered:
            OBS.counter_inc(
                "bootrom.bytes_clobbered", clobbered, rom=self.name
            )
            OBS.event(
                "bootrom.scratchpad",
                rom=self.name,
                bytes_clobbered=clobbered,
                regions=len(self.scratchpad_regions),
            )
        return clobbered
