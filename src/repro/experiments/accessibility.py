"""§6.2 — how much memory is accessible to an attacker?

The CPU and co-processors consume some embedded SRAM during boot before
an attacker's code can run.  The paper measures what survives:

* Broadcom L1 caches are software-enabled — boot never touches them, so
  100 % of the L1 image is available;
* the Broadcom L2 is shared with the VideoCore, whose boot firmware
  clobbers it completely — 0 % available;
* the i.MX53 boot ROM uses part of the iRAM as scratchpad — ~95 %
  available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.hamming import fractional_hamming_distance
from ..core.voltboot import VoltBootAttack
from ..devices import imx53_qsb, raspberry_pi_4
from ..devices.builders import IMX53_IRAM_BASE, IMX53_IRAM_SIZE
from ..rng import DEFAULT_SEED, from_entropy
from ..soc.jtag import JtagProbe
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, fill_dcache, snapshot_l1d
from .common import manifested


@dataclass
class AccessibilityRow:
    """Availability of one memory type on one device."""

    device: str
    memory: str
    available_fraction: float
    clobbered_by: str


def _l1_availability(seed: int) -> AccessibilityRow:
    """Fill a Pi 4 L1D, Volt Boot it, and measure surviving fraction."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    fill_dcache(board, 0, pattern=0x5C)
    reference = b"".join(snapshot_l1d(board.soc.core(0)))
    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA)
    result = attack.execute()
    assert result.cache_images is not None
    observed = result.cache_images.dcache(0)
    error = fractional_hamming_distance(reference, observed)
    return AccessibilityRow(
        device="BCM2711",
        memory="L1 caches",
        available_fraction=1.0 - 2.0 * error,
        clobbered_by="nothing (software-enabled; boot never touches them)",
    )


def _l2_availability(seed: int) -> AccessibilityRow:
    """Fill the shared L2 and measure what the VideoCore boot leaves."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    l2 = board.soc.l2
    assert l2 is not None
    pattern = bytes([0x5C]) * 64
    reference_parts = []
    for way, data_ram in enumerate(l2.data_rams):
        data_ram.write_bytes(0, pattern * (data_ram.n_bytes // 64))
        reference_parts.append(l2.raw_way_image(way))
    reference = b"".join(reference_parts)

    attack = VoltBootAttack(board, target="l2", boot_media=ATTACKER_MEDIA)
    attack.identify()
    attack.attach()
    attack.power_cycle()
    attack.reboot()  # the VideoCore clobbers the L2 right here
    observed = b"".join(
        l2.raw_way_image(way) for way in range(l2.geometry.ways)
    )
    error = fractional_hamming_distance(reference, observed)
    return AccessibilityRow(
        device="BCM2711",
        memory="L2 (VideoCore-shared)",
        available_fraction=max(0.0, 1.0 - 2.0 * error),
        clobbered_by="VideoCore boot firmware",
    )


def _iram_availability(seed: int) -> AccessibilityRow:
    """Fill the i.MX53 iRAM and measure the post-boot surviving bytes."""
    board = imx53_qsb(seed=seed)
    board.boot()
    jtag = JtagProbe(board.soc.memory_map)
    rng = from_entropy(seed)
    stored = rng.integers(0, 256, IMX53_IRAM_SIZE, dtype=np.uint8).tobytes()
    jtag.write_block(IMX53_IRAM_BASE, stored)
    attack = VoltBootAttack(board, target="iram")
    result = attack.execute()
    assert result.iram_image is not None
    # Byte-exact availability: the scratchpad regions come back as ROM
    # working data, everything else byte-identical.
    matches = sum(
        1 for a, b in zip(stored, result.iram_image) if a == b
    )
    return AccessibilityRow(
        device="i.MX535",
        memory="iRAM (128KiB)",
        available_fraction=matches / IMX53_IRAM_SIZE,
        clobbered_by="boot ROM scratchpad (pre-attacker phase)",
    )


@manifested("accessibility", device="rpi4+imx53")
def run(seed: int = DEFAULT_SEED) -> list[AccessibilityRow]:
    """Measure all three availability figures."""
    return [
        _l1_availability(seed),
        _l2_availability(seed + 1),
        _iram_availability(seed + 2),
    ]


def report(rows: list[AccessibilityRow]) -> AttackReport:
    """Render the §6.2 summary."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Section 6.2: post-boot SRAM availability (paper: L1 100%, L2 0%, "
        "iRAM ~95%)"
    )
    for row in rows:
        out.add_row(
            device=row.device,
            memory=row.memory,
            available_percent=round(100.0 * row.available_fraction, 2),
            clobbered_by=row.clobbered_by,
        )
    return out
