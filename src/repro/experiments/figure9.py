"""Figure 9 — i.MX53 iRAM bitmap recovery (§7.3).

Four copies of a 512x512 1-bpp bitmap (128 KB total) are stored into the
i.MX535's iRAM over JTAG; the board rides VDDAL1 through a power cycle
while VCCGP (the CPU core rail) dies, the SoC reboots from its internal
ROM, and the iRAM is dumped back over JTAG.

The paper recovers everything except the region the boot ROM uses as
scratchpad before releasing the core — an overall error of 2.7 %, with
~95 % of the iRAM available to the attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.bitmap import BITMAP_BYTES, test_bitmap_bytes
from ..analysis.hamming import fractional_hamming_distance
from ..analysis.imaging import ascii_bit_image, write_pgm
from ..core.voltboot import VoltBootAttack
from ..devices import imx53_qsb
from ..devices.builders import IMX53_IRAM_BASE, IMX53_IRAM_SIZE
from ..rng import DEFAULT_SEED
from ..soc.jtag import JtagProbe
from .common import manifested

#: Number of bitmap copies stored (paper: four, filling the 128 KB iRAM).
N_PANELS = 4


@dataclass
class Figure9Result:
    """Recovered panels plus their error statistics."""

    stored: bytes
    recovered: bytes
    panel_errors: list[float] = field(default_factory=list)

    @property
    def overall_error(self) -> float:
        """Fractional bit error over the whole iRAM."""
        return fractional_hamming_distance(self.stored, self.recovered)

    @property
    def accessible_fraction(self) -> float:
        """Approximation of the §6.2 accessible-iRAM fraction."""
        return 1.0 - 2.0 * self.overall_error  # clobber data is ~50% wrong

    def panel(self, index: int) -> bytes:
        """One recovered 32 KB panel (address windows of the figure)."""
        return self.recovered[index * BITMAP_BYTES : (index + 1) * BITMAP_BYTES]

    def panel_ascii(self, index: int, max_rows: int = 24) -> str:
        """ASCII rendering of one recovered panel."""
        return ascii_bit_image(
            self.panel(index), width=512, max_rows=max_rows, downsample=16
        )

    def save_panel_pgm(self, index: int, path: str) -> None:
        """Save one panel as a PGM image file."""
        write_pgm(self.panel(index), 512, path)


@manifested("figure9", device="imx53")
def run(seed: int = DEFAULT_SEED) -> Figure9Result:
    """Store the bitmaps, Volt Boot the iRAM, and dump it back."""
    board = imx53_qsb(seed=seed)
    board.boot()  # internal ROM boot; no external media needed
    jtag = JtagProbe(board.soc.memory_map)
    bitmap = test_bitmap_bytes()
    stored = bitmap * N_PANELS
    if len(stored) != IMX53_IRAM_SIZE:
        raise AssertionError("panel layout must exactly fill the iRAM")
    for panel in range(N_PANELS):
        jtag.write_block(IMX53_IRAM_BASE + panel * BITMAP_BYTES, bitmap)

    attack = VoltBootAttack(board, target="iram")
    attack_result = attack.execute()
    assert attack_result.iram_image is not None

    result = Figure9Result(stored=stored, recovered=attack_result.iram_image)
    for panel in range(N_PANELS):
        result.panel_errors.append(
            fractional_hamming_distance(bitmap, result.panel(panel))
        )
    return result


def report(result: Figure9Result) -> AttackReport:
    """Summarise the recovery in the figure's terms."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Figure 9: iRAM bitmap extraction on i.MX535 (paper: 2.7% overall "
        "error, ~95% of iRAM available)"
    )
    for index, error in enumerate(result.panel_errors):
        lo = IMX53_IRAM_BASE + index * BITMAP_BYTES
        hi = lo + BITMAP_BYTES - 1
        out.add_row(
            panel=f"({chr(ord('a') + index)})",
            address_range=f"{lo:#010x}-{hi:#010x}",
            error_percent=round(100.0 * error, 2),
        )
    out.add_row(
        panel="overall",
        address_range="full 128KiB",
        error_percent=round(100.0 * result.overall_error, 2),
    )
    out.add_note(
        "errors concentrate in the boot-ROM scratchpad regions; see "
        "Figure 10 for the spatial profile."
    )
    return out
