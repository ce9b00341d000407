"""Figure 3 — snapshot of a cold-booted d-cache way (paper §3).

After the −40 °C power cycle of the Table 1 setup, WAY0 of a Cortex-A72
d-cache (256×512 bits = 16 KB) shows an even mix of ones and zeros: the
stored pattern is gone and the array rebooted into its random-looking
power-on state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.imaging import ascii_bit_image, ones_fraction, write_pgm
from ..core.coldboot import ColdBootAttack
from ..devices import raspberry_pi_4
from ..rng import DEFAULT_SEED
from ..units import milliseconds
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, fill_dcache
from .common import manifested

#: The paper renders WAY0 as a 256-row x 512-column bit matrix (16 KB).
IMAGE_WIDTH_BITS = 512


@dataclass
class Figure3Result:
    """The post-cold-boot WAY0 image and its statistics."""

    way0_image: bytes
    ones: float
    temperature_c: float

    def ascii_art(self, max_rows: int = 24) -> str:
        """Downsampled ASCII rendering of the way image."""
        return ascii_bit_image(
            self.way0_image, width=IMAGE_WIDTH_BITS,
            max_rows=max_rows, downsample=8,
        )

    def save_pgm(self, path: str) -> None:
        """Write the full-resolution bit image as a PGM file."""
        write_pgm(self.way0_image, IMAGE_WIDTH_BITS, path)


@manifested("figure3", device="rpi4")
def run(seed: int = DEFAULT_SEED, temperature_c: float = -40.0) -> Figure3Result:
    """Cold boot a pattern-filled Pi 4 and dump d-cache WAY0 of core 0."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    fill_dcache(board, 0, pattern=0xAA)
    attack = ColdBootAttack(
        board,
        temperature_c=temperature_c,
        off_time_s=milliseconds(4),
        boot_media=ATTACKER_MEDIA,
    )
    result = attack.execute()
    assert result.cache_images is not None
    way0 = result.cache_images.l1d[0][0]
    return Figure3Result(
        way0_image=way0,
        ones=ones_fraction(way0),
        temperature_c=temperature_c,
    )


def report(result: Figure3Result) -> AttackReport:
    """Summarise the snapshot the way the figure caption does."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Figure 3: d-cache WAY0 after a cold boot at "
        f"{result.temperature_c:g}C (paper: ~equal 1s and 0s)"
    )
    out.add_row(
        way_bytes=len(result.way0_image),
        ones_fraction=round(result.ones, 3),
        pattern_surviving=result.way0_image.count(b"\xaa" * 64),
    )
    out.add_note("an even 1/0 mix == the cache reset to its power-on state")
    return out
