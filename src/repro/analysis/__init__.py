"""Post-extraction analysis: the attacker's forensics toolbox.

Everything the paper does with a dumped memory image lives here:

* :mod:`~repro.analysis.hamming` — bit-error metrics (fractional Hamming
  distance, per-block error profiles for Figure 10);
* :mod:`~repro.analysis.imaging` — bit-image rendering (the cache
  snapshot figures) as ASCII art and PGM files;
* :mod:`~repro.analysis.patterns` — scans for known byte patterns and
  array elements in raw way images (Table 4's accounting);
* :mod:`~repro.analysis.keysearch` — AES key-schedule search over memory
  images, the Halderman-style payoff step;
* :mod:`~repro.analysis.bitmap` — the deterministic 512×512 test bitmap
  stored into the i.MX53 iRAM (Figures 9/10).
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".bitmap": ("test_bitmap_bytes", "test_bitmap_matrix"),
    ".hamming": (
        "fractional_hamming_distance", "bit_error_percent",
        "block_hamming_profile",
    ),
    ".imaging": (
        "bit_matrix", "ascii_bit_image", "ones_fraction", "write_pgm",
    ),
    ".keysearch": ("KeyScheduleHit", "search_aes128_schedules"),
    ".patterns": (
        "find_all", "find_aligned", "elements_present", "count_pattern_lines",
    ),
})
