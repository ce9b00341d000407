"""Figure 7 — i-cache snapshots after attacking bare-metal software (§7.1.1).

A bare-metal NOP program runs on all four cores of both Broadcom
devices; Volt Boot then dumps the i-caches.  Where a plain power cycle
leaves random power-on state (Figure 3), the probed attack preserves the
instruction stream across the cycle: the paper reports 100 % retention
on every core of both devices.

The BCM2837 stores instructions and ECC in a vendor-private bit order
(paper footnote 4), so its comparison uses before/after raw images, not
decoded instructions — exactly the paper's method.  The model applies a
fixed in-line interleave to the BCM2837 i-cache, making that comparison
path meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.hamming import fractional_hamming_distance
from ..analysis.imaging import ones_fraction
from ..core.voltboot import VoltBootAttack
from ..devices import raspberry_pi_3, raspberry_pi_4
from ..rng import DEFAULT_SEED
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, run_nop_fill, snapshot_l1i
from .common import manifested

_BUILDERS = {"BCM2711": raspberry_pi_4, "BCM2837": raspberry_pi_3}


@dataclass
class Figure7Result:
    """Per-device, per-core retention accuracies for the i-cache attack."""

    device: str
    per_core_accuracy: list[float] = field(default_factory=list)
    way0_image: bytes = b""
    machine_code: bytes = b""

    @property
    def all_perfect(self) -> bool:
        """Whether every core retained every bit."""
        return all(acc >= 100.0 for acc in self.per_core_accuracy)


def run_device(builder_name: str, seed: int = DEFAULT_SEED) -> Figure7Result:
    """Run the bare-metal i-cache attack on one Broadcom device."""
    board = _BUILDERS[builder_name](seed=seed)
    board.boot(VICTIM_MEDIA)
    machine_code = b""
    ground_truth = {}
    for core in board.soc.cores:
        machine_code = run_nop_fill(board, core.index)
        ground_truth[core.index] = snapshot_l1i(core)

    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA, icache=True)
    attack_result = attack.execute()
    assert attack_result.cache_images is not None

    result = Figure7Result(device=builder_name, machine_code=machine_code)
    for core in board.soc.cores:
        observed = attack_result.cache_images.icache(core.index)
        reference = b"".join(ground_truth[core.index])
        error = fractional_hamming_distance(reference, observed)
        result.per_core_accuracy.append(100.0 * (1.0 - error))
    result.way0_image = attack_result.cache_images.l1i[0][0]
    return result


@manifested("figure7", device="rpi4+rpi3")
def run(seed: int = DEFAULT_SEED) -> list[Figure7Result]:
    """Run on both devices (the two panels of Figure 7)."""
    return [run_device(name, seed) for name in _BUILDERS]


def report(results: list[Figure7Result]) -> AttackReport:
    """Render the figure's headline numbers."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Figure 7: i-cache retention after Volt Boot, bare-metal NOP "
        "victim (paper: 100% on all cores of both SoCs)"
    )
    for result in results:
        nop_lines = result.way0_image.count(b"\x00" * 64)
        out.add_row(
            device=result.device,
            **{
                f"core{i}_acc%": round(acc, 2)
                for i, acc in enumerate(result.per_core_accuracy)
            },
            structured_way0=nop_lines > 0 or ones_fraction(result.way0_image) < 0.45,
        )
    out.add_note(
        "compare against Figure 3: without the probe the same dump is a "
        "50/50 bit soup."
    )
    return out
