"""§7.2 — attacking CPU registers.

A bare-metal program fills the 128-bit vector registers ``v0..v31`` with
distinguishable patterns (0xFF / 0xAA) on both Broadcom devices; the
paper finds the registers fully retain their state across a Volt Boot
power cycle, so TRESOR-style register-resident key storage is broken.

The experiment also confirms the contrast the paper relies on: the
general-purpose registers are useless to an attacker (boot code burns
through them), while the vector file sits outside every boot sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.voltboot import VoltBootAttack
from ..devices import raspberry_pi_3, raspberry_pi_4
from ..rng import DEFAULT_SEED
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, run_vector_fill
from .common import manifested

_BUILDERS = {"BCM2711": raspberry_pi_4, "BCM2837": raspberry_pi_3}

#: The patterns the victim parks in even/odd vector registers.
PATTERNS = (0xFF, 0xAA)


@dataclass
class RegisterResult:
    """Retention outcome for one device."""

    device: str
    registers_correct: int = 0
    registers_total: int = 0
    per_core_correct: dict[int, int] = field(default_factory=dict)

    @property
    def fully_retained(self) -> bool:
        """Whether every vector register held its exact pattern."""
        return self.registers_correct == self.registers_total


def run_device(builder_name: str, seed: int = DEFAULT_SEED) -> RegisterResult:
    """Attack the vector file of every core on one device."""
    board = _BUILDERS[builder_name](seed=seed)
    board.boot(VICTIM_MEDIA)
    for core in board.soc.cores:
        run_vector_fill(board, core.index)

    attack = VoltBootAttack(board, target="registers",
                            boot_media=ATTACKER_MEDIA)
    attack_result = attack.execute()

    result = RegisterResult(device=builder_name)
    for core_index, values in attack_result.vector_registers.items():
        correct = 0
        for reg_index, value in enumerate(values):
            expected = bytes([PATTERNS[reg_index % len(PATTERNS)]]) * 16
            if value == expected:
                correct += 1
        result.per_core_correct[core_index] = correct
        result.registers_correct += correct
        result.registers_total += len(values)
    return result


@manifested("registers", device="rpi4+rpi3")
def run(seed: int = DEFAULT_SEED) -> list[RegisterResult]:
    """Run on both Broadcom devices."""
    return [run_device(name, seed) for name in _BUILDERS]


def report(results: list[RegisterResult]) -> AttackReport:
    """Summarise register retention per device."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Section 7.2: vector register (v0..v31) retention under Volt Boot "
        "(paper: fully retained on BCM2711 and BCM2837)"
    )
    for result in results:
        out.add_row(
            device=result.device,
            registers_correct=result.registers_correct,
            registers_total=result.registers_total,
            fully_retained=result.fully_retained,
        )
    out.add_note(
        "any crypto scheme hiding keys in these registers is exposed."
    )
    return out
