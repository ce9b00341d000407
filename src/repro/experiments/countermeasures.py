"""§8 — countermeasure survey.

Each defense the paper discusses is applied to an otherwise-identical
victim (Pi 4, 0xAA-filled d-cache plus a CaSE-style secure key schedule)
and the attack is re-run:

* **none** — baseline; full recovery;
* **purge on power-down** — a software shutdown handler zeroes the
  caches, but an *abrupt* power cut never runs it (the paper's point);
  a graceful shutdown shows the purge does work when it gets to run;
* **MBIST reset at startup** — boot-time hardware initialisation denies
  the post-reboot readout;
* **TrustZone enforcement** — secure (NS=0) lines are unreadable from
  the attacker's non-secure world;
* **authenticated boot** — the attacker's media never boots, so there is
  no readout program at all (except on internal-ROM parts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.patterns import count_pattern_lines
from ..core.voltboot import VoltBootAttack
from ..cpu.assembler import assemble
from ..cpu.core import Core
from ..cpu.programs import dczva_wipe
from ..crypto.onchip import CacheLockedAes
from ..devices import raspberry_pi_4
from ..errors import AuthenticatedBootError
from ..rng import DEFAULT_SEED
from .common import (
    ATTACKER_MEDIA,
    VICTIM_MEDIA,
    fill_dcache,
    victim_buffer_base,
    victim_code_base,
)
from .common import manifested

#: Secret key parked CaSE-style in secure cache lines.
VICTIM_KEY = bytes(range(16))


@dataclass
class DefenseOutcome:
    """What the attacker got under one defense."""

    defense: str
    attack_completed: bool
    pattern_lines_recovered: int
    secure_schedule_recovered: bool
    verdict: str


def _prepare_victim(board) -> None:
    """0xAA-fill core 0's d-cache and install a secure AES schedule."""
    fill_dcache(board, 0, pattern=0xAA)
    CacheLockedAes(board.soc.core(0),
                   schedule_addr=victim_buffer_base(1)).install_key(VICTIM_KEY)


def _schedule_visible(images, board) -> bool:
    from ..crypto.aes import schedule_bytes

    needle = schedule_bytes(VICTIM_KEY)[:64]
    return needle in images.dcache(0)


def _attack(board) -> tuple[bool, int, bool]:
    """Run the cache attack; returns (completed, AA lines, schedule seen)."""
    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA)
    try:
        result = attack.execute()
    except AuthenticatedBootError:
        return False, 0, False
    assert result.cache_images is not None
    lines = count_pattern_lines(result.cache_images.dcache(0), 0xAA)
    return True, lines, _schedule_visible(result.cache_images, board)


def _case_none(seed: int) -> DefenseOutcome:
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    _prepare_victim(board)
    completed, lines, schedule = _attack(board)
    return DefenseOutcome("none (baseline)", completed, lines, schedule,
                          "broken: full recovery")


def _case_purge_abrupt(seed: int) -> DefenseOutcome:
    """The purge handler exists but the power cut is abrupt."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    _prepare_victim(board)
    # The shutdown handler (dczva_wipe) is registered but never runs:
    # VoltBootAttack yanks the input without warning the OS.
    completed, lines, schedule = _attack(board)
    return DefenseOutcome(
        "purge on power-down (abrupt cut)", completed, lines, schedule,
        "broken: handler never ran",
    )


def _case_purge_graceful(seed: int) -> DefenseOutcome:
    """Control: a graceful shutdown does run the purge and it works."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    _prepare_victim(board)
    unit = board.soc.core(0)
    wipe = assemble(
        dczva_wipe(victim_buffer_base(0), unit.l1d.geometry.size_bytes * 2)
    )
    cpu = Core(unit, board.soc.memory_map)
    cpu.load_program(wipe.machine_code, victim_code_base(3))
    cpu.run(max_steps=50_000)
    completed, lines, schedule = _attack(board)
    return DefenseOutcome(
        "purge on power-down (graceful)", completed, lines, schedule,
        "effective when it actually runs",
    )


def _case_mbist(seed: int) -> DefenseOutcome:
    board = raspberry_pi_4(seed=seed, mbist_enabled=True)
    board.boot(VICTIM_MEDIA)
    _prepare_victim(board)
    completed, lines, schedule = _attack(board)
    return DefenseOutcome(
        "MBIST reset at startup", completed, lines, schedule,
        "effective: RAMs zeroed before readout",
    )


def _case_trustzone(seed: int) -> DefenseOutcome:
    board = raspberry_pi_4(seed=seed, trustzone_enforced=True)
    board.boot(VICTIM_MEDIA)
    _prepare_victim(board)
    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA)
    result = attack.execute()
    assert result.cache_images is not None
    lines = count_pattern_lines(result.cache_images.dcache(0), 0xAA)
    schedule = _schedule_visible(result.cache_images, board)
    return DefenseOutcome(
        "TrustZone enforcement", True, lines, schedule,
        "partial: secure lines blocked, normal-world data still leaks",
    )


def _case_auth_boot(seed: int) -> DefenseOutcome:
    board = raspberry_pi_4(seed=seed, auth_boot=True)
    board.boot(VICTIM_MEDIA.__class__(VICTIM_MEDIA.name, "oem-signed"))
    _prepare_victim(board)
    completed, lines, schedule = _attack(board)
    return DefenseOutcome(
        "authenticated boot", completed, lines, schedule,
        "effective on media-booting parts: no readout program boots",
    )


@manifested("countermeasures", device="rpi4")
def run(seed: int = DEFAULT_SEED) -> list[DefenseOutcome]:
    """Evaluate every defense on fresh, otherwise-identical victims."""
    return [
        _case_none(seed),
        _case_purge_abrupt(seed + 1),
        _case_purge_graceful(seed + 2),
        _case_mbist(seed + 3),
        _case_trustzone(seed + 4),
        _case_auth_boot(seed + 5),
    ]


def report(outcomes: list[DefenseOutcome]) -> AttackReport:
    """Render the defense matrix."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Section 8: countermeasure survey (victim: 0xAA d-cache fill + "
        "CaSE-style secure AES schedule on a Pi 4)"
    )
    for outcome in outcomes:
        out.add_row(
            defense=outcome.defense,
            attack_completed=outcome.attack_completed,
            aa_lines=outcome.pattern_lines_recovered,
            secure_schedule_leaked=outcome.secure_schedule_recovered,
            verdict=outcome.verdict,
        )
    return out
