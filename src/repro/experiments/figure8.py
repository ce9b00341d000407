"""Figure 8 — Volt Boot against an application under an OS (§7.1.2).

A user application stores 0xAA over a large buffer while the (simulated)
Linux kernel schedules background work.  Post-attack, the d-cache dump
shows the expected pattern and the i-cache dump contains the
application's machine code in consecutive lines — both of the paper's
observations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.patterns import count_pattern_lines, find_all
from ..core.voltboot import VoltBootAttack
from ..cpu.assembler import assemble
from ..cpu.programs import byte_pattern_store
from ..devices import raspberry_pi_4
from ..osim.kernel import SimKernel
from ..osim.process import InterpretedProcess
from ..rng import DEFAULT_SEED
from .common import (
    ATTACKER_MEDIA,
    VICTIM_MEDIA,
    victim_buffer_base,
    victim_code_base,
)
from .common import manifested

#: Size of the 0xAA buffer the demo app touches.
BUFFER_BYTES = 8 * 1024


@dataclass
class Figure8Result:
    """Evidence recovered from the attacked OS system."""

    pattern_lines_in_dcache: int
    code_fragments_in_icache: int
    machine_code_bytes: int
    dcache_way0: bytes
    icache_way_images: list[bytes]

    @property
    def pattern_found(self) -> bool:
        """Whether the 0xAA payload survived into the dump."""
        return self.pattern_lines_in_dcache > 0

    @property
    def instructions_found(self) -> bool:
        """Whether the app's code was located in the i-cache dump."""
        return self.code_fragments_in_icache > 0


@manifested("figure8", device="rpi4")
def run(seed: int = DEFAULT_SEED) -> Figure8Result:
    """Run the OS scenario on a Pi 4 and attack core 0's caches."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    kernel = SimKernel(board, seed_label=f"fig8-{seed}")
    kernel.enable_caches()

    program = assemble(
        byte_pattern_store(victim_buffer_base(0), BUFFER_BYTES, pattern=0xAA)
    )
    kernel.spawn(
        InterpretedProcess(
            name="aa-writer",
            core_index=0,
            machine_code=program.machine_code,
            load_addr=victim_code_base(0),
        )
    )
    kernel.run()

    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA, icache=True)
    result = attack.execute()
    assert result.cache_images is not None

    dcache = result.cache_images.dcache(0)
    icache = result.cache_images.icache(0)
    # The app's inner loop is its most-executed line; search for any
    # 16-byte (4-instruction) window of the program in the i-cache dump.
    fragments = 0
    code = program.machine_code
    for start in range(0, len(code) - 16 + 1, 16):
        if find_all(icache, code[start : start + 16]):
            fragments += 1
    return Figure8Result(
        pattern_lines_in_dcache=count_pattern_lines(dcache, 0xAA),
        code_fragments_in_icache=fragments,
        machine_code_bytes=len(code),
        dcache_way0=result.cache_images.l1d[0][0],
        icache_way_images=result.cache_images.l1i[0],
    )


def report(result: Figure8Result) -> AttackReport:
    """Summarise the two Figure 8 observations."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Figure 8: caches of a general-purpose (OS) system after Volt "
        "Boot (paper: 0xAA pattern + all app instructions recovered)"
    )
    out.add_row(
        pattern_lines_0xAA=result.pattern_lines_in_dcache,
        code_fragments_found=result.code_fragments_in_icache,
        app_code_bytes=result.machine_code_bytes,
        pattern_found=result.pattern_found,
        instructions_found=result.instructions_found,
    )
    return out
