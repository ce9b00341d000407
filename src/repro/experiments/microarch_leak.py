"""Extension experiment: execution-footprint leakage via TLB and BTB.

Paper §2.1 notes the Cortex-A72 exposes fifteen internal RAMs through
CP15 — among them TLBs and branch target buffers.  The evaluation
attacks caches, registers, and iRAM; this extension closes the loop on
the remaining structures: even when a victim's *data* has been
scrubbed, Volt Boot preserves its *footprint* — which pages it touched
(TLB) and where its hot branches lived (BTB).

The victim runs a loop over a secret buffer, then wipes the buffer with
``DC ZVA`` (a diligent defender).  The attack still recovers:

* the buffer's page numbers from retained TLB entries, and
* the loop's branch/target addresses from retained BTB entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.voltboot import VoltBootAttack
from ..cpu.assembler import assemble
from ..cpu.core import Core
from ..cpu.programs import byte_pattern_store, dczva_wipe
from ..devices import raspberry_pi_4
from ..rng import DEFAULT_SEED
from ..soc.cp15 import RamId
from ..soc.tlb import Btb, Tlb
from ..core.extraction import attacker_context
from .common import ATTACKER_MEDIA, VICTIM_MEDIA, victim_buffer_base
from .common import manifested

#: Size of the victim's secret buffer.
BUFFER_BYTES = 16 * 1024


@dataclass
class MicroarchLeakResult:
    """What the footprint dump revealed."""

    secret_pages: set[int]
    recovered_pages: set[int]
    loop_branch_pcs: set[int]
    recovered_branch_pcs: set[int]
    data_lines_surviving: int
    tlb_entries_total: int = 0
    btb_entries_total: int = 0
    code_base: int = 0
    code_end: int = 0

    @property
    def page_recovery_fraction(self) -> float:
        """Fraction of the secret buffer's pages exposed by the TLB."""
        if not self.secret_pages:
            return 0.0
        return len(self.secret_pages & self.recovered_pages) / len(
            self.secret_pages
        )

    @property
    def branch_recovery_fraction(self) -> float:
        """Fraction of the victim's branch sites exposed by the BTB."""
        if not self.loop_branch_pcs:
            return 0.0
        return len(self.loop_branch_pcs & self.recovered_branch_pcs) / len(
            self.loop_branch_pcs
        )


@manifested("microarch-leak", device="rpi4")
def run(seed: int = DEFAULT_SEED) -> MicroarchLeakResult:
    """Victim writes + wipes a secret buffer; attack dumps TLB/BTB."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM_MEDIA)
    unit = board.soc.core(0)
    # The victim OS executes TLBI/BPIALL at its own boot, so only the
    # victim's genuine footprint is marked valid afterwards.
    unit.tlb.invalidate_all()
    unit.btb.invalidate_all()
    cpu = Core(unit, board.soc.memory_map, asid=7)

    buffer_base = victim_buffer_base(0)
    code_base = 0x8000
    writer = assemble(byte_pattern_store(buffer_base, BUFFER_BYTES, 0x5A))
    cpu.load_program(writer.machine_code, code_base)
    cpu.run(max_steps=100_000)

    # Record the victim's true footprint before the wipe.
    secret_pages = {
        (buffer_base + offset) >> Tlb.PAGE_SHIFT
        for offset in range(0, BUFFER_BYTES, 1 << Tlb.PAGE_SHIFT)
    }
    loop_branch_pcs = {e.branch_pc for e in unit.btb.valid_entries()}

    # The diligent defender wipes the buffer before the power cut.
    wiper = assemble(dczva_wipe(buffer_base, BUFFER_BYTES))
    wipe_cpu = Core(unit, board.soc.memory_map, asid=7)
    wipe_cpu.load_program(wiper.machine_code, code_base + 0x1000)
    wipe_cpu.run(max_steps=100_000)

    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=ATTACKER_MEDIA)
    attack.identify()
    attack.attach()
    attack.power_cycle()
    attack.reboot()
    ctx = attacker_context(board)
    tlb_image = unit.cp15.dump_entry_ram(ctx, RamId.TLB)
    btb_image = unit.cp15.dump_entry_ram(ctx, RamId.BTB)
    cache_result = attack.extract()

    tlb_entries = Tlb.decode_raw_image(tlb_image)
    btb_entries = Btb.decode_raw_image(btb_image)
    data_lines = cache_result.cache_images.dcache(0).count(b"\x5a" * 64)
    return MicroarchLeakResult(
        secret_pages=secret_pages,
        recovered_pages={e.vpn for e in tlb_entries if e.asid == 7},
        loop_branch_pcs=loop_branch_pcs,
        recovered_branch_pcs={e.branch_pc for e in btb_entries},
        data_lines_surviving=data_lines,
        tlb_entries_total=len(tlb_entries),
        btb_entries_total=len(btb_entries),
        code_base=code_base,
        code_end=code_base + 0x2000,
    )


def report(result: MicroarchLeakResult) -> AttackReport:
    """Render the footprint-leak summary."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Extension: TLB/BTB execution-footprint leakage (victim wiped its "
        "data with DC ZVA before the cut)"
    )
    out.add_row(
        structure="TLB",
        entries_recovered=result.tlb_entries_total,
        victim_items=len(result.secret_pages),
        fraction_exposed=round(result.page_recovery_fraction, 2),
        reveals="secret buffer page numbers",
    )
    out.add_row(
        structure="BTB",
        entries_recovered=result.btb_entries_total,
        victim_items=len(result.loop_branch_pcs),
        fraction_exposed=round(result.branch_recovery_fraction, 2),
        reveals="hot-loop branch sites",
    )
    out.add_row(
        structure="L1D (control)",
        entries_recovered=result.data_lines_surviving,
        victim_items=BUFFER_BYTES // 64,
        fraction_exposed=round(
            result.data_lines_surviving / (BUFFER_BYTES // 64), 2
        ),
        reveals="the wiped data itself (should be ~0)",
    )
    out.add_note(
        "scrubbing data is not enough: the microarchitectural footprint "
        "of *having used it* retains across the probed power cycle."
    )
    return out
