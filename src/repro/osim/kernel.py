"""Round-robin scheduler interleaving victim work with kernel noise.

One :class:`SimKernel` drives one booted board.  Victim processes are
pinned to cores (the paper launches one benchmark process per core);
after every victim quantum the kernel's own activity interferes with
that core's d-cache.  The attack happens *mid-execution*: the caller
simply stops scheduling and cuts power, exactly like yanking the cable
on a live system.
"""

from __future__ import annotations

from ..errors import BootError, CpuFault
from ..rng import generator
from ..soc.board import Board
from .noise import IDLE_LINUX, KERNEL_BASE, KernelNoise, NoiseProfile
from .process import Process


class SimKernel:
    """A minimal OS over a booted :class:`~repro.soc.board.Board`."""

    def __init__(
        self,
        board: Board,
        noise_profile: NoiseProfile = IDLE_LINUX,
        seed_label: str = "oskernel",
    ) -> None:
        if not board.booted:
            raise BootError("the kernel needs a booted board")
        self.board = board
        self.noise_profile = noise_profile
        self._seed_label = seed_label
        self._processes: list[Process] = []
        self._noise: dict[int, KernelNoise] = {}
        self._rng_root = seed_label

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def enable_caches(self) -> None:
        """Invalidate + enable every core's L1s (kernel boot behaviour).

        A real kernel also executes TLBI/BPIALL before enabling the MMU
        and branch prediction, so the micro-architectural arrays start
        with clean valid bits (their payload SRAM is untouched, exactly
        like cache invalidation).
        """
        for core in self.board.soc.cores:
            if not core.l1d.enabled:
                core.l1d.invalidate_all()
                core.l1d.enabled = True
            if not core.l1i.enabled:
                core.l1i.invalidate_all()
                core.l1i.enabled = True
            core.tlb.invalidate_all()
            core.btb.invalidate_all()

    def warm_caches(self) -> None:
        """Fill every d-cache with kernel working-set lines.

        A system that has been up for a while has no invalid L1 lines
        left; victim allocations then follow per-set LRU order, which
        this warm-up randomises — the reason the paper's array elements
        scatter across both ways instead of piling into way 0.
        """
        for core in self.board.soc.cores:
            if not core.l1d.enabled:
                continue
            geometry = core.l1d.geometry
            n_lines = geometry.sets * geometry.ways
            rng = generator(0xC0FFEE, self._rng_root, "warm", str(core.index))
            offsets = rng.permutation(n_lines * 2)[:n_lines]
            for offset in offsets:
                addr = KERNEL_BASE + int(offset) * geometry.line_bytes
                core.l1d.read(addr, 8)

    def spawn(self, process: Process) -> Process:
        """Register a victim process on its pinned core."""
        self.board.soc.core(process.core_index)  # validates index
        self._processes.append(process)
        victim_base = getattr(process, "base_addr", 0x40000)
        victim_span = getattr(process, "array_bytes", 0x8000)
        rng = generator(
            0xC0FFEE, self._rng_root, process.name, str(process.core_index)
        )
        self._noise[id(process)] = KernelNoise(
            self.noise_profile, rng, victim_base, victim_span
        )
        return process

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def all_finished(self) -> bool:
        """Whether every victim process has run to completion."""
        return all(p.finished for p in self._processes)

    def run_round(self) -> None:
        """One scheduler round: a quantum + noise on every core."""
        if not self._processes:
            raise CpuFault("nothing to schedule")
        for process in self._processes:
            if process.finished:
                continue
            unit = self.board.soc.core(process.core_index)
            process.quantum(unit, self.board.soc.memory_map)
            self._noise[id(process)].interfere(unit)

    def run(self, max_rounds: int = 10_000) -> int:
        """Schedule until every process finishes; returns rounds used."""
        for round_index in range(max_rounds):
            if self.all_finished():
                return round_index
            self.run_round()
        raise CpuFault(f"workload did not finish within {max_rounds} rounds")
