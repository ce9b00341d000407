"""Volt Boot — a simulated reproduction of "SRAM Has No Chill" (ASPLOS'22).

The library models the full victim stack — SRAM/DRAM cell physics, power
delivery networks, power-domain separation, caches/registers/iRAM, boot
flows, a small CPU, and a toy OS — and implements the Volt Boot attack
(plus the cold boot baseline) on top of it.

Quickstart::

    from repro import devices, VoltBootAttack
    from repro.soc import BootMedia
    from repro.cpu import Core, assemble, programs

    board = devices.raspberry_pi_4()
    board.boot(BootMedia("victim-os"))

    # Victim parks a secret pattern in its d-cache ...
    unit = board.soc.core(0)
    cpu = Core(unit, board.soc.memory_map)
    cpu.load_program(
        assemble(programs.byte_pattern_store(0x40000, 4096)).machine_code,
        0x8000,
    )
    cpu.run()

    # ... and the attacker rides VDD_CORE through a power cycle.
    attack = VoltBootAttack(board, target="l1-caches",
                            boot_media=BootMedia("attacker-usb"))
    result = attack.execute()
    print(b"\\xaa" * 64 in result.cache_images.dcache(0))  # True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    ".": (
        "analysis", "circuits", "cpu", "crypto", "devices", "glitch",
        "osim", "power", "soc",
    ),
    ".core": (
        "VoltBootAttack", "VoltBootResult", "ColdBootAttack",
        "ColdBootResult", "ProbePlan", "plan_probe", "AttackReport",
    ),
    ".errors": (
        "ReproError", "CircuitError", "PowerError", "ProbeError",
        "AccessViolation", "CpuFault", "BootError", "AttackError",
    ),
})
__all__ += ["__version__"]
