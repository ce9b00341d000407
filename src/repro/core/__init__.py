"""The paper's primary contribution: the Volt Boot attack toolkit.

The attack pipeline follows §6.1 exactly:

1. **Identify** the power domain feeding the target memory and a
   probe-able pad on its net (:mod:`~repro.core.probe`);
2. **Attach** a bench-supply probe at the pad's measured voltage;
3. **Power cycle** the board — the probed domain rides through — and
   boot attacker-controlled media (or the internal ROM);
4. **Extract** the retained SRAM through CP15 RAMINDEX or JTAG
   (:mod:`~repro.core.extraction`) and analyse it.

:class:`~repro.core.voltboot.VoltBootAttack` drives the whole pipeline;
:class:`~repro.core.coldboot.ColdBootAttack` is the temperature-based
baseline the paper shows to be ineffective on SRAM (§3).
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".coldboot": ("ColdBootAttack", "ColdBootResult"),
    ".extraction": (
        "CacheImages", "extract_l1_images", "extract_iram",
        "extract_vector_registers",
    ),
    ".probe": ("ProbePlan", "plan_probe"),
    ".report": ("AttackReport",),
    ".voltboot": ("VoltBootAttack", "VoltBootResult"),
})
