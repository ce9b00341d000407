"""Transient voltage-glitch fault injection (the active-attack sibling
of the paper's passive cold-boot readout).

The paper's threat model gives the attacker the victim's power rails;
:mod:`repro.glitch` asks what else those rails afford.  A parameterised
glitch pulse (:mod:`~repro.glitch.waveform`) is RC-filtered by the
board's own decoupling before the die sees it; the die-seen voltage
drives a per-instruction fault model (:mod:`~repro.glitch.faultmodel`);
an injector (:mod:`~repro.glitch.injector`) applies the sampled faults
to the CPU interpreter at instruction granularity; and campaigns
(:mod:`~repro.glitch.campaign`) search offset × width × depth for
exploitable parameters, with a brown-out-detector countermeasure leg.
:mod:`~repro.glitch.dfa` demonstrates the payoff: differential fault
analysis of the on-chip AES recovers key bytes from faulty ciphertexts.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".campaign": (
        "CampaignSpec", "CampaignResult", "GlitchAttempt", "DEFAULT_SPEC",
        "LEGS", "OUTCOMES", "shard_plan", "run_point",
    ),
    ".dfa": ("DfaResult", "aes_glitch_dfa", "recover_last_round_key"),
    ".faultmodel": (
        "FaultKind", "FaultModel", "default_fault_model", "BrownOutDetector",
    ),
    ".injector": (
        "GlitchInjector", "InjectionResult",
        "DEFAULT_INSTRUCTION_PERIOD_S",
    ),
    ".waveform": ("GlitchPulse", "GlitchWaveform", "die_waveform"),
})
