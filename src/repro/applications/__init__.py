"""Security applications of SRAM physics, and the attacks against them.

Paper §5.2.4 notes that SRAM's uninitialised startup state is left
alone partly because it has security uses — PUFs and TRNGs — and §9.2
surveys the remanence/imprinting attack literature Volt Boot improves
on.  This package implements both sides:

* :mod:`~repro.applications.puf` — an SRAM power-up PUF (enrollment,
  reconstruction, authentication) plus its cloning via Volt Boot;
* :mod:`~repro.applications.trng` — a power-up-noise TRNG with a von
  Neumann extractor;
* :mod:`~repro.applications.imprinting` — the decade-scale NBTI
  data-imprinting attack (the paper's §9.2 baseline);
* :mod:`~repro.applications.drv_fingerprint` — DRV-based chip
  identification (paper ref [20]).
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".drv_fingerprint": (
        "DrvFingerprint", "measure_drv_fingerprint", "identify_chip",
    ),
    ".imprinting": ("ImprintingAttack", "imprint_recovery_accuracy"),
    ".puf": ("SramPuf",),
    ".trng": ("PowerUpTrng",),
})
