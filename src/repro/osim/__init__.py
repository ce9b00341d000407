"""Toy operating-system simulation: processes, scheduling, kernel noise.

Paper §7.1.2 attacks a victim running under Linux, where "the kernel's
background processes introduce errors in the data extraction by evicting
cache lines".  This package reproduces that dynamic behaviour:

* :mod:`~repro.osim.process` — victim process models: an interpreted
  bare-metal-style program, and a fast host-level array microbenchmark;
* :mod:`~repro.osim.noise` — kernel interference: cache-filling activity
  (interrupt handlers, daemons) and non-coherent-DMA cache maintenance
  (clean/invalidate by VA), the two mechanisms that evict and duplicate
  victim lines;
* :mod:`~repro.osim.kernel` — a round-robin scheduler interleaving
  victim quanta with kernel noise on each core.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".kernel": ("SimKernel",),
    ".noise": ("KernelNoise", "NoiseProfile"),
    ".process": ("ArrayFillProcess", "InterpretedProcess", "Process"),
})
