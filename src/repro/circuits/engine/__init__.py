"""The cell-physics engine: bulk kernels behind the memory arrays.

Every per-cell physical process the circuits layer models — DRV and
wake-probability sampling, Arrhenius charge decay, power-up
fingerprinting, supply-collapse, debug-read bit errors, majority-vote
decoding — funnels through one of the numpy bulk kernels of
:class:`~repro.circuits.engine.vector.VectorEngine`.  The arrays call
the one module-level instance, :data:`ENGINE`, directly.

A per-cell Python reference implementation of the same kernels lives
with the tests (``tests/circuits/scalar_engine.py``): it consumes the
*same* RNG draws in the same order and must reproduce every vector
kernel bit for bit (see ``docs/physics.md`` §"Scalar vs vectorized
equivalence").

The RNG-stream contract
-----------------------
A kernel that samples randomness always draws **bulk numpy arrays**
from the generator it is handed (``rng.random(n, dtype=...)``,
``rng.standard_normal(n, dtype=...)``, ``rng.integers(...)``) — never
per-cell scalars — so a per-cell reference advances the stream
identically and can stand in for any kernel mid-experiment.  Kernels
never construct or spawn generators; stream ownership stays with the
caller (:mod:`repro.rng`).
"""

from __future__ import annotations

from .vector import VectorEngine

#: The engine every circuits kernel call goes through.  Kernels are
#: stateless, so one instance serves the whole process.
ENGINE = VectorEngine()

__all__ = ["ENGINE", "VectorEngine"]
