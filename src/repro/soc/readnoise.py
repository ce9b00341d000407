"""Per-bit debug-read error model — the imperfect half of the bench.

Real JTAG adapters and CP15 dump loops are not error-free: marginal TCK
rates, long probe leads, and a rail held at retention voltage all show
up as occasional flipped bits in the dumped image (the paper's §6.1
reliability discussion; Bittner et al. report hundreds of imperfect
trials per success on comparable rigs).  :class:`BitErrorModel` is the
one place this is modelled: every debug read path
(:class:`~repro.soc.jtag.JtagProbe`,
:class:`~repro.soc.cp15.Cp15Interface`) can be armed with a model, and
each read corrupts independently from the model's seeded stream — so a
noisy dump is still byte-reproducible from the rig's root seed.
"""

from __future__ import annotations

import numpy as np

from ..circuits.engine import ENGINE
from ..errors import CalibrationError
from ..obs import OBS


class BitErrorModel:
    """I.i.d. per-bit Bernoulli read errors from one seeded stream.

    ``rate`` is the probability that any given bit of a read is
    returned flipped; ``rng`` is a dedicated :func:`repro.rng.spawn`
    stream (never a shared generator — the draws consumed per read
    depend on the read size, so sharing would couple unrelated
    subsystems).  A rate of exactly ``0.0`` short-circuits: no draws
    are consumed and the data passes through untouched, which keeps
    ideal-rig runs bit-identical to runs with no model attached.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 0.5:
            raise CalibrationError(
                f"bit error rate must be in [0, 0.5), got {rate}"
            )
        self.rate = float(rate)
        self._rng = rng
        self.bits_read = 0
        self.bits_flipped = 0

    def corrupt(self, data: bytes) -> bytes:
        """Return ``data`` with each bit independently flipped at ``rate``.

        Parameters
        ----------
        data:
            The raw dump to corrupt.  Consumes one bulk
            ``random(8 * len(data))`` draw from the model's stream
            (none when ``rate`` is 0 or ``data`` is empty), regardless
            of how many bits actually flip.

        Returns
        -------
        bytes
            ``data`` XORed with a packed Bernoulli flip mask — the
            input object itself when no bit flipped.
        """
        if self.rate <= 0.0 or not data:
            return data
        raw = np.frombuffer(data, dtype=np.uint8)
        mask, flipped = ENGINE.flip_mask(
            self._rng, raw.size, self.rate
        )
        self.bits_read += raw.size * 8
        if flipped == 0:
            return data
        self.bits_flipped += flipped
        if OBS.enabled:
            OBS.counter_inc("rig.bits_read", raw.size * 8)
            OBS.counter_inc("rig.bit_flips", flipped)
        return (raw ^ mask).tobytes()
