"""The eager DRAM array: the oracle for the deferred one.

:class:`EagerDramArray` draws the anti-cell layout and the retention
field when it is built, keeps one ``float16`` charge level per cell and
runs every unpowered decay over every cell.  It is the model
:class:`~repro.circuits.dram.DramArray` defers and tables, so the two
must agree on every retained fraction, every byte read and the image,
and end on the same generator state (``tests/circuits/test_dram.py``).
It is never run by the simulator itself.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.dram import DramParameters
from repro.circuits.engine import ENGINE
from repro.errors import CircuitError
from repro.units import ROOM_TEMPERATURE_K


class EagerDramArray:
    """A flat DRAM bit array whose cells each hold their own charge."""

    def __init__(
        self,
        n_bits: int,
        params: DramParameters | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.params = params or DramParameters()
        self._rng = rng
        self._n_bits = n_bits
        self._anticell = ENGINE.uniform_mask(
            rng, n_bits, self.params.anticell_fraction
        )
        self._retention_scale = ENGINE.lognormal_field(
            rng, n_bits, self.params.retention_spread
        )
        # Modules start fully discharged (factory-fresh, unpowered).
        self._bits = self._anticell.astype(np.uint8)
        self._level = np.zeros(n_bits, dtype=np.float16)
        self._powered = False
        self._retained: float | None = None

    @property
    def n_bytes(self) -> int:
        return self._n_bits // 8

    def power_down(self) -> None:
        if not self._powered:
            raise CircuitError("already unpowered")
        self._powered = False

    def elapse_unpowered(
        self, seconds: float, temperature_k: float = ROOM_TEMPERATURE_K
    ) -> None:
        if self._powered:
            raise CircuitError("refresh is active; nothing decays")
        tau = self.params.decay.time_constant(temperature_k)
        self._level = ENGINE.charge_decay(
            self._level, seconds, tau, self._retention_scale
        )

    def restore_power(self, voltage: float | None = None) -> None:
        if self._powered:
            raise CircuitError("already powered")
        retained = ENGINE.charge_mask(self._level)
        ground = self._anticell.astype(np.uint8)
        self._bits = ENGINE.select(retained, self._bits, ground)
        self._level = np.ones(self._n_bits, dtype=np.float16)
        self._powered = True
        self._retained = int(np.count_nonzero(retained)) / self._n_bits

    def retained_fraction(self) -> float:
        if self._retained is None:
            raise CircuitError("never restored")
        return self._retained

    def read_bytes(self, offset: int = 0, count: int | None = None) -> bytes:
        if not self._powered:
            raise CircuitError("cannot read while unpowered")
        if count is None:
            count = self.n_bytes - offset
        self._check_range(offset, count)
        bits = self._bits[offset * 8 : (offset + count) * 8]
        return np.packbits(bits, bitorder="little").tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        if not self._powered:
            raise CircuitError("cannot write while unpowered")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._check_range(offset, len(raw))
        bits = np.unpackbits(raw, bitorder="little")
        lo, hi = offset * 8, offset * 8 + len(bits)
        self._bits[lo:hi] = bits
        self._level[lo:hi] = 1.0

    def image(self) -> np.ndarray:
        return self._bits.copy()

    def _check_range(self, offset: int, count: int) -> None:
        if offset < 0 or count < 0 or offset + count > self.n_bytes:
            raise CircuitError("byte range exceeds the array")
