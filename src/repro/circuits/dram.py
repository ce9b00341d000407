"""1T1C DRAM arrays — the substrate of the classic cold boot attack.

The Volt Boot paper contrasts its SRAM attack against the original
Halderman et al. DRAM cold boot (paper §3, §9.1).  To reproduce that
contrast we model DRAM's distinguishing physics:

* a cell is a capacitor; its charge leaks continuously and must be
  refreshed (typically every 64 ms);
* leakage is Arrhenius in temperature, with far larger time constants
  than SRAM (big storage capacitor, no active feedback), so chilled DRAM
  retains data for seconds-to-minutes without power;
* roughly half of the cells are *anti-cells*: a logical 1 is stored as an
  empty capacitor, so a fully decayed module reads out the cell's ground
  state, not all-zeros;
* per-cell retention varies: a small population of leaky cells loses data
  far earlier than the median (the "bit flips" that force key
  reconstruction in the original attack).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CalibrationError, CircuitError
from ..obs import OBS
from ..obs.timing import observe_rate, wall_clock
from ..rng import from_entropy
from ..units import ROOM_TEMPERATURE_K, milliseconds
from .engine import ENGINE
from .leakage import ArrheniusDecay, DRAM_DECAY
from .manufacture import ManufacturedArray, read_only


@dataclass(frozen=True)
class DramParameters:
    """Electrical parameters of a DRAM module.

    Parameters
    ----------
    refresh_interval_s:
        Refresh period guaranteed by the controller (JEDEC: 64 ms).
    retention_spread:
        Sigma of the lognormal per-cell retention multiplier.  Larger
        spreads create more early-failing cells.
    anticell_fraction:
        Fraction of cells that store logical 1 as a *discharged*
        capacitor.
    decay:
        Arrhenius decay of cell charge.
    """

    refresh_interval_s: float = milliseconds(64)
    retention_spread: float = 0.4
    anticell_fraction: float = 0.5
    decay: ArrheniusDecay = field(default=DRAM_DECAY)

    def __post_init__(self) -> None:
        if self.refresh_interval_s <= 0.0:
            raise CalibrationError("refresh interval must be positive")
        if not 0.0 <= self.anticell_fraction <= 1.0:
            raise CalibrationError("anticell_fraction must be within [0, 1]")
        if self.retention_spread < 0.0:
            raise CalibrationError("retention spread cannot be negative")


class DramArray(ManufacturedArray):
    """A flat DRAM bit array with refresh and unpowered decay.

    The charge state is tracked as a normalised level in [0, 1]; a cell
    reads as its written value while its level exceeds 0.5 and as its
    ground state (0 for true cells, 1 for anti-cells) once decayed.
    The anti-cell layout and retention fields are read-only and shared
    by board copies (:class:`~repro.circuits.manufacture.Snapshot`).
    """

    MANUFACTURED = ("_anticell", "_retention_scale", "_scale32")

    def __init__(
        self,
        n_bits: int,
        params: DramParameters | None = None,
        rng: np.random.Generator | None = None,
        name: str = "dram",
    ) -> None:
        if n_bits <= 0 or n_bits % 8:
            raise CalibrationError("DRAM size must be a positive byte multiple")
        self.name = name
        self.params = params or DramParameters()
        self._rng = rng if rng is not None else from_entropy(0)
        self._n_bits = int(n_bits)
        self._anticell = read_only(ENGINE.uniform_mask(
            self._rng, self._n_bits, self.params.anticell_fraction
        ))
        # Per-cell retention multiplier (lognormal around 1.0); float16
        # keeps megabyte-scale modules affordable.
        self._retention_scale = read_only(ENGINE.lognormal_field(
            self._rng, self._n_bits, self.params.retention_spread
        ))
        # float32 widening of the retention field, cached because every
        # decay step divides by it; the field is fixed at manufacture.
        self._scale32 = read_only(self._retention_scale.astype(np.float32))
        # Modules start fully discharged (factory-fresh, unpowered).
        self._bits = self._ground_state()
        self._level = np.zeros(self._n_bits, dtype=np.float16)
        self._powered = False

    @property
    def n_bits(self) -> int:
        """Number of cells."""
        return self._n_bits

    @property
    def n_bytes(self) -> int:
        """Capacity in bytes."""
        return self._n_bits // 8

    @property
    def powered(self) -> bool:
        """Whether the module currently has power (and refresh)."""
        return self._powered

    def _ground_state(self) -> np.ndarray:
        return self._anticell.astype(np.uint8)

    # ------------------------------------------------------------------
    # Power and decay
    # ------------------------------------------------------------------

    def power_down(self) -> None:
        """Cut power (and refresh).  Charge decay starts from full."""
        if not self._powered:
            raise CircuitError(f"{self.name}: already unpowered")
        self._powered = False

    def elapse_unpowered(
        self, seconds: float, temperature_k: float = ROOM_TEMPERATURE_K
    ) -> None:
        """Decay cell charge for ``seconds`` at ``temperature_k``.

        Parameters
        ----------
        seconds:
            Unpowered (refresh-less) interval in seconds.
        temperature_k:
            Module temperature in kelvin; sets the Arrhenius time
            constant ``tau(T)``.  Chilled modules decay orders of
            magnitude slower — the knob the cold boot attack turns.
        """
        if self._powered:
            raise CircuitError(f"{self.name}: refresh is active; nothing decays")
        tau = self.params.decay.time_constant(temperature_k)
        self._level = ENGINE.charge_decay(
            self._level, seconds, tau, self._scale32
        )
        if OBS.enabled:
            OBS.gauge_set("dram.tau_s", tau, array=self.name)

    def restore_power(self, voltage: float | None = None) -> float:
        """Restore power; decayed cells revert to their ground state.

        ``voltage`` is accepted for :class:`~repro.power.domain.PowerLoad`
        compatibility; DRAM retention is refresh-driven, not
        supply-level-driven, so the value is ignored.

        Returns
        -------
        float
            Fraction of cells still holding their written value.
        """
        if self._powered:
            raise CircuitError(f"{self.name}: already powered")
        # Profiling hook: cells/s through the bulk decay kernel.  The
        # "perf." gauge is stripped from manifest fingerprints; the
        # disabled path reads no clock.
        start = wall_clock() if OBS.enabled else 0.0
        retained = ENGINE.charge_mask(self._level)
        ground = self._ground_state()
        self._bits = ENGINE.select(retained, self._bits, ground)
        # Refresh recharges every cell; 1.0 is exact at float16, so the
        # narrower fill is value-identical to the old float64 one.
        self._level = np.ones(self._n_bits, dtype=np.float16)
        self._powered = True
        fraction = float(np.mean(retained))
        if OBS.enabled:
            observe_rate(
                "dram.decay", self._n_bits, wall_clock() - start,
                array=self.name,
            )
            OBS.histogram_record(
                "dram.retained_fraction", fraction, array=self.name
            )
            OBS.counter_inc(
                "dram.cells_decayed",
                int(self._n_bits - int(retained.sum())),
                array=self.name,
            )
        return fraction

    def set_supply_voltage(self, voltage: float) -> int:
        """PowerLoad hook: DRAM tolerates supply moves; no cells are lost.

        Retention in DRAM is governed by refresh, and the stored charge
        sits on a large capacitor, so a supply-level change within the
        operating range does not corrupt cells.
        """
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot set voltage while unpowered")
        if voltage <= 0.0:
            raise CircuitError("supply voltage must be positive")
        return 0

    def apply_voltage_transient(self, minimum_v: float) -> int:
        """PowerLoad hook: microsecond rail sags do not drain DRAM caps."""
        if not self._powered:
            raise CircuitError(f"{self.name}: transient on an unpowered array")
        return 0

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read_bytes(self, offset: int = 0, count: int | None = None) -> bytes:
        """Read ``count`` bytes at byte ``offset`` (powered only)."""
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot read while unpowered")
        if count is None:
            count = self.n_bytes - offset
        self._check_range(offset, count)
        bits = self._bits[offset * 8 : (offset + count) * 8]
        return np.packbits(bits, bitorder="little").tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset``; written cells recharge."""
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot write while unpowered")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._check_range(offset, len(raw))
        bits = np.unpackbits(raw, bitorder="little")
        lo, hi = offset * 8, offset * 8 + len(bits)
        self._bits[lo:hi] = bits
        self._level[lo:hi] = 1.0

    def image(self) -> np.ndarray:
        """Snapshot of the current logical bit image."""
        return self._bits.copy()

    def _check_range(self, offset: int, count: int) -> None:
        if offset < 0 or count < 0 or offset + count > self.n_bytes:
            raise CircuitError(
                f"{self.name}: byte range [{offset}, {offset + count}) "
                f"exceeds {self.n_bytes} bytes"
            )
