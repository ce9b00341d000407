"""6T SRAM cell arrays with data-retention-voltage physics.

An SRAM cell is a pair of cross-coupled inverters (paper Figure 1).  Three
physical properties drive everything in the Volt Boot paper:

**Data retention voltage (DRV).**  A powered cell keeps its state as long
as its supply stays above a per-cell DRV, which is process-variation
dependent but *well below* the nominal supply (paper §2.1).  If the supply
sags below a cell's DRV — even briefly — the feedback loop collapses and
the cell falls back to its power-up preference.  This is why the
attacker's probe must ride out the disconnect surge (paper §6), and why a
sufficiently beefy bench supply yields 100 % recovery.

**Power-up fingerprint.**  An unpowered-then-powered cell settles into a
preferred state determined by transistor mismatch.  Most cells are
strongly skewed and always wake up the same way; a minority are metastable
and wake up randomly.  The fractional Hamming distance between two
power-ups of the same array is therefore small but non-zero (~0.10 in the
paper's Table 1 caption).

**Intrinsic retention time.**  With the supply removed, the storage node
discharges with an Arrhenius time constant (:mod:`~repro.circuits.leakage`).
At room temperature this is tens of microseconds — hence "SRAM has no
chill": no manual power cycle is fast enough, and no achievable cold makes
it slow enough.

:class:`SramArray` models a flat array of cells; architectural structures
(cache ways, register files, iRAM) are built on top of it by
:mod:`repro.soc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CalibrationError, CircuitError
from ..obs import OBS
from ..obs.timing import observe_rate, wall_clock
from ..rng import from_entropy
from ..units import ROOM_TEMPERATURE_K, millivolts
from .engine import ENGINE
from .leakage import ArrheniusDecay, SRAM_DECAY
from .manufacture import ManufacturedArray, read_only


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 cells eight to a byte, cell ``8k + i`` into bit ``i``."""
    return np.packbits(bits, bitorder="little")


def _unpack(cells: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack`: one ``uint8`` 0/1 per cell."""
    return np.unpackbits(cells, bitorder="little")


@dataclass(frozen=True)
class SramParameters:
    """Process parameters of an SRAM macro.

    Parameters
    ----------
    nominal_v:
        Nominal supply voltage of the power domain feeding the macro.
    drv_mean_v, drv_sigma_v:
        Mean and standard deviation of the per-cell data retention
        voltage.  Defaults put DRV around 0.25 V — far below nominal, per
        the paper's §2.1 discussion.
    restore_mean_v, restore_sigma_v:
        Mean/sigma of the node voltage below which a cell, on power
        restore, no longer recovers its old state.  Governs cold-boot
        style retention after an *unpowered* interval.
    noisy_fraction:
        Fraction of cells whose power-up state is random rather than
        skewed.  0.2 yields a ~0.10 fractional HD between power-ups.
    decay:
        Arrhenius model for unpowered node decay.
    """

    nominal_v: float = 0.8
    drv_mean_v: float = 0.25
    drv_sigma_v: float = millivolts(30)
    restore_mean_v: float = 0.10
    restore_sigma_v: float = millivolts(20)
    noisy_fraction: float = 0.20
    decay: ArrheniusDecay = field(default=SRAM_DECAY)

    def __post_init__(self) -> None:
        if self.nominal_v <= 0.0:
            raise CalibrationError("nominal voltage must be positive")
        if not 0.0 <= self.noisy_fraction <= 1.0:
            raise CalibrationError("noisy_fraction must be within [0, 1]")
        if self.drv_sigma_v < 0.0 or self.restore_sigma_v < 0.0:
            raise CalibrationError("sigma values cannot be negative")
        if self.drv_mean_v >= self.nominal_v:
            raise CalibrationError(
                "mean DRV must sit below the nominal supply voltage"
            )


class SramArray(ManufacturedArray):
    """A flat array of 6T SRAM cells addressed as bits or bytes.

    The array is always in one of two electrical states:

    * **powered** — holding a supply voltage; bits are stable unless the
      supply sags below per-cell DRVs.
    * **unpowered** — the storage nodes decay; the stored image survives a
      later :meth:`restore_power` only for cells whose node voltage is
      still above their restore threshold.

    The stored image is packed: ``_cells`` holds one ``uint8`` per
    eight cells, little-endian within each byte (cell ``8k + i`` is bit
    ``i`` of byte ``k``), so the byte accessors are plain slices.  Cells
    are unpacked to one byte per bit only where per-cell physics runs
    (restore, DRV collapse, aging) and, for :meth:`read_bits` and
    :meth:`write_bits`, only over the bytes covering the requested
    range.  The process-variation fields are read-only and shared by
    board copies (:class:`~repro.circuits.manufacture.Snapshot`); the
    cells are per copy.

    :attr:`mutations` counts the events that change the stored image or
    make reading it illegal, so a structure that mirrors part of the
    image (the cache's tag words) can tell when its copy is stale.
    """

    MANUFACTURED = ("_drv", "_restore_threshold", "_wake_p", "_wake32")

    #: Residual flip probability of a strongly-skewed cell at power-up.
    WAKE_SKEW_EPSILON = 0.005

    #: Wake-probability shift per year of continuously imprinting one
    #: value (NBTI-style aging; paper §9.2's decade-scale attacks).
    AGING_SHIFT_PER_YEAR = 0.02

    def __init__(
        self,
        n_bits: int,
        params: SramParameters | None = None,
        rng: np.random.Generator | None = None,
        name: str = "sram",
    ) -> None:
        if n_bits <= 0:
            raise CalibrationError("an SRAM array needs at least one bit")
        if n_bits % 8:
            raise CalibrationError("array size must be a whole number of bytes")
        self.name = name
        self.params = params or SramParameters()
        self._rng = rng if rng is not None else from_entropy(0)
        self._n_bits = int(n_bits)

        # Process variation, fixed at manufacture time.  Stored as float16
        # to keep megabyte-scale macros affordable; sub-millivolt
        # resolution is far below any physical effect modelled here.
        self._drv = read_only(ENGINE.gaussian_field(
            self._rng,
            self._n_bits,
            self.params.drv_mean_v,
            self.params.drv_sigma_v,
            0.01,
        ))
        self._restore_threshold = read_only(ENGINE.gaussian_field(
            self._rng,
            self._n_bits,
            self.params.restore_mean_v,
            self.params.restore_sigma_v,
            0.005,
        ))
        # Per-cell wake probability: the chance a cell powers up as 1.
        # Strongly-skewed cells sit near 0 or 1 (the stable PUF bits);
        # metastable cells sit near 0.5 and flip coin-like on every
        # power-up.  Aging (NBTI imprinting) later shifts these values
        # toward whatever the cell spent its life holding (paper §9.2).
        self._wake_p = read_only(ENGINE.wake_field(
            self._rng,
            self._n_bits,
            self.params.noisy_fraction,
            self.WAKE_SKEW_EPSILON,
        ))
        # float32 widening of the wake field, cached because every
        # power-up compares against it; refreshed whenever aging moves
        # the probabilities.
        self._wake32 = read_only(self._wake_p.astype(np.float32))

        # Electrical state: the stored image, eight cells per byte.
        self._cells = np.zeros(self._n_bits // 8, dtype=np.uint8)
        self._powered = False
        self._supply_v = 0.0
        self._unpowered_fraction = 1.0  # V/V0 accumulated while off
        self._off_supply_v = 0.0  # supply level at the moment power was lost
        self._mutations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_bits(self) -> int:
        """Number of cells in the array."""
        return self._n_bits

    @property
    def n_bytes(self) -> int:
        """Array capacity in bytes."""
        return self._n_bits // 8

    @property
    def powered(self) -> bool:
        """Whether the array currently has a supply."""
        return self._powered

    @property
    def mutations(self) -> int:
        """Count of image changes and power events so far.

        Bumped by every write, power-up, power-down and restore, and by
        a DRV collapse that loses cells; reads never bump it.
        """
        return self._mutations

    @property
    def supply_voltage(self) -> float:
        """Present supply voltage (0.0 when unpowered)."""
        return self._supply_v if self._powered else 0.0

    def drv_percentile(self, percentile: float) -> float:
        """Per-cell DRV percentile — used by probe-planning heuristics.

        Parameters
        ----------
        percentile:
            Percentile in ``[0, 100]``.

        Returns
        -------
        float
            The DRV value (volts) at that percentile of the array's
            manufacture-time distribution.
        """
        return float(np.percentile(self._drv, percentile))

    def cell_drv(self) -> np.ndarray:
        """Copy of the per-cell data retention voltages.

        Returns
        -------
        numpy.ndarray
            ``float32[n_bits]`` DRVs in volts (the stored ``float16``
            field widened losslessly).
        """
        return self._drv.astype(np.float32)

    def wake_probabilities(self) -> np.ndarray:
        """Copy of the per-cell power-up-as-1 probabilities.

        Returns
        -------
        numpy.ndarray
            ``float32[n_bits]`` probabilities in ``[0, 1]``.
        """
        return self._wake_p.astype(np.float32)

    def noisy_cell_mask(self) -> np.ndarray:
        """Cells whose power-up state is effectively a coin flip.

        Returns
        -------
        numpy.ndarray
            ``bool[n_bits]`` mask of metastable cells (wake probability
            inside ``(0.2, 0.8)``).
        """
        wake = self._wake_p.astype(np.float32)
        return (wake > 0.2) & (wake < 0.8)

    # ------------------------------------------------------------------
    # Aging (NBTI imprinting — paper §9.2)
    # ------------------------------------------------------------------

    def age(self, years: float, duty_cycle: float = 1.0) -> None:
        """Imprint the currently-held data into the cells' wake skew.

        Bias temperature instability slowly shifts a cell's power-up
        preference toward the value it spends its life holding — the
        physical basis of the decade-scale data-imprinting attacks the
        paper contrasts itself against (§9.2).

        Parameters
        ----------
        years:
            Imprinting duration in years; must be non-negative.
        duty_cycle:
            Fraction of the period the data was actually resident, in
            ``[0, 1]``.

        Raises
        ------
        CalibrationError
            If ``years`` is negative or ``duty_cycle`` leaves ``[0, 1]``.
        CircuitError
            If the array is unpowered (nothing is imprinting).
        """
        if years < 0.0 or not 0.0 <= duty_cycle <= 1.0:
            raise CalibrationError("aging needs years >= 0, duty in [0, 1]")
        self._require_powered("age")
        # Rebinds (never writes) the fields, so copies sharing the
        # old ones are unaffected.
        self._wake_p = read_only(ENGINE.age_wake(
            self._wake_p,
            _unpack(self._cells),
            self.AGING_SHIFT_PER_YEAR * years * duty_cycle,
            self.WAKE_SKEW_EPSILON / 2,
            1.0 - self.WAKE_SKEW_EPSILON / 2,
        ))
        self._wake32 = read_only(self._wake_p.astype(np.float32))

    # ------------------------------------------------------------------
    # Power state machine
    # ------------------------------------------------------------------

    def power_up(self, voltage: float | None = None) -> None:
        """Energise the array from a fully-discharged (cold) state.

        All cells settle into their power-up fingerprint: skewed cells take
        their preferred value, metastable cells flip a fresh coin.

        Parameters
        ----------
        voltage:
            Supply voltage in volts; ``None`` applies the nominal
            supply.  Consumes one bulk power-up draw from the array's
            stream (see :meth:`repro.circuits.engine.vector.VectorEngine.powerup`).
        """
        self._require_voltage(voltage)
        self._cells = _pack(self._sample_powerup())
        self._mutations += 1
        self._powered = True
        self._supply_v = self.params.nominal_v if voltage is None else voltage
        self._unpowered_fraction = 1.0

    def power_down(self) -> None:
        """Remove the supply.  Node voltages begin to decay from here."""
        if not self._powered:
            raise CircuitError(f"{self.name}: already unpowered")
        self._off_supply_v = self._supply_v
        self._mutations += 1
        self._powered = False
        self._supply_v = 0.0
        self._unpowered_fraction = 1.0

    def elapse_unpowered(
        self, seconds: float, temperature_k: float = ROOM_TEMPERATURE_K
    ) -> None:
        """Let ``seconds`` pass without power at ``temperature_k``.

        May be called repeatedly with different temperatures; decay
        fractions compose multiplicatively.

        Parameters
        ----------
        seconds:
            Unpowered interval in seconds.
        temperature_k:
            Soak temperature in kelvin; sets the Arrhenius time
            constant ``tau(T)`` (:class:`~repro.circuits.leakage.ArrheniusDecay`).
        """
        if self._powered:
            raise CircuitError(f"{self.name}: array is powered; nothing decays")
        self._unpowered_fraction *= self.params.decay.surviving_fraction(
            seconds, temperature_k
        )
        if OBS.enabled:
            OBS.gauge_set(
                "sram.tau_s",
                self.params.decay.time_constant(temperature_k),
                array=self.name,
            )

    def restore_power(self, voltage: float | None = None) -> float:
        """Re-apply power after an unpowered interval.

        Cells whose decayed node voltage still exceeds their restore
        threshold recover their previous state; the rest settle into the
        power-up fingerprint.

        Parameters
        ----------
        voltage:
            Restored supply voltage in volts; ``None`` applies the
            nominal supply.  Restoring below some cells' DRV collapses
            those cells immediately as well.

        Returns
        -------
        float
            Fraction of cells that retained their data — the quantity
            every remanence study reports.
        """
        if self._powered:
            raise CircuitError(f"{self.name}: already powered")
        self._require_voltage(voltage)
        # Profiling hook: cells/s through the bulk decay kernel.  The
        # "perf." gauge is stripped from manifest fingerprints; the
        # disabled path reads no clock.
        start = wall_clock() if OBS.enabled else 0.0
        node_v = self._off_supply_v * self._unpowered_fraction
        retained = ENGINE.restore_mask(node_v, self._restore_threshold)
        fresh = self._sample_powerup()
        kept = ENGINE.select(retained, _unpack(self._cells), fresh)
        self._cells = _pack(kept)
        self._mutations += 1
        self._powered = True
        self._supply_v = self.params.nominal_v if voltage is None else voltage
        self._unpowered_fraction = 1.0
        # Restoring at a voltage below some cells' DRV immediately
        # collapses those cells as well.
        self._collapse_below(self._supply_v)
        fraction = float(np.mean(retained))
        if OBS.enabled:
            observe_rate(
                "sram.decay", self._n_bits, wall_clock() - start,
                array=self.name,
            )
            OBS.histogram_record(
                "sram.retained_fraction", fraction, array=self.name
            )
            OBS.counter_inc(
                "sram.cells_decayed",
                int(self._n_bits - int(retained.sum())),
                array=self.name,
            )
        return fraction

    def set_supply_voltage(self, voltage: float) -> int:
        """Adjust the supply while powered (DVFS, or an attacker's probe).

        Cells whose DRV exceeds the new voltage collapse to their power-up
        preference.

        Parameters
        ----------
        voltage:
            New supply voltage in volts; must be positive.

        Returns
        -------
        int
            Number of cells lost to the move.
        """
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot set voltage while unpowered")
        self._require_voltage(voltage)
        lost = self._collapse_below(voltage)
        self._supply_v = voltage
        return lost

    def apply_voltage_transient(self, minimum_v: float) -> int:
        """Model a transient sag to ``minimum_v`` (droop during a surge).

        The sag is assumed long enough (microseconds) to collapse every
        cell whose DRV it undercuts.  Returns the number of cells lost.
        """
        if not self._powered:
            raise CircuitError(f"{self.name}: transient on an unpowered array")
        if minimum_v < 0.0:
            raise CircuitError("droop voltage cannot be negative")
        return self._collapse_below(minimum_v)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read_bits(self, start: int = 0, count: int | None = None) -> np.ndarray:
        """Copy out ``count`` bits starting at bit index ``start``."""
        self._require_powered("read")
        start, count = self._bit_range(start, count)
        lo, hi = start // 8, (start + count + 7) // 8
        skip = start - 8 * lo
        return _unpack(self._cells[lo:hi])[skip : skip + count]

    def write_bits(self, start: int, values: np.ndarray) -> None:
        """Write a bit vector starting at bit index ``start``."""
        self._require_powered("write")
        values = np.asarray(values, dtype=np.uint8) & 1
        start, count = self._bit_range(start, len(values))
        lo, hi = start // 8, (start + count + 7) // 8
        bits = _unpack(self._cells[lo:hi])
        bits[start - 8 * lo : start - 8 * lo + count] = values
        self._cells[lo:hi] = _pack(bits)
        self._mutations += 1

    def read_bytes(self, offset: int = 0, count: int | None = None) -> bytes:
        """Copy out ``count`` bytes starting at byte ``offset``."""
        self._require_powered("read")
        if count is None:
            count = self.n_bytes - offset
        self._bit_range(offset * 8, count * 8)
        return self._cells[offset : offset + count].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` starting at byte ``offset``."""
        self._require_powered("write")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bit_range(offset * 8, len(raw) * 8)
        self._cells[offset : offset + len(raw)] = raw
        self._mutations += 1

    def fill_bytes(self, value: int) -> None:
        """Fill the whole array with one repeated byte value."""
        self.write_bytes(0, bytes([value & 0xFF]) * self.n_bytes)

    def image(self) -> np.ndarray:
        """Snapshot of the raw bit image (uint8 0/1 array)."""
        return self.read_bits()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sample_powerup(self) -> np.ndarray:
        return ENGINE.powerup(self._rng, self._wake32)

    def _collapse_below(self, voltage: float) -> int:
        lost = ENGINE.drv_collapse_mask(self._drv, voltage)
        if not lost.any():
            return 0
        fresh = self._sample_powerup()
        self._cells = _pack(ENGINE.select(lost, fresh, _unpack(self._cells)))
        self._mutations += 1
        count = int(lost.sum())
        if OBS.enabled:
            OBS.counter_inc("sram.cells_below_drv", count, array=self.name)
        return count

    def _require_powered(self, action: str) -> None:
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot {action} while unpowered")

    def _require_voltage(self, voltage: float | None) -> None:
        if voltage is not None and voltage <= 0.0:
            raise CircuitError("supply voltage must be positive")

    def _bit_range(self, start: int, count: int | None) -> tuple[int, int]:
        if count is None:
            count = self._n_bits - start
        if start < 0 or count < 0 or start + count > self._n_bits:
            raise CircuitError(
                f"{self.name}: bit range [{start}, {start + count}) exceeds "
                f"{self._n_bits} bits"
            )
        return start, count
