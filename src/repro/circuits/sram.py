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
from functools import cached_property

import numpy as np

from ..errors import CalibrationError, CircuitError
from ..obs import OBS
from ..rng import from_entropy, from_state
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

    Manufacture is deferred until something reads the cells.  The
    array owns its generator (nothing else may draw from it), and a
    new array has taken no draw: it saves the generator's state and
    counts the power-up draws it owes, the image being either concrete
    (``_cells``) or pending — the latest of those draws.  Full-array
    writes make the image concrete, and two draw-free bounds decide
    the power events every cell agrees on (a restore from a node
    voltage at the restore-threshold floor loses every cell; a supply
    at or above :attr:`DRV_CAP_Z` sigmas over the mean DRV collapses
    none).  Anything else — reading a pending image, a partial write
    to it, aging, a field read, a voltage the bounds leave open —
    calls :meth:`materialize`, which replays the owed draws in order,
    so every result and the stream equal an array that drew eagerly.

    Even then, the DRV and restore-threshold fields are kept only once
    a result reads them.  Manufacture advances the stream past each
    one, but keeps the stream state it started from and the field's
    ``float16`` extent; a supply or node voltage outside the extent
    decides every cell without the field, and any other value builds
    it once by replaying the draw from the saved state.

    :attr:`mutations` counts the events that change the stored image or
    make reading it illegal, so a structure that mirrors part of the
    image (the cache's tag words) can tell when its copy is stale.
    """

    MANUFACTURED = ("_drv", "_restore_threshold", "_wake_p")

    #: Manufacture floors of the DRV and restore-threshold fields
    #: (volts): no cell parameter is zero or negative.
    DRV_FLOOR_V = millivolts(10)
    RESTORE_FLOOR_V = millivolts(5)
    #: The floor as the restore field stores it: no threshold is lower.
    _RESTORE_FLOOR16 = np.float16(np.float32(RESTORE_FLOOR_V))

    #: Residual flip probability of a strongly-skewed cell at power-up.
    WAKE_SKEW_EPSILON = 0.005

    #: A bound on ``|Z|`` for numpy's ``float32`` normal draws (the
    #: ziggurat returns at most ~8.207; see ``docs/physics.md``), so
    #: no cell's DRV exceeds its mean plus this many sigmas.
    DRV_CAP_Z = 8.25

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

        # Process variation is drawn by materialize(), first of all
        # from the stream state saved here (the DRV field's).
        self._drv_state = self._rng.bit_generator.state
        self._manufactured = False
        self._powerups = 0  # power-up draws owed until materialize()
        self._drv_cap = ENGINE.gaussian_value(
            self.DRV_CAP_Z,
            self.params.drv_mean_v,
            self.params.drv_sigma_v,
            self.DRV_FLOOR_V,
        )

        # Electrical state: the stored image, eight cells per byte
        # (None while it is the latest owed power-up draw).
        self._cells: np.ndarray | None = np.zeros(
            self._n_bits // 8, dtype=np.uint8
        )
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

    def wake_probabilities(self) -> np.ndarray:
        """Copy of the per-cell power-up-as-1 probabilities.

        Returns
        -------
        numpy.ndarray
            ``float32[n_bits]`` probabilities in ``[0, 1]``.
        """
        self.materialize()
        return self._wake_p.astype(np.float32)

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
        self.materialize()
        # Rebinds (never writes) the fields, so copies sharing the
        # old ones are unaffected.
        self._wake_p = read_only(ENGINE.age_wake(
            self._wake_p,
            _unpack(self._cells),
            self.AGING_SHIFT_PER_YEAR * years * duty_cycle,
            self.WAKE_SKEW_EPSILON / 2,
            1.0 - self.WAKE_SKEW_EPSILON / 2,
        ))

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
        self._power_up_image()
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
        node_v = self._off_supply_v * self._unpowered_fraction
        node16 = np.float16(node_v)
        if not self._manufactured and 0 <= node16 <= self._RESTORE_FLOOR16:
            # At or below the manufacture floor of every threshold: no
            # cell recovers, and the image is one more owed draw.
            retained = 0
            self._power_up_image()
        else:
            self.materialize()
            fresh = self._sample_powerup()
            low, high = self._restore_extent
            if 0 <= node16 <= low:
                # At or below every threshold: no cell recovers.
                retained = 0
                self._cells = _pack(fresh)
            elif node16 > high:
                # Above every threshold: every cell recovers.
                retained = self._n_bits
            else:
                mask = ENGINE.restore_mask(node_v, self._restore_threshold)
                kept = ENGINE.select(mask, _unpack(self._cells), fresh)
                self._cells = _pack(kept)
                retained = int(np.count_nonzero(mask))
        self._mutations += 1
        self._powered = True
        self._supply_v = self.params.nominal_v if voltage is None else voltage
        self._unpowered_fraction = 1.0
        # Restoring at a voltage below some cells' DRV immediately
        # collapses those cells as well.
        self._collapse_below(self._supply_v)
        fraction = retained / self._n_bits
        if OBS.enabled:
            OBS.histogram_record(
                "sram.retained_fraction", fraction, array=self.name
            )
            OBS.counter_inc(
                "sram.cells_decayed", self._n_bits - retained, array=self.name
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
        if self._cells is None:
            self.materialize()
        return _unpack(self._cells[lo:hi])[skip : skip + count]

    def write_bits(self, start: int, values: np.ndarray) -> None:
        """Write a bit vector starting at bit index ``start``."""
        self._require_powered("write")
        values = np.asarray(values, dtype=np.uint8) & 1
        start, count = self._bit_range(start, len(values))
        lo, hi = start // 8, (start + count + 7) // 8
        if self._cells is None:
            self.materialize()
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
        if self._cells is None:
            self.materialize()
        return self._cells[offset : offset + count].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` starting at byte ``offset``."""
        self._require_powered("write")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bit_range(offset * 8, len(raw) * 8)
        if self._cells is None and len(raw) == self.n_bytes:
            self._cells = raw.copy()  # replaces the pending image whole
        else:
            if self._cells is None:
                self.materialize()
            self._cells[offset : offset + len(raw)] = raw
        self._mutations += 1

    def fill_bytes(self, value: int) -> None:
        """Fill the whole array with one repeated byte value."""
        self.write_bytes(0, bytes([value & 0xFF]) * self.n_bytes)

    def image(self) -> np.ndarray:
        """Snapshot of the raw bit image (uint8 0/1 array)."""
        return self.read_bits()

    # ------------------------------------------------------------------
    # Deferred manufacture
    # ------------------------------------------------------------------

    def materialize(self) -> None:
        """Take every draw the array owes its stream, in order.

        Manufacture first: the DRV and restore-threshold fields (their
        extents and the restore field's start state are kept, the
        fields themselves are not) and the wake field.  Then the
        power-up draws taken since, skipped without sampling, but the
        last one becomes the image if the image is still pending.  The
        stream, the fields and the image are then exactly those of an
        array that drew each one when it was asked for.  Does nothing
        once the array is materialized.

        Raises
        ------
        CircuitError
            If some cell's DRV exceeds the cap the draw-free collapse
            bound assumed (:attr:`DRV_CAP_Z`).
        """
        if self._manufactured:
            return
        params = self.params
        self._drv_extent = ENGINE.gaussian_extent(
            self._rng,
            self._n_bits,
            params.drv_mean_v,
            params.drv_sigma_v,
            self.DRV_FLOOR_V,
        )
        if self._drv_extent[1] > self._drv_cap:
            raise CircuitError(
                f"{self.name}: a DRV of {self._drv_extent[1]} V exceeds "
                f"the {self._drv_cap} V cap"
            )
        self._restore_state = self._rng.bit_generator.state
        self._restore_extent = ENGINE.gaussian_extent(
            self._rng,
            self._n_bits,
            params.restore_mean_v,
            params.restore_sigma_v,
            self.RESTORE_FLOOR_V,
        )
        # Per-cell wake probability: the chance a cell powers up as 1.
        # Strongly-skewed cells sit near 0 or 1 (the stable PUF bits);
        # metastable cells sit near 0.5 and flip coin-like on every
        # power-up.  Aging (NBTI imprinting) later shifts these values
        # toward whatever the cell spent its life holding (paper §9.2).
        self._wake_p = read_only(ENGINE.wake_field(
            self._rng,
            self._n_bits,
            params.noisy_fraction,
            self.WAKE_SKEW_EPSILON,
        ))
        pending = self._cells is None
        ENGINE.skip_powerups(self._rng, self._n_bits, self._powerups - pending)
        if pending:
            self._cells = _pack(self._sample_powerup())
        self._manufactured = True

    def _power_up_image(self) -> None:
        """Replace the whole image with one power-up draw, which stays
        owed (the image pending) until the array is materialized."""
        if self._manufactured:
            self._cells = _pack(self._sample_powerup())
        else:
            self._powerups += 1
            self._cells = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @cached_property
    def _drv(self) -> np.ndarray:
        """The ``float16`` DRV field, replayed from its saved state."""
        self.materialize()
        return read_only(ENGINE.gaussian_field(
            from_state(self._drv_state),
            self._n_bits,
            self.params.drv_mean_v,
            self.params.drv_sigma_v,
            self.DRV_FLOOR_V,
        ))

    @cached_property
    def _restore_threshold(self) -> np.ndarray:
        """The ``float16`` restore-threshold field, replayed likewise."""
        self.materialize()
        return read_only(ENGINE.gaussian_field(
            from_state(self._restore_state),
            self._n_bits,
            self.params.restore_mean_v,
            self.params.restore_sigma_v,
            self.RESTORE_FLOOR_V,
        ))

    def _sample_powerup(self) -> np.ndarray:
        return ENGINE.powerup(self._rng, self._wake_p)

    def _collapse_below(self, voltage: float) -> int:
        supply = np.float16(voltage)
        if not self._manufactured and supply >= self._drv_cap:
            return 0  # at or above the cap on every DRV: none collapses
        self.materialize()
        low, high = self._drv_extent
        if supply >= high:
            return 0  # at or above every DRV: no cell collapses
        if supply < low:
            # Below every DRV: the whole image collapses.
            self._cells = _pack(self._sample_powerup())
            count = self._n_bits
        else:
            lost = ENGINE.drv_collapse_mask(self._drv, voltage)
            if not lost.any():
                return 0
            fresh = self._sample_powerup()
            self._cells = _pack(
                ENGINE.select(lost, fresh, _unpack(self._cells))
            )
            count = int(lost.sum())
        self._mutations += 1
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
