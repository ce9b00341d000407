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
from functools import cached_property

import numpy as np

from ..errors import CalibrationError, CircuitError
from ..obs import OBS
from ..rng import from_entropy, from_state
from ..units import ROOM_TEMPERATURE_K, milliseconds
from .engine import ENGINE
from .leakage import ArrheniusDecay, DRAM_DECAY
from .manufacture import (
    ManufacturedArray,
    pack_cells,
    read_only,
    unpack_cells,
)

#: Bytes in one page of the ground state: a read or partial write of a
#: ground-state image draws the anti-cell flags of the pages it covers.
PAGE_BYTES = 4096


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

    A cell reads as its written value while its normalised charge
    exceeds 0.5 and as its ground state (0 for true cells, 1 for
    anti-cells) once decayed.  The stored image is packed like
    :class:`~repro.circuits.sram.SramArray`'s: ``_cells`` holds cell
    ``8k + i`` in bit ``i`` of byte ``k``.  The anti-cell layout
    (packed the same way) and the retention field are read-only and
    shared by board copies (:class:`~repro.circuits.manufacture.Snapshot`).

    No cell holds its own charge.  Every cell is full while powered
    (writes need power, and every restore recharges the module), and
    a factory-fresh module is empty, so at each restore a cell's level
    depends only on that start level, its ``float16`` retention
    multiplier and the ``(seconds, tau)`` decays owed since power went.
    :meth:`restore_power` runs the decay kernel once per multiplier
    bit pattern within the retention cap; survival is monotone in the
    multiplier, so a cell keeps its value exactly when its pattern is
    at or above the first one kept.

    Manufacture is deferred.  The array owns its generator (nothing
    else may draw from it), and a new array saves its state and draws
    nothing.  ``_cells`` is ``None`` while the whole image is the
    pending ground state, and ``_ground_pages`` names the
    :data:`PAGE_BYTES` pages of ``_cells`` that still are.  A read or
    partial write of such pages draws the anti-cell flags of only the
    pages it covers: page ``p`` takes the ``random()`` values that
    follow the first ``p * 8 * PAGE_BYTES`` of the saved stream,
    reached with ``advance``, which is why the generator must be PCG64
    (its ``advance(k)`` skips exactly ``k`` ``float64`` ``random()``
    values; :mod:`repro.rng` builds no other).  Applying an owed mask,
    :meth:`image`, :meth:`ground_state` and :meth:`materialize` draw
    the whole layout (``_anticell``), a page at a time.  A restore
    that neither keeps nor loses every cell within the cap only
    records that first kept pattern: the image owes the keep mask, and
    owed restores compose by taking the higher pattern (lost cells
    fall to the ground state and stay there).  The next read, partial
    write, :meth:`image` or :meth:`materialize` applies it, and a full
    write drops it.  The retention field, which follows the anti-cell
    draw in the stream, is drawn only when an owed mask is applied or
    :meth:`retained_fraction` counts a split restore.  Every result,
    the image and, after :meth:`materialize`, the stream equal those
    of an array that drew both fields when it was built.  When metrics
    are on, each restore counts its fraction at once.
    """

    MANUFACTURED = ("_anticell", "_retention_scale")

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
        # Both fields are drawn on first need, from the state saved here.
        self._manufacture_state = self._rng.bit_generator.state
        kind = self._manufacture_state["bit_generator"]
        if kind != "PCG64":
            raise CalibrationError(f"{name}: needs a PCG64 stream, got {kind}")
        # Every retention multiplier lies within the field's own
        # rounding of the ends of the normal draw's |Z| bound.
        spread = self.params.retention_spread
        self._retention_cap = (
            ENGINE.lognormal_value(-ENGINE.NORMAL_Z_CAP, spread),
            ENGINE.lognormal_value(ENGINE.NORMAL_Z_CAP, spread),
        )
        # Modules start fully discharged (factory-fresh, unpowered):
        # the image is the ground state, and no cell holds charge.
        self._cells: np.ndarray | None = None
        self._ground_pages: set[int] = set()
        self._start_level = 0.0
        self._decays: list[tuple[float, float]] = []  # (seconds, tau)
        self._powered = False
        # The keep mask the image owes, as its first kept multiplier
        # pattern (None when nothing is owed).
        self._owed_first: int | None = None
        # The last restore's first kept pattern, and its kept-cell
        # count once known (both None before the first restore).
        self._restored_first: int | None = None
        self._kept_cells: int | None = None

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

    def ground_state(self) -> np.ndarray:
        """What each cell reads once fully decayed, one ``uint8`` 0/1
        per cell: 1 for anti-cells, 0 for true cells.

        This is the per-chip profile a cold boot attacker measures to
        know which way each decayed bit falls.
        """
        return unpack_cells(self._anticell)

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

        The decay is owed, not run: the next :meth:`restore_power`
        applies every decay since power went, in order.

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
        self._decays.append((seconds, tau))
        if OBS.enabled:
            OBS.gauge_set("dram.tau_s", tau, array=self.name)

    def restore_power(self, voltage: float | None = None) -> None:
        """Restore power; decayed cells revert to their ground state.

        ``voltage`` is accepted for :class:`~repro.power.domain.PowerLoad`
        compatibility; DRAM retention is refresh-driven, not
        supply-level-driven, so the value is ignored.  A restore that
        splits the cells leaves the image owing its keep mask (see the
        class notes); :meth:`retained_fraction` reports how many kept
        their value.

        Raises
        ------
        CircuitError
            If the decay kernel keeps some multiplier but loses a
            larger one.
        """
        if self._powered:
            raise CircuitError(f"{self.name}: already powered")
        first = self._first_kept()
        low, high = self._cap_patterns()
        if first <= low:
            self._kept_cells = self._n_bits
        elif first > high:
            self._kept_cells = 0
            self._cells = None
            self._ground_pages = set()
            self._owed_first = None
        else:
            self._kept_cells = None
            if self._cells is not None:
                # A ground-state image stays one: lost cells fall to it.
                self._owed_first = (
                    first if self._owed_first is None
                    else max(first, self._owed_first)
                )
        self._restored_first = first
        # Refresh recharges every cell.
        self._start_level = 1.0
        self._decays = []
        self._powered = True
        if OBS.enabled:
            fraction = self.retained_fraction()
            OBS.histogram_record(
                "dram.retained_fraction", fraction, array=self.name
            )
            OBS.counter_inc(
                "dram.cells_decayed",
                self._n_bits - self._kept_cells,
                array=self.name,
            )

    def retained_fraction(self) -> float:
        """Fraction of cells that kept their value through the last
        :meth:`restore_power`.

        Counting a restore that split the cells draws the retention
        field (once; later calls reuse the count).

        Raises
        ------
        CircuitError
            If the array was never restored, or if the count draws the
            retention field and some multiplier lies outside the cap.
        """
        if self._restored_first is None:
            raise CircuitError(f"{self.name}: never restored")
        if self._kept_cells is None:
            patterns = self._retention_scale.view(np.uint16)
            self._kept_cells = int(
                np.count_nonzero(patterns >= self._restored_first)
            )
        return self._kept_cells / self._n_bits

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
        return self._image(offset, count)[offset : offset + count].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset``; written cells recharge."""
        if not self._powered:
            raise CircuitError(f"{self.name}: cannot write while unpowered")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._check_range(offset, len(raw))
        if len(raw) == self.n_bytes:
            # Replaces the image whole, with any keep mask it owes.
            if self._cells is None:
                self._cells = raw.copy()
            else:
                self._cells[:] = raw
            self._ground_pages = set()
            self._owed_first = None
        else:
            self._image(offset, len(raw))[offset : offset + len(raw)] = raw

    def image(self) -> np.ndarray:
        """Snapshot of the current logical bit image."""
        return unpack_cells(self._image())

    def _check_range(self, offset: int, count: int) -> None:
        if offset < 0 or count < 0 or offset + count > self.n_bytes:
            raise CircuitError(
                f"{self.name}: byte range [{offset}, {offset + count}) "
                f"exceeds {self.n_bytes} bytes"
            )

    # ------------------------------------------------------------------
    # Deferred manufacture
    # ------------------------------------------------------------------

    def materialize(self) -> None:
        """Draw both fields and make the image concrete, applying any
        keep mask it owes.

        The generator then ends where an eager build's would, past the
        anti-cell and retention draws.  Does nothing the second time.
        """
        self._retention_scale
        self._image()

    def _image(self, offset: int = 0, count: int | None = None) -> np.ndarray:
        """The packed image, with the keep mask it owes applied and its
        bytes ``[offset, offset + count)`` (every byte when ``count``
        is ``None``) made concrete where they are the ground state.

        A range with no mask owed draws only the anti-cell pages it
        covers; every other call draws the whole layout.
        """
        if count is not None and self._owed_first is None:
            if self._cells is None:
                self._cells = np.zeros(self.n_bytes, dtype=np.uint8)
                self._ground_pages = set(range(self._n_pages))
            if count and self._ground_pages:
                last = (offset + count - 1) // PAGE_BYTES
                for page in range(offset // PAGE_BYTES, last + 1):
                    if page in self._ground_pages:
                        self._ground_pages.discard(page)
                        self._cells[self._page_span(page)] = (
                            self._anticell_page(page)
                        )
            return self._cells
        if self._cells is None:
            self._cells = self._anticell.copy()
        else:
            for page in self._ground_pages:
                span = self._page_span(page)
                self._cells[span] = self._anticell[span]
            if self._owed_first is not None:
                keep = pack_cells(
                    self._retention_scale.view(np.uint16) >= self._owed_first
                )
                self._cells = self._cells & keep | self._anticell & ~keep
                self._owed_first = None
        self._ground_pages = set()
        return self._cells

    @property
    def _n_pages(self) -> int:
        return -(-self.n_bytes // PAGE_BYTES)

    def _page_span(self, page: int) -> slice:
        """The bytes of ``page``; the last page may be short."""
        start = page * PAGE_BYTES
        return slice(start, min(start + PAGE_BYTES, self.n_bytes))

    def _draw_page(self, rng: np.random.Generator, page: int) -> np.ndarray:
        """The packed anti-cell flags of ``page``, drawn from ``rng``
        where it stands."""
        span = self._page_span(page)
        return pack_cells(ENGINE.uniform_mask(
            rng, 8 * (span.stop - span.start), self.params.anticell_fraction
        ))

    def _anticell_page(self, page: int) -> np.ndarray:
        """The packed anti-cell flags of one page: the whole layout's,
        if drawn, else drawn from the saved state advanced past the
        pages before it."""
        if "_anticell" in vars(self):
            return self._anticell[self._page_span(page)]
        rng = from_state(self._manufacture_state)
        rng.bit_generator.advance(8 * PAGE_BYTES * page)
        return self._draw_page(rng, page)

    @cached_property
    def _anticell(self) -> np.ndarray:
        """The packed anti-cell layout, the first draw of the stream,
        drawn a page at a time (the values of one whole draw)."""
        rng = from_state(self._manufacture_state)
        layout = np.empty(self.n_bytes, dtype=np.uint8)
        for page in range(self._n_pages):
            layout[self._page_span(page)] = self._draw_page(rng, page)
        return read_only(layout)

    @cached_property
    def _retention_scale(self) -> np.ndarray:
        """Per-cell retention multiplier (lognormal around 1.0), drawn
        from the array's own generator after the anti-cell draw.

        ``float16`` keeps megabyte-scale modules affordable, and the
        decay kernel widens it exactly.  Raises :class:`CircuitError`
        if a multiplier lies outside the cap every restore evaluates
        (``ENGINE.NORMAL_Z_CAP``); the check runs where the field is
        drawn, so on the read or count that first needs it.
        """
        # Replay the anti-cell draw, a page at a time, to reach the
        # field's place in the stream.
        rng = from_state(self._manufacture_state)
        for page in range(self._n_pages):
            self._draw_page(rng, page)
        self._rng.bit_generator.state = rng.bit_generator.state
        scale = ENGINE.lognormal_field(
            self._rng, self._n_bits, self.params.retention_spread
        )
        patterns = scale.view(np.uint16)
        low, high = self._cap_patterns()
        if patterns.min() < low or patterns.max() > high:
            cap_low, cap_high = self._retention_cap
            raise CircuitError(
                f"{self.name}: a retention multiplier lies outside the "
                f"[{cap_low}, {cap_high}] cap"
            )
        return read_only(scale)

    def _cap_patterns(self) -> tuple[int, int]:
        """The ``uint16`` bit patterns of the retention cap's ends."""
        low, high = self._retention_cap
        return int(low.view(np.uint16)), int(high.view(np.uint16))

    def _first_kept(self) -> int:
        """The lowest ``float16`` multiplier pattern within the
        retention cap whose cell still reads correctly (one past the
        cap's top if none does).

        Every pattern within the cap is evaluated through the same
        decay and sense kernels a per-cell charge array would run.
        Positive ``float16`` patterns order as their values, and a
        larger multiplier decays no further, so the outcomes must be
        one step from lost to kept; a cell is kept exactly when its
        pattern is at or above the step.
        """
        low, high = self._cap_patterns()
        scale = np.arange(low, high + 1, dtype=np.uint16).view(np.float16)
        level = np.full(len(scale), self._start_level, dtype=np.float16)
        for seconds, tau in self._decays:
            level = ENGINE.charge_decay(level, seconds, tau, scale)
        kept = ENGINE.charge_mask(level)
        step = kept.size - int(np.count_nonzero(kept))
        if not np.array_equal(kept, np.arange(kept.size) >= step):
            raise CircuitError(
                f"{self.name}: retention is not monotone in the multiplier"
            )
        return low + step
