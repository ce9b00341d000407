"""Vectorized numpy cell-physics kernels (the default engine).

Each method is one kernel over a whole array of cells; together they
carry every per-cell physical process in :mod:`repro.circuits`.  The
manufacture-time sampling kernels, the power-up draw and DRAM charge
decay work :data:`CHUNK` cells at a time through one reused buffer (a
chunked draw returns the same values as one bulk draw); every other
kernel is one bulk numpy operation.  The equations each kernel implements, with
symbol definitions and the paper sections they reproduce, are
documented equation-by-equation in ``docs/physics.md`` — the
generated table there links back to these functions by file and line.

Numeric contract: every mixed-precision operation is written with
explicit casts (``np.float32(...)``, ``np.float16(...)``) matching
NumPy's value-based promotion of Python scalars against low-precision
arrays, so the per-cell reference implementation the tests keep
(``tests/circuits/scalar_engine.py``) can reproduce each kernel bit
for bit.  Cell state is stored in ``float16`` — sub-millivolt
resolution, far below any physical effect modelled here — and widened
to ``float32`` only inside a kernel.

Threshold compares against a ``float16`` field run on the ``uint16``
bit patterns (:func:`_order_pattern`): for finite, non-negative
``float16`` values the unsigned order of the patterns is the order of
the values, and NumPy has no hardware ``float16`` compare.  Each such
kernel states why its field meets that precondition.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Bit pattern of ``float16(0.5)``: the sense-amplifier reference and
#: the wake probability of a metastable cell.
_HALF_PATTERN = np.float16(0.5).view(np.uint16)

#: Bit patterns of the smallest and largest normal, positive
#: ``float16``, and what widening one to ``float32`` adds to its
#: pattern shifted left by 13 (the exponent bias 127 - 15, in place).
_MIN_NORMAL_PATTERN = 0x0400
_MAX_NORMAL_PATTERN = 0x7BFF
_REBIAS_PATTERN = (127 - 15) << 23

#: Cells per chunk in the sampling and power-up kernels and DRAM
#: charge decay.  Each such kernel works through one reused buffer of
#: this many values, so its ``float32``/``float64`` temporary stays
#: small however large the array (128 KiB at ``float64``); consecutive
#: draws return the same values as one bulk draw of the whole length.
CHUNK = 1 << 14


def _spans(n: int) -> Iterator[tuple[slice, int]]:
    """Consecutive :data:`CHUNK`-cell slices of ``range(n)``, with
    each slice's length."""
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        yield slice(start, stop), stop - start


def _chunked(draw, n: int, dtype: type) -> Iterator[tuple[slice, np.ndarray]]:
    """Draw ``n`` values of ``dtype`` from ``draw``, :data:`CHUNK` at a time.

    ``draw`` is a generator method taking ``dtype`` and ``out``
    (``rng.standard_normal``, ``rng.random``).  Yields each chunk's
    slice of the whole length and the buffer holding its values, which
    the caller may overwrite in place.
    """
    buffer = np.empty(min(n, CHUNK), dtype=dtype)
    for span, size in _spans(n):
        values = buffer[:size]
        draw(dtype=dtype, out=values)
        yield span, values


def _clipped_gaussian(
    z: np.ndarray, mean: float, sigma: float, floor: float
) -> np.ndarray:
    """``max(mean + sigma * z, floor)`` at ``float32``, in place on ``z``."""
    z *= np.float32(sigma)
    z += np.float32(mean)
    return np.maximum(z, np.float32(floor), out=z)


def _order_pattern(value: float) -> np.uint16 | None:
    """The ``uint16`` bit pattern of ``float16(value)``, if it orders.

    For finite, non-negative ``float16`` values (and ``+inf``),
    comparing bit patterns as unsigned integers gives the same answer
    as comparing the values.  ``-0.0`` is returned as ``+0.0``'s
    pattern, which compares equal to it; a negative or NaN value
    returns ``None`` and the caller compares the floats instead.
    """
    half = np.float16(value)
    if not half >= 0:
        return None
    return half.view(np.uint16) & np.uint16(0x7FFF)


class VectorEngine:
    """Bulk numpy implementation of the cell-physics kernels."""

    # ------------------------------------------------------------------
    # Manufacture-time sampling (process variation)
    # ------------------------------------------------------------------

    def gaussian_field(
        self,
        rng: np.random.Generator,
        n: int,
        mean: float,
        sigma: float,
        floor: float,
    ) -> np.ndarray:
        """Sample a per-cell Gaussian parameter field, clipped below.

        Implements ``X_i = max(mu + sigma * Z_i, floor)`` with
        ``Z_i ~ N(0, 1)`` — the DRV and restore-threshold distributions
        of :class:`~repro.circuits.sram.SramParameters`.

        Parameters
        ----------
        rng:
            Source stream; consumes ``n`` ``standard_normal(float32)``
            values, drawn :data:`CHUNK` at a time (the same values as
            one bulk draw).
        n:
            Number of cells.
        mean, sigma:
            Distribution location and scale, in volts.
        floor:
            Hard lower clip, in volts (no cell parameter is zero or
            negative).

        Returns
        -------
        numpy.ndarray
            ``float16[n]`` field.
        """
        field = np.empty(n, dtype=np.float16)
        for span, z in _chunked(rng.standard_normal, n, np.float32):
            field[span] = _clipped_gaussian(z, mean, sigma, floor)
        return field

    def gaussian_extent(
        self,
        rng: np.random.Generator,
        n: int,
        mean: float,
        sigma: float,
        floor: float,
    ) -> tuple[np.float16, np.float16]:
        """The ``(min, max)`` of the field :meth:`gaussian_field` builds.

        Draws exactly the values :meth:`gaussian_field` draws, so
        ``rng`` ends in the same state, but keeps only the extremes of
        ``Z``.  That is exact: the scale, add, clip and ``float16``
        steps each round monotonically, so the field's extremes are
        the images of ``Z``'s.  Requires ``n >= 1``.
        """
        low: list[np.float32] = []
        high: list[np.float32] = []
        for _, z in _chunked(rng.standard_normal, n, np.float32):
            low.append(z.min())
            high.append(z.max())
        ends = _clipped_gaussian(
            np.array([min(low), max(high)], dtype=np.float32),
            mean, sigma, floor,
        ).astype(np.float16)
        return ends.min(), ends.max()

    #: A bound on ``|Z|`` for numpy's ``float32`` normal draws: the
    #: ziggurat returns at most ~8.207 (``docs/physics.md`` rule 6).
    #: The DRV and retention caps are each field's value at this ``Z``.
    NORMAL_Z_CAP = 8.25

    def gaussian_value(
        self, z: float, mean: float, sigma: float, floor: float
    ) -> np.float16:
        """The value :meth:`gaussian_field` gives a cell that draws
        ``z``.  Every step rounds monotonically, so where ``z`` bounds
        the draws this bounds the field."""
        value = _clipped_gaussian(
            np.array([z], dtype=np.float32), mean, sigma, floor
        )
        return value.astype(np.float16)[0]

    def lognormal_field(
        self, rng: np.random.Generator, n: int, spread: float
    ) -> np.ndarray:
        """Sample the per-cell lognormal retention multiplier.

        Implements ``s_i = exp(spread * Z_i)`` — the DRAM retention
        spread of :class:`~repro.circuits.dram.DramParameters` (median
        1.0; a small left tail of leaky, early-failing cells).

        Consumes ``n`` ``standard_normal(float32)`` values from ``rng``,
        :data:`CHUNK` at a time; returns a ``float16[n]`` field.
        """
        field = np.empty(n, dtype=np.float16)
        for span, z in _chunked(rng.standard_normal, n, np.float32):
            z *= np.float32(spread)
            np.exp(z, out=z)
            field[span] = z
        return field

    def lognormal_value(self, z: float, spread: float) -> np.float16:
        """The value :meth:`lognormal_field` gives a cell that draws
        ``z``.  Every step rounds monotonically, so where ``z`` bounds
        the draws this bounds the field."""
        value = np.array([z], dtype=np.float32)
        value *= np.float32(spread)
        np.exp(value, out=value)
        return value.astype(np.float16)[0]

    def wake_field(
        self,
        rng: np.random.Generator,
        n: int,
        noisy_fraction: float,
        epsilon: float,
    ) -> np.ndarray:
        """Sample per-cell power-up-as-1 probabilities.

        Implements the paper's power-up fingerprint model (§2.1): a
        fraction ``noisy_fraction`` of cells is metastable
        (``p_i = 0.5``); the rest are strongly skewed to
        ``p_i = epsilon`` or ``p_i = 1 - epsilon`` with equal
        probability, fixed by transistor mismatch at manufacture.

        Parameters
        ----------
        rng:
            Source stream; consumes ``integers(0, 2, n)`` (skew
            direction) then ``n`` ``random()`` values (metastable
            selection, drawn by :meth:`uniform_mask`), in that order.
        n:
            Number of cells.
        noisy_fraction:
            Fraction of metastable cells, in ``[0, 1]``.
        epsilon:
            Residual flip probability of a strongly-skewed cell.

        Returns
        -------
        numpy.ndarray
            ``float16[n]`` wake probabilities.

        The field is built as ``float16`` bit patterns: each rail is
        ``float16(float32(p))``, the skewed pattern is
        ``lo + skew * (hi - lo)`` in wrapping ``uint16`` arithmetic
        (exact even when ``hi < lo``), and metastable cells take the
        pattern of 0.5.
        """
        lo = int(np.float16(np.float32(epsilon)).view(np.uint16))
        hi = int(np.float16(np.float32(1.0 - epsilon)).view(np.uint16))
        pattern = np.multiply(
            rng.integers(0, 2, n, dtype=np.uint8),
            np.uint16((hi - lo) & 0xFFFF),
            dtype=np.uint16,
        )
        pattern += np.uint16(lo)
        noisy = self.uniform_mask(rng, n, noisy_fraction)
        # pattern ^= (pattern ^ half) where noisy, else ^= 0.
        blend = pattern ^ _HALF_PATTERN
        blend *= noisy.view(np.uint8)
        pattern ^= blend
        return pattern.view(np.float16)

    def uniform_mask(
        self, rng: np.random.Generator, n: int, fraction: float
    ) -> np.ndarray:
        """Mark each cell independently with probability ``fraction``.

        The DRAM anti-cell assignment (a logical 1 stored as an empty
        capacitor), and the metastable cells of :meth:`wake_field`.
        Consumes ``n`` ``random()`` (float64) values, :data:`CHUNK` at
        a time; returns a ``bool[n]`` mask.
        """
        mask = np.empty(n, dtype=np.bool_)
        for span, u in _chunked(rng.random, n, np.float64):
            np.less(u, fraction, out=mask[span])
        return mask

    # ------------------------------------------------------------------
    # Power-up fingerprint
    # ------------------------------------------------------------------

    def powerup(
        self, rng: np.random.Generator, wake_p: np.ndarray
    ) -> np.ndarray:
        """Sample one power-up image from the wake-probability field.

        Implements ``b_i = [U_i < p_i]`` with ``U_i ~ U[0, 1)`` — each
        cold power-up settles skewed cells into their preferred state
        and flips a fresh coin for the metastable ones, which is what
        bounds two power-ups of the same array at a small but non-zero
        fractional Hamming distance (paper Table 1, ~0.10).

        Parameters
        ----------
        rng:
            Source stream; consumes ``n`` ``random(float32)`` values,
            :data:`CHUNK` at a time (the same values as one bulk
            ``random(n, float32)`` draw).
        wake_p:
            ``float16[n]`` wake probabilities.

        Returns
        -------
        numpy.ndarray
            ``uint8[n]`` 0/1 bit image (the comparison's ``bool``
            buffer, viewed).

        When every wake value is a normal, non-negative ``float16``
        (patterns ``0x0400``–``0x7BFF``, as every field
        :meth:`wake_field` and :meth:`age_wake` build is), the compare
        runs on bit patterns: such a value widens exactly to the
        ``float32`` pattern ``(h << 13) + 0x38000000`` (the exponent
        rebiased by 127 - 15), and for non-negative ``float32`` values
        the unsigned order of the patterns is the order of the values.
        NumPy widens ``float16`` one element at a time, so this is
        about three times faster than the float compare, which any
        other field still takes.
        """
        n = len(wake_p)
        bits = np.empty(n, dtype=np.bool_)
        pattern = wake_p.view(np.uint16)
        on_patterns = n == 0 or (
            pattern.min() >= _MIN_NORMAL_PATTERN
            and pattern.max() <= _MAX_NORMAL_PATTERN
        )
        widened = np.empty(min(n, CHUNK), dtype=np.uint32)
        for span, draws in _chunked(rng.random, n, np.float32):
            if on_patterns:
                threshold = widened[: len(draws)]
                np.left_shift(
                    pattern[span], np.uint32(13), out=threshold,
                    dtype=np.uint32,
                )
                threshold += np.uint32(_REBIAS_PATTERN)
                np.less(draws.view(np.uint32), threshold, out=bits[span])
            else:
                np.less(draws, wake_p[span], out=bits[span])
        return bits.view(np.uint8)

    def skip_powerups(
        self, rng: np.random.Generator, n: int, count: int
    ) -> None:
        """Advance ``rng`` past ``count`` :meth:`powerup` draws of ``n``
        cells without sampling an image.

        Draws the same ``count * n`` ``random(float32)`` values,
        :data:`CHUNK` at a time into one reused buffer, so ``rng`` ends
        where ``count`` power-ups would leave it.
        """
        for _ in _chunked(rng.random, count * n, np.float32):
            pass

    # ------------------------------------------------------------------
    # Retention thresholds (which cells survive)
    # ------------------------------------------------------------------

    def restore_mask(
        self, node_v: float, thresholds: np.ndarray
    ) -> np.ndarray:
        """Cells whose decayed node voltage still recovers their state.

        Implements ``r_i = [V_node(t) > V_restore,i]``: on power
        restore after an unpowered interval, a cell recovers its old
        value iff its storage node sits above the cell's restore
        threshold (paper §3 / cold-boot regime).

        Parameters
        ----------
        node_v:
            The decayed node voltage ``V0 * exp(-t / tau(T))``, volts.
            Compared at ``float16`` precision, matching the stored
            threshold field.
        thresholds:
            ``float16[n]`` per-cell restore thresholds.  They are
            finite and at least the 0.005 V manufacture floor, so the
            compare runs on bit patterns (:func:`_order_pattern`).

        Returns
        -------
        numpy.ndarray
            ``bool[n]`` retained mask.
        """
        pattern = _order_pattern(node_v)
        if pattern is None:
            return np.float16(node_v) > thresholds
        return thresholds.view(np.uint16) < pattern

    def drv_collapse_mask(
        self, drv: np.ndarray, supply_v: float
    ) -> np.ndarray:
        """Cells whose DRV the (sagged) supply undercuts.

        Implements ``c_i = [DRV_i > V_supply]`` — the Volt Boot core
        mechanism (paper §2.1): a powered cell keeps state only while
        its supply exceeds the cell's data retention voltage.

        ``drv`` is the ``float16[n]`` DRV field; ``supply_v`` is the
        applied voltage in volts (compared at ``float16`` precision).
        Returns a ``bool[n]`` collapse mask.  DRVs are finite and at
        least the 0.01 V manufacture floor, so the compare runs on bit
        patterns (:func:`_order_pattern`).
        """
        pattern = _order_pattern(supply_v)
        if pattern is None:
            return drv > np.float16(supply_v)
        return drv.view(np.uint16) > pattern

    def charge_mask(self, level: np.ndarray) -> np.ndarray:
        """DRAM cells whose remaining charge still reads correctly.

        Implements ``r_i = [L_i > 1/2]``: the sense amplifier resolves
        a cell against the half-charge reference, so a decayed-below-
        half cell reads as its ground state (paper §3's cold-boot
        substrate).  ``level`` is the ``float16[n]`` normalised charge;
        returns a ``bool[n]`` retained mask.  Charge stays in
        ``[0, 1]`` (full charge times a positive ``exp`` factor), so
        the compare runs on bit patterns (:func:`_order_pattern`).
        """
        return level.view(np.uint16) > _HALF_PATTERN

    # ------------------------------------------------------------------
    # Charge decay
    # ------------------------------------------------------------------

    def charge_decay(
        self,
        level: np.ndarray,
        seconds: float,
        tau_s: float,
        scale: np.ndarray,
    ) -> np.ndarray:
        """Decay per-cell DRAM charge for one unpowered interval.

        Implements ``L_i(t + dt) = L_i(t) * exp(-dt / (tau(T) * s_i))``
        — Arrhenius capacitor leakage with the per-cell lognormal
        retention multiplier ``s_i`` (:func:`lognormal_field`).  The
        ``tau(T) = A * exp(B / T)`` temperature dependence lives in
        :class:`~repro.circuits.leakage.ArrheniusDecay`; this kernel
        receives the evaluated ``tau_s``.

        Parameters
        ----------
        level:
            ``float16[n]`` normalised charge in ``[0, 1]``.
        seconds:
            Unpowered interval ``dt``, seconds.
        tau_s:
            Technology time constant at the soak temperature, seconds.
        scale:
            ``float16[n]`` per-cell retention multipliers, widened
            exactly to ``float32`` by the ``tau_s`` product.

        The ``float32`` arithmetic runs :data:`CHUNK` cells at a time
        in one reused buffer; each cell's result is the bulk
        expression's.

        Returns
        -------
        numpy.ndarray
            ``float16[n]`` decayed charge.
        """
        decayed = np.empty(len(level), dtype=np.float16)
        buffer = np.empty(min(len(level), CHUNK), dtype=np.float32)
        for span, size in _spans(len(level)):
            factor = buffer[:size]
            np.multiply(
                np.float32(tau_s), scale[span], out=factor, dtype=np.float32
            )
            np.divide(np.float32(-seconds), factor, out=factor)
            np.exp(factor, out=factor)
            np.multiply(level[span], factor, out=factor, dtype=np.float32)
            decayed[span] = factor
        return decayed

    # ------------------------------------------------------------------
    # Selection and aging
    # ------------------------------------------------------------------

    def select(
        self, mask: np.ndarray, when_true: np.ndarray, when_false: np.ndarray
    ) -> np.ndarray:
        """Per-cell two-way select: ``out_i = t_i if m_i else f_i``.

        The composition step of every decay event: retained cells keep
        their bits, the rest take the power-up fingerprint (SRAM) or
        ground state (DRAM).  All arrays are length ``n``; returns a
        fresh ``uint8[n]`` image.

        A ``bool`` mask over two ``uint8`` images is a bitwise blend,
        ``f ^ ((t ^ f) * m)``; other dtypes go through ``np.where``.
        """
        if (
            mask.dtype == np.bool_
            and when_true.dtype == np.uint8
            and when_false.dtype == np.uint8
        ):
            out = when_true ^ when_false
            out *= mask.view(np.uint8)
            out ^= when_false
            return out
        return np.where(mask, when_true, when_false)

    def age_wake(
        self,
        wake_p: np.ndarray,
        bits: np.ndarray,
        shift: float,
        lo: float,
        hi: float,
    ) -> np.ndarray:
        """Imprint held data into the wake-probability field (NBTI).

        Implements ``p_i' = clip(p_i + (2 b_i - 1) * shift, lo, hi)`` —
        bias temperature instability drags a cell's power-up preference
        toward the value it holds (paper §9.2's decade-scale
        data-imprinting attacks).

        Parameters
        ----------
        wake_p:
            ``float16[n]`` wake probabilities.
        bits:
            ``uint8[n]`` currently-held image.
        shift:
            Probability shift for this aging interval (already scaled
            by years and duty cycle; ``float32`` precision).
        lo, hi:
            Clip bounds keeping every cell minimally bistable.

        Returns
        -------
        numpy.ndarray
            ``float16[n]`` aged wake probabilities.
        """
        direction = bits.astype(np.float32) * np.float32(2.0) - np.float32(1.0)
        aged = wake_p.astype(np.float32) + direction * np.float32(shift)
        return aged.clip(np.float32(lo), np.float32(hi)).astype(np.float16)

    # ------------------------------------------------------------------
    # Debug-read errors and majority voting
    # ------------------------------------------------------------------

    def flip_mask(
        self, rng: np.random.Generator, n_bytes: int, rate: float
    ) -> tuple[np.ndarray, int]:
        """Sample a packed per-bit read-error mask.

        Implements ``f_j = [U_j < rate]`` over ``8 * n_bytes`` bits —
        the i.i.d. Bernoulli error model of imperfect JTAG/CP15 dumps
        (:class:`~repro.soc.readnoise.BitErrorModel`).

        Parameters
        ----------
        rng:
            Source stream; consumes one ``random(8 * n_bytes)``
            (float64) draw regardless of how many bits flip.
        n_bytes:
            Read length in bytes.
        rate:
            Per-bit flip probability, in ``[0, 0.5)``.

        Returns
        -------
        tuple[numpy.ndarray, int]
            ``(mask, flipped)``: a ``uint8[n_bytes]`` XOR mask with
            bits packed little-endian within each byte, and the number
            of set bits.
        """
        flips = rng.random(n_bytes * 8) < rate
        flipped = int(np.count_nonzero(flips))
        mask = np.packbits(flips, bitorder="little").astype(np.uint8)
        return mask, flipped

    def vote_counts(self, reads: list[bytes], length: int) -> np.ndarray:
        """Per-bit ones count across ``k`` equal-length reads.

        The counting core of majority-vote decoding
        (:func:`repro.resilience.vote.majority_vote`): for each bit
        position ``j`` of the ``8 * length``-bit image, how many of the
        ``k`` reads saw a 1.  The caller derives the majority image
        (``2 * ones_j > k``) and the per-bit vote margin from the
        counts.

        Bits are unpacked little-endian within each byte, matching the
        array accessors' byte order.  Returns ``int64[8 * length]``.
        """
        k = len(reads)
        stacked = np.empty((k, length * 8), dtype=np.uint8)
        for row, read in enumerate(reads):
            stacked[row] = np.unpackbits(
                np.frombuffer(read, dtype=np.uint8), bitorder="little"
            )
        return stacked.sum(axis=0, dtype=np.int64)
