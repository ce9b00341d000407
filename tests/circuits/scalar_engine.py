"""Per-cell scalar reference implementation of the physics kernels.

The test oracle for :class:`~repro.circuits.engine.vector.VectorEngine`:
every kernel here walks the cells one by one in plain Python and must
reproduce the vector kernel **bit for bit**.  The fixed-seed
differential sweeps, edge cases and Hypothesis properties in
``tests/circuits/test_engine.py`` pin that contract.  It is never run
by the simulator itself.

How bit-equality is achieved
----------------------------
* **RNG draws are bulk**, and return the same values as the vector
  kernels' chunked draws (the engine-wide stream contract) — only the
  per-cell *arithmetic* is scalar.
* **IEEE-754 single roundings are replicated exactly.**  A product or
  sum of two ``float32`` values is exact in ``float64`` (<= 48
  significand bits), so rounding the Python-float result back to
  ``float32`` (:func:`_f32`) is the same single rounding the vector
  kernel performs.  Comparisons against ``float16``/``float32`` fields
  happen on exact ``float64`` liftings after pre-rounding the scalar
  operand to the field's precision, mirroring NumPy's value-based
  promotion.
* **Division and ``exp`` go through NumPy scalars.**  A ``float64``
  divide rounded to ``float32`` can double-round, and NumPy's
  ``float32`` ``exp`` is not the ``float64`` one rounded — so those
  two operations call the same ufunc the vector kernel uses, on 0-d
  operands, which NumPy evaluates with the identical per-element
  algorithm.
"""

from __future__ import annotations

import struct

import numpy as np

_PACK_F32 = struct.Struct("f")
_PACK_F16 = struct.Struct("e")


def _f32(value: float) -> float:
    """Round a Python float to ``float32`` precision (exact lifting)."""
    return _PACK_F32.unpack(_PACK_F32.pack(value))[0]


def _f16(value: float) -> float:
    """Round a Python float to ``float16`` precision (exact lifting)."""
    return _PACK_F16.unpack(_PACK_F16.pack(value))[0]


class ScalarEngine:
    """Per-cell Python implementation of the cell-physics kernels.

    Kernel semantics, parameters, and RNG consumption are identical to
    :class:`~repro.circuits.engine.vector.VectorEngine` — see that
    class (and ``docs/physics.md``) for the physics; this class
    documents only where the scalar evaluation strategy is subtle.
    """

    # ------------------------------------------------------------------
    # Manufacture-time sampling
    # ------------------------------------------------------------------

    def gaussian_field(
        self,
        rng: np.random.Generator,
        n: int,
        mean: float,
        sigma: float,
        floor: float,
    ) -> np.ndarray:
        """Per-cell ``max(mu + sigma * Z_i, floor)`` at float32/float16.

        Both roundings (``float32`` multiply-add chain, final
        ``float16`` store) are single roundings of exactly-held
        ``float64`` intermediates, so each cell matches the vector
        kernel bitwise.
        """
        z = rng.standard_normal(n, dtype=np.float32).tolist()
        sigma32, mean32, floor32 = _f32(sigma), _f32(mean), _f32(floor)
        return np.array(
            [
                _f16(max(_f32(_f32(zi * sigma32) + mean32), floor32))
                for zi in z
            ],
            dtype=np.float16,
        )

    def lognormal_field(
        self, rng: np.random.Generator, n: int, spread: float
    ) -> np.ndarray:
        """Per-cell ``exp(spread * Z_i)``, delegating ``exp`` to numpy.

        The exponent ``spread * Z_i`` is a pure-Python single rounding;
        the transcendental goes through ``np.exp`` on a 0-d ``float32``
        so the vector kernel's ufunc evaluates it.
        """
        z = rng.standard_normal(n, dtype=np.float32).tolist()
        spread32 = _f32(spread)
        return np.array(
            [
                _f16(float(np.exp(np.float32(_f32(zi * spread32)))))
                for zi in z
            ],
            dtype=np.float16,
        )

    def wake_field(
        self,
        rng: np.random.Generator,
        n: int,
        noisy_fraction: float,
        epsilon: float,
    ) -> np.ndarray:
        """Per-cell wake probability: metastable 0.5 or skewed rails."""
        skew_draws = rng.integers(0, 2, n, dtype=np.uint8).tolist()
        noisy_draws = rng.random(n).tolist()
        hi, lo = _f32(1.0 - epsilon), _f32(epsilon)
        return np.array(
            [
                _f16(
                    0.5
                    if noisy < noisy_fraction
                    else (hi if skew == 1 else lo)
                )
                for skew, noisy in zip(skew_draws, noisy_draws)
            ],
            dtype=np.float16,
        )

    def uniform_mask(
        self, rng: np.random.Generator, n: int, fraction: float
    ) -> np.ndarray:
        """Per-cell Bernoulli mark (exact float64 comparison)."""
        return np.array(
            [draw < fraction for draw in rng.random(n).tolist()],
            dtype=np.bool_,
        )

    # ------------------------------------------------------------------
    # Power-up fingerprint
    # ------------------------------------------------------------------

    def powerup(
        self, rng: np.random.Generator, wake_p: np.ndarray
    ) -> np.ndarray:
        """Per-cell ``[U_i < p_i]`` on exact float64 liftings."""
        draws = rng.random(len(wake_p), dtype=np.float32).tolist()
        probabilities = wake_p.tolist()
        return np.array(
            [
                1 if draw < p else 0
                for draw, p in zip(draws, probabilities)
            ],
            dtype=np.uint8,
        )

    # ------------------------------------------------------------------
    # Retention thresholds
    # ------------------------------------------------------------------

    def restore_mask(
        self, node_v: float, thresholds: np.ndarray
    ) -> np.ndarray:
        """``[V_node > V_restore,i]`` with ``V_node`` pre-rounded to f16.

        NumPy compares a Python scalar against a ``float16`` array at
        ``float16`` precision (value-based promotion); pre-rounding the
        node voltage reproduces that, after which the float64 lifting
        of both sides is exact.
        """
        node16 = _f16(node_v)
        return np.array(
            [node16 > threshold for threshold in thresholds.tolist()],
            dtype=np.bool_,
        )

    def drv_collapse_mask(
        self, drv: np.ndarray, supply_v: float
    ) -> np.ndarray:
        """``[DRV_i > V_supply]`` with the supply pre-rounded to f16."""
        supply16 = _f16(supply_v)
        return np.array(
            [cell_drv > supply16 for cell_drv in drv.tolist()],
            dtype=np.bool_,
        )

    def charge_mask(self, level: np.ndarray) -> np.ndarray:
        """``[L_i > 1/2]`` — 0.5 is exact at every precision."""
        return np.array(
            [cell_level > 0.5 for cell_level in level.tolist()],
            dtype=np.bool_,
        )

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
        """Per-cell ``L_i * exp(-dt / (tau * s_i))``.

        The ``tau * s_i`` product and the final two roundings are exact
        pure-Python single roundings; the ``float32`` division and
        ``exp`` go through NumPy 0-d scalars (see the module notes on
        double rounding).
        """
        neg_dt = np.float32(-seconds)
        tau32 = _f32(tau_s)
        scales = scale.tolist()
        levels = level.tolist()
        out = []
        for cell_level, cell_scale in zip(levels, scales):
            exponent = neg_dt / np.float32(_f32(tau32 * cell_scale))
            factor = float(np.exp(exponent))
            out.append(_f16(_f32(cell_level * factor)))
        return np.array(out, dtype=np.float16)

    # ------------------------------------------------------------------
    # Selection and aging
    # ------------------------------------------------------------------

    def select(
        self, mask: np.ndarray, when_true: np.ndarray, when_false: np.ndarray
    ) -> np.ndarray:
        """Per-cell two-way select."""
        return np.array(
            [
                t if m else f
                for m, t, f in zip(
                    mask.tolist(), when_true.tolist(), when_false.tolist()
                )
            ],
            dtype=when_true.dtype,
        )

    def age_wake(
        self,
        wake_p: np.ndarray,
        bits: np.ndarray,
        shift: float,
        lo: float,
        hi: float,
    ) -> np.ndarray:
        """Per-cell ``clip(p_i + (2 b_i - 1) * shift, lo, hi)``.

        ``(2 b_i - 1) * shift`` is exactly ``+-shift`` (no rounding),
        so the add is the only inexact step before the clip.
        """
        shift32 = _f32(shift)
        lo32, hi32 = _f32(lo), _f32(hi)
        return np.array(
            [
                _f16(
                    min(
                        max(
                            _f32(p + (shift32 if bit else -shift32)), lo32
                        ),
                        hi32,
                    )
                )
                for p, bit in zip(
                    wake_p.astype(np.float32).tolist(), bits.tolist()
                )
            ],
            dtype=np.float16,
        )

    # ------------------------------------------------------------------
    # Debug-read errors and majority voting
    # ------------------------------------------------------------------

    def flip_mask(
        self, rng: np.random.Generator, n_bytes: int, rate: float
    ) -> tuple[np.ndarray, int]:
        """Per-bit Bernoulli mask, packed little-endian in Python."""
        draws = rng.random(n_bytes * 8).tolist()
        mask = bytearray(n_bytes)
        flipped = 0
        for bit_index, draw in enumerate(draws):
            if draw < rate:
                mask[bit_index >> 3] |= 1 << (bit_index & 7)
                flipped += 1
        return np.frombuffer(bytes(mask), dtype=np.uint8), flipped

    def vote_counts(self, reads: list[bytes], length: int) -> np.ndarray:
        """Per-bit ones count via an explicit bit loop."""
        counts = [0] * (length * 8)
        for read in reads:
            for byte_index in range(length):
                byte = read[byte_index]
                base = byte_index * 8
                for bit in range(8):
                    counts[base + bit] += (byte >> bit) & 1
        return np.array(counts, dtype=np.int64)
