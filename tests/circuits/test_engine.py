"""The cell-physics engine: every vector kernel against the oracle.

Every kernel of :class:`~repro.circuits.engine.vector.VectorEngine`
must reproduce the per-cell scalar reference (``scalar_engine.py``)
bit for bit: fixed-seed parametrized sweeps, edge cases, and
Hypothesis property tests over random parameters.  The golden
manifest pins (``test_engine_golden.py``) then hold whole experiments
to the results those kernels produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.engine import ENGINE as VECTOR
from repro.circuits.engine.vector import CHUNK
from repro.rng import generator

from .scalar_engine import ScalarEngine

SCALAR = ScalarEngine()


def pair(*tags):
    """Two identically-seeded generators, one per engine."""
    return generator(20260808, *tags), generator(20260808, *tags)


def assert_same(a, b):
    __tracebackhide__ = True
    assert a.dtype == b.dtype, f"dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("n", [8, 257, 4096])
class TestKernelDifferential:
    """Fixed-seed bitwise equality of every kernel pair."""

    def test_gaussian_field(self, n):
        r1, r2 = pair("gauss", str(n))
        assert_same(
            VECTOR.gaussian_field(r1, n, 0.25, 0.03, 0.01),
            SCALAR.gaussian_field(r2, n, 0.25, 0.03, 0.01),
        )

    def test_lognormal_field(self, n):
        r1, r2 = pair("logn", str(n))
        assert_same(
            VECTOR.lognormal_field(r1, n, 0.4),
            SCALAR.lognormal_field(r2, n, 0.4),
        )

    def test_wake_field(self, n):
        r1, r2 = pair("wake", str(n))
        assert_same(
            VECTOR.wake_field(r1, n, 0.20, 0.005),
            SCALAR.wake_field(r2, n, 0.20, 0.005),
        )

    def test_uniform_mask(self, n):
        r1, r2 = pair("uni", str(n))
        assert_same(
            VECTOR.uniform_mask(r1, n, 0.5),
            SCALAR.uniform_mask(r2, n, 0.5),
        )

    def test_powerup(self, n):
        wake = VECTOR.wake_field(generator(7, "w"), n, 0.2, 0.005)
        r1, r2 = pair("pw", str(n))
        assert_same(VECTOR.powerup(r1, wake), SCALAR.powerup(r2, wake))

    @pytest.mark.parametrize("node_v", [0.0123, 0.09999, 0.31, 1.1])
    def test_restore_mask(self, n, node_v):
        thresholds = VECTOR.gaussian_field(
            generator(3, "t"), n, 0.10, 0.02, 0.005
        )
        assert_same(
            VECTOR.restore_mask(node_v, thresholds),
            SCALAR.restore_mask(node_v, thresholds),
        )

    @pytest.mark.parametrize("supply_v", [0.05, 0.25, 0.31999])
    def test_drv_collapse_mask(self, n, supply_v):
        drv = VECTOR.gaussian_field(generator(4, "d"), n, 0.25, 0.03, 0.01)
        assert_same(
            VECTOR.drv_collapse_mask(drv, supply_v),
            SCALAR.drv_collapse_mask(drv, supply_v),
        )

    def test_charge_decay_and_mask(self, n):
        scale = VECTOR.lognormal_field(generator(5, "s"), n, 0.4)
        level = np.ones(n, dtype=np.float16)
        for dt, tau in ((0.5, 2.0), (37.0, 1.7), (1e-3, 1e-4)):
            decayed_v = VECTOR.charge_decay(level, dt, tau, scale)
            decayed_s = SCALAR.charge_decay(level, dt, tau, scale)
            assert_same(decayed_v, decayed_s)
            assert_same(
                VECTOR.charge_mask(decayed_v), SCALAR.charge_mask(decayed_s)
            )
            level = decayed_v

    def test_select(self, n):
        rng = generator(6, "sel")
        mask = rng.random(n) < 0.5
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        assert_same(VECTOR.select(mask, a, b), SCALAR.select(mask, a, b))

    def test_age_wake(self, n):
        wake = VECTOR.wake_field(generator(7, "w"), n, 0.2, 0.005)
        bits = VECTOR.powerup(generator(8, "b"), wake)
        assert_same(
            VECTOR.age_wake(wake, bits, 0.02, 0.0025, 0.9975),
            SCALAR.age_wake(wake, bits, 0.02, 0.0025, 0.9975),
        )

    def test_flip_mask(self, n):
        r1, r2 = pair("fm", str(n))
        mask_v, flipped_v = VECTOR.flip_mask(r1, n, 0.01)
        mask_s, flipped_s = SCALAR.flip_mask(r2, n, 0.01)
        assert_same(mask_v, mask_s)
        assert flipped_v == flipped_s

    def test_vote_counts(self, n):
        reads = [
            bytes(generator(k, "read").integers(0, 256, n, dtype=np.uint8))
            for k in range(5)
        ]
        assert_same(
            VECTOR.vote_counts(reads, n), SCALAR.vote_counts(reads, n)
        )


class TestChunkedSampling:
    """Sampling kernels draw in chunks; the values are one bulk draw's."""

    # Chunk edges, and a partial chunk after several full ones.
    @pytest.mark.parametrize(
        "n",
        [
            1,
            CHUNK - 1,
            CHUNK + 1,
            3 * CHUNK,
            (1 << 16) - 1,
            (1 << 16) + 1,
            3 << 16,
        ],
    )
    @pytest.mark.parametrize(
        "mean, sigma", [(0.25, 0.03), (0.25, 0.0), (0.01, 0.03)]
    )
    def test_gaussian_extent_is_the_field_extent(self, n, mean, sigma):
        r1, r2 = pair("extent", str(n), str(mean), str(sigma))
        field = VECTOR.gaussian_field(r1, n, mean, sigma, 0.01)
        low, high = VECTOR.gaussian_extent(r2, n, mean, sigma, 0.01)
        assert low.dtype == high.dtype == np.float16
        assert (low, high) == (field.min(), field.max())
        assert r2.bit_generator.state == r1.bit_generator.state

    @pytest.mark.parametrize("spread", [0.4, 0.0, 1.0])
    def test_lognormal_value_is_the_fields_value(self, spread):
        r1, r2 = pair("lognormal-value", str(spread))
        field = VECTOR.lognormal_field(r1, 257, spread)
        z = r2.standard_normal(257, dtype=np.float32).tolist()
        values = [VECTOR.lognormal_value(v, spread) for v in z]
        assert_same(np.array(values, dtype=np.float16), field)

    @pytest.mark.parametrize(
        "kernel, args",
        [
            ("gaussian_field", (0.25, 0.03, 0.01)),
            ("lognormal_field", (0.4,)),
            ("uniform_mask", (0.5,)),
            ("wake_field", (0.2, 0.005)),
        ],
    )
    def test_chunked_kernels_equal_the_bulk_oracle(self, kernel, args):
        n = 2 * CHUNK + 3
        r1, r2 = pair("chunks", kernel)
        assert_same(
            getattr(VECTOR, kernel)(r1, n, *args),
            getattr(SCALAR, kernel)(r2, n, *args),
        )
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("epsilon", [0.005, 0.0])
    def test_chunked_powerup_equals_the_oracle(self, epsilon):
        """Across chunk borders, on bit patterns (normal wake values)
        and on floats (``epsilon = 0`` puts zeros in the field)."""
        n = 2 * CHUNK + 3
        wake = VECTOR.wake_field(generator(6, "chunk-w"), n, 0.2, epsilon)
        r1, r2 = pair("chunk-pw", str(epsilon))
        assert_same(VECTOR.powerup(r1, wake), SCALAR.powerup(r2, wake))
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_skip_powerups_takes_the_powerup_draws(self, count):
        n = CHUNK + 3
        r1, r2 = pair("skip", str(count))
        VECTOR.skip_powerups(r1, n, count)
        for _ in range(count):
            VECTOR.powerup(r2, np.full(n, 0.5, dtype=np.float16))
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_chunked_charge_decay_equals_the_oracle(self):
        n = 2 * CHUNK + 3
        scale = VECTOR.lognormal_field(generator(5, "chunk-s"), n, 0.4)
        level = VECTOR.charge_decay(
            np.ones(n, dtype=np.float16), 0.5, 2.0, scale
        )
        assert_same(
            VECTOR.charge_decay(level, 3.0, 1.7, scale),
            SCALAR.charge_decay(level, 3.0, 1.7, scale),
        )


#: Every finite, non-negative ``float16`` regime the threshold kernels
#: may meet: zero, subnormals, the smallest normal, the manufacture
#: floors, the 0.5 reference and its neighbours, the largest finite
#: value and +inf.
EDGE_FIELD = np.array(
    [
        0.0, 6e-8, 3e-5, 6.104e-5, 0.005, 0.01, 0.0999, 0.1,
        np.nextafter(np.float16(0.5), np.float16(0)), 0.5,
        np.nextafter(np.float16(0.5), np.float16(1)), 1.0, 65504.0,
        np.inf,
    ],
    dtype=np.float16,
)


class TestKernelEdgeCases:
    """Equivalence at the values where a bit-pattern compare could slip."""

    @pytest.mark.parametrize(
        "node_v",
        [
            0.0, -0.0, 1e-9, 6e-8, 3e-5, 0.005, 0.1, 0.5, 1.0, 65504.0,
            float("inf"), -0.05, float("nan"),
        ],
    )
    def test_restore_mask_edges(self, node_v):
        assert_same(
            VECTOR.restore_mask(node_v, EDGE_FIELD),
            SCALAR.restore_mask(node_v, EDGE_FIELD),
        )

    @pytest.mark.parametrize("k", [0, 17, 255])
    def test_restore_mask_tie(self, k):
        thresholds = VECTOR.gaussian_field(
            generator(3, "tie"), 256, 0.10, 0.02, 0.005
        )
        node_v = float(thresholds[k])
        retained = VECTOR.restore_mask(node_v, thresholds)
        assert not retained[k]
        assert_same(retained, SCALAR.restore_mask(node_v, thresholds))

    @pytest.mark.parametrize(
        "supply_v", [0.0, -0.0, 1e-9, 0.01, 0.5, 65504.0, -0.3, float("nan")]
    )
    def test_drv_collapse_mask_edges(self, supply_v):
        assert_same(
            VECTOR.drv_collapse_mask(EDGE_FIELD, supply_v),
            SCALAR.drv_collapse_mask(EDGE_FIELD, supply_v),
        )

    def test_charge_mask_edges(self):
        retained = VECTOR.charge_mask(EDGE_FIELD)
        assert_same(retained, SCALAR.charge_mask(EDGE_FIELD))
        at = {float(v): bool(r) for v, r in zip(EDGE_FIELD, retained)}
        assert not at[0.5] and not at[0.0] and at[1.0]

    @pytest.mark.parametrize("epsilon", [0.0, 0.005, 0.5, 0.7, 0.995, 1.0])
    @pytest.mark.parametrize("noisy", [0.0, 0.3, 1.0])
    def test_wake_field_edges(self, epsilon, noisy):
        r1, r2 = pair("wake-edge", str(epsilon), str(noisy))
        wake = VECTOR.wake_field(r1, 513, noisy, epsilon)
        assert_same(wake, SCALAR.wake_field(r2, 513, noisy, epsilon))
        if noisy == 1.0:
            assert np.all(wake == np.float16(0.5))

    @pytest.mark.parametrize(
        "true_dtype, false_dtype, mask_dtype",
        [
            (np.uint8, np.uint8, np.bool_),  # bitwise blend
            (np.float16, np.float16, np.bool_),  # np.where fallback
            (np.uint16, np.uint8, np.bool_),
            (np.uint8, np.uint8, np.uint8),
        ],
    )
    def test_select_paths(self, true_dtype, false_dtype, mask_dtype):
        rng = generator(6, "sel-edge")
        n = 1031
        mask = (rng.random(n) < 0.5).astype(mask_dtype)
        a = rng.integers(0, 256, n).astype(true_dtype)
        b = rng.integers(0, 256, n).astype(false_dtype)
        out = VECTOR.select(mask, a, b)
        assert_same(out, SCALAR.select(mask, a, b))
        assert np.array_equal(out, np.where(mask, a, b))

    def test_select_does_not_touch_inputs(self):
        rng = generator(6, "sel-inputs")
        mask = rng.random(64) < 0.5
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = rng.integers(0, 2, 64, dtype=np.uint8)
        before = (mask.copy(), a.copy(), b.copy())
        VECTOR.select(mask, a, b)
        for kept, now in zip(before, (mask, a, b)):
            assert np.array_equal(kept, now)

    def test_powerup_widens_every_normal_pattern_exactly(self):
        """The bit-pattern compare's premise: each normal, positive
        ``float16`` widens to ``(h << 13) + 0x38000000``."""
        patterns = np.arange(0x0400, 0x7C00, dtype=np.uint16)
        widened = (patterns.astype(np.uint32) << 13) + np.uint32(0x38000000)
        assert np.array_equal(
            widened.view(np.float32),
            patterns.view(np.float16).astype(np.float32),
        )

    @pytest.mark.parametrize(
        "extra", [None, 0.0, -0.0, 3e-5, 1.0, 65504.0, np.inf, -0.5, np.nan]
    )
    def test_powerup_on_every_normal_probability(self, extra):
        """Every normal probability in ``(0, 1]`` (the bit-pattern
        path), and with one zero, subnormal, infinite, negative or NaN
        cell added (the float compare)."""
        wake = np.arange(0x0400, 0x3C01, dtype=np.uint16).view(np.float16)
        if extra is not None:
            wake = np.append(wake, np.float16(extra))
        r1, r2 = pair("pw-normal", str(extra))
        assert_same(VECTOR.powerup(r1, wake), SCALAR.powerup(r2, wake))

    def test_powerup_is_uint8_bits(self):
        wake = np.array([0.0, 1.0, 0.5, 0.005, 0.995] * 40, dtype=np.float16)
        r1, r2 = pair("pw-edge")
        bits = VECTOR.powerup(r1, wake)
        assert_same(bits, SCALAR.powerup(r2, wake))
        assert set(np.unique(bits).tolist()) <= {0, 1}
        assert not bits[0] and bits[1]


class TestKernelProperties:
    """Hypothesis sweeps: equivalence holds over random parameters."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        mean=st.floats(min_value=0.01, max_value=1.0),
        sigma=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_gaussian_field_matches(self, seed, n, mean, sigma):
        r1 = generator(seed, "hyp-gauss")
        r2 = generator(seed, "hyp-gauss")
        assert_same(
            VECTOR.gaussian_field(r1, n, mean, sigma, 0.01),
            SCALAR.gaussian_field(r2, n, mean, sigma, 0.01),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        seconds=st.floats(min_value=1e-9, max_value=1e4),
        tau=st.floats(min_value=1e-6, max_value=1e6),
        spread=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_charge_decay_matches(self, seed, n, seconds, tau, spread):
        scale = VECTOR.lognormal_field(generator(seed, "hyp-scale"), n, spread)
        level = np.ones(n, dtype=np.float16)
        assert_same(
            VECTOR.charge_decay(level, seconds, tau, scale),
            SCALAR.charge_decay(level, seconds, tau, scale),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        noisy=st.floats(min_value=0.0, max_value=1.0),
        node_v=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_powerup_and_restore_match(self, seed, n, noisy, node_v):
        wake = VECTOR.wake_field(generator(seed, "hyp-w"), n, noisy, 0.005)
        r1 = generator(seed, "hyp-pw")
        r2 = generator(seed, "hyp-pw")
        assert_same(VECTOR.powerup(r1, wake), SCALAR.powerup(r2, wake))
        thresholds = VECTOR.gaussian_field(
            generator(seed, "hyp-t"), n, 0.10, 0.02, 0.005
        )
        assert_same(
            VECTOR.restore_mask(node_v, thresholds),
            SCALAR.restore_mask(node_v, thresholds),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        mean=st.floats(min_value=0.01, max_value=1.0),
        sigma=st.floats(min_value=0.0, max_value=0.2),
        supply_v=st.floats(min_value=-0.1, max_value=1.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_drv_collapse_mask_matches(self, seed, n, mean, sigma, supply_v):
        drv = VECTOR.gaussian_field(
            generator(seed, "hyp-drv"), n, mean, sigma, 0.01
        )
        assert_same(
            VECTOR.drv_collapse_mask(drv, supply_v),
            SCALAR.drv_collapse_mask(drv, supply_v),
        )
        # A supply equal to some cell's DRV is a tie: that cell holds.
        k = seed % n
        collapsed = VECTOR.drv_collapse_mask(drv, float(drv[k]))
        assert not collapsed[k]
        assert_same(collapsed, SCALAR.drv_collapse_mask(drv, float(drv[k])))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=64),
        rate=st.floats(min_value=0.0, max_value=0.49),
    )
    @settings(max_examples=25, deadline=None)
    def test_flip_mask_matches(self, seed, n, rate):
        r1 = generator(seed, "hyp-fm")
        r2 = generator(seed, "hyp-fm")
        mask_v, flipped_v = VECTOR.flip_mask(r1, n, rate)
        mask_s, flipped_s = SCALAR.flip_mask(r2, n, rate)
        assert_same(mask_v, mask_s)
        assert flipped_v == flipped_s
