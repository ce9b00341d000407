"""SRAM array physics and data-access contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.engine import ENGINE
from repro.circuits.engine.vector import CHUNK
from repro.circuits.sram import SramArray, SramParameters
from repro.errors import CalibrationError, CircuitError
from repro.units import celsius_to_kelvin


def fresh_array(n_bits=8 * 512, seed=7, **params):
    array = SramArray(
        n_bits, SramParameters(**params), np.random.default_rng(seed)
    )
    array.power_up()
    return array


class TestConstruction:
    def test_rejects_zero_bits(self):
        with pytest.raises(CalibrationError):
            SramArray(0)

    def test_rejects_non_byte_multiple(self):
        with pytest.raises(CalibrationError):
            SramArray(12)

    def test_rejects_drv_above_nominal(self):
        with pytest.raises(CalibrationError):
            SramParameters(nominal_v=0.2, drv_mean_v=0.25)

    def test_rejects_bad_noisy_fraction(self):
        with pytest.raises(CalibrationError):
            SramParameters(noisy_fraction=1.5)

    def test_sizes(self):
        array = SramArray(8 * 100)
        assert array.n_bits == 800
        assert array.n_bytes == 100


class TestPowerStates:
    def test_starts_unpowered(self):
        assert not SramArray(64).powered

    def test_read_while_unpowered_rejected(self):
        with pytest.raises(CircuitError):
            SramArray(64).read_bytes()

    def test_write_while_unpowered_rejected(self):
        with pytest.raises(CircuitError):
            SramArray(64).write_bytes(0, b"\x00")

    def test_double_power_down_rejected(self):
        array = fresh_array()
        array.power_down()
        with pytest.raises(CircuitError):
            array.power_down()

    def test_double_restore_rejected(self):
        array = fresh_array()
        with pytest.raises(CircuitError):
            array.restore_power()

    def test_elapse_while_powered_rejected(self):
        with pytest.raises(CircuitError):
            fresh_array().elapse_unpowered(1.0, 300.0)


class TestPowerUpFingerprint:
    def test_two_powerups_are_similar_but_not_identical(self):
        """Paper Table 1 caption: fHD between power-ups ~0.10."""
        array = fresh_array(n_bits=8 * 4096)
        first = array.image()
        array.power_down()
        array.elapse_unpowered(1.0, celsius_to_kelvin(25.0))
        array.restore_power()
        second = array.image()
        fhd = float(np.mean(first != second))
        assert 0.05 < fhd < 0.15

    def test_powerup_is_roughly_half_ones(self):
        array = fresh_array(n_bits=8 * 4096)
        assert 0.4 < float(array.image().mean()) < 0.6


class TestRetentionPhysics:
    def test_room_temperature_manual_cycle_loses_data(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        reference = array.image()
        array.power_down()
        array.elapse_unpowered(0.5, celsius_to_kelvin(25.0))
        array.restore_power()
        assert array.retained_fraction() < 0.05
        match = float(np.mean(array.image() == reference))
        assert match < 0.6  # chance level for a patterned image

    def test_instant_cycle_retains_everything(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0x5C)
        reference = array.image()
        array.power_down()
        array.elapse_unpowered(1e-9, celsius_to_kelvin(25.0))
        array.restore_power()
        assert array.retained_fraction() > 0.99
        assert (array.image() == reference).all()

    def test_retention_monotonic_in_off_time(self):
        results = []
        for off_time in (1e-6, 20e-6, 100e-6, 1e-3):
            array = fresh_array(n_bits=8 * 2048)
            array.power_down()
            array.elapse_unpowered(off_time, celsius_to_kelvin(25.0))
            array.restore_power()
            results.append(array.retained_fraction())
        assert results == sorted(results, reverse=True)

    def test_cold_extends_retention(self):
        warm = fresh_array(n_bits=8 * 2048)
        warm.power_down()
        warm.elapse_unpowered(1e-3, celsius_to_kelvin(25.0))
        cold = fresh_array(n_bits=8 * 2048)
        cold.power_down()
        cold.elapse_unpowered(1e-3, celsius_to_kelvin(-110.0))
        cold.restore_power()
        warm.restore_power()
        assert cold.retained_fraction() > warm.retained_fraction()

    def test_segmented_decay_composes(self):
        split = fresh_array(seed=5)
        split.power_down()
        split.elapse_unpowered(1e-3, 300.0)
        split.elapse_unpowered(1e-3, 300.0)
        whole = fresh_array(seed=5)
        whole.power_down()
        whole.elapse_unpowered(2e-3, 300.0)
        split.restore_power()
        whole.restore_power()
        assert split.retained_fraction() == pytest.approx(
            whole.retained_fraction()
        )


class TestVoltageEvents:
    def test_hold_at_nominal_loses_nothing(self):
        array = fresh_array()
        array.fill_bytes(0xAA)
        assert array.set_supply_voltage(0.8) == 0
        assert array.read_bytes(0, 16) == b"\xaa" * 16

    def test_hold_below_drv_tail_loses_cells(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        lost = array.set_supply_voltage(0.25)  # DRV mean
        assert lost > array.n_bits * 0.3

    def test_transient_to_zero_loses_everything_salvageable(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        lost = array.apply_voltage_transient(0.0)
        assert lost == pytest.approx(array.n_bits, rel=0.05)

    def test_transient_above_all_drvs_is_harmless(self):
        array = fresh_array()
        array.fill_bytes(0x0F)
        assert array.apply_voltage_transient(0.5) == 0

    def test_voltage_ops_require_power(self):
        array = fresh_array()
        array.power_down()
        with pytest.raises(CircuitError):
            array.set_supply_voltage(0.8)
        with pytest.raises(CircuitError):
            array.apply_voltage_transient(0.4)

    def test_restore_below_drv_collapses_cells(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        array.power_down()
        array.elapse_unpowered(1e-9, 300.0)
        array.restore_power(voltage=0.2)  # below most DRVs
        match = float(np.mean(array.image() == 1))
        # Pattern 0xAA is half ones; a collapsed array drifts to ~0.5 too,
        # but the byte pattern itself must be destroyed.
        assert array.read_bytes(0, 64) != b"\xaa" * 64
        assert 0.3 < match < 0.7


class TestDataAccess:
    def test_byte_roundtrip(self, small_sram):
        small_sram.write_bytes(3, b"hello world")
        assert small_sram.read_bytes(3, 11) == b"hello world"

    def test_bit_roundtrip(self, small_sram):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        small_sram.write_bits(17, bits)
        assert (small_sram.read_bits(17, 8) == bits).all()

    def test_fill_bytes(self, small_sram):
        small_sram.fill_bytes(0x3C)
        assert small_sram.read_bytes() == b"\x3c" * small_sram.n_bytes

    def test_out_of_range_read_rejected(self, small_sram):
        with pytest.raises(CircuitError):
            small_sram.read_bits(small_sram.n_bits - 4, 8)

    def test_out_of_range_write_rejected(self, small_sram):
        with pytest.raises(CircuitError):
            small_sram.write_bytes(small_sram.n_bytes, b"\x00")

    def test_little_endian_bit_order(self, small_sram):
        small_sram.write_bits(0, [1, 0, 0, 0, 0, 0, 0, 0])
        assert small_sram.read_bytes(0, 1) == b"\x01"
        small_sram.write_bytes(1, b"\x80")
        assert list(small_sram.read_bits(8, 8)) == [0, 0, 0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize(
        "access",
        [
            lambda a: a.read_bits(0, 8),
            lambda a: a.write_bits(3, [1, 0]),
            lambda a: a.read_bytes(0, 1),
            lambda a: a.write_bytes(0, b"\x00"),
        ],
    )
    def test_unpowered_access_rejected(self, access):
        array = fresh_array()
        array.power_down()
        with pytest.raises(CircuitError):
            access(array)

    @pytest.mark.parametrize(
        "access",
        [
            lambda a: a.read_bits(-1, 2),
            lambda a: a.write_bits(a.n_bits - 1, [1, 1]),
            lambda a: a.read_bytes(a.n_bytes - 1, 2),
            lambda a: a.read_bytes(-1, 1),
            lambda a: a.write_bytes(-1, b"\x00"),
        ],
    )
    def test_out_of_range_access_rejected(self, access):
        with pytest.raises(CircuitError):
            access(fresh_array())

    def test_drv_percentile_ordering(self, small_sram):
        assert small_sram.drv_percentile(10) < small_sram.drv_percentile(90)


class TestMutationCounter:
    """``mutations`` moves on image changes and power events, not reads."""

    def test_counts_changes_not_reads(self):
        array = fresh_array()
        steps = [
            (lambda: array.power_up(), 1),
            (lambda: array.read_bytes(0, 4), 0),
            (lambda: array.read_bits(3, 9), 0),
            (lambda: array.write_bytes(2, b"ab"), 1),
            (lambda: array.write_bits(5, np.ones(3)), 1),
            (lambda: array.fill_bytes(0x55), 1),
            (lambda: array.set_supply_voltage(0.7), 0),  # nothing lost
            (lambda: array.set_supply_voltage(0.25), 1),  # collapse
            (lambda: array.power_down(), 1),
            (lambda: array.elapse_unpowered(1e-6), 0),
            (lambda: array.restore_power(), 1),
        ]
        for step, bump in steps:
            before = array.mutations
            step()
            assert array.mutations == before + bump

    def test_failed_write_does_not_count(self):
        array = fresh_array()
        array.power_up()
        before = array.mutations
        with pytest.raises(CircuitError):
            array.write_bytes(array.n_bytes, b"x")
        assert array.mutations == before


class TestPropertyBased:
    @given(
        offset=st.integers(min_value=0, max_value=400),
        payload=st.binary(min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip(self, offset, payload):
        array = fresh_array()
        array.write_bytes(offset, payload)
        assert array.read_bytes(offset, len(payload)) == payload

    @given(value=st.integers(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_fill_is_uniform(self, value):
        array = fresh_array()
        array.fill_bytes(value)
        assert set(array.read_bytes()) == {value}

    @given(
        t1=st.floats(min_value=1e-7, max_value=1e-2),
        t2=st.floats(min_value=1e-7, max_value=1e-2),
    )
    @settings(max_examples=25, deadline=None)
    def test_longer_off_time_never_retains_more(self, t1, t2):
        short, long = sorted((t1, t2))
        a = fresh_array(seed=11)
        a.power_down()
        a.elapse_unpowered(short, 300.0)
        b = fresh_array(seed=11)
        b.power_down()
        b.elapse_unpowered(long, 300.0)
        a.restore_power()
        b.restore_power()
        assert b.retained_fraction() <= a.retained_fraction() + 1e-9

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["write_bits", "write_bytes", "read_bits", "read_bytes"]
                ),
                st.integers(min_value=0, max_value=8 * 64 - 1),
                st.binary(max_size=12),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_accesses_match_a_list_of_bits(self, ops):
        """Mixed, unaligned bit and byte accesses against a 0/1 list."""
        array = fresh_array(n_bits=8 * 64)
        model = [int(bit) for bit in array.read_bits()]
        for op, position, payload in ops:
            if op in ("write_bits", "read_bits"):
                bits = [byte & 1 for byte in payload]
                start = min(position, array.n_bits - len(bits))
                if op == "write_bits":
                    array.write_bits(start, np.array(bits, dtype=np.uint8))
                    model[start : start + len(bits)] = bits
                else:
                    got = array.read_bits(start, len(bits))
                    assert list(got) == model[start : start + len(bits)]
            else:
                offset = min(position // 8, array.n_bytes - len(payload))
                lo, hi = 8 * offset, 8 * (offset + len(payload))
                if op == "write_bytes":
                    array.write_bytes(offset, payload)
                    model[lo:hi] = [
                        (byte >> i) & 1 for byte in payload for i in range(8)
                    ]
                else:
                    expected = bytes(
                        sum(bit << i for i, bit in enumerate(model[b : b + 8]))
                        for b in range(lo, hi, 8)
                    )
                    assert array.read_bytes(offset, len(payload)) == expected
        assert list(array.read_bits()) == model


#: A voltage: a plain value, or ``(extent, end, ulps)`` — a field's
#: ``float16`` min (end 0) or max (end 1), nudged by ``ulps`` steps.
VOLTS = st.one_of(
    st.floats(min_value=1e-3, max_value=0.9),
    st.tuples(
        st.sampled_from(["_drv_extent", "_restore_extent"]),
        st.sampled_from([0, 1]),
        st.integers(min_value=-1, max_value=1),
    ),
)


def _volts(array, spec):
    if isinstance(spec, float):
        return spec
    extent, end, ulps = spec
    array.materialize()
    value = getattr(array, extent)[end]
    toward = np.float16(np.inf if ulps > 0 else 0.0)
    for _ in range(abs(ulps)):
        value = np.nextafter(value, toward)
    return float(value)


class TestFieldsOnFirstNeed:
    """DRV and restore thresholds are replayed only when a voltage
    inside a field's extent needs them; outside it, the draw-free
    decision gives the field's answer."""

    def test_manufacture_builds_neither_field(self):
        array = fresh_array()
        array.set_supply_voltage(0.8)
        array.power_down()
        array.elapse_unpowered(1e-3, 300.0)
        array.restore_power()
        assert array.retained_fraction() == 0.0
        assert "_drv" not in vars(array)
        assert "_restore_threshold" not in vars(array)

    def test_replayed_field_is_read_only_and_built_once(self):
        array = fresh_array()
        drv = array._drv
        assert not drv.flags.writeable
        assert array._drv is drv
        low, high = array._drv_extent
        assert (drv.min(), drv.max()) == (low, high)

    @staticmethod
    def _outcome(seed, volts, off_s, read_fields):
        """Returns, images and stream state of one voltage sequence.

        With ``read_fields`` the array builds both fields and widens
        both extents to ``[0, inf]``, so every decision reads a field.
        """
        supply, transient, node, restore = volts
        array = fresh_array(seed=seed)
        if read_fields:
            array._drv, array._restore_threshold
            array._drv_extent = array._restore_extent = (
                np.float16(0.0), np.float16(np.inf)
            )
        array.fill_bytes(0x5A)
        results = [
            array.set_supply_voltage(supply),
            array.apply_voltage_transient(transient),
            array.set_supply_voltage(node),
        ]
        images = [array.read_bytes()]
        array.power_down()
        if off_s:
            array.elapse_unpowered(off_s, 300.0)
        array.restore_power(restore)
        results.append(array.retained_fraction())
        images.append(array.read_bytes())
        return results, images, array._rng.bit_generator.state

    @pytest.mark.parametrize("extent", ["_drv_extent", "_restore_extent"])
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_extent_edges_match_the_field(self, extent, end, ulps):
        volts = (_volts(fresh_array(seed=3), (extent, end, ulps)),) * 4
        assert self._outcome(3, volts, 0.0, False) == self._outcome(
            3, volts, 0.0, True
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        specs=st.tuples(VOLTS, VOLTS, VOLTS, VOLTS),
        off_s=st.sampled_from([0.0, 1e-6, 1e-3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_results_with_fields_built_or_not(self, seed, specs, off_s):
        reference = fresh_array(seed=seed)
        volts = tuple(_volts(reference, spec) for spec in specs)
        assert self._outcome(seed, volts, off_s, False) == self._outcome(
            seed, volts, off_s, True
        )


#: A voltage for the deferred-manufacture differential: a plain value,
#: or ``(bound, ulps)`` — the DRV cap or the restore floor, nudged by
#: ``ulps`` ``float16`` steps.
BOUND_VOLTS = st.one_of(
    st.floats(min_value=1e-3, max_value=0.9),
    st.tuples(
        st.sampled_from(["cap", "floor"]),
        st.integers(min_value=-1, max_value=1),
    ),
)

#: One operation on an array of :data:`OPS_BITS` cells.
OPS_BITS = 8 * 64
OP = st.one_of(
    st.tuples(st.just("power_up"), BOUND_VOLTS),
    st.tuples(st.just("power_down")),
    st.tuples(st.just("elapse"), st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2])),
    st.tuples(st.just("restore"), BOUND_VOLTS),
    st.tuples(st.just("supply"), BOUND_VOLTS),
    st.tuples(st.just("transient"), BOUND_VOLTS),
    st.tuples(st.just("fill"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("write_all"), st.integers(min_value=0, max_value=2**16)),
    st.tuples(
        st.just("write_bytes"),
        st.integers(min_value=0, max_value=OPS_BITS // 8),
        st.binary(min_size=1, max_size=8),
    ),
    st.tuples(
        st.just("write_bits"),
        st.integers(min_value=0, max_value=OPS_BITS),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    ),
    st.tuples(
        st.just("and_words"),
        st.sampled_from([1, 2, 8, 16]).flatmap(
            lambda width: st.binary(min_size=width, max_size=width)
        ),
    ),
    st.tuples(st.just("read_bytes")),
    st.tuples(
        st.just("read_bits"),
        st.integers(min_value=0, max_value=OPS_BITS - 1),
        st.integers(min_value=1, max_value=16),
    ),
)


def _bound_volts(array, spec):
    if isinstance(spec, float):
        return spec
    bound, ulps = spec
    value = array._drv_cap if bound == "cap" else array._RESTORE_FLOOR16
    toward = np.float16(np.inf if ulps > 0 else 0.0)
    for _ in range(abs(ulps)):
        value = np.nextafter(value, toward)
    return float(value)


def _apply(array, op, args):
    """Run one :data:`OP` on ``array``; returns what the call returns."""
    if op == "power_up":
        return array.power_up(_bound_volts(array, args[0]))
    if op == "power_down":
        return array.power_down()
    if op == "elapse":
        return array.elapse_unpowered(args[0], 300.0)
    if op == "restore":
        array.restore_power(_bound_volts(array, args[0]))
        return array.retained_fraction()
    if op in ("supply", "transient"):
        method = {
            "supply": array.set_supply_voltage,
            "transient": array.apply_voltage_transient,
        }[op]
        return method(_bound_volts(array, args[0]))
    if op == "fill":
        return array.fill_bytes(args[0])
    if op == "write_all":
        payload = np.random.default_rng(args[0]).bytes(array.n_bytes)
        return array.write_bytes(0, payload)
    if op == "write_bytes":
        offset, payload = args
        return array.write_bytes(min(offset, array.n_bytes - len(payload)), payload)
    if op == "and_words":
        return array.and_words(args[0])
    if op == "write_bits":
        start, bits = args
        start = min(start, array.n_bits - len(bits))
        return array.write_bits(start, np.array(bits, dtype=np.uint8))
    if op == "read_bytes":
        return array.read_bytes()
    start, count = args
    return array.read_bits(start, min(count, array.n_bits - start)).tobytes()


class TestDeferredManufacture:
    """A lazy array gives the results, images and stream of one that
    took every draw when it was asked for."""

    @staticmethod
    def _outcome(seed, ops, lazy):
        array = SramArray(OPS_BITS, rng=np.random.default_rng(seed))
        if not lazy:
            array.materialize()
        log = []
        for op, *args in ops:
            try:
                result = _apply(array, op, args)
            except CircuitError as error:
                result = ("error", str(error))
            log.append((op, result, array.mutations))
        array.materialize()
        return log, array._cells.tobytes(), array._rng.bit_generator.state

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(OP, max_size=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_lazy_array_matches_one_materialized_at_once(self, seed, ops):
        assert self._outcome(seed, ops, True) == self._outcome(seed, ops, False)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_restore_at_the_floor_draws_nothing(self, ulps):
        """A node voltage at or below the restore floor loses every cell
        without a draw; one ulp above it needs the field."""
        ops = [("power_up", ("floor", ulps)), ("power_down",), ("restore", 0.8)]
        array = SramArray(OPS_BITS, rng=np.random.default_rng(5))
        for op, *args in ops:
            _apply(array, op, args)
        assert array._manufactured == (ulps > 0)
        assert self._outcome(5, ops, True) == self._outcome(5, ops, False)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_supply_at_the_cap_draws_nothing(self, ulps):
        """A supply at or above the DRV cap collapses no cell without a
        draw; one ulp below it needs the field."""
        ops = [("power_up", 0.8), ("fill", 0xA5), ("supply", ("cap", ulps))]
        array = SramArray(OPS_BITS, rng=np.random.default_rng(6))
        for op, *args in ops:
            _apply(array, op, args)
        assert array._manufactured == (ulps < 0)
        assert self._outcome(6, ops, True) == self._outcome(6, ops, False)

    def test_owed_power_ups_across_chunks(self):
        """Several owed power-ups of an array larger than a chunk are
        skipped to the same stream position, the last one read."""
        ops = [("power_up", 0.8)] + [
            ("power_down",), ("elapse", 1e-2), ("restore", 0.8)
        ] * 3 + [("read_bytes",)]
        n_bits = 8 * (CHUNK // 8 + 5)

        def outcome(lazy):
            array = SramArray(n_bits, rng=np.random.default_rng(9))
            if not lazy:
                array.materialize()
            results = [_apply(array, op, args) for op, *args in ops]
            return results, array._rng.bit_generator.state

        assert outcome(True) == outcome(False)

    def test_word_masks_on_a_pending_image_draw_nothing(self):
        """Masks on a pending image are owed and AND-composed (also
        across widths), then applied to the owed power-up."""
        ops = [
            ("power_up", 0.8),
            ("and_words", b"\xf0\x7f"),
            ("and_words", b"\x3f" * 8),
        ]
        array = SramArray(OPS_BITS, rng=np.random.default_rng(8))
        for op, *args in ops:
            _apply(array, op, args)
        assert not array._manufactured and array.mutations == 3
        image = np.frombuffer(array.read_bytes(), dtype=np.uint8)
        assert not (image[0::2] & 0xCF).any()
        assert not (image[1::2] & 0xC0).any()
        assert self._outcome(8, ops, True) == self._outcome(8, ops, False)

    @pytest.mark.parametrize("mask", [b"", b"\x00" * 3, b"\x00" * 1024])
    def test_a_mask_that_does_not_tile_raises(self, mask):
        array = fresh_array()
        with pytest.raises(CircuitError):
            array.and_words(mask)

    def test_full_write_makes_a_pending_image_concrete(self):
        array = fresh_array()
        array.fill_bytes(0x3C)
        assert not array._manufactured
        assert array.read_bytes() == b"\x3c" * array.n_bytes
        assert not array._manufactured

    @pytest.mark.parametrize(
        "force",
        [
            lambda a: a.read_bytes(0, 1),
            lambda a: a.write_bytes(1, b"\x00"),
            lambda a: a.age(1.0),
            lambda a: a.drv_percentile(50),
            lambda a: a.wake_probabilities(),
            lambda a: a.set_supply_voltage(0.3),
        ],
    )
    def test_what_forces_materialization(self, force):
        array = fresh_array()
        assert not array._manufactured
        force(array)
        assert array._manufactured

    def test_manufacture_above_the_cap_raises(self):
        array = SramArray(64, rng=np.random.default_rng(1))
        array._drv_cap = np.float16(0.0)
        with pytest.raises(CircuitError):
            array.materialize()


def _untemper(word: int) -> int:
    """The MT19937 key word whose tempered output is ``word``."""
    y = word ^ (word >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def _emitting(words: list[int]) -> np.random.Generator:
    """A generator whose MT19937 emits ``words`` next (then
    ``0xFFFFFFFF`` up to the end of its key)."""
    bit_generator = np.random.MT19937(0)
    state = bit_generator.state
    key = np.full(624, _untemper(0xFFFFFFFF), dtype=np.uint32)
    key[: len(words)] = [_untemper(word) for word in words]
    state["state"] = {"key": key, "pos": 0}
    bit_generator.state = state
    return np.random.Generator(bit_generator)


#: numpy's ziggurat tail start ``r`` and the largest ``|Z|`` its
#: ``float32`` sampler can return: ``r + 24 ln 2 / r``, reached when
#: both tail uniforms are ``1 - 2**-24`` (``next_float`` has 24 bits).
ZIGGURAT_R = 3.6541528853610088
Z_EXTREME = ZIGGURAT_R + 24 * np.log(2) / ZIGGURAT_R


class TestDrvCap:
    def test_the_emitted_words_are_the_generator_output(self):
        words = [0x12345678, 0xFFFFFE00, 0]
        raw = _emitting(words).bit_generator.random_raw(3)
        assert raw.tolist() == words

    @pytest.mark.parametrize("word", [0xFFFFFE00, 0xFFFDFE00])
    def test_cap_bounds_numpys_largest_float32_normal(self, word):
        """Strip 0 with a tail-sized mantissa (each sign), then both
        tail uniforms at their maximum: the extreme ``Z``."""
        z = _emitting([word, 0xFFFFFFFF, 0xFFFFFFFF]).standard_normal(
            dtype=np.float32
        )
        assert abs(float(z)) == pytest.approx(Z_EXTREME, rel=1e-6)
        assert abs(float(z)) <= ENGINE.NORMAL_Z_CAP

    @given(
        word=st.integers(min_value=0, max_value=2**32 - 1),
        u1=st.integers(min_value=0, max_value=2**32 - 1),
        u2=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_strip_zero_draw_exceeds_the_extreme(self, word, u1, u2):
        z = _emitting([word & ~0xFF, u1, u2]).standard_normal(dtype=np.float32)
        assert abs(float(z)) <= np.float32(Z_EXTREME) * (1 + 1e-6)

    def test_cap_bounds_the_field_at_the_extreme(self):
        array = SramArray(64)
        z = np.array([Z_EXTREME], dtype=np.float32)
        params = array.params
        field = (
            np.maximum(
                z * np.float32(params.drv_sigma_v) + np.float32(params.drv_mean_v),
                np.float32(array.DRV_FLOOR_V),
            ).astype(np.float16)
        )
        assert field[0] <= array._drv_cap
        assert float(array._drv_cap) == pytest.approx(
            params.drv_mean_v + ENGINE.NORMAL_Z_CAP * params.drv_sigma_v, abs=1e-3
        )
