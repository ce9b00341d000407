"""SRAM array physics and data-access contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_supply_voltage_reported(self):
        array = fresh_array()
        assert array.supply_voltage == pytest.approx(0.8)
        array.power_down()
        assert array.supply_voltage == 0.0


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
        retained = array.restore_power()
        assert retained < 0.05
        match = float(np.mean(array.image() == reference))
        assert match < 0.6  # chance level for a patterned image

    def test_instant_cycle_retains_everything(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0x5C)
        reference = array.image()
        array.power_down()
        array.elapse_unpowered(1e-9, celsius_to_kelvin(25.0))
        retained = array.restore_power()
        assert retained > 0.99
        assert (array.image() == reference).all()

    def test_retention_monotonic_in_off_time(self):
        results = []
        for off_time in (1e-6, 20e-6, 100e-6, 1e-3):
            array = fresh_array(n_bits=8 * 2048)
            array.power_down()
            array.elapse_unpowered(off_time, celsius_to_kelvin(25.0))
            results.append(array.restore_power())
        assert results == sorted(results, reverse=True)

    def test_cold_extends_retention(self):
        warm = fresh_array(n_bits=8 * 2048)
        warm.power_down()
        warm.elapse_unpowered(1e-3, celsius_to_kelvin(25.0))
        cold = fresh_array(n_bits=8 * 2048)
        cold.power_down()
        cold.elapse_unpowered(1e-3, celsius_to_kelvin(-110.0))
        assert cold.restore_power() > warm.restore_power()

    def test_segmented_decay_composes(self):
        split = fresh_array(seed=5)
        split.power_down()
        split.elapse_unpowered(1e-3, 300.0)
        split.elapse_unpowered(1e-3, 300.0)
        whole = fresh_array(seed=5)
        whole.power_down()
        whole.elapse_unpowered(2e-3, 300.0)
        assert split.restore_power() == pytest.approx(whole.restore_power())


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
        assert b.restore_power() <= a.restore_power() + 1e-9

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
        assert array.restore_power() == 0.0
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
        results.append(array.restore_power(restore))
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
