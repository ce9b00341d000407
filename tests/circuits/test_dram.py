"""DRAM array physics: refresh, decay, anti-cells, deferred manufacture."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.dram import PAGE_BYTES, DramArray, DramParameters
from repro.circuits.engine import ENGINE
from repro.circuits.manufacture import Snapshot
from repro.errors import CalibrationError, CircuitError
from repro.units import celsius_to_kelvin

from .eager_dram import EagerDramArray
from .scalar_engine import ScalarEngine
from .test_sram import Z_EXTREME, _emitting

SCALAR = ScalarEngine()


def fresh_dram(n_bits=8 * 4096, seed=3, **params):
    dram = DramArray(
        n_bits, DramParameters(**params), np.random.default_rng(seed)
    )
    dram.restore_power()
    return dram


class TestConstruction:
    def test_rejects_non_byte_multiple(self):
        with pytest.raises(CalibrationError):
            DramArray(10)

    def test_rejects_bad_refresh(self):
        with pytest.raises(CalibrationError):
            DramParameters(refresh_interval_s=0.0)

    def test_rejects_bad_anticell_fraction(self):
        with pytest.raises(CalibrationError):
            DramParameters(anticell_fraction=2.0)

    def test_starts_unpowered(self):
        assert not DramArray(64).powered


class TestAccess:
    def test_roundtrip(self):
        dram = fresh_dram()
        dram.write_bytes(10, b"secret key material")
        assert dram.read_bytes(10, 19) == b"secret key material"

    def test_read_requires_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.read_bytes(0, 1)

    def test_write_requires_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.write_bytes(0, b"\x00")

    def test_out_of_range_rejected(self):
        dram = fresh_dram()
        with pytest.raises(CircuitError):
            dram.read_bytes(dram.n_bytes - 1, 2)


class TestDecay:
    def test_short_room_temperature_cut_retains(self):
        """A just-refreshed DRAM outlives a 64 ms cut (paper §3)."""
        dram = fresh_dram()
        dram.write_bytes(0, b"\xab" * 64)
        dram.power_down()
        dram.elapse_unpowered(0.064, celsius_to_kelvin(25.0))
        dram.restore_power()
        assert dram.retained_fraction() > 0.95
        assert dram.read_bytes(0, 64) == b"\xab" * 64

    def test_long_room_temperature_cut_decays(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\xab" * 64)
        dram.power_down()
        dram.elapse_unpowered(60.0, celsius_to_kelvin(25.0))
        dram.restore_power()
        assert dram.retained_fraction() < 0.2

    def test_cold_boot_regime(self):
        """Chilled DRAM survives a minute-long migration (Halderman)."""
        dram = fresh_dram()
        dram.write_bytes(0, bytes(range(256)))
        dram.power_down()
        dram.elapse_unpowered(60.0, celsius_to_kelvin(-50.0))
        dram.restore_power()
        assert dram.retained_fraction() > 0.9

    def test_decayed_cells_fall_to_ground_state_not_zero(self):
        """Anti-cells decay to 1: a dead module is not all-zeros."""
        dram = fresh_dram(n_bits=8 * 8192)
        dram.write_bytes(0, b"\x00" * dram.n_bytes)
        dram.power_down()
        dram.elapse_unpowered(3600.0, celsius_to_kelvin(25.0))
        dram.restore_power()
        ones = float(np.mean(dram.image()))
        assert 0.4 < ones < 0.6  # ~half the cells are anti-cells

    def test_elapse_requires_power_down(self):
        with pytest.raises(CircuitError):
            fresh_dram().elapse_unpowered(1.0, 300.0)

    def test_rewrite_recharges(self):
        dram = fresh_dram()
        dram.power_down()
        dram.elapse_unpowered(10.0, celsius_to_kelvin(25.0))
        dram.restore_power()
        dram.write_bytes(0, b"\x77" * 16)
        dram.power_down()
        dram.elapse_unpowered(0.01, celsius_to_kelvin(25.0))
        dram.restore_power()
        assert dram.read_bytes(0, 16) == b"\x77" * 16


class TestPowerLoadProtocol:
    def test_set_supply_voltage_is_lossless(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\x11" * 8)
        assert dram.set_supply_voltage(1.1) == 0
        assert dram.read_bytes(0, 8) == b"\x11" * 8

    def test_transient_is_harmless(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\x22" * 8)
        assert dram.apply_voltage_transient(0.0) == 0
        assert dram.read_bytes(0, 8) == b"\x22" * 8

    def test_voltage_ops_require_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.set_supply_voltage(1.1)
        with pytest.raises(CircuitError):
            dram.apply_voltage_transient(0.5)


class TestGroundState:
    def test_ground_state_is_the_anticell_layout(self):
        dram = fresh_dram(n_bits=8 * 8192)
        ground = dram.ground_state()
        assert ground.dtype == np.uint8 and len(ground) == dram.n_bits
        assert 0.45 < float(np.mean(ground)) < 0.55
        assert np.array_equal(dram.image(), ground)  # never written

    def test_factory_restore_reads_the_ground_state(self):
        dram = DramArray(8 * 64, rng=np.random.default_rng(2))
        dram.restore_power()
        assert dram.retained_fraction() == 0.0
        ground = np.packbits(dram.ground_state(), bitorder="little")
        assert dram.read_bytes() == ground.tobytes()


#: An unpowered interval for the differential test: ``(seconds,
#: kelvin)``.  At 298 K (tau ~ 2.2 s) a 1 ms cut keeps every cell at
#: the lowest retention multiplier, 600 s loses every cell at the
#: highest, and 1-60 s split them; 233 K keeps all but the longest.
DECAY = st.tuples(
    st.sampled_from([1e-3, 0.05, 1.0, 10.0, 60.0, 600.0]),
    st.sampled_from([233.0, 298.0, 350.0]),
)

#: A cut that splits the cells, so its restore owes a keep mask.
SPLIT = st.tuples(st.sampled_from([1.0, 10.0, 30.0]), st.just(298.0))

#: One operation on an array of :data:`OPS_BITS` cells.
OPS_BITS = 8 * 64
OP = st.one_of(
    st.tuples(st.just("cycle"), st.lists(DECAY, min_size=1, max_size=3)),
    st.tuples(st.just("cycle"), st.lists(SPLIT, min_size=1, max_size=2)),
    st.tuples(st.just("cycle_twice"), SPLIT, SPLIT),
    st.tuples(st.just("power_down")),
    st.tuples(st.just("elapse"), DECAY),
    st.tuples(st.just("restore")),
    st.tuples(st.just("fraction")),
    st.tuples(st.just("write_all"), st.integers(min_value=0, max_value=2**16)),
    st.tuples(
        st.just("write_bytes"),
        st.integers(min_value=0, max_value=OPS_BITS // 8),
        st.binary(min_size=1, max_size=8),
    ),
    st.tuples(
        st.just("read_bytes"),
        st.integers(min_value=0, max_value=OPS_BITS // 8),
        st.integers(min_value=0, max_value=16),
    ),
)

#: A module of three and a quarter pages, so its last page is short.
PAGED_BITS = 8 * (3 * PAGE_BYTES + 1024)

#: A byte offset into a :data:`PAGED_BITS` module, often a few bytes
#: either side of a page boundary.
PAGED_OFFSET = st.one_of(
    st.integers(min_value=0, max_value=PAGED_BITS // 8),
    st.builds(
        lambda page, delta: max(0, page * PAGE_BYTES + delta),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-16, max_value=16),
    ),
)

#: One operation on a :data:`PAGED_BITS` module: :data:`OP`'s power
#: events, with reads and writes anywhere in it, some across pages.
PAGED_OP = st.one_of(
    st.tuples(st.just("cycle"), st.lists(DECAY, min_size=1, max_size=2)),
    st.tuples(st.just("cycle"), st.lists(SPLIT, min_size=1, max_size=1)),
    st.tuples(st.just("fraction")),
    st.tuples(st.just("write_all"), st.integers(min_value=0, max_value=2**16)),
    st.tuples(
        st.just("write_bytes"), PAGED_OFFSET, st.binary(min_size=1, max_size=40)
    ),
    st.tuples(
        st.just("read_bytes"),
        PAGED_OFFSET,
        st.integers(min_value=0, max_value=PAGE_BYTES + 64),
    ),
)

#: Ops that leave a :data:`PAGED_BITS` image concrete on pages 0, 1
#: and 3 only, with page 1 written; :data:`PAGED_AFTER` follows them.
PAGED_HISTORY = [
    ("restore",),
    ("read_bytes", PAGE_BYTES - 8, 16),
    ("write_bytes", PAGE_BYTES + 100, b"\x5a\xa5" * 8),
    ("read_bytes", 3 * PAGE_BYTES + 1000, 24),
]
PAGED_AFTER = [
    ("read_bytes", 2 * PAGE_BYTES - 4, 12),
    ("write_bytes", 3 * PAGE_BYTES - 3, b"\x00\xff\x0f\xf0\x33\xcc"),
    ("cycle", [(1.0, 298.0)]),
    ("read_bytes", PAGE_BYTES + 96, 24),
]


def _buffered():
    """A PCG64 generator holding a buffered 32-bit half-word."""
    generator = np.random.default_rng(6)
    generator.standard_normal(1, dtype=np.float32)
    assert generator.bit_generator.state["has_uint32"]
    return generator


def _cycle(array, decays):
    array.power_down()
    for seconds, kelvin in decays:
        array.elapse_unpowered(seconds, kelvin)
    array.restore_power()


def _apply(array, op, args):
    """Run one :data:`OP` on ``array``; returns what the call returns."""
    if op == "cycle":
        return _cycle(array, args[0])
    if op == "cycle_twice":
        _cycle(array, [args[0]])
        return _cycle(array, [args[1]])
    if op == "power_down":
        return array.power_down()
    if op == "elapse":
        return array.elapse_unpowered(*args[0])
    if op == "restore":
        return array.restore_power()
    if op == "fraction":
        return array.retained_fraction()
    if op == "write_all":
        payload = np.random.default_rng(args[0]).bytes(array.n_bytes)
        return array.write_bytes(0, payload)
    if op == "write_bytes":
        offset, payload = args
        return array.write_bytes(min(offset, array.n_bytes - len(payload)), payload)
    offset, count = args
    return array.read_bytes(offset, min(count, array.n_bytes - offset))


#: Split restores no read follows, then what reads or replaces them.
OWED = [
    ("cycle", [(1.0, 298.0)]),
    ("cycle_twice", (10.0, 298.0), (1.0, 298.0)),
    ("cycle_twice", (1.0, 298.0), (30.0, 298.0)),
]
AFTER_OWED = [
    ("read_bytes", 3, 9),
    ("fraction",),
    ("write_all", 5),
    ("write_bytes", 7, b"\x00\xff\x5a"),
]


class TestDeferredManufacture:
    """The deferred, tabled array gives the restore fractions, reads,
    image and stream of one that drew both fields when it was built
    and decayed every cell's own charge."""

    @staticmethod
    def _run(array, ops):
        """Run ``ops`` on ``array``; returns each op's result."""
        log = []
        for op, *args in ops:
            try:
                result = _apply(array, op, args)
            except CircuitError:
                result = "error"
            log.append((op, result))
        return log

    @classmethod
    def _outcome(cls, seed, ops, array_type, n_bits=OPS_BITS):
        array = array_type(n_bits, rng=np.random.default_rng(seed))
        return cls._finish(array, cls._run(array, ops))

    @staticmethod
    def _finish(array, log):
        """``log`` with what ``array`` then reports, holds and draws next."""
        if isinstance(array, DramArray):
            array.materialize()
        try:
            fraction = array.retained_fraction()
        except CircuitError:
            fraction = "error"
        return (
            log,
            fraction,
            array.image().tobytes(),
            array._rng.bit_generator.state,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(OP, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_eager_array(self, seed, ops):
        assert self._outcome(seed, ops, DramArray) == self._outcome(
            seed, ops, EagerDramArray
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(PAGED_OP, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_paged_access_matches_the_eager_array(self, seed, ops):
        """Reads and writes anywhere in a module whose last page is
        short draw only their pages, with the eager array's results."""
        ops = [("restore",), *ops]
        assert self._outcome(seed, ops, DramArray, PAGED_BITS) == (
            self._outcome(seed, ops, EagerDramArray, PAGED_BITS)
        )

    @pytest.mark.parametrize("after", AFTER_OWED, ids=lambda op: op[0])
    def test_an_owed_restore_over_a_partly_paged_image(self, after):
        """A split restore of an image with pages still at the ground
        state owes its mask; what comes next gives the eager results."""
        ops = [*PAGED_HISTORY, ("cycle", [(1.0, 298.0)])]
        array = DramArray(PAGED_BITS, rng=np.random.default_rng(8))
        self._run(array, ops)
        assert array._owed_first is not None
        assert array._ground_pages == {2}
        assert "_anticell" not in vars(array)
        ops.append(after)
        assert self._outcome(8, ops, DramArray, PAGED_BITS) == self._outcome(
            8, ops, EagerDramArray, PAGED_BITS
        )

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda array: Snapshot(array).restore()],
        ids=["deepcopy", "snapshot"],
    )
    def test_copies_of_a_partly_paged_array(self, clone):
        """A copy of a partly paged array continues as the eager
        array does; a deep copy keeps the paging, a snapshot draws
        every page first."""
        array = DramArray(PAGED_BITS, rng=np.random.default_rng(8))
        log = self._run(array, PAGED_HISTORY)
        assert array._ground_pages == {2}
        copied = clone(array)
        paged = "_anticell" not in vars(copied)
        assert paged == (clone is copy.deepcopy)
        assert copied._ground_pages == ({2} if paged else set())
        log += self._run(copied, PAGED_AFTER)
        ops = PAGED_HISTORY + PAGED_AFTER
        assert self._finish(copied, log) == self._outcome(
            8, ops, EagerDramArray, PAGED_BITS
        )

    @pytest.mark.parametrize("after", AFTER_OWED, ids=lambda op: op[0])
    @pytest.mark.parametrize("owed", OWED, ids=["once", "falling", "rising"])
    def test_owed_restores_match_the_eager_array(self, owed, after):
        """Split restores that nothing reads owe their keep masks
        (composed, when back to back) without drawing the field; what
        comes next gives the eager array's results."""
        ops = [("restore",), ("write_all", 1), owed]
        array = DramArray(OPS_BITS, rng=np.random.default_rng(8))
        for op, *args in ops:
            _apply(array, op, args)
        assert "_retention_scale" not in vars(array)
        assert array._owed_first is not None
        ops.append(after)
        _apply(array, after[0], after[1:])
        assert ("_retention_scale" in vars(array)) == (after[0] != "write_all")
        assert self._outcome(8, ops, DramArray) == self._outcome(
            8, ops, EagerDramArray
        )

    def test_a_split_restore_of_the_ground_image_owes_nothing(self):
        array = DramArray(OPS_BITS, rng=np.random.default_rng(8))
        array.restore_power()
        _cycle(array, [(1.0, 298.0)])
        assert array._cells is None and array._owed_first is None
        array.read_bytes(0, 4)
        assert "_retention_scale" not in vars(array)

    @pytest.mark.parametrize("query", ["read", "fraction"])
    @pytest.mark.parametrize(
        "decays, split",
        [
            ([(1e-3, 298.0)], False),  # every cell kept
            ([(600.0, 298.0)], False),  # every cell lost
            ([(1.0, 298.0)], True),  # the threshold splits the cap range
            ([(0.5, 298.0), (0.5, 298.0), (1e-3, 233.0)], True),
        ],
    )
    def test_draws_the_retention_field_only_when_split(
        self, decays, split, query
    ):
        """A restore alone draws nothing; the first read or fraction
        after it draws the field only if the restore split the cells."""
        ops = [("restore",), ("write_all", 1), ("cycle", decays)]
        array = DramArray(OPS_BITS, rng=np.random.default_rng(8))
        for op, *args in ops:
            _apply(array, op, args)
        assert "_retention_scale" not in vars(array)
        op, *args = ("read_bytes", 0, 4) if query == "read" else ("fraction",)
        _apply(array, op, args)
        ops.append((op, *args))
        assert ("_retention_scale" in vars(array)) == split
        assert self._outcome(8, ops, DramArray) == self._outcome(
            8, ops, EagerDramArray
        )

    def test_factory_restore_draws_nothing(self):
        array = DramArray(OPS_BITS, rng=np.random.default_rng(4))
        state = array._rng.bit_generator.state
        array.elapse_unpowered(1e3)
        array.restore_power()
        assert array.retained_fraction() == 0.0
        assert not set(array.MANUFACTURED) & set(vars(array))
        assert array._rng.bit_generator.state == state

    def test_fraction_before_any_restore_raises(self):
        with pytest.raises(CircuitError, match="never restored"):
            DramArray(OPS_BITS).retained_fraction()

    def test_full_write_replaces_a_ground_image_without_a_draw(self):
        array = DramArray(OPS_BITS, rng=np.random.default_rng(4))
        array.restore_power()
        array.write_bytes(0, b"\x5a" * array.n_bytes)
        assert array.read_bytes(0, 4) == b"\x5a" * 4
        assert "_anticell" not in vars(array)

    @pytest.mark.parametrize(
        "force",
        [
            # Each returns the pages it draws (None: the whole layout).
            lambda a: [a.read_bytes(PAGE_BYTES - 2, 4), {0, 1}][1],
            lambda a: [a.write_bytes(3 * PAGE_BYTES + 5, b"\x00"), {3}][1],
            lambda a: [a.image(), None][1],
            lambda a: [a.ground_state(), None][1],
        ],
    )
    def test_what_draws_the_anticell_layout(self, force):
        """A read or partial write of the ground state draws the
        anti-cell flags of only the pages it covers; :meth:`image` and
        :meth:`ground_state` draw the whole layout."""
        array = DramArray(PAGED_BITS, rng=np.random.default_rng(4))
        array.restore_power()
        pages = force(array)
        assert ("_anticell" in vars(array)) == (pages is None)
        if pages is not None:
            assert array._ground_pages == {0, 1, 2, 3} - pages
        assert "_retention_scale" not in vars(array)

    @pytest.mark.parametrize(
        "force, pages",
        [
            (lambda a: a.read_bytes(PAGE_BYTES - 2, 4), {0, 1}),
            (lambda a: a.read_bytes(PAGE_BYTES, 0), set()),
            (lambda a: a.write_bytes(3 * PAGE_BYTES + 5, b"\x00"), {3}),
        ],
        ids=["read-across", "read-nothing", "write-short-page"],
    )
    def test_drawn_pages_are_the_layouts(self, force, pages):
        """Each page drawn alone holds what it holds when the whole
        layout is drawn first, and only the pages drawn leave the
        ground state."""
        array = DramArray(PAGED_BITS, rng=np.random.default_rng(4))
        whole = DramArray(PAGED_BITS, rng=np.random.default_rng(4))
        for a in (array, whole):
            a.restore_power()
        whole.image()
        force(array)
        force(whole)
        assert "_anticell" not in vars(array)
        assert array._ground_pages == {0, 1, 2, 3} - pages
        for page in pages:
            span = array._page_span(page)
            assert np.array_equal(array._cells[span], whole._cells[span])

    @pytest.mark.parametrize(
        "force",
        [lambda a: a.image(), lambda a: a.ground_state(), DramArray.materialize],
        ids=["image", "ground_state", "materialize"],
    )
    def test_the_whole_layout_replaces_the_pages(self, force):
        array = DramArray(PAGED_BITS, rng=np.random.default_rng(4))
        array.restore_power()
        array.read_bytes(PAGE_BYTES, 1)
        force(array)
        assert "_anticell" in vars(array)
        # Later pages are slices of the whole layout, not new draws.
        assert np.shares_memory(array._anticell_page(2), array._anticell)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox],
        ids=["mt19937", "pcg64dxsm", "philox"],
    )
    def test_a_stream_other_than_pcg64_is_refused(self, bit_generator):
        """Pages are reached with PCG64 ``advance``; nothing else seeks
        by exactly one ``random()`` value per output."""
        with pytest.raises(CalibrationError, match="PCG64"):
            DramArray(PAGED_BITS, rng=np.random.Generator(bit_generator(11)))

    @pytest.mark.parametrize("make_rng", [_buffered], ids=["pcg64-buffered"])
    def test_retention_stream_of_any_generator(self, make_rng):
        """The retention draw starts past the anti-cell draw for a
        PCG64 stream that holds a buffered half-word."""
        ops = [
            ("restore",), ("write_all", 2), ("cycle", [(1.0, 298.0)]),
            ("fraction",),
        ]
        outcomes = []
        for array_type in (DramArray, EagerDramArray):
            array = array_type(OPS_BITS, rng=make_rng())
            results = [_apply(array, op, args) for op, *args in ops]
            if isinstance(array, DramArray):
                assert "_retention_scale" in vars(array)
                array.materialize()
            next_words = array._rng.bit_generator.random_raw(4).tolist()
            outcomes.append((results, array.image().tobytes(), next_words))
        assert outcomes[0] == outcomes[1]

    def test_a_multiplier_outside_the_cap_raises(self):
        """A split restore owes the field, and the first read after it
        draws the field and checks it against the cap."""
        array = DramArray(OPS_BITS, rng=np.random.default_rng(1))
        array._retention_cap = (np.float16(0.9), np.float16(1.1))
        tau = array.params.decay.time_constant(298.0)
        array.restore_power()
        array.write_bytes(0, b"\xa5" * array.n_bytes)
        array.power_down()
        array.elapse_unpowered(tau * np.log(2.0), 298.0)
        array.restore_power()
        with pytest.raises(CircuitError, match="cap"):
            array.read_bytes(0, 1)


class TestRetentionCap:
    @pytest.mark.parametrize("word", [0xFFFFFE00, 0xFFFDFE00])
    def test_cap_bounds_the_multiplier_of_numpys_extreme_normal(self, word):
        """The ziggurat's extreme ``Z`` (each sign) gives a multiplier
        within the cap, at the default spread and a wide one."""
        for spread in (DramParameters().retention_spread, 1.0):
            array = DramArray(64, DramParameters(retention_spread=spread))
            low, high = array._retention_cap
            (value,) = ENGINE.lognormal_field(
                _emitting([word, 0xFFFFFFFF, 0xFFFFFFFF]), 1, spread
            )
            assert low < value < high
            extreme = np.exp(spread * Z_EXTREME)
            assert value == pytest.approx(
                extreme if value > 1 else 1 / extreme, rel=1e-2
            )

    def test_cap_is_the_fields_rounding_at_the_cap_z(self):
        array = DramArray(64)
        spread = array.params.retention_spread
        low, high = array._retention_cap
        assert float(high) == pytest.approx(
            np.exp(spread * ENGINE.NORMAL_Z_CAP), rel=1e-3
        )
        assert float(low) == pytest.approx(
            np.exp(-spread * ENGINE.NORMAL_Z_CAP), rel=1e-3
        )
        assert ENGINE.NORMAL_Z_CAP > Z_EXTREME


class TestRetainedTable:
    """The scalar oracle's per-cell decay over every multiplier pattern
    of the cap is one step from lost to kept, at the restore's first
    kept pattern."""

    @pytest.mark.parametrize(
        "decays",
        [
            [(1.0, 298.0)],
            [(0.7, 298.0), (30.0, 273.0)],
            [(0.3, 298.0), (0.3, 310.0), (20.0, 263.0)],
        ],
    )
    @pytest.mark.parametrize("start", [1.0, 0.0])
    def test_table_matches_the_scalar_oracle(self, decays, start):
        array = DramArray(64)
        array._start_level = start
        for seconds, kelvin in decays:
            array.elapse_unpowered(seconds, kelvin)
        low, high = (int(cap.view(np.uint16)) for cap in array._retention_cap)
        scale = np.arange(low, high + 1, dtype=np.uint16).view(np.float16)
        level = np.full(len(scale), start, dtype=np.float16)
        for seconds, kelvin in decays:
            tau = array.params.decay.time_constant(kelvin)
            level = SCALAR.charge_decay(level, seconds, tau, scale)
        expected = SCALAR.charge_mask(level)
        first = array._first_kept()
        assert np.array_equal(expected, np.arange(low, high + 1) >= first)
        assert (first <= high) == (start > 0.0)
        assert first > low

    def test_outcomes_that_are_not_one_step_raise(self, monkeypatch):
        """A kernel that keeps some multiplier but loses a larger one
        breaks the restore's threshold, which then refuses to run."""
        array = DramArray(64)
        array.restore_power()
        array.power_down()
        array.elapse_unpowered(1.0, 298.0)
        monkeypatch.setattr(
            ENGINE, "charge_mask", lambda level: np.arange(level.size) % 2 == 0
        )
        with pytest.raises(CircuitError, match="monotone"):
            array.restore_power()
