"""Board snapshots: a restored copy of a booted board is a fresh build + boot.

Glitch campaigns build and snapshot one booted rig per process and hand
every work unit a copy restored from the snapshot
(:func:`repro.exec.booted_board`).  The copy shares exactly the arrays'
read-only manufacture fields and copies every piece of mutable state,
so it must be indistinguishable from building and booting the board
again, and nothing done to one copy may reach the template, the
snapshot or another copy.  The snapshot keeps the template's arrays
as its source and freezes them, so the template cannot reach the
snapshot either.
"""

import numpy as np
import pytest

from repro import obs
from repro.circuits.dram import DramArray
from repro.circuits.manufacture import Snapshot, read_only
from repro.circuits.sram import SramArray
from repro.devices import build_device, glitch_rig
from repro.exec import booted_board
from repro.obs.manifest import TIMING_METRIC_PREFIXES
from repro.soc.bootrom import BootMedia

SEED = 77
MEDIA = BootMedia("victim-os")


def _booted(seed: int = SEED):
    board = glitch_rig(seed=seed)
    board.boot(MEDIA)
    return board


def _clone(board):
    return Snapshot(board).restore()


def _walk(board) -> list[tuple[str, object]]:
    """Every object reachable from ``board`` through attributes and
    containers, by path (generators and arrays are leaves)."""
    found: list[tuple[str, object]] = []
    seen: set[int] = set()

    def walk(value, path: str) -> None:
        if id(value) in seen:
            return
        seen.add(id(value))
        found.append((path, value))
        if isinstance(value, (np.random.Generator, np.ndarray)):
            return
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            for name, item in vars(value).items():
                walk(item, f"{path}.{name}")

    walk(board, "board")
    return found


def _parts(board) -> list[tuple[str, object]]:
    """Every cell array and RNG reachable from ``board``, by path."""
    return [
        (path, value) for path, value in _walk(board)
        if isinstance(value, (SramArray, DramArray, np.random.Generator))
    ]


def _stored(part: SramArray | DramArray) -> np.ndarray:
    """The stored image: packed SRAM cells, or DRAM's one byte per bit."""
    return part._cells if isinstance(part, SramArray) else part._bits


def _state(board) -> dict[str, object]:
    """Stored images, DRAM charge levels and RNG states, by path."""
    state: dict[str, object] = {}
    for path, part in _parts(board):
        if isinstance(part, np.random.Generator):
            state[path] = part.bit_generator.state
            continue
        state[f"{path}.stored"] = _stored(part).tobytes()
        state[f"{path}._rng"] = part._rng.bit_generator.state
        if isinstance(part, DramArray):
            state[f"{path}._level"] = part._level.tobytes()
    return state


def _physics_metrics(registry) -> dict[str, list]:
    """A registry dump without the wall-clock-derived metrics."""
    return {
        kind: [entry for entry in entries
               if not entry[0].startswith(TIMING_METRIC_PREFIXES)]
        for kind, entries in registry.dump().items()
    }


def _arrays(board) -> list[SramArray | DramArray]:
    return [
        part for _, part in _parts(board)
        if isinstance(part, (SramArray, DramArray))
    ]


def _manufactured_ids(board) -> set[int]:
    """Identities of every built ``MANUFACTURED`` field on ``board``
    (reading a field built on first need here would build it)."""
    return {
        id(vars(array)[name])
        for array in _arrays(board)
        for name in array.MANUFACTURED
        if name in vars(array)
    }


def _shared_array_ids(original, copied) -> set[int]:
    """Identities of the ndarrays reachable from both graphs."""
    def arrays(board):
        return {
            id(value) for _, value in _walk(board)
            if isinstance(value, np.ndarray)
        }
    return arrays(original) & arrays(copied)


def _exercise(board) -> None:
    """A power cycle plus writes through DRAM and an SRAM array."""
    board.power_cycle(1e-3)
    board.boot(MEDIA)
    board.soc.memory_map.write_block(0x2000, b"\xa5" * 64)
    board.soc.core(0).l1d.data_rams[0].fill_bytes(0x3C)


class TestCloneEqualsFreshBuild:
    def test_every_array_and_stream_matches(self):
        clone = _clone(_booted())
        fresh = _booted()
        state = _state(clone)
        assert len(_arrays(clone)) == 11
        assert state == _state(fresh)

    def test_clone_behaves_like_fresh_build(self):
        clone = _clone(_booted())
        fresh = _booted()
        _exercise(clone)
        _exercise(fresh)
        assert _state(clone) == _state(fresh)

    @pytest.mark.parametrize("key", ["rpi4", "rpi3", "imx53", "glitch-rig"])
    def test_every_device_round_trips(self, key):
        board = build_device(key, seed=SEED)
        clone = _clone(board)
        assert type(clone) is type(board)
        assert _state(clone) == _state(board)
        assert _shared_array_ids(board, clone) == _manufactured_ids(board)


class TestCloneIsolation:
    def test_mutating_a_clone_leaves_template_and_siblings(self):
        template = _booted()
        before = _state(template)
        snapshot = Snapshot(template)
        first = snapshot.restore()
        second = snapshot.restore()
        _exercise(first)
        assert _state(first) != before
        assert _state(template) == before
        assert _state(second) == before

    def test_snapshot_freezes_the_template(self):
        template = _booted()
        before = _state(template)
        snapshot = Snapshot(template)
        with pytest.raises(ValueError):
            template.soc.memory_map.write_block(0x2000, b"\xa5" * 64)
        with pytest.raises(ValueError):
            template.soc.core(0).l1d.data_rams[0].fill_bytes(0x3C)
        assert _state(snapshot.restore()) == before

    def test_manufacture_fields_are_shared_state_is_not(self):
        template = _booted()
        clone = _clone(template)
        assert _shared_array_ids(template, clone) == _manufactured_ids(
            template
        )
        for original, copied in zip(_arrays(template), _arrays(clone)):
            for name in original.MANUFACTURED:
                assert vars(copied).get(name) is vars(original).get(name), name
            assert not np.shares_memory(_stored(original), _stored(copied))
            if isinstance(original, DramArray):
                assert not np.shares_memory(original._level, copied._level)
            assert original._rng is not copied._rng

    def test_read_only_array_outside_manufactured_is_copied(self):
        template = _booted()
        extra = read_only(np.arange(16, dtype=np.uint8))
        template.soc.core(0).l1d.data_rams[0].extra = extra
        clone = _clone(template)
        copied = clone.soc.core(0).l1d.data_rams[0].extra
        assert np.array_equal(copied, extra)
        assert not np.shares_memory(copied, extra)


class TestManufactureFieldsAreReadOnly:
    @pytest.mark.parametrize("array_type", [SramArray, DramArray])
    def test_in_place_write_raises(self, array_type):
        array = array_type(64)
        for name in array.MANUFACTURED:
            with pytest.raises(ValueError):
                getattr(array, name)[0] = 0

    def test_aging_rebinds_read_only_fields(self):
        array = SramArray(64)
        array.power_up()
        shared = _clone(array)
        wake = shared.wake_probabilities()
        array.age(years=5.0)
        assert not array._wake_p.flags.writeable
        assert array._wake_p is not shared._wake_p
        assert np.array_equal(shared.wake_probabilities(), wake)


class TestFieldsBuiltOnFirstNeed:
    """SRAM DRV and restore-threshold fields across snapshots."""

    @staticmethod
    def _srams(board) -> list[SramArray]:
        return [a for a in _arrays(board) if isinstance(a, SramArray)]

    @pytest.mark.parametrize("name", ["_drv", "_restore_threshold"])
    def test_field_first_built_on_a_copy_equals_a_fresh_build(self, name):
        template = _booted()
        copied = self._srams(Snapshot(template).restore())
        fresh = self._srams(_booted())
        assert copied and len(copied) == len(fresh)
        for copy, build in zip(copied, fresh):
            assert name not in vars(copy)
            assert np.array_equal(getattr(copy, name), getattr(build, name))
        assert not any(name in vars(a) for a in self._srams(template))

    @pytest.mark.parametrize("name", ["_drv", "_restore_threshold"])
    def test_field_built_before_the_snapshot_is_shared(self, name):
        template = _booted()
        built = [getattr(array, name) for array in self._srams(template)]
        copied = self._srams(_clone(template))
        assert copied and len(copied) == len(built)
        for field, copy in zip(built, copied):
            assert vars(copy)[name] is field


class TestBootedBoard:
    def test_returns_fresh_equivalent_private_copies(self):
        first = booted_board(glitch_rig, SEED, MEDIA)
        second = booted_board(glitch_rig, SEED, MEDIA)
        assert first is not second
        assert _state(first) == _state(_booted())
        _exercise(first)
        assert _state(second) == _state(_booted())

    def test_seed_is_part_of_the_key(self):
        other = booted_board(glitch_rig, SEED + 1, MEDIA)
        assert _state(other) == _state(_booted(SEED + 1))

    def test_replays_the_build_metrics(self):
        with obs.capture() as live:
            _booted()
            fresh = _physics_metrics(live.metrics)
        booted_board(glitch_rig, SEED, MEDIA)  # template built unobserved
        with obs.capture() as live:
            booted_board(glitch_rig, SEED, MEDIA)
            replayed = _physics_metrics(live.metrics)
        assert replayed["counters"]
        assert replayed == fresh
