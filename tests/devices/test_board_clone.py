"""Board clones: a deep copy of a booted board is a fresh build + boot.

Glitch campaigns build one booted rig per process and hand every work
unit a ``copy.deepcopy`` of it (:func:`repro.exec.booted_board`).  The
copy shares the arrays' read-only manufacture fields and copies every
piece of mutable state, so it must be indistinguishable from building
and booting the board again, and nothing done to one copy may reach
the template or another copy.
"""

import copy

import numpy as np
import pytest

from repro import obs
from repro.circuits.dram import DramArray
from repro.circuits.sram import SramArray
from repro.devices import glitch_rig
from repro.exec import booted_board
from repro.obs.manifest import TIMING_METRIC_PREFIXES
from repro.soc.bootrom import BootMedia

SEED = 77
MEDIA = BootMedia("victim-os")


def _booted(seed: int = SEED):
    board = glitch_rig(seed=seed)
    board.boot(MEDIA)
    return board


def _parts(board) -> list[tuple[str, object]]:
    """Every cell array and RNG reachable from ``board``, by path."""
    found: list[tuple[str, object]] = []
    seen: set[int] = set()

    def walk(value, path: str) -> None:
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, (SramArray, DramArray, np.random.Generator)):
            found.append((path, value))
            if isinstance(value, np.random.Generator):
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


def _exercise(board) -> None:
    """A power cycle plus writes through DRAM and an SRAM array."""
    board.power_cycle(1e-3)
    board.boot(MEDIA)
    board.soc.memory_map.write_block(0x2000, b"\xa5" * 64)
    board.soc.core(0).l1d.data_rams[0].fill_bytes(0x3C)


class TestCloneEqualsFreshBuild:
    def test_every_array_and_stream_matches(self):
        template = _booted()
        clone = copy.deepcopy(template)
        fresh = _booted()
        state = _state(clone)
        assert len(_arrays(clone)) == 11
        assert state == _state(fresh)

    def test_clone_behaves_like_fresh_build(self):
        clone = copy.deepcopy(_booted())
        fresh = _booted()
        _exercise(clone)
        _exercise(fresh)
        assert _state(clone) == _state(fresh)


class TestCloneIsolation:
    def test_mutating_a_clone_leaves_template_and_siblings(self):
        template = _booted()
        before = _state(template)
        first = copy.deepcopy(template)
        second = copy.deepcopy(template)
        _exercise(first)
        assert _state(first) != before
        assert _state(template) == before
        assert _state(second) == before

    def test_manufacture_fields_are_shared_state_is_not(self):
        template = _booted()
        clone = copy.deepcopy(template)
        for original, copied in zip(_arrays(template), _arrays(clone)):
            for name in original.MANUFACTURED:
                assert np.shares_memory(
                    getattr(original, name), getattr(copied, name)
                ), name
            assert not np.shares_memory(_stored(original), _stored(copied))
            if isinstance(original, DramArray):
                assert not np.shares_memory(original._level, copied._level)
            assert original._rng is not copied._rng


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
        shared = copy.deepcopy(array)
        wake = shared.wake_probabilities()
        array.age(years=5.0)
        assert not array._wake_p.flags.writeable
        assert not array._wake32.flags.writeable
        assert np.array_equal(shared.wake_probabilities(), wake)


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
