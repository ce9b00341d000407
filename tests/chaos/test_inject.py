"""Injector mechanics: marker-file one-shot state and the hook points."""

from types import SimpleNamespace

import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosInjector,
    ChaosKill,
    ChaosPoison,
    FaultSpec,
)
from repro.chaos.inject import FaultingFile
from repro.errors import ChaosError, SimulatedFailure


def _unit(index: int) -> SimpleNamespace:
    return SimpleNamespace(index=index, describe=lambda: f"u[{index}]")


class TestFaultSpec:
    def test_target_axis_comes_from_the_kind(self):
        for kind, target in FAULT_KINDS.items():
            assert FaultSpec(kind, 0).target == target

    def test_describe_names_every_field(self):
        spec = FaultSpec("slow", 2, times=3, param=0.25)
        assert spec.describe() == "slow@unit=2:times=3:s=0.25"
        assert FaultSpec("torn", 1).describe() == "torn@record=1"

    @pytest.mark.parametrize(
        "kind, index, times, match",
        [
            ("explode", 1, 1, "unknown fault kind 'explode'"),
            ("kill", -1, 1, "index must be >= 0"),
            ("kill", 1, 0, "times >= 1"),
        ],
        ids=["unknown-kind", "negative-index", "zero-times"],
    )
    def test_bad_specs_are_refused(self, kind, index, times, match):
        with pytest.raises(ChaosError, match=match):
            FaultSpec(kind, index, times=times)


class TestMarkerState:
    def test_fault_fires_exactly_once(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("poison", 2),), str(tmp_path / "state")
        )
        with pytest.raises(ChaosPoison):
            injector.on_unit(_unit(2))
        # The budget is spent: re-running the same unit is clean.
        injector.on_unit(_unit(2))
        injector.on_unit(_unit(2))

    def test_times_budget_is_honoured(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("poison", 2, times=3),), str(tmp_path / "state")
        )
        for _ in range(3):
            with pytest.raises(ChaosPoison):
                injector.on_unit(_unit(2))
        injector.on_unit(_unit(2))

    def test_budget_survives_reconstruction(self, tmp_path):
        # A resumed process re-creates the injector over the same state
        # directory; spent markers must keep the fault spent.
        state = str(tmp_path / "state")
        with pytest.raises(ChaosPoison):
            ChaosInjector((FaultSpec("poison", 1),), state).on_unit(
                _unit(1)
            )
        ChaosInjector((FaultSpec("poison", 1),), state).on_unit(_unit(1))

    def test_non_matching_units_never_fire(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("poison", 5),), str(tmp_path / "state")
        )
        for index in (0, 4, 6):
            injector.on_unit(_unit(index))

    def test_no_faults_is_a_noop_without_state_dir(self, tmp_path):
        state = tmp_path / "never-created"
        injector = ChaosInjector((), str(state))
        injector.on_unit(_unit(0))
        assert not state.exists()


class TestSerialFirings:
    def test_kill_in_parent_is_a_simulated_crash(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("kill", 0),), str(tmp_path / "state")
        )
        with pytest.raises(ChaosKill) as info:
            injector.on_unit(_unit(0))
        # SimulatedFailure is a BaseException: it must sail through the
        # engine's `except Exception` retry handling like a real kill.
        assert isinstance(info.value, SimulatedFailure)
        assert not isinstance(info.value, Exception)
        assert info.value.failure_class == "crash"


class TestJournalHook:
    def test_header_write_never_matches_record_zero(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("enospc", 0),), str(tmp_path / "state")
        )
        header_journal = SimpleNamespace(bytes_written=0, units_written=0)
        injector.on_journal_write(header_journal, b"header\n")
        unit_journal = SimpleNamespace(bytes_written=64, units_written=0)
        with pytest.raises(OSError):
            injector.on_journal_write(unit_journal, b"unit\n")

    def test_faulting_file_fails_only_the_fsync_path(self, tmp_path):
        real = open(tmp_path / "f", "wb")
        proxy = FaultingFile(real)
        assert proxy.write(b"data") == 4
        proxy.flush()
        with pytest.raises(OSError):
            proxy.fileno()
        proxy.close()
        assert (tmp_path / "f").read_bytes() == b"data"
