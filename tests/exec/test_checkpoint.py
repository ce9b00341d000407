"""Checkpoint journal + resume: crash tolerance and metric identity.

Worker functions are module-level so the pool can pickle them.  Units
log their executions to a per-run directory on disk, which lets the
tests assert that a resume runs **only** the missing units.
"""

import base64
import json
import pickle
import types
from pathlib import Path

import pytest

from repro import cli, obs
from repro.errors import CampaignInterrupted, CheckpointError
from repro.exec import (
    CheckpointJournal,
    ShardPlan,
    UnitRecord,
    checkpoint_policy,
    checkpointing,
    execute,
    plan_fingerprint,
    shard_unit,
)
from repro.obs import OBS
from repro.obs.manifest import TIMING_METRIC_PREFIXES


@shard_unit
def _observed_square(workdir: str, value: int):
    """A unit with observable side effects: metrics plus a run log."""
    (Path(workdir) / f"ran-{value}").touch()
    OBS.counter_inc("rig.bits_read", value + 1)
    OBS.gauge_set("rig.setpoint_error_v", value / 1000.0)
    OBS.histogram_record("resilience.backoff_s", float(value))
    return value * value


@shard_unit
def _interrupt_at(workdir: str, value: int, trip: int):
    """Raise KeyboardInterrupt at ``trip`` — but only on the first run."""
    marker = Path(workdir) / "tripped"
    if value == trip and not marker.exists():
        marker.touch()
        raise KeyboardInterrupt
    (Path(workdir) / f"ran-{value}").touch()
    return value * value


def _plan(workdir, n=6, fn=_observed_square, extra=()):
    return ShardPlan.enumerate(
        fn,
        [(str(workdir), i, *extra) for i in range(n)],
        labels=[f"unit[{i}]" for i in range(n)],
    )


def _ran(workdir) -> set[int]:
    return {int(p.name.split("-")[1]) for p in Path(workdir).glob("ran-*")}


def _clear(workdir) -> None:
    for p in Path(workdir).glob("ran-*"):
        p.unlink()


def _physics(snapshot: dict) -> dict:
    """The fingerprint-visible part of a metrics snapshot."""
    return {
        k: v
        for k, v in snapshot.items()
        if not k.startswith(TIMING_METRIC_PREFIXES)
    }


@pytest.fixture
def observed():
    obs.OBS.configure()
    yield obs.OBS
    obs.OBS.reset()


class TestJournalling:
    def test_execute_writes_header_and_unit_lines(self, tmp_path):
        with checkpointing(str(tmp_path / "ckpt")):
            assert execute(_plan(tmp_path), jobs=1) == [
                i * i for i in range(6)
            ]
        journal = tmp_path / "ckpt" / "journal-000.jsonl"
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        assert lines[0]["kind"] == "header"
        assert [doc["index"] for doc in lines[1:]] == list(range(6))

    def test_policy_is_scoped_to_the_context(self, tmp_path):
        assert checkpoint_policy() is None
        with checkpointing(str(tmp_path)):
            assert checkpoint_policy() is not None
        assert checkpoint_policy() is None

    def test_checkpoint_metrics_recorded(self, tmp_path, observed):
        with checkpointing(str(tmp_path / "ckpt")):
            execute(_plan(tmp_path), jobs=1)
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.checkpointed_units"] == 6
        assert snapshot["exec.journal_bytes"] > 0


class TestMetricIdentity:
    def test_checkpointed_run_matches_plain_run(self, tmp_path, observed):
        plain = execute(_plan(tmp_path), jobs=1)
        reference = _physics(observed.metrics.snapshot())

        for jobs in (1, 3):
            obs.OBS.reset()
            obs.OBS.configure()
            _clear(tmp_path)
            with checkpointing(str(tmp_path / f"ckpt-{jobs}")):
                assert execute(_plan(tmp_path), jobs=jobs) == plain
            assert _physics(obs.OBS.metrics.snapshot()) == reference

    def test_resumed_run_matches_uninterrupted(self, tmp_path, observed):
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            plain = execute(_plan(tmp_path), jobs=1)
        reference = _physics(observed.metrics.snapshot())

        # Amputate the journal after three units, as a crash would.
        journal = Path(ckpt) / "journal-000.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:4]))  # header + 3 units

        obs.OBS.reset()
        obs.OBS.configure()
        _clear(tmp_path)
        with checkpointing(ckpt, resume=True):
            assert execute(_plan(tmp_path), jobs=1) == plain
        assert _ran(tmp_path) == {3, 4, 5}  # only the missing units ran
        assert _physics(obs.OBS.metrics.snapshot()) == reference
        assert obs.OBS.metrics.snapshot()["exec.resumed_units"] == 3

    def test_fully_complete_journal_resumes_without_running(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            first = execute(_plan(tmp_path), jobs=1)
        _clear(tmp_path)
        with checkpointing(ckpt, resume=True):
            assert execute(_plan(tmp_path), jobs=1) == first
        assert _ran(tmp_path) == set()


class TestCrashArtefacts:
    def test_torn_tail_is_discarded_and_rerun(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            first = execute(_plan(tmp_path), jobs=1)
        journal = Path(ckpt) / "journal-000.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        # Keep header + 2 whole units, then half of the third's line.
        journal.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

        _clear(tmp_path)
        with checkpointing(ckpt, resume=True):
            assert execute(_plan(tmp_path), jobs=1) == first
        assert _ran(tmp_path) == {2, 3, 4, 5}

    def test_corrupt_body_line_is_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            execute(_plan(tmp_path), jobs=1)
        journal = Path(ckpt) / "journal-000.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        lines[2] = "not json at all\n"
        journal.write_text("".join(lines))
        with checkpointing(ckpt, resume=True):
            with pytest.raises(CheckpointError, match="corrupt journal"):
                execute(_plan(tmp_path), jobs=1)

    def test_resume_against_a_different_plan_is_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            execute(_plan(tmp_path), jobs=1)
        with checkpointing(ckpt, resume=True):
            with pytest.raises(CheckpointError, match="different plan"):
                execute(_plan(tmp_path, n=7), jobs=1)

    def test_unit_wall_times_from_older_writers_still_resume(
        self, tmp_path, observed
    ):
        # Earlier writers stored a per-unit ``wall_s`` both on the line
        # and inside the pickled blob; such a journal must resume
        # under the same JOURNAL_VERSION.
        ckpt = str(tmp_path / "ckpt")
        with checkpointing(ckpt):
            plain = execute(_plan(tmp_path), jobs=1)
        reference = _physics(observed.metrics.snapshot())

        journal = Path(ckpt) / "journal-000.jsonl"
        header, *units = journal.read_text().splitlines(keepends=True)
        older = [header]
        for line in units[:3]:  # header + 3 units, as a crash would
            doc = json.loads(line)
            payload = pickle.loads(base64.b64decode(doc["blob"]))
            payload["wall_s"] = 0.5
            doc["wall_s"] = 0.5
            doc["blob"] = base64.b64encode(pickle.dumps(payload)).decode()
            older.append(json.dumps(doc) + "\n")
        journal.write_text("".join(older))

        obs.OBS.reset()
        obs.OBS.configure()
        _clear(tmp_path)
        with checkpointing(ckpt, resume=True):
            assert execute(_plan(tmp_path), jobs=1) == plain
        assert _ran(tmp_path) == {3, 4, 5}
        assert _physics(obs.OBS.metrics.snapshot()) == reference
        assert obs.OBS.metrics.snapshot()["exec.resumed_units"] == 3

    def test_journal_api_round_trips_a_record(self, tmp_path):
        plan = _plan(tmp_path, n=2)
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path, plan_fingerprint(plan), 2)
        journal.start(fresh=True)
        journal.append(UnitRecord(index=1, result={"x": [1, 2]}))
        journal.close()
        loaded = CheckpointJournal(
            path, plan_fingerprint(plan), 2
        ).load_resume()
        assert loaded[1].result == {"x": [1, 2]}


class TestDegenerateJournals:
    """Files a crash can leave that must still resume cleanly."""

    def _resume_runs_everything(self, tmp_path, ckpt):
        with checkpointing(str(ckpt), resume=True):
            assert execute(_plan(tmp_path), jobs=1) == [
                i * i for i in range(6)
            ]
        assert _ran(tmp_path) == set(range(6))
        # The journal was rebuilt: header plus every unit, durable.
        journal = ckpt / "journal-000.jsonl"
        lines = journal.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert len(lines) == 7

    def test_zero_byte_journal_resumes_from_scratch(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal-000.jsonl").write_bytes(b"")
        self._resume_runs_everything(tmp_path, ckpt)

    def test_torn_header_only_file_resumes_from_scratch(self, tmp_path):
        # The crash landed mid-first-write: a prefix of the header,
        # no newline.  Nothing is usable, nothing is corrupt.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal-000.jsonl").write_bytes(b'{"kind": "hea')
        self._resume_runs_everything(tmp_path, ckpt)

    def test_blank_lines_only_resumes_from_scratch(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal-000.jsonl").write_bytes(b"\n\n")
        self._resume_runs_everything(tmp_path, ckpt)

    def test_header_only_journal_resumes_all_units(self, tmp_path):
        # A complete header and zero unit records: the run died after
        # `start()` but before the first `append()`.
        ckpt = tmp_path / "ckpt"
        with checkpointing(str(ckpt)):
            execute(_plan(tmp_path), jobs=1)
        journal = ckpt / "journal-000.jsonl"
        header = journal.read_text().splitlines(keepends=True)[0]
        journal.write_text(header)
        _clear(tmp_path)
        self._resume_runs_everything(tmp_path, ckpt)

    def test_truncation_at_a_record_boundary_resumes_the_rest(
        self, tmp_path
    ):
        # Exactly N whole records, trailing newline intact — the
        # cleanest possible crash.  Only the missing units may run.
        ckpt = tmp_path / "ckpt"
        with checkpointing(str(ckpt)):
            first = execute(_plan(tmp_path), jobs=1)
        journal = ckpt / "journal-000.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:3]))  # header + units 0, 1
        _clear(tmp_path)
        with checkpointing(str(ckpt), resume=True):
            assert execute(_plan(tmp_path), jobs=1) == first
        assert _ran(tmp_path) == {2, 3, 4, 5}


class TestInterruption:
    def test_keyboard_interrupt_banks_progress(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        plan = _plan(tmp_path, n=6, fn=_interrupt_at, extra=(4,))
        with checkpointing(ckpt):
            with pytest.raises(CampaignInterrupted) as info:
                execute(plan, jobs=1)
        assert info.value.done == 4
        assert info.value.total == 6
        assert Path(info.value.journal_path).exists()

        # The resumed campaign completes only the missing units.
        _clear(tmp_path)
        plan = _plan(tmp_path, n=6, fn=_interrupt_at, extra=(4,))
        with checkpointing(ckpt, resume=True):
            assert execute(plan, jobs=1) == [i * i for i in range(6)]
        assert _ran(tmp_path) == {4, 5}


def _fragile_experiment(workdir: str) -> types.ModuleType:
    """A 4-unit experiment interrupted at unit 2 on its first run."""
    module = types.ModuleType("fragile_experiment")

    def run(seed: int = 0):
        plan = _plan(workdir, n=4, fn=_interrupt_at, extra=(2,))
        return execute(plan, jobs=1)

    def report(result):
        return types.SimpleNamespace(
            render=lambda: f"fragile campaign: {result}"
        )

    module.run = run
    module.report = report
    return module


class TestSigintContract:
    def test_interrupt_exits_with_code_3_and_resume_hint(
        self, tmp_path, register_experiment, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        register_experiment("fragile", _fragile_experiment(str(tmp_path)))
        rc = cli.main(
            ["experiment", "fragile", "--seed", "7", "--checkpoint", ckpt]
        )
        assert rc == cli.EXIT_INTERRUPTED == 3
        err = capsys.readouterr().err
        assert err.startswith("interrupted:")
        assert "2/4 unit(s) checkpointed" in err
        assert (
            "`repro experiment fragile --seed 7 "
            f"--checkpoint {ckpt} --resume`" in err
        )

        # The hinted rerun completes the campaign and exits cleanly.
        rc = cli.main(
            [
                "experiment", "fragile", "--seed", "7",
                "--checkpoint", ckpt, "--resume",
            ]
        )
        assert rc == cli.EXIT_OK
        assert "fragile campaign: [0, 1, 4, 9]" in capsys.readouterr().out

    def test_interrupt_without_checkpoint_still_raises_cleanly(
        self, tmp_path, register_experiment, capsys
    ):
        # Without --checkpoint there is no journal to bank into; the
        # interrupt surfaces as the raw KeyboardInterrupt (Ctrl-C
        # semantics are untouched outside checkpointed campaigns).
        register_experiment("fragile", _fragile_experiment(str(tmp_path)))
        with pytest.raises(KeyboardInterrupt):
            cli.main(["experiment", "fragile", "--seed", "7"])
