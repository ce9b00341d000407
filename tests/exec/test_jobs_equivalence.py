"""The engine's headline guarantee: ``--jobs N`` is byte-identical to
``--jobs 1``.

These tests run real paper experiments — not synthetic units — both
serially and sharded over a 4-worker pool, and compare the *rendered
reports* byte for byte.  The two fastest shardable experiments are used
so the guarantee is asserted end-to-end on every CI run without
dominating suite time.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.exec import runtime
from repro.experiments import figure10, glitch_campaign, retention_sweep
from repro.glitch.campaign import CampaignSpec
from repro.units import nanoseconds

#: Small but non-trivial campaign: offsets bracket the PIN guard so all
#: outcome classes (normal/crash/reset/exploitable) are reachable.
GLITCH_SPEC = CampaignSpec(
    offsets_s=(0.0, nanoseconds(350), nanoseconds(360)),
    widths_s=(nanoseconds(40),),
    depths_v=(0.4, 0.55),
    repeats=2,
    random_points=2,
)


class TestExperimentEquivalence:
    def test_retention_sweep_reports_are_bit_identical(self):
        serial = retention_sweep.report(
            retention_sweep.run(seed=35, jobs=1)
        ).render()
        parallel = retention_sweep.report(
            retention_sweep.run(seed=35, jobs=4)
        ).render()
        assert serial == parallel

    def test_figure10_reports_are_bit_identical(self):
        serial = figure10.report(figure10.run(seed=1010, jobs=1)).render()
        parallel = figure10.report(figure10.run(seed=1010, jobs=4)).render()
        assert serial == parallel

    def test_figure10_profiles_match_bitwise(self):
        import numpy as np

        serial = figure10.run(seed=1010, jobs=1)
        parallel = figure10.run(seed=1010, jobs=4)
        assert np.array_equal(serial.profile, parallel.profile)

    def test_glitch_campaign_reports_are_bit_identical(self):
        serial = glitch_campaign.report(
            glitch_campaign.run(seed=41, jobs=1, spec=GLITCH_SPEC)
        ).render()
        parallel = glitch_campaign.report(
            glitch_campaign.run(seed=41, jobs=4, spec=GLITCH_SPEC)
        ).render()
        assert serial == parallel

    def test_glitch_campaign_attempts_match_fieldwise(self):
        serial = glitch_campaign.run(seed=41, jobs=1, spec=GLITCH_SPEC)
        parallel = glitch_campaign.run(seed=41, jobs=4, spec=GLITCH_SPEC)
        assert serial.attempts == parallel.attempts


class TestManifestEquivalence:
    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        obs.OBS.reset()

    def test_fingerprint_is_jobs_invariant(self):
        obs.OBS.configure()
        retention_sweep.run(seed=35, jobs=1)
        serial_fingerprint = obs.OBS.last_manifest.fingerprint()
        obs.OBS.reset()
        obs.OBS.configure()
        retention_sweep.run(seed=35, jobs=4)
        parallel_fingerprint = obs.OBS.last_manifest.fingerprint()
        assert serial_fingerprint == parallel_fingerprint

    #: The observed glitch-campaign manifest, as recorded at ``--jobs 1``
    #: when every unit still built its own rig.  Units now copy one
    #: booted rig per process and replay its build metrics; histogram
    #: sums are exact, so per-shard pooling cannot move the last ulp.
    GLITCH_FP = (
        "e1c592b86357d0ce406178ea8dc455146f0ed318732d252c8a215ecbd82a0398"
    )

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_glitch_campaign_fingerprint_is_pinned(
        self, jobs, checkpoint, tmp_path
    ):
        obs.OBS.configure()
        if checkpoint:
            with runtime.checkpointing(str(tmp_path)):
                glitch_campaign.run(seed=41, jobs=jobs, spec=GLITCH_SPEC)
        else:
            glitch_campaign.run(seed=41, jobs=jobs, spec=GLITCH_SPEC)
        assert obs.OBS.last_manifest.fingerprint() == self.GLITCH_FP


class TestTraceEquivalence:
    """A trace records the same events however its units were dispatched."""

    @staticmethod
    def _traced_table1(path, *flags) -> tuple[list[str], int]:
        """Run table1 at seed 3 with ``--trace path``.

        Returns the sorted event dicts carried by every span record
        (JSON-encoded, so the list is a comparable multiset) and the
        number of stand-alone ``"type": "event"`` lines.
        """
        argv = ["experiment", "table1", "--seed", "3", "--trace", str(path)]
        assert main([*argv, *flags]) == 0
        records = obs.read_jsonl(path)
        in_spans = sorted(
            json.dumps(event, sort_keys=True)
            for record in records
            if record["type"] == "span"
            for event in record["events"]
        )
        loose = sum(1 for record in records if record["type"] == "event")
        return in_spans, loose

    def test_table1_events_match_across_dispatch_paths(
        self, tmp_path, capsys
    ):
        serial, serial_loose = self._traced_table1(tmp_path / "jobs1.jsonl")
        checkpointed, checkpointed_loose = self._traced_table1(
            tmp_path / "ckpt.jsonl", "--checkpoint", str(tmp_path / "ckpt")
        )
        pooled, pooled_loose = self._traced_table1(
            tmp_path / "jobs2.jsonl", "--jobs", "2"
        )
        capsys.readouterr()
        assert len(serial) == 45
        assert serial == checkpointed == pooled
        loose = (serial_loose, checkpointed_loose, pooled_loose)
        assert all(loose) or not any(loose), loose


class TestCliEquivalence:
    def test_cli_jobs_output_is_bit_identical(self, capsys):
        assert main(["experiment", "retention-sweep", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "retention-sweep", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_non_shardable_experiment_notes_and_runs(self, capsys):
        assert main(["experiment", "figure3", "--jobs", "4"]) == 0
        captured = capsys.readouterr()
        assert "no shardable axis" in captured.err
        assert captured.out  # the report still rendered
