"""Command-line interface behaviour."""

import json

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, main
from repro.experiments import load


class TestInventory:
    def test_prints_both_tables(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "TP15" in out
        assert "i.MX535" in out


class TestListExperiments:
    def test_lists_all_registered(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)


class TestAttackCommand:
    def test_voltboot_rpi4_default_target(self, capsys):
        assert main(["attack", "--device", "rpi4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "TP15" in out
        assert "RECOVERED" in out

    def test_voltboot_imx53_iram(self, capsys):
        assert main(["attack", "--device", "imx53", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "SH13" in out
        assert "RECOVERED" in out

    def test_coldboot_fails_to_recover(self, capsys):
        assert main(
            ["attack", "--device", "rpi4", "--method", "coldboot", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "NOT recovered" in out

    def test_invalid_target_for_device(self, capsys):
        assert main(["attack", "--device", "imx53", "--target", "registers"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line error, not a traceback
        assert "unknown target 'registers'" in err
        assert "valid targets: iram" in err

    def test_registers_target(self, capsys):
        assert main(
            ["attack", "--device", "rpi3", "--target", "registers", "--seed", "8"]
        ) == 0
        assert "RECOVERED" in capsys.readouterr().out


class TestExperimentCommand:
    def test_runs_a_fast_experiment(self, capsys):
        assert main(["experiment", "retention-sweep", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "Retention sweep" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "no-such-thing"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line error, not a traceback
        assert "unknown experiment 'no-such-thing'" in err
        for name in EXPERIMENTS:
            assert name in err  # the error lists every valid choice

    def test_unknown_experiment_suggests_closest_name(self, capsys):
        assert main(["experiment", "tabel1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # still a one-line error
        assert "did you mean 'table1'?" in err

    def test_registry_covers_every_module(self):
        import pkgutil

        from repro import experiments

        registered = {load(name).__name__ for name in EXPERIMENTS}
        available = {
            f"repro.experiments.{info.name}"
            for info in pkgutil.iter_modules(experiments.__path__)
            if info.name not in ("common", "render")
        }
        assert registered == available


class TestObservabilityFlags:
    def test_attack_json_is_machine_readable(self, capsys):
        assert main(
            ["attack", "--device", "rpi4", "--seed", "5", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == obs.SCHEMA_VERSION
        assert doc["command"] == "attack"
        assert doc["recovered"] is True
        assert doc["surge_clean"] is True
        obs.validate_manifest(doc["manifest"])
        assert doc["manifest"]["seed"] == 5
        phase_names = [p["name"] for p in doc["manifest"]["phases"]]
        assert phase_names == [
            "identify", "attach", "power-cycle", "reboot", "extract"
        ]

    def test_attack_trace_writes_section_spans(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["attack", "--device", "rpi4", "--seed", "5",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()  # human output unaffected by --trace
        records = obs.read_jsonl(trace)
        assert records[0]["type"] == "header"
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert "attack.voltboot" in spans  # the root span of the attack
        for step in ("identify", "attach", "power-cycle", "reboot", "extract"):
            assert f"attack.{step}" in spans
        power_cycle = next(
            r for r in records
            if r["type"] == "span" and r["name"] == "attack.power-cycle"
        )
        event_names = {e["name"] for e in power_cycle["events"]}
        assert "power.input-disconnected" in event_names
        assert "power.domain-held" in event_names

    def test_attack_metrics_appends_table(self, capsys):
        assert main(
            ["attack", "--device", "rpi4", "--seed", "5", "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "Observability metrics" in out
        assert "power.events" in out

    def test_observability_resets_after_run(self, capsys):
        assert main(["attack", "--device", "rpi4", "--seed", "5", "--json"]) == 0
        capsys.readouterr()
        assert obs.OBS.enabled is False
        assert obs.OBS.last_manifest is None

    def test_unwritable_trace_path_is_a_one_line_error(self, capsys, tmp_path):
        bogus = tmp_path / "no-such-dir" / "trace.jsonl"
        assert main(
            ["attack", "--device", "rpi4", "--trace", str(bogus)]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot open trace file" in err
        assert obs.OBS.enabled is False

    def test_unwritable_figures_dir_is_a_one_line_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        out_dir = blocker / "figures"
        assert main(["render-figures", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1  # one-line error, not a traceback
        assert captured.err.startswith("error:")

    def test_experiment_json_carries_report_and_manifest(self, capsys):
        assert main(
            ["experiment", "retention-sweep", "--seed", "9", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "experiment"
        assert doc["report"]["rows"]
        obs.validate_manifest(doc["manifest"])
        assert doc["manifest"]["kind"] == "experiment"
        assert doc["manifest"]["name"] == "retention-sweep"
        assert doc["manifest"]["seed"] == 9


class TestRemovedCommands:
    """The fault harness and journal progress are tests, not commands."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--matrix"],
            ["chaos", "--faults", "kill@unit=3"],
            ["progress", "checkpoints"],
        ],
        ids=["chaos-matrix", "chaos-faults", "progress"],
    )
    def test_removed_command_is_an_invalid_choice(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
