"""``repro-lint`` CLI behaviour: exit codes, formats, error reporting."""

import json

import pytest

from repro.lint import cli


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys, tmp_path):
        module = tmp_path / "clean.py"
        module.write_text("ANSWER = 42\n", encoding="utf-8")
        assert cli.main([str(module)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "clean (1 file(s) checked)" in captured.err

    def test_findings_exit_one(self, capsys, tmp_path):
        module = tmp_path / "dirty.py"
        module.write_text("import random\n", encoding="utf-8")
        assert cli.main([str(module)]) == 1
        captured = capsys.readouterr()
        assert "RL001" in captured.out
        assert "1 finding(s) in 1 file(s) checked" in captured.err

    def test_nonexistent_path_is_a_one_line_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "dir"
        assert cli.main([str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1  # one line, not a traceback
        assert captured.err.startswith("repro-lint: error:")
        assert "does not exist" in captured.err

    def test_unknown_rule_id_is_a_one_line_exit_2(self, capsys, tmp_path):
        module = tmp_path / "clean.py"
        module.write_text("ANSWER = 42\n", encoding="utf-8")
        assert cli.main(
            [str(module), "--rule", "RL999"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "RL999" in err


class TestOutputFormats:
    def test_text_findings_carry_location_and_hint(self, capsys, tmp_path):
        module = tmp_path / "dirty.py"
        module.write_text("import time\n", encoding="utf-8")
        assert cli.main([str(module)]) == 1
        out = capsys.readouterr().out
        assert f"{module}:1:1: RL001" in out
        assert "hint:" in out

    def test_json_document_shape(self, capsys, tmp_path):
        module = tmp_path / "dirty.py"
        module.write_text("import secrets\n", encoding="utf-8")
        assert cli.main(
            [str(module), "--format", "json"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == cli.JSON_SCHEMA_VERSION
        assert doc["checked"] == 1
        assert len(doc["findings"]) == 1
        assert set(doc["findings"][0]) == {
            "path", "line", "col", "rule", "severity", "message", "hint",
        }

    def test_list_rules_prints_catalogue(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert rule_id in out

    def test_list_rules_includes_project_wide_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL007", "RL008", "RL009"):
            assert rule_id in out
        assert "project-wide" in out


UNSORTED_SCAN = (
    "from pathlib import Path\n"
    "def scan(root):\n"
    "    return [p for p in Path(root).glob('*.json')]\n"
)


PER_FILE_RULES = [
    arg for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")
    for arg in ("--rule", rule_id)
]


class TestProjectMode:
    def test_project_adds_flow_findings(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "m.py").write_text(UNSORTED_SCAN, encoding="utf-8")
        # Per-file rules alone: clean.
        assert cli.main([str(pkg), *PER_FILE_RULES]) == 0
        capsys.readouterr()
        # A default run includes the project-wide rules: the RL008 scan
        # fires.
        assert cli.main([str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "RL008" in out
        assert "pkg.m.scan" in out

    def test_project_json_format_carries_flow_findings(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "m.py").write_text(UNSORTED_SCAN, encoding="utf-8")
        assert cli.main([str(pkg), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in doc["findings"]] == ["RL008"]

    def test_rule_selection_partitions_across_families(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "m.py").write_text(
            "import random\n" + UNSORTED_SCAN, encoding="utf-8"
        )
        # Selecting only the flow rule masks the per-file RL001.
        assert cli.main([str(pkg), "--rule", "RL008"]) == 1
        out = capsys.readouterr().out
        assert "RL008" in out and "RL001" not in out
        # And the reverse.
        assert cli.main([str(pkg), "--rule", "RL001"]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "RL008" not in out


class TestStatelessContract:
    """The linter reads its inputs, prints findings, and does nothing else."""

    def test_ignore_comments_are_ordinary_comments(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "m.py").write_text(
            "import os\n"
            "import random  # repro-lint: ignore[RL001]\n"
            "def listing(root):\n"
            "    return [n for n in os.listdir(root)]"
            "  # repro-lint: ignore[RL008]\n",
            encoding="utf-8",
        )
        assert cli.main([str(pkg), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["line"]) for f in doc["findings"]] == [
            ("RL001", 2), ("RL008", 4),
        ]

    def test_project_run_writes_no_file(
        self, capsys, monkeypatch, tmp_path, tmp_path_factory
    ):
        pkg = tmp_path_factory.mktemp("tree") / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "m.py").write_text(UNSORTED_SCAN, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main([str(pkg)]) == 1
        assert list(tmp_path.iterdir()) == []
        assert sorted(pkg.iterdir()) == [pkg / "__init__.py", pkg / "m.py"]

    @pytest.mark.parametrize("flag", [
        ["--cache", "lint-cache.json"],
        ["--no-cache"],
        ["--baseline", "baseline.json"],
        ["--write-baseline", "baseline.json"],
        ["--config", "pyproject.toml"],
        ["--no-config"],
        ["--exclude", "*_pb2.py"],
    ], ids=lambda flag: flag[0])
    def test_removed_flags_are_usage_errors(
        self, capsys, monkeypatch, tmp_path, flag
    ):
        module = tmp_path / "clean.py"
        module.write_text("ANSWER = 42\n", encoding="utf-8")
        (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([str(module), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
