"""The ``repro progress`` command end to end."""

import json

from repro.cli import EXIT_FAILURE, EXIT_OK, main

from .test_progress import write_journal


class TestProgressCommand:
    def test_progress_on_torn_journal(self, tmp_path, capsys):
        path = write_journal(tmp_path / "j.jsonl", total=10, done=5)
        raw = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(raw[:5]) + b"\n" + raw[5][:20])
        assert main(["progress", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/10" in out
        assert "ETA" in out
        assert "torn tail" in out

    def test_progress_json_over_checkpoint_directory(
        self, tmp_path, capsys
    ):
        write_journal(tmp_path / "journal-000.jsonl", total=3, done=3)
        write_journal(tmp_path / "journal-001.jsonl", total=5, done=2)
        assert main(["progress", str(tmp_path), "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["journals"]) == 2
        assert doc["journals"][0]["complete"] is True
        assert doc["journals"][1]["remaining"] == 3

    def test_progress_on_missing_journal_fails(self, tmp_path, capsys):
        assert main(
            ["progress", str(tmp_path / "nope.jsonl")]
        ) == EXIT_FAILURE
        assert "error:" in capsys.readouterr().err
