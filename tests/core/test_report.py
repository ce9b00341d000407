"""Attack report rendering."""

import pytest

from repro.core.report import AttackReport
from repro.errors import ReproError


class TestReport:
    def test_render_has_title_and_rows(self):
        report = AttackReport("My Experiment")
        report.add_row(device="pi4", accuracy=100.0)
        rendered = report.render()
        assert "My Experiment" in rendered
        assert "pi4" in rendered
        assert "100.00" in rendered

    def test_empty_row_rejected(self):
        with pytest.raises(ReproError):
            AttackReport("x").add_row()

    def test_column_union_across_rows(self):
        report = AttackReport("x")
        report.add_row(a=1)
        report.add_row(b=2)
        assert report.column_names() == ["a", "b"]
        rendered = report.render()
        assert "a" in rendered and "b" in rendered

    def test_notes_rendered(self):
        report = AttackReport("x")
        report.add_note("important caveat")
        assert "important caveat" in report.render()

    def test_columns_aligned(self):
        report = AttackReport("x")
        report.add_row(name="short", value=1)
        report.add_row(name="much-longer-name", value=22)
        lines = report.render().splitlines()
        data_lines = lines[4:]
        positions = {line.index("1") for line in data_lines if "1" in line}
        # Value column starts at the same offset in every row.
        assert len({line.split()[-1] for line in data_lines}) == 2
