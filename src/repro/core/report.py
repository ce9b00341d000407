"""Attack reports: accuracy accounting against ground truth.

Every experiment reduces an attack run to the paper's metrics —
retention accuracy, recovered-element counts, bit-error percentages —
and renders them as aligned text tables for terminal output and the
EXPERIMENTS.md log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError


@dataclass
class AttackReport:
    """A labelled collection of metric rows for one experiment."""

    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **fields: object) -> None:
        """Append one result row (keyword arguments become columns)."""
        if not fields:
            raise ReproError("a report row needs at least one column")
        self.rows.append(dict(fields))

    def add_note(self, note: str) -> None:
        """Attach a free-text observation to the report."""
        self.notes.append(note)

    def to_dict(self) -> dict[str, object]:
        """The report as a JSON-friendly dict (``--json`` CLI mode)."""
        return {
            "title": self.title,
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def column_names(self) -> list[str]:
        """Union of all row columns, in first-seen order."""
        names: list[str] = []
        for row in self.rows:
            for name in row:
                if name not in names:
                    names.append(name)
        return names

    @staticmethod
    def _render_cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        """Render the report as an aligned text table."""
        lines = [self.title, "=" * len(self.title)]
        if self.rows:
            names = self.column_names()
            cells = [
                [self._render_cell(row.get(name, "")) for name in names]
                for row in self.rows
            ]
            widths = [
                max(len(name), *(len(row[i]) for row in cells))
                for i, name in enumerate(names)
            ]
            header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
            lines.append(header)
            lines.append("-" * len(header))
            for row in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
