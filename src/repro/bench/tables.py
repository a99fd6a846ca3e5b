"""Plain-text result tables for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Table"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A titled table of rows, printable and writable to a results file."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        cells = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        if self.notes:
            lines.append("")
            lines.append(f"Note: {self.notes}")
        return "\n".join(lines)
