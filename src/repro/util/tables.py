"""Plain-text table rendering for the benchmark harness.

The benchmark targets print the same rows the paper's figures plot; this
module renders them as aligned ASCII tables so ``pytest benchmarks/ -s``
output is directly comparable with the paper.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["Table"]


class Table:
    """Column-aligned ASCII table with optional per-column formatting."""

    def __init__(self, columns, formats=None, title: str = ""):
        if not columns:
            raise ConfigurationError("Table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.formats = list(formats) if formats else [None] * len(self.columns)
        if len(self.formats) != len(self.columns):
            raise ConfigurationError("formats length must match columns length")
        self.title = title
        self.rows: list = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def _cell(self, value, fmt) -> str:
        if value is None:
            return "-"
        if fmt is None:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)
        if callable(fmt):
            return str(fmt(value))
        return format(value, fmt)

    def render(self) -> str:
        body = [
            [self._cell(v, f) for v, f in zip(row, self.formats)] for row in self.rows
        ]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in body)) if body else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * max(len(self.title), len(header)))
        lines.append(header)
        lines.append(sep)
        for r in body:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
