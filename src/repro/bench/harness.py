"""Benchmark harness utilities: result tables, store builders."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store import XmlStore
from repro.xmldom.dom import Document

ENCODING_NAMES = ("global", "local", "dewey")


def build_store(
    document: Document,
    encoding: str,
    backend: str = "sqlite",
    gap: int = 1,
) -> tuple[XmlStore, int]:
    """Create a fresh store and load *document*; returns (store, doc).

    Caching is off: these stores count raw per-encoding engine work,
    and a result-cache hit would count the cache instead of the query.
    Experiments that study caching itself
    (E9b, E15) construct their stores explicitly.
    """
    store = XmlStore(
        backend=backend, encoding=encoding, gap=gap, cache=False
    )
    doc = store.load(document)
    return store, doc


@dataclass
class ExperimentTable:
    """One experiment's result table (rendered into EXPERIMENTS.md).

    Cells are counts, or ratios their producer already rounded, so a
    cell renders as ``str(value)``.
    """

    id: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Render as a fixed-width text table."""
        header = [str(c) for c in self.columns]
        body = [[str(v) for v in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body))
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"{self.id}: {self.title}"]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append(
                "  ".join(c.rjust(w) if _is_numeric(c) else c.ljust(w)
                          for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = [
            "| " + " | ".join(str(c) for c in self.columns) + " |",
            "| " + " | ".join("---" for _ in self.columns) + " |",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(str(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
