"""The benchmark's own span recorder.

Spans are recorded from outside the program, around the calls the
benchmark makes into each layer's public functions; spans inside the
program are a later issue.  A span is ``(name, start, end, parent, op)``:
``parent`` is the id of the span that caused it (``None`` for a root) and
``op`` identifies the scheduled operation, so every span of one request
shares an identifier.  Spans stay in memory and are written as JSON when
the run ends (see the README, "Reading the span file").
"""

from __future__ import annotations

import json
from typing import Optional


class SpanRecorder:
    """An append-only in-memory span list."""

    def __init__(self) -> None:
        # Parallel lists, not objects: recording one span must cost far
        # less than the sub-millisecond operations it brackets.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[Optional[int]] = []
        self.ops: list[str] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        op: str,
    ) -> int:
        """Record a finished span; returns its id."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.names) - 1

    def close(self, span_id: int, end: float) -> None:
        """Set the end of a span opened with a provisional end."""
        self.ends[span_id] = end

    def write(self, path: str, header: dict) -> None:
        """Write every span to *path* as one JSON object."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "fields": ["id", "name", "start_s", "end_s",
                               "parent", "op"],
                    "spans": [
                        [i, self.names[i], self.starts[i], self.ends[i],
                         self.parents[i], self.ops[i]]
                        for i in range(len(self.names))
                    ],
                },
                handle,
            )
