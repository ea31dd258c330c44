"""Regenerate EXPERIMENTS.md from the experiment suite E1-E18.

Usage:
    python benchmarks/run_experiments.py [--output PATH]

Every cell is a count, so a second run writes the same bytes.  Exits 1
when a shape verdict fails (the file is written either way).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import run_all
from repro.bench.report import (
    EXPECTED_SHAPES,
    compute_verdicts,
    render_verdicts,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent
                    / "EXPERIMENTS.md"),
    )
    args = parser.parse_args()

    tables = run_all()
    verdicts = compute_verdicts(tables)
    lines = [
        "# EXPERIMENTS — reconstructed evaluation, paper vs. measured",
        "",
        "Regenerate with `python benchmarks/run_experiments.py`.  Every "
        "number below is a count — label bytes, rows read and written, "
        "statements, relabels, compiles, completed reads — so a second "
        "run writes the same file, and `tests/test_paper_verdicts.py` "
        "asserts the same verdicts at smaller sizes.  Rows read are "
        "minidb's (its executor counts every row an access path "
        "fetches); tables that do not say minidb ran on sqlite.  Load "
        "and query *time* is measured by `benchmarks/perf`, not here.",
        "",
        "The paper's full text was not available to this reproduction "
        "(see DESIGN.md); each experiment therefore records the "
        "*expected shape* — the comparative claim the paper makes for "
        "that quantity — followed by what this implementation counts. "
        "Absolute numbers are not comparable to the paper's DB2/"
        "C++ testbed; who wins, by roughly what factor, and where the "
        "crossovers fall are the reproduction targets.",
        "",
        "## Shape verdicts (computed from this run)",
        "",
        "```",
        *render_verdicts(verdicts),
        "```",
        "",
    ]
    for table in tables:
        lines.append(f"## {table.id}: {table.title}")
        lines.append("")
        shape = EXPECTED_SHAPES.get(table.id)
        if shape:
            lines.append(f"**Expected shape (paper):** {shape}")
            lines.append("")
        lines.append(table.render_markdown())
        lines.append("")

    output = Path(args.output)
    output.write_text("\n".join(lines))
    print(f"wrote {output} ({len(tables)} experiments)")
    for line in render_verdicts(verdicts):
        print(line)
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
