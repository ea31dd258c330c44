"""Bench reporting: shape verdicts and the machine-readable results file.

The experiment suite's value is the *shapes* — who wins, by roughly
what factor, where the crossovers fall — not the absolute numbers.
:func:`compute_verdicts` checks each experiment's headline claim
against its measured rows; :func:`results_payload` /
:func:`write_results_json` serialize the whole run (tables, notes,
verdicts, platform) as ``BENCH_results.json`` so CI and downstream
tooling can diff runs without scraping markdown.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.bench.harness import ExperimentTable

#: The comparative claim each experiment reproduces (rendered into
#: EXPERIMENTS.md next to the measured table).
EXPECTED_SHAPES = {
    "E1": "Global stores two 4-byte integers per node, Local one; Dewey "
          "keys are variable-length but stay near Local's size under the "
          "binary codec (dotted text would roughly double them).",
    "E2": "Loading is comparable across encodings; Dewey pays a little "
          "extra for key construction.",
    "E3": "Global and Dewey answer every ordered query in comparable "
          "time; Local is the dearest on the document-order axes "
          "Q7/Q8.  Its closure axes are recursive walks over the parent "
          "pointers here, so the gap is a small factor, and the verdict "
          "reads rows (E13's counters), not milliseconds, where "
          "Global's own Q8 varies more than Local differs from it.  "
          "With the SQL-92-style depth expansion the paper's systems "
          "were limited to, the same two queries took 17 ms and 188 ms "
          "against 0.3-3.6 ms (49,672 and 110,890 rows read against "
          "62-107): that gap is the paper's finding, and the row "
          "below is what recursion in the plan buys back.",
    "E4": "All three encodings are comparable when order plays no role.",
    "E5": "Front/middle inserts: Global relabels the document tail, "
          "Local only the following siblings, Dewey the following "
          "siblings' subtrees.  Appending is cheap for everyone.  At "
          "nested insertion points Dewey's locality beats Global by "
          "orders of magnitude.",
    "E6": "Subtree inserts follow the E5 ordering; deletes never "
          "relabel under any encoding.",
    "E7": "The headline crossover: Global/Dewey win read-only "
          "workloads, Local wins write-only, Dewey is best or near-best "
          "across the middle.",
    "E8": "Global, Dewey and ORDPATH reconstruct a document or a "
          "subtree with one ordered scan; Local reads a document with "
          "one scan plus a client-side sibling sort, and its "
          "level-by-level subtree fetch is the slow outlier as subtree "
          "size grows.",
    "E9": "Static SQL complexity: identical for unordered paths; Local "
          "needs a recursive walk for each transitive axis and two for "
          "each document-order axis - a constant, where depth-expansion "
          "arms grew with document depth.",
    "E9b": "(Extension beyond the paper.)  Shape-keyed compiled plans "
           "make warm translation parameter binding only: re-translating "
           "the query mix with the compile cache warm costs a fraction "
           "of cold parse-and-compile, on every encoding.",
    "E10": "Gaps absorb insertion bursts: relabeled rows collapse as "
           "the gap grows, at the cost of order-value space.",
    "E11": "(Extension beyond the paper.)  ORDPATH careting removes "
           "relabeling entirely — zero rows touched on any insert — "
           "paying with longer keys; query latency stays comparable to "
           "Dewey.",
    "E12": "(Extension beyond the paper.)  Query latency grows with "
           "document/result size for every encoding; Local's "
           "document-order queries degrade fastest.",
    "E14": "(Extension beyond the paper.)  With one writer active, "
           "pooled WAL connections keep readers running during write "
           "transactions; the serialized shared connection stalls them "
           "for each transaction's whole lock-hold window.",
    "E15": "(Extension beyond the paper.)  Plan/result caching with "
           "per-document invalidation answers the repeated ordered mix "
           "at least 2x faster at steady state on every encoding, and an "
           "interleaved update/query workload produces zero result "
           "mismatches against a caching-off store.",
    "E16": "(Extension beyond the paper.)  On a workload that shifts "
           "from query-heavy to update-heavy, the advisor-triggered "
           "migration lands within a whisker of (or beats) the "
           "best static encoding in total logical I/O — including the "
           "migration's own copy traffic — while every static choice "
           "overpays in one regime.",
    "E17": "(Extension beyond the paper.)  Under a mixed load with a "
           "paced writer, sharding no longer buys read throughput on "
           "one small box: a commit invalidates only the documents it "
           "wrote, so the single-process daemon keeps the rest of the "
           "corpus's cached results live by itself and sustains at "
           "least two thirds of any sharded configuration's aggregate "
           "reads (measured 0.9-1.15x of the 4-shard cluster across "
           "runs), where it used to sustain 0.4x.  What sharding still "
           "provides is fault isolation — a killed shard takes only "
           "its own documents offline and "
           "recovers pre-or-post (`repro crashtest --shard-kill`) — and "
           "room to scale across cores, which needs more cores than "
           "this box has to show.",
    "E18": "(Extension beyond the paper.)  Secondary path and value "
           "indexes answer selective deep // descents and value "
           "predicates at least 2x faster than the structural-join "
           "scans on every encoding and both backends, with "
           "byte-identical answers; the win is largest for Local "
           "(whose unindexed descents walk up from every candidate) and "
           "smallest for Global (whose pos/endpos range scan is "
           "already one predicate).  On the update-heavy burst, "
           "maintenance from the touched set sustains at least 2x the "
           "rate of rebuilding the index after every op while leaving "
           "byte-identical index tables — repair cost tracks the "
           "touched rows, not the document.",
}


@dataclass(frozen=True)
class Verdict:
    """One checked shape claim."""

    experiment: str
    claim: str
    ok: bool

    def render(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.experiment}: " \
               f"{self.claim}"


def compute_verdicts(
    tables: Sequence[ExperimentTable],
) -> list[Verdict]:
    """Check each experiment's headline shape claim against its rows.

    Experiments absent from *tables* (partial runs) are skipped rather
    than failed, so the checker works on any subset of the suite.
    """
    by_id = {t.id: t for t in tables}
    verdicts: list[Verdict] = []

    def record(eid: str, claim: str, ok: bool) -> None:
        verdicts.append(Verdict(eid, claim, ok))

    t = by_id.get("E1")
    if t is not None:
        dewey = [r for r in t.rows if r[1] == "dewey"]
        record("E1",
               "Dewey labels compact (4-8 bytes/node, binary codec)",
               all(4.0 < r[3] < 8.0 for r in dewey))


    t = by_id.get("E4")
    if t is not None:
        spreads = [
            max(r[3], r[4], r[5]) / max(min(r[3], r[4], r[5]), 1e-9)
            for r in t.rows
        ]
        # "Comparable" = same order of magnitude (sub-ms timings are
        # noisy; Local also pays its client-side ordering pass here),
        # in contrast to the 10-1000x separations on the ordered axes.
        record("E4",
               "Encodings within an order of magnitude (unordered)",
               all(s < 8 for s in spreads))

    t = by_id.get("E5")
    if t is not None:
        nested = [
            r for r in t.rows if r[1] == "nested" and r[2] != "last"
        ]
        by_enc: dict[str, float] = {}
        for r in nested:
            by_enc.setdefault(r[0], 0)
            by_enc[r[0]] += r[4]
        record("E5", "Nested inserts: Dewey locality beats Global",
               by_enc.get("dewey", 0) * 3 < by_enc.get("global", 1))

    t = by_id.get("E7")
    if t is not None:
        first, last = t.rows[0], t.rows[-1]
        record(
            "E7",
            "Crossover: Global/Dewey win read-only, Local write-only",
            first[-1] in ("global", "dewey") and last[-1] == "local",
        )

    t = by_id.get("E9b")
    if t is not None:
        record(
            "E9b",
            "Warm compile cache >= 2x cheaper than cold translation",
            all(r[4] >= 2.0 for r in t.rows),
        )

    t = by_id.get("E10")
    if t is not None:
        for encoding in ("global", "dewey"):
            rows = [r for r in t.rows if r[0] == encoding]
            record(
                "E10", f"gaps shrink {encoding} relabeling",
                rows[0][3] > rows[-1][3],
            )

    t = by_id.get("E11")
    if t is not None:
        ordpath = next(r for r in t.rows if r[0] == "ordpath")
        dewey_row = next(r for r in t.rows if r[0] == "dewey")
        record("E11", "ORDPATH never relabels; Dewey does",
               ordpath[2] == 0 and dewey_row[2] > 0)

    t = by_id.get("E13")
    if t is not None:
        # Both verdicts are counts, so they repeat exactly.  E3's used
        # to be wall-clock ("Local slowest on Q7/Q8"), which stopped
        # being decidable once Local's closure axes became recursive
        # walks: sqlite's Global Q8 alone spans 1-7 ms between runs.
        doc_order = [r for r in t.rows if r[0] in ("Q7", "Q8")]
        factor = min(r[3] / max(r[2], r[4]) for r in doc_order)
        record(
            "E3",
            "Local reads more rows than Global and Dewey on Q7/Q8 "
            f"(at least {factor:.1f}x)",
            all(r[3] > r[2] and r[3] > r[4] for r in doc_order),
        )
        q7 = next(r for r in doc_order if r[0] == "Q7")
        # Was "> 3x": the depth expansion scanned the document once
        # per arm and candidate (671x).  A walk probes one row per
        # level; what stays above the other encodings is the walks
        # plus the client-side order-resolution fetches, a factor that
        # shrinks as the result grows - so it is reported, not bounded.
        record(
            "E13",
            "Local logical I/O highest on following:: "
            f"({q7[3] / max(q7[2], q7[4]):.1f}x; walks plus client "
            "order resolution)",
            q7[3] > q7[2] and q7[3] > q7[4],
        )

    t = by_id.get("E14")
    if t is not None:
        pooled = [r for r in t.rows if r[0] == "pooled"]
        top = max(pooled, key=lambda r: r[1])  # highest reader count
        record(
            "E14",
            "Pooled readers >= 2x serialized at max reader count, "
            "clean audits",
            top[4] >= 2.0 and all(r[5] == 0 for r in t.rows),
        )

    t = by_id.get("E15")
    if t is not None:
        record(
            "E15",
            "Caching >= 2x on the repeated ordered mix, zero mixed-"
            "workload mismatches",
            all(r[3] >= 2.0 and r[5] == 0 for r in t.rows),
        )

    t = by_id.get("E16")
    if t is not None:
        totals = {r[0]: r[4] for r in t.rows}
        adaptive = next(r for r in t.rows if r[0] == "adaptive")
        best_static = min(
            total
            for name, total in totals.items()
            if name != "adaptive"
        )
        record(
            "E16",
            "Adaptive migration <= best static encoding in logical "
            "I/O (5% tolerance), and it actually migrated",
            adaptive[4] <= best_static * 1.05 and adaptive[5] != "-",
        )

    t = by_id.get("E17")
    if t is not None:
        single = next(r for r in t.rows if r[0] == 1)
        sharded = [r for r in t.rows if r[0] != 1]
        record(
            "E17",
            "Single-process daemon >= 0.67x the best sharded "
            "configuration's read throughput (per-document "
            "invalidation; was 0.4x), p50/p99 reported, no read errors",
            single[1] >= 0.67 * max(r[1] for r in sharded)
            and all(r[3] > 0 and r[4] > 0 and r[6] == 0 for r in t.rows),
        )

    t = by_id.get("E18")
    if t is not None:
        record(
            "E18",
            "Indexed >= 2x unindexed on the deep-descent and "
            "value-predicate mix for every encoding on both backends, "
            "both index kinds used, incremental maintenance >= 2x "
            "rebuild-after-every-op on the update burst, zero "
            "mismatches",
            all(
                r[4] >= 2.0
                and r[5] == "path-index+value-index"
                and r[8] >= 2.0
                and r[9] == 0
                for r in t.rows
            )
            and {r[0] for r in t.rows} == {"sqlite", "minidb"},
        )

    return verdicts


def render_verdicts(verdicts: Sequence[Verdict]) -> list[str]:
    return [v.render() for v in verdicts]


def results_payload(
    tables: Sequence[ExperimentTable],
    verdicts: Optional[Sequence[Verdict]] = None,
    elapsed_seconds: Optional[float] = None,
) -> dict:
    """The JSON-serializable record of one bench run."""
    if verdicts is None:
        verdicts = compute_verdicts(tables)
    return {
        "schema": "repro-bench-results/1",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "elapsed_seconds": elapsed_seconds,
        "experiments": [
            {
                "id": table.id,
                "title": table.title,
                "expected_shape": EXPECTED_SHAPES.get(table.id),
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
                "notes": list(table.notes),
                "elapsed_seconds": getattr(
                    table, "elapsed_seconds", None
                ),
                "phase_ms": dict(getattr(table, "phase_ms", {})),
                "metrics": dict(getattr(table, "metrics", {})),
            }
            for table in tables
        ],
        "verdicts": [
            {
                "experiment": v.experiment,
                "claim": v.claim,
                "ok": v.ok,
            }
            for v in verdicts
        ],
        "all_shapes_hold": all(v.ok for v in verdicts),
    }


def write_results_json(
    path: Union[str, Path],
    tables: Sequence[ExperimentTable],
    verdicts: Optional[Sequence[Verdict]] = None,
    elapsed_seconds: Optional[float] = None,
) -> Path:
    """Write ``BENCH_results.json``; returns the path written."""
    path = Path(path)
    payload = results_payload(tables, verdicts, elapsed_seconds)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
