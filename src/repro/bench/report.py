"""Bench reporting: the shape verdicts and the EXPERIMENTS.md page.

The experiment suite's value is the *shapes* — who wins, by roughly
what factor, where the crossovers fall — not the absolute numbers.
:func:`compute_verdicts` checks each experiment's headline claim
against its counted rows, one verdict per experiment; the counts repeat
exactly, so a verdict is a function of the commit, and each claim
quotes the counts it was decided on.  :func:`experiments_page` builds
the whole of EXPERIMENTS.md, which ``repro experiments`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.harness import ExperimentTable

#: The comparative claim each experiment reproduces (rendered into
#: EXPERIMENTS.md next to the measured table).
EXPECTED_SHAPES = {
    "E1": "Global stores two 4-byte integers per node, Local one; Dewey "
          "keys are variable-length but stay near Local's size under the "
          "binary codec (dotted text would roughly double them).",
    "E2": "Loading writes one row per node and attribute on every "
          "encoding, in a number of statements that does not grow with "
          "the document (bulk inserts).",
    "E3": "Global and Dewey answer every ordered query reading "
          "comparable rows; Local reads the most on the document-order "
          "axes Q7/Q8.  Its closure axes are recursive walks over the "
          "parent pointers here, so the gap is a small factor.  With "
          "the SQL-92-style depth expansion the paper's systems were "
          "limited to, the same two queries read 49,672 and 110,890 "
          "rows against 62-107: that gap is the paper's finding, and "
          "the table below is what recursion in the plan buys back.  "
          "Local's extra statements are its client-side "
          "order-resolution fetches.",
    "E4": "All three encodings read comparable rows when order plays "
          "no role.",
    "E5": "Front/middle inserts: Global relabels the document tail, "
          "Local only the following siblings, Dewey the following "
          "siblings' subtrees.  Appending is cheap for everyone.  At "
          "nested insertion points Dewey's locality beats Global by "
          "orders of magnitude.",
    "E6": "Subtree inserts follow the E5 ordering; deletes never "
          "relabel under any encoding.",
    "E7": "The headline crossover, in rows read plus written: "
          "Global/Dewey win read-only workloads, Local wins write-only, "
          "Dewey is best or near-best across the middle.",
    "E8": "Global, Dewey and ORDPATH reconstruct a document or a "
          "subtree with one ordered scan, so a subtree of any height "
          "costs the same statements; Local reads a document with one "
          "scan plus a client-side sibling sort, and a subtree level by "
          "level, one statement more per level.",
    "E9": "Static SQL complexity: identical for unordered paths; Local "
          "needs a recursive walk for each transitive axis and two for "
          "each document-order axis - a constant whatever the "
          "document's depth, where depth-expansion arms grew with it.",
    "E10": "Gaps absorb insertion bursts: relabeled rows collapse as "
           "the gap grows, at the cost of order-value space.",
    "E11": "(Extension beyond the paper.)  ORDPATH careting removes "
           "relabeling entirely — zero rows touched on any insert — "
           "paying with longer keys.",
    "E12": "(Extension beyond the paper.)  Rows read grow linearly "
           "with the document for a descendant scan (U2), a sibling "
           "axis (Q5) and the document-order axis Q7 on every encoding.  "
           "Q7 used to grow quadratically, and not because of its "
           "`following::` axis: its `article[3]` was a correlated "
           "`COUNT(*)` of the preceding sibling articles, run once per "
           "candidate article, m²/2 rows for m articles.  A child-axis "
           "position is now a sibling-order bound picked once per "
           "parent.  The claim this experiment used to make on "
           "milliseconds — \"Local's document-order queries degrade "
           "fastest\" — is **not** reproduced on counts: Q7 is linear "
           "on every encoding.",
    "E16": "(Extension beyond the paper.)  On a workload that shifts "
           "from query-heavy to update-heavy, the advisor-triggered "
           "migration lands within a whisker of (or beats) the "
           "best static encoding in total logical I/O — including the "
           "migration's own copy traffic — while every static choice "
           "overpays in one regime.",
    "E17": "(Extension beyond the paper.)  Sharding isolates faults: a "
           "killed shard takes only its own documents offline, with a "
           "typed `shard_unavailable` error, while the other shard "
           "keeps answering, and the respawned shard answers every "
           "document as before.  This box has 2 cores, so the repo "
           "shows no multi-core throughput scaling.",
    "E18": "(Extension beyond the paper.)  Secondary path and value "
           "indexes answer selective deep // descents and value "
           "predicates reading at least 10x fewer rows than the "
           "structural-join scans on every encoding, with identical "
           "answers: a descent probes the path index, and a value "
           "predicate on a // step reads the step's candidates from the "
           "value index instead of probing it once per candidate.  The "
           "win is largest for Local (whose unindexed descents walk "
           "every subtree under the context set).  On the "
           "update-heavy burst, the repair each write makes writes "
           "at least 2x fewer rows than rebuilding the index after every "
           "op while leaving identical index tables — repair cost "
           "tracks the touched rows, not the document.",
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


def _range(values: Sequence) -> str:
    low, high = min(values), max(values)
    return f"{low}" if low == high else f"{low}-{high}"


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
               "Dewey labels compact (4-8 bytes/node, binary codec: "
               f"{_range([r[3] for r in dewey])})",
               all(4.0 < r[3] < 8.0 for r in dewey))

    t = by_id.get("E2")
    if t is not None:
        # (nodes, attributes, encoding, rows written, statements)
        statements: dict[str, set] = {}
        for r in t.rows:
            statements.setdefault(r[2], set()).add(r[4])
        record(
            "E2",
            "Every load writes one row per node and attribute plus its "
            "catalogue row, in statements independent of size ("
            + ", ".join(
                f"{name} {_range(sorted(counts))}"
                for name, counts in statements.items()
            )
            + ")",
            all(r[3] == r[0] + r[1] + 1 for r in t.rows)
            and all(len(counts) == 1 for counts in statements.values()),
        )

    # E3, E4: (query, feature, results, global/local/dewey rows,
    # global/local/dewey statements).
    t = by_id.get("E3")
    if t is not None:
        doc_order = [r for r in t.rows if r[0] in ("Q7", "Q8")]
        factor = min(r[4] / max(r[3], r[5]) for r in doc_order)
        record(
            "E3",
            "Local reads more rows than Global and Dewey on Q7/Q8 ("
            + " / ".join(f"{r[4]} vs {max(r[3], r[5])}" for r in doc_order)
            + f"; at least {factor:.1f}x)",
            all(r[4] > max(r[3], r[5]) for r in doc_order),
        )

    t = by_id.get("E4")
    if t is not None:
        ratio = max(r[4] / min(r[3], r[5]) for r in t.rows)
        record(
            "E4",
            "Local reads at most 2x Global's and Dewey's rows on U1-U4 "
            f"(at most {ratio:.2f}x)",
            ratio <= 2.0,
        )

    t = by_id.get("E5")
    if t is not None:
        nested = [
            r for r in t.rows if r[1] == "nested" and r[2] != "last"
        ]
        by_enc: dict[str, int] = {}
        for r in nested:
            by_enc[r[0]] = by_enc.get(r[0], 0) + r[4]
        record("E5",
               "Nested inserts: Dewey locality beats Global "
               f"({by_enc.get('dewey')} vs {by_enc.get('global')} rows "
               "relabeled)",
               by_enc.get("dewey", 0) * 3 < by_enc.get("global", 1))

    t = by_id.get("E6")
    if t is not None:
        inserts = {r[0]: r[3] for r in t.rows if r[1] == "insert subtree"}
        deletes = {r[0]: r[3] for r in t.rows if r[1] == "delete subtree"}
        others = [n for name, n in inserts.items() if name != "local"]
        record(
            "E6",
            "Deletes relabel nothing: every encoding touches the same "
            f"rows ({_range(list(deletes.values()))}); Local's subtree "
            f"inserts touch the fewest ({inserts.get('local')} vs "
            f"{_range(others)})",
            len(set(deletes.values())) == 1
            and inserts.get("local", 0) < min(others),
        )

    t = by_id.get("E7")
    if t is not None:
        # (update %, global, local, dewey rows, winner): a tie names
        # every encoding that shares the minimum, joined by "="
        first, last = t.rows[0], t.rows[-1]
        record(
            "E7",
            "Crossover on rows read + written: Global/Dewey win "
            f"read-only ({first[-1]}: {min(first[1:4])} vs local "
            f"{first[2]}), Local write-only ({last[2]} vs "
            f"{min(last[1], last[3])})",
            set(first[-1].split("=")) <= {"global", "dewey"}
            and last[-1] == "local",
        )

    t = by_id.get("E8")
    if t is not None:
        # (encoding, scope, nodes, statements, rows read)
        stmts = {(r[0], r[1]): r[3] for r in t.rows}
        record(
            "E8",
            "Global and Dewey read a subtree of either height in the "
            f"same statements ({stmts['global', 'section subtree']}); "
            "Local's grow with its height "
            f"({stmts['local', 'section subtree']} -> "
            f"{stmts['local', 'article subtree']})",
            all(
                stmts[name, "article subtree"]
                == stmts[name, "section subtree"]
                for name in ("global", "dewey")
            )
            and stmts["local", "article subtree"]
            > stmts["local", "section subtree"],
        )

    t = by_id.get("E9")
    if t is not None:
        # (query, feature, global, local, dewey, local at depth 40)
        unordered = [r for r in t.rows if r[0].startswith("U")]
        doc_order = [r for r in t.rows if r[0] in ("Q7", "Q8")]
        record(
            "E9",
            "Identical SQL complexity on U1-U4; Local's Q7/Q8 ops the "
            "same at depth 4 and 40 ("
            + " / ".join(f"{r[3]} and {r[5]}" for r in doc_order)
            + ")",
            all(r[2] == r[3] == r[4] for r in unordered)
            and all(r[3] == r[5] for r in doc_order),
        )

    t = by_id.get("E10")
    if t is not None:
        ends = {}
        for encoding in ("global", "dewey"):
            rows = [r for r in t.rows if r[0] == encoding]
            ends[encoding] = (rows[0][3], rows[-1][3])
        record(
            "E10",
            "Gaps shrink Global's and Dewey's relabeling ("
            + ", ".join(
                f"{name} {dense} -> {sparse}"
                for name, (dense, sparse) in ends.items()
            )
            + ")",
            all(dense > sparse for dense, sparse in ends.values()),
        )

    t = by_id.get("E11")
    if t is not None:
        ordpath = next(r for r in t.rows if r[0] == "ordpath")
        dewey_row = next(r for r in t.rows if r[0] == "dewey")
        record("E11",
               f"ORDPATH never relabels ({ordpath[2]}); Dewey does "
               f"({dewey_row[2]})",
               ordpath[2] == 0 and dewey_row[2] > 0)

    t = by_id.get("E12")
    if t is not None:
        # (query, encoding, rows read per size..., exponent)
        linear = [r[-1] for r in t.rows if r[0] in ("U2", "Q5")]
        q7 = [r[-1] for r in t.rows if r[0] == "Q7"]
        record(
            "E12",
            "U2, Q5 and Q7 rows read grow linearly with the document "
            f"(exponent {_range(linear)} and {_range(q7)}, at most 1.2)",
            max(linear + q7) <= 1.2,
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
            f"I/O (5% tolerance; {adaptive[4]} vs {best_static} rows), "
            "and it actually migrated",
            adaptive[4] <= best_static * 1.05 and adaptive[5] != "-",
        )

    t = by_id.get("E17")
    if t is not None:
        # (phase, shard, documents, answered, errors)
        dead = [
            r for r in t.rows if r[0] == "shard 1 killed" and r[1] == 1
        ]
        live = [r for r in t.rows if r not in dead]
        record(
            "E17",
            "A killed shard fails only its own documents, typed "
            f"shard_unavailable ({sum(r[2] - r[3] for r in dead)} "
            "failed); the other shard's and, after respawn, every "
            f"document answer ({sum(r[3] for r in live)} of "
            f"{sum(r[2] for r in live)})",
            bool(dead)
            and all(r[3] == 0 and r[4] == "shard_unavailable" for r in dead)
            and all(r[3] == r[2] and r[4] == "-" for r in live),
        )

    t = by_id.get("E18")
    if t is not None:
        # (encoding, unindexed rows, indexed rows, read ratio, access
        # paths, maintain written, rebuild written, write ratio,
        # mismatches)
        record(
            "E18",
            "Indexed reads at least 10x fewer rows than unindexed on "
            f"every encoding ({_range([r[3] for r in t.rows])}x), "
            "both index kinds used; maintenance writes at least 2x "
            "fewer rows than rebuild-after-every-op "
            f"({_range([r[7] for r in t.rows])}x); zero mismatches",
            all(
                r[3] >= 10.0
                and r[4] == "path-index+value-index"
                and r[7] >= 2.0
                and r[8] == 0
                for r in t.rows
            ),
        )

    return verdicts


#: EXPERIMENTS.md's preamble, above the verdicts.
_PREAMBLE = (
    "# EXPERIMENTS — reconstructed evaluation, paper vs. measured",
    "",
    "Regenerate with `python -m repro experiments > EXPERIMENTS.md`.  "
    "Every number below is a count — label bytes, rows read and "
    "written, statements, relabels — so a second run writes the same "
    "file, and `tests/test_paper_verdicts.py` asserts the same verdicts "
    "at smaller sizes.  Rows read are minidb's (its executor counts "
    "every row an access path fetches); tables that do not say minidb "
    "ran on sqlite.  Load and query *time* is measured by "
    "`benchmarks/perf`, not here.",
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
)


def experiments_page(
    tables: Sequence[ExperimentTable],
) -> tuple[str, bool]:
    """EXPERIMENTS.md's text for *tables* — the verdicts, then each
    table under its expected shape — and whether every verdict
    passed."""
    verdicts = compute_verdicts(tables)
    lines = [*_PREAMBLE, "```", *(v.render() for v in verdicts), "```", ""]
    for table in tables:
        lines += [f"## {table.id}: {table.title}", ""]
        shape = EXPECTED_SHAPES.get(table.id)
        if shape:
            lines += [f"**Expected shape (paper):** {shape}", ""]
        lines += [table.render_markdown(), ""]
    return "\n".join(lines), all(v.ok for v in verdicts)
