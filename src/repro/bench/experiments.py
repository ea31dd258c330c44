"""The reconstructed evaluation: experiments E1-E18, counted.

Each ``run_eN_*`` function executes one experiment and returns an
:class:`~repro.bench.harness.ExperimentTable` of counts — label bytes,
rows read and written, statements, relabels — and never a wall-clock
time, so a table repeats exactly and the verdict
:func:`~repro.bench.report.compute_verdicts` reads off it is a function
of the commit.  ``run_all`` runs the suite at its one set of sizes
(``repro experiments`` prints EXPERIMENTS.md from it, see
:func:`~repro.bench.report.render_page`); ``tests/test_paper_verdicts.py``
asserts the same verdicts with smaller sizes passed as arguments.
These functions are the only implementation of E1-E18: DESIGN.md's
experiment index points at them by name.

Rows read are minidb's: its executor counts every row an access path
fetches, which sqlite does not expose, so the experiments that report
them run on minidb.  Relabels, rows written and statements are
counted the same on both engines, and those experiments run on the
default sqlite backend.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from math import log
from typing import Iterator, Sequence

from repro.bench.harness import (
    ENCODING_NAMES,
    ExperimentTable,
    build_store,
)
from repro.core.dewey import DeweyKey
from repro.core.encodings import ENCODINGS
from repro.core.shredder import shred
from repro.errors import TranslationError
from repro.obs import counting
from repro.store import XmlStore
from repro.workload import (
    MixedWorkload,
    ORDERED_QUERIES,
    UNORDERED_QUERIES,
    UpdateWorkload,
    article_corpus,
    document_stats,
    sized_article_corpus,
)
from repro.xmldom import parse

#: Abstract per-node order-label sizes (bytes), for E1: integers cost 4.
_INT_BYTES = 4


@contextmanager
def _engine_io(store: XmlStore) -> Iterator[dict]:
    """Yield a dict that holds, once the block exits, what *store*'s
    minidb engine counted inside it: ``statements``, ``rows_read``,
    ``rows_written``, ``index_scans`` and ``full_scans``."""
    engine = store.backend.db  # type: ignore[attr-defined]
    before = engine.stats.snapshot()
    counts: dict = {}
    yield counts
    after = engine.stats.snapshot()
    counts.update({name: after[name] - before[name] for name in after})


def _identities(store: XmlStore, xpath: str, doc: int) -> list[tuple]:
    return [
        (i.kind, i.node_id, i.label, i.value)
        for i in store.query(xpath, doc)
    ]


# ---------------------------------------------------------------------------
# E1: storage
# ---------------------------------------------------------------------------


def run_e1_storage(
    sizes: Sequence[int] = (1000, 5000, 20000),
) -> ExperimentTable:
    """Rows and order-label bytes per encoding across document sizes,
    plus Dewey's at its declared load gap: the storage side of the
    relabels E10 counts."""
    dewey = ENCODINGS["dewey"]
    table = ExperimentTable(
        "E1",
        "Storage: order-label size per node",
        ("nodes", "encoding", "rows", "avg label bytes", "total label KB"),
    )
    for target in sizes:
        document = sized_article_corpus(target)
        shredded = shred(document)
        n = shredded.node_count()
        for name in ENCODING_NAMES:
            if name == "global":
                total = n * 2 * _INT_BYTES
            elif name == "local":
                total = n * _INT_BYTES
            else:
                total = sum(
                    len(DeweyKey(node.dewey).encode())
                    for node in shredded.nodes
                )
            table.add_row(
                n, name, n, round(total / n, 2), round(total / 1024, 1)
            )
        total = sum(
            len(key)
            for (key,) in dewey.bulk_order_values(
                shredded.nodes, dewey.load_gap
            )
        )
        table.add_row(
            n, f"dewey, gap {dewey.load_gap}", n, round(total / n, 2),
            round(total / 1024, 1),
        )
    document = sized_article_corpus(sizes[0])
    shredded = shred(document)
    dewey_text = sum(
        len(str(DeweyKey(node.dewey))) for node in shredded.nodes
    ) / shredded.node_count()
    table.add_note(
        f"dotted-text Dewey keys would average {dewey_text:.1f} bytes/node "
        "at the smallest size; the binary codec is the practical choice — "
        "and dotted text does not even sort (\"1.10\" < \"1.9\"), where "
        "the binary keys compare bytewise in document order"
    )
    table.add_note(
        "the other rows are dense (gap 1); a store loads Dewey at its "
        f"declared gap {dewey.load_gap} unless told otherwise, and the "
        "longer keys are what it pays for the relabels E10's (declared) "
        "rows save"
    )
    return table


# ---------------------------------------------------------------------------
# E2: loading
# ---------------------------------------------------------------------------


def run_e2_loading(
    sizes: Sequence[int] = (1000, 5000),
) -> ExperimentTable:
    """Rows written and statements per bulk load, per encoding."""
    table = ExperimentTable(
        "E2",
        "Loading: rows written and statements per load",
        ("nodes", "attributes", "encoding", "rows written", "statements"),
    )
    for target in sizes:
        document = sized_article_corpus(target)
        shredded = shred(document)
        for name in ENCODING_NAMES:
            with counting() as grew:
                build_store(document, name)
            table.add_row(
                shredded.node_count(), len(shredded.attributes), name,
                grew["backend.rows_written"], grew["backend.statements"],
            )
    table.add_note(
        "load time is the `ingest` workload of `benchmarks/perf`"
    )
    return table


# ---------------------------------------------------------------------------
# E3/E4: query logical I/O
# ---------------------------------------------------------------------------


def _query_io(
    table_id: str, title: str, queries, articles: int
) -> ExperimentTable:
    """Results, minidb rows read and statements per query and encoding."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        table_id,
        title,
        ("query", "feature", "results",
         *(f"{n} rows" for n in ENCODING_NAMES),
         *(f"{n} stmts" for n in ENCODING_NAMES)),
    )
    stores = {
        name: build_store(document, name, "minidb")
        for name in ENCODING_NAMES
    }
    for query in queries:
        rows, statements = [], []
        results = None
        for name in ENCODING_NAMES:
            store, doc = stores[name]
            try:
                with _engine_io(store) as io:
                    results = len(store.query(query.xpath, doc))
            except TranslationError:
                rows.append("n/a")
                statements.append("n/a")
                continue
            rows.append(io["rows_read"])
            statements.append(io["statements"])
        table.add_row(query.id, query.feature, results, *rows, *statements)
    return table


def run_e3_ordered_queries(articles: int = 10) -> ExperimentTable:
    """Ordered query suite Q1-Q8: rows read and statements (minidb)."""
    table = _query_io(
        "E3",
        "Ordered queries: rows read and statements (minidb)",
        ORDERED_QUERIES,
        articles,
    )
    table.add_note(
        "Local Q7/Q8 under SQL-92-style depth expansion, before its "
        "closure axes became recursive walks (articles=10): 49,672 and "
        "110,890 rows"
    )
    return table


def run_e4_unordered_queries(articles: int = 10) -> ExperimentTable:
    """Unordered query suite U1-U4: rows read and statements (minidb)."""
    return _query_io(
        "E4",
        "Unordered queries: rows read and statements (minidb)",
        UNORDERED_QUERIES,
        articles,
    )


# ---------------------------------------------------------------------------
# E5: insert position sweep
# ---------------------------------------------------------------------------


def run_e5_insert_position(
    articles: int = 30,
    inserts: int = 20,
) -> ExperimentTable:
    """Single-fragment inserts at first/middle/last positions.

    Two insertion scopes are measured: *top-level* (a new article under
    the journal root — every encoding that renumbers must touch the
    document tail) and *nested* (a new paragraph inside one section in
    the middle of the document — here Dewey only relabels that section's
    few following siblings, while Global still shifts the whole tail:
    the paper's key separation between the two).
    """
    document = article_corpus(articles=articles)
    scopes = (
        ("top-level", "/journal"),
        ("nested", f"/journal/article[{max(1, articles // 2)}]/section[1]"),
    )
    table = ExperimentTable(
        "E5",
        "Insert cost vs. position (dense numbering)",
        ("encoding", "scope", "position", "inserts", "rows relabeled"),
    )
    for name in ENCODING_NAMES:
        for scope_name, scope_xpath in scopes:
            for where in ("first", "middle", "last"):
                store, doc = build_store(document, name)
                workload = UpdateWorkload(store, doc)
                parent_id = store.query(scope_xpath, doc)[0].node_id
                stream = workload.insert_stream(
                    parent_id, where, inserts, payload_nodes=2
                )
                table.add_row(
                    name, scope_name, where, stream.operations,
                    stream.relabeled,
                )
    return table


# ---------------------------------------------------------------------------
# E6: subtree insert / delete
# ---------------------------------------------------------------------------


def run_e6_subtree_updates(
    articles: int = 30,
    operations: int = 10,
) -> ExperimentTable:
    """Insert and delete multi-node subtrees in the document middle.

    Rows touched are the rows each operation inserted or deleted plus
    the rows it relabeled.
    """
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E6",
        "Subtree insert / delete",
        ("encoding", "operation", "ops", "rows touched"),
    )
    for name in ENCODING_NAMES:
        store, doc = build_store(document, name)
        workload = UpdateWorkload(store, doc)
        root_id = store.query("/journal", doc)[0].node_id
        touched = 0
        for _ in range(operations):
            report = workload.insert_at(
                root_id, "middle", payload_nodes=10, tag="article"
            )
            touched += report.inserted + report.relabeled
        table.add_row(name, "insert subtree", operations, touched)

        touched = 0
        for _ in range(operations):
            report = workload.delete_random("/journal/article")
            if report is not None:
                touched += report.deleted + report.relabeled
        table.add_row(name, "delete subtree", operations, touched)
    return table


# ---------------------------------------------------------------------------
# E7: mixed workload crossover
# ---------------------------------------------------------------------------


def run_e7_mixed_workload(
    articles: int = 20,
    operations: int = 120,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> ExperimentTable:
    """Logical I/O vs. update fraction: the paper's headline trade-off.

    Each cell runs the same seeded schedule of queries and ordered
    insertions on a fresh minidb store and charges it the rows the
    engine read plus the rows it wrote.
    """
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E7",
        "Mixed workload: rows read + written vs. update fraction (minidb)",
        ("update %", *(f"{n} rows" for n in ENCODING_NAMES), "winner"),
    )
    for fraction in fractions:
        cells = {}
        for name in ENCODING_NAMES:
            store, doc = build_store(document, name, "minidb")
            mix = MixedWorkload(
                store, doc, ORDERED_QUERIES + UNORDERED_QUERIES,
                insert_parent_xpath="/journal/article/section[1]",
            )
            with _engine_io(store) as io:
                mix.run(operations, fraction)
            cells[name] = io["rows_read"] + io["rows_written"]
        # Every encoding that shares the minimum wins: a tie is named
        # as one, not settled by name order.
        least = min(cells.values())
        table.add_row(
            int(fraction * 100),
            *(cells[n] for n in ENCODING_NAMES),
            "=".join(n for n in ENCODING_NAMES if cells[n] == least),
        )
    return table


# ---------------------------------------------------------------------------
# E8: reconstruction
# ---------------------------------------------------------------------------


def run_e8_reconstruction(articles: int = 10) -> ExperimentTable:
    """Statements and rows read to reconstruct a document and two
    subtrees of different height (minidb)."""
    document = article_corpus(articles=articles)
    article = f"/journal/article[{max(1, articles // 2)}]"
    scopes = (
        ("article subtree", article),
        ("section subtree", f"{article}/section[1]"),
    )
    table = ExperimentTable(
        "E8",
        "Reconstruction: statements and rows read (minidb)",
        ("encoding", "scope", "nodes", "statements", "rows read"),
    )
    for name in ENCODING_NAMES:
        store, doc = build_store(document, name, "minidb")
        with _engine_io(store) as io:
            store.reconstruct(doc)
        table.add_row(
            name, "document", store.node_count(doc),
            io["statements"], io["rows_read"],
        )
        for scope, xpath in scopes:
            root = store.query(xpath, doc)[0].node_id
            nodes = len(store.query(f"{xpath}/descendant-or-self::node()", doc))
            with _engine_io(store) as io:
                store.reconstruct_subtree(doc, root)
            table.add_row(
                name, scope, nodes, io["statements"], io["rows_read"]
            )
    return table


# ---------------------------------------------------------------------------
# E9: translation complexity (static)
# ---------------------------------------------------------------------------


def run_e9_translation() -> ExperimentTable:
    """Static SQL complexity per query per encoding, and Local's on a
    document ten times deeper."""
    shallow = article_corpus(articles=3)  # elements four deep
    deep = parse(  # forty deep
        "<journal><article>" + "<section>" * 37 + "<para/>"
        + "</section>" * 37 + "</article></journal>"
    )
    stores = {
        **{name: build_store(shallow, name) for name in ENCODING_NAMES},
        "local depth 40": build_store(deep, "local"),
    }
    table = ExperimentTable(
        "E9",
        "Translation complexity (joins + subqueries + recursions)",
        ("query", "feature", *(f"{key} ops" for key in stores)),
    )
    for query in ORDERED_QUERIES + UNORDERED_QUERIES:
        cells = []
        for store, doc in stores.values():
            try:
                translated = store.translate(query.xpath, doc)
            except TranslationError:
                cells.append("n/a")
                continue
            cells.append(translated.stats.total_relational_operations())
        table.add_row(query.id, query.feature, *cells)
    table.add_note(
        "Local's closure axes are one recursive walk each (two nested "
        "for following/preceding) whatever the document's depth; the "
        "SQL-92-style expansion they replaced counted one arm per level "
        "instead (Q7/Q8: 12 ops at depth 6, growing linearly with depth)"
    )
    return table


# ---------------------------------------------------------------------------
# E10: sparse vs dense numbering
# ---------------------------------------------------------------------------


def run_e10_sparse_numbering(
    articles: int = 20,
    inserts: int = 40,
    gaps: Sequence[int] = (1, 16, 256),
) -> ExperimentTable:
    """Repeated middle insertions under different gap factors, then
    at each encoding's declared load gap (what a store loads with when
    it names none)."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E10",
        "Sparse numbering: relabeled rows over an insert burst",
        ("encoding", "gap", "inserts", "rows relabeled"),
    )
    for name in ENCODING_NAMES:
        for gap in gaps:
            store, doc = build_store(document, name, gap=gap)
            workload = UpdateWorkload(store, doc)
            root_id = store.query("/journal", doc)[0].node_id
            stream = workload.insert_stream(
                root_id, "middle", inserts, payload_nodes=2
            )
            table.add_row(name, gap, inserts, stream.relabeled)
    for name, encoding in ENCODINGS.items():
        store, doc = build_store(document, name, gap=encoding.load_gap)
        workload = UpdateWorkload(store, doc)
        root_id = store.query("/journal", doc)[0].node_id
        stream = workload.insert_stream(
            root_id, "middle", inserts, payload_nodes=2
        )
        table.add_row(
            f"{name} (declared)", encoding.load_gap, inserts,
            stream.relabeled,
        )
    table.add_note(
        "a (declared) row is the encoding's load gap, "
        "`OrderEncoding.load_gap`: the gap `XmlStore()` and `repro "
        "load` label a document with when none is named"
    )
    return table


# ---------------------------------------------------------------------------
# E11 (extension): Dewey vs. ORDPATH under adversarial insertion
# ---------------------------------------------------------------------------


def run_e11_ordpath(
    articles: int = 12,
    inserts: int = 30,
) -> ExperimentTable:
    """The ORDPATH extension vs. Dewey: relabeling vs. key growth.

    Repeated insertion at one spot is Dewey's worst case (every insert
    relabels the following siblings' subtrees) and ORDPATH's design
    target (carets make new keys *between* existing ones, relabeling
    nothing — at the cost of longer keys).
    """
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E11",
        "Extension: Dewey vs. ORDPATH under a same-spot insert burst",
        ("encoding", "inserts", "rows relabeled",
         "avg key bytes", "max key bytes"),
    )
    for name in ("dewey", "ordpath"):
        store, doc = build_store(document, name)
        workload = UpdateWorkload(store, doc)
        root_id = store.query("/journal", doc)[0].node_id
        relabeled = 0
        for _ in range(inserts):
            relabeled += workload.insert_at(root_id, "middle").relabeled
        column = store.encoding.sibling_order_column
        lengths = [
            len(row[0])
            for row in store.backend.execute(
                f"SELECT {column} FROM {store.node_table} "
                f"WHERE doc = ?",
                (doc,),
            ).rows
        ]
        table.add_row(
            name, inserts, relabeled,
            round(sum(lengths) / len(lengths), 2), max(lengths),
        )
    table.add_note(
        "ORDPATH is this reproduction's extension (the paper's update "
        "analysis anticipates it; published as O'Neil et al., SIGMOD "
        "2004): zero relabeling, paid for with longer (fixed 4-byte-"
        "component) keys"
    )
    return table


# ---------------------------------------------------------------------------
# E12: document-size scaling
# ---------------------------------------------------------------------------


def run_e12_scaling(
    sizes: Sequence[int] = (300, 1000, 3000),
) -> ExperimentTable:
    """Rows read vs. document size for three representative queries,
    with the exponent of a power law fitted through them.

    U2 (descendant scan) and Q5 (sibling axis) read in proportion to
    their results; Q7 (document-order axis) is where the encodings'
    plans differ.
    """
    probes = [
        query
        for query in ORDERED_QUERIES + UNORDERED_QUERIES
        if query.id in ("U2", "Q5", "Q7")
    ]
    documents = [sized_article_corpus(target) for target in sizes]
    nodes = [document_stats(document)["nodes"] for document in documents]
    table = ExperimentTable(
        "E12",
        "Scaling: rows read vs. document size (minidb)",
        ("query", "encoding", *(f"rows @ {n} nodes" for n in nodes),
         "exponent"),
    )
    rows_read: dict[tuple, list] = {}
    for document in documents:
        for name in ENCODING_NAMES:
            store, doc = build_store(document, name, "minidb")
            for query in probes:
                with _engine_io(store) as io:
                    store.query(query.xpath, doc)
                rows_read.setdefault((query.id, name), []).append(
                    io["rows_read"]
                )
    for query in probes:
        for name in ENCODING_NAMES:
            counts = rows_read[query.id, name]
            fit = statistics.linear_regression(
                [log(n) for n in nodes], [log(c) for c in counts]
            )
            table.add_row(
                query.id, name, *counts, round(fit.slope, 2)
            )
    return table


# ---------------------------------------------------------------------------
# E16: adaptive encoding migration
# ---------------------------------------------------------------------------


def run_e16_adaptive_migration(
    articles: int = 4,
    query_ops: int = 240,
    update_ops: int = 96,
    probe_ops: int = 6,
) -> ExperimentTable:
    """Advisor-triggered migration vs. every static encoding.

    A two-regime workload — a query-heavy phase followed by an
    update-heavy one — runs against three static stores (one per
    encoding) and one *adaptive* store that starts on ``global`` and
    lets :class:`~repro.migrate.MigrationAdvisor` inspect the counter
    deltas of each slice, calling
    :func:`~repro.migrate.migrate_document` when the workload crosses
    the E7 crossover.  Cost is logical I/O (backend rows read plus
    written), so the migration's own copy traffic is charged to the
    adaptive strategy.
    """
    from repro.migrate import MigrationAdvisor, migrate_document

    document = article_corpus(articles=articles)
    queries = [*ORDERED_QUERIES, *UNORDERED_QUERIES]
    # The probe is carved out of the update-heavy phase: the advisor
    # needs one observed slice of the new regime before it can react,
    # and it pays for that slice at the old encoding's prices.
    slices = (
        ("query-heavy", query_ops, 0.0),
        ("probe", probe_ops, 0.9),
        ("update-heavy", update_ops - probe_ops, 0.9),
    )
    table = ExperimentTable(
        "E16",
        "Adaptive encoding migration vs. static choices (logical I/O)",
        (
            "strategy",
            "query-phase rows",
            "update-phase rows",
            "migration rows",
            "total rows",
            "migrations",
        ),
    )

    def rows(grew: Counter) -> int:
        return grew["backend.rows_read"] + grew["backend.rows_written"]

    def run_strategy(label: str, adaptive: bool) -> tuple:
        encoding = "global" if adaptive else label
        store, doc = build_store(document, encoding)
        advisor = MigrationAdvisor(min_samples=min(10, probe_ops))
        phase_rows = {"query-heavy": 0, "update": 0}
        migration_rows = 0
        migrations: list[str] = []
        for slice_name, ops, fraction in slices:
            if ops <= 0:
                continue
            # Inserting articles near the top of the journal is the
            # encoding-separating workload: Global renumbers everything
            # after the insert point, Dewey rewrites the dkey of every
            # following article's whole subtree, Local touches only the
            # sibling positions under the journal root.
            mix = MixedWorkload(
                store,
                doc,
                queries,
                insert_parent_xpath="/journal",
            )
            with counting() as grew:
                mix.run(ops, fraction)
            key = "query-heavy" if slice_name == "query-heavy" else "update"
            phase_rows[key] += rows(grew)
            if not adaptive:
                continue
            window = {
                "counters": {
                    name: grew[name]
                    for name in ("query.executed", "updates.renumber_ops")
                }
            }
            current = store.encoding_for(doc).name
            recommendation = advisor.decide(window, current)
            if recommendation.migrate:
                with counting() as grew:
                    migrate_document(store, doc, recommendation.target)
                migration_rows += rows(grew)
                migrations.append(f"{current}->{recommendation.target}")
        store.close()
        total = (
            phase_rows["query-heavy"]
            + phase_rows["update"]
            + migration_rows
        )
        return (
            phase_rows["query-heavy"],
            phase_rows["update"],
            migration_rows,
            total,
            ",".join(migrations) or "-",
        )

    totals = {}
    for name in ENCODING_NAMES:
        cells = run_strategy(name, adaptive=False)
        totals[name] = cells[3]
        table.add_row(name, *cells)
    cells = run_strategy("adaptive", adaptive=True)
    totals["adaptive"] = cells[3]
    table.add_row("adaptive", *cells)
    best_static = min(ENCODING_NAMES, key=lambda n: totals[n])
    table.add_note(
        f"best static: {best_static} ({totals[best_static]} rows); "
        f"adaptive: {totals['adaptive']} rows incl. migration copy "
        f"traffic. Workload: {query_ops} read-only ops, then "
        f"{update_ops} ops at 90% top-of-document inserts; the "
        f"advisor reacts after a {probe_ops}-op probe slice of the "
        f"update regime."
    )
    return table


# ---------------------------------------------------------------------------
# E17: sharded serving
# ---------------------------------------------------------------------------


def run_e17_sharding(documents: int = 4) -> ExperimentTable:
    """Fault isolation: one of two shards killed, then respawned.

    A real two-shard cluster (the ``repro serve`` supervisor, shard
    worker processes and router; not the front door, whose periodic
    respawn would race the kill) holds *documents* documents, placed
    round-robin.  Every document is queried with both shards up, after
    SIGKILL of shard 1, and after the supervisor respawns shard 1 on
    the same database file.  A document counts as answered when its
    answer equals its first one.
    """
    import tempfile

    from repro.serve.router import ShardRouter
    from repro.serve.supervisor import Supervisor

    table = ExperimentTable(
        "E17",
        "Sharded serving: fault isolation of a killed shard",
        ("phase", "shard", "documents", "answered", "errors"),
    )
    first: dict[int, list] = {}

    def probe(router: ShardRouter, docs: list[int], phase: str) -> None:
        for shard in range(router.shards):
            mine = [doc for doc in docs if router.locate(doc)[0] == shard]
            answered, errors = 0, set()
            for doc in mine:
                response = router.handle(
                    {"op": "query", "xpath": "//k", "doc": doc}
                )
                if not response["ok"]:
                    errors.add(response["error"]["type"])
                elif first.setdefault(doc, response["items"]) == (
                    response["items"]
                ):
                    answered += 1
            table.add_row(
                phase, shard, len(mine), answered,
                ",".join(sorted(errors)) or "-",
            )

    with tempfile.TemporaryDirectory(prefix="repro-e17-") as tmp:
        supervisor = Supervisor(tmp, 2)
        try:
            supervisor.start()
            router = ShardRouter(supervisor)
            try:
                docs = [
                    router.load(f"<r><k>{i}</k><k>{i + 1}</k></r>")
                    for i in range(documents)
                ]
                probe(router, docs, "both up")
                supervisor.kill(1)
                probe(router, docs, "shard 1 killed")
                supervisor.ensure_alive()
                probe(router, docs, "shard 1 respawned")
            finally:
                router.close()
        finally:
            supervisor.stop()
    table.add_note(
        "what sharding shows on a 2-core box is isolation; it shows no "
        "multi-core throughput scaling"
    )
    return table


# ---------------------------------------------------------------------------
# E18: secondary indexes
# ---------------------------------------------------------------------------


def _e18_document(products: int, seed: int = 99):
    """A product catalogue with a rare deep element sprinkled in.

    Indexes pay off on *selective* queries: an unselective descent like
    ``//product//comment`` returns a constant fraction of the document,
    so result materialization dominates both access paths and nothing
    can win big.  We plant a ``warranty`` element inside a nested
    review under ~1% of products — the deep-descent queries then return
    a handful of rows out of thousands of nodes, which is the regime
    where a path-index probe beats per-step structural joins.
    """
    import random

    from repro.workload import catalog_corpus
    from repro.xmldom.dom import Element, Text

    document = catalog_corpus(products=products)
    rng = random.Random(seed)
    catalog = document.children[0]
    for product in catalog.children:
        if rng.random() < 0.01:
            review = Element("review", {"rating": "5"})
            warranty = Element("warranty")
            warranty.append(Text(str(rng.randint(1, 5))))
            review.append(warranty)
            product.append(review)
    return document


def run_e18_indexing(products: int = 240) -> ExperimentTable:
    """Deep descent and value predicates, indexed vs. unindexed (minidb).

    Two stores per encoding hold the same data-centric catalogue; one
    builds the secondary indexes (path, value) after the load, the
    other does not.  The query mix is exactly the workload the indexes
    target: selective deep ``//`` descents that the path index answers
    from the rows of the last step's tag whose stored rooted path
    matches, instead of per-step structural joins, and value predicates
    on a ``//`` step, whose candidates the value index delivers (``tag``
    plus ``leaf_text`` or ``nval`` for the leaves, and the few elements
    with an element child, ``leaf_text IS NULL``, aggregated) instead
    of the tag scan aggregating every candidate's string-value.  Each
    cell counts the rows one pass of the mix reads on each store and
    compares the two stores' answers: the index rewrite must be
    answer-preserving, so mismatches must be zero.

    An update-heavy phase then bursts structural updates (text
    rewrites plus subtree inserts) at two indexed twins — one left to
    the maintenance every update performs (each write repairs the
    rows it changed), the other rebuilding every index row with an
    explicit ``indexes.create`` after every op — counting the rows each
    writes and comparing their index rows afterwards (a divergence
    counts into the mismatches column).
    """
    #: Selective deep ``//`` descents first, value predicates second.
    deep_queries = (
        "//product//warranty",
        "//review//warranty",
        "//catalog//warranty",
    )
    value_queries = (
        "//product[price < 20]/name",
        "//product[stock > 950]",
        "//product[stock = '500']",
    )
    queries = deep_queries + value_queries

    document = _e18_document(products)
    table = ExperimentTable(
        "E18",
        "Secondary indexes: rows read (minidb) and written, indexed vs "
        "unindexed",
        ("encoding", "unindexed rows read", "indexed rows read",
         "read ratio", "access paths", "maintain rows written",
         "rebuild rows written", "write ratio", "mismatches"),
    )

    #: Update burst of the maintenance phase: op k rewrites the text
    #: of a product's first child, every third op inserts a review
    #: subtree instead.  Expressed against surrogate ids, which both
    #: stores assign identically.
    burst_ops = 24

    def plan_burst(store: XmlStore, doc: int) -> list[tuple]:
        catalog = store.fetch_children(doc, 0)[0]
        product_ids = [
            child["id"]
            for child in store.fetch_children(doc, catalog["id"])
            if child["kind"] == "elem"
        ]
        ops: list[tuple] = []
        for k in range(burst_ops):
            product = product_ids[(k * 37) % len(product_ids)]
            if k % 3 == 0:
                ops.append((
                    "insert", product,
                    f'<review rating="{k}"><warranty>{k}</warranty>'
                    f"</review>",
                ))
            else:
                first = next(
                    child
                    for child in store.fetch_children(doc, product)
                    if child["kind"] == "elem"
                )
                ops.append(("set_text", first["id"], f"v{k}"))
        return ops

    def run_burst(
        store: XmlStore, doc: int, ops: list[tuple], rebuild: bool
    ) -> None:
        for op in ops:
            if op[0] == "insert":
                store.updates.insert(doc, op[1], 0, op[2])
            else:
                store.updates.set_text(doc, op[1], op[2])
            if rebuild:
                store.indexes.create(doc)

    def index_rows(store: XmlStore, doc: int) -> list:
        return sorted(store.backend.execute(
            "SELECT * FROM idx_sval WHERE doc = ?", (doc,)
        ).rows)

    for name in (*ENCODING_NAMES, "ordpath"):
        indexed, doc_i = build_store(document, name, "minidb")
        plain, doc_p = build_store(document, name, "minidb")
        indexed.indexes.create(doc_i)

        answers, reads = {}, {}
        for store, doc in ((plain, doc_p), (indexed, doc_i)):
            with _engine_io(store) as io:
                answers[store] = [
                    _identities(store, xpath, doc) for xpath in queries
                ]
            reads[store] = io["rows_read"]
        mismatches = sum(
            got != want
            for got, want in zip(answers[indexed], answers[plain])
        )
        paths = sorted({
            indexed.translate(xpath, doc_i).access_path
            for xpath in queries
        })

        # The update burst, on sqlite twins: rows written are counted
        # by both engines, and minidb would spend most of the suite's
        # time in the rebuilds.
        maintain, doc_m = build_store(document, name)
        rebuild, doc_r = build_store(document, name)
        ops = plan_burst(maintain, doc_m)
        writes = {}
        for store, doc in ((maintain, doc_m), (rebuild, doc_r)):
            store.indexes.create(doc)
            before = store.backend.rows_written()
            run_burst(store, doc, ops, rebuild=store is rebuild)
            writes[store] = store.backend.rows_written() - before
        if index_rows(maintain, doc_m) != index_rows(rebuild, doc_r):
            mismatches += 1

        table.add_row(
            name,
            reads[plain],
            reads[indexed],
            round(reads[plain] / reads[indexed], 1),
            "+".join(paths),
            writes[maintain],
            writes[rebuild],
            round(writes[rebuild] / writes[maintain], 1),
            mismatches,
        )
    table.add_note(
        f"{products}-product catalogue, one pass of {len(queries)} "
        f"queries ({len(deep_queries)} deep descents, "
        f"{len(value_queries)} value predicates). Maintenance phase: "
        f"{burst_ops}-op structural burst at a store whose index the "
        "updates maintain vs one that also rebuilds it "
        "(`indexes.create`) after every op, index tables compared "
        "afterwards."
    )
    return table


#: The suite, in EXPERIMENTS.md order.
EXPERIMENTS = (
    run_e1_storage,
    run_e2_loading,
    run_e3_ordered_queries,
    run_e4_unordered_queries,
    run_e5_insert_position,
    run_e6_subtree_updates,
    run_e7_mixed_workload,
    run_e8_reconstruction,
    run_e9_translation,
    run_e10_sparse_numbering,
    run_e11_ordpath,
    run_e12_scaling,
    run_e16_adaptive_migration,
    run_e17_sharding,
    run_e18_indexing,
)


def run_all() -> list[ExperimentTable]:
    """Run the whole suite at its default sizes."""
    return [run() for run in EXPERIMENTS]
