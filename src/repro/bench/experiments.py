"""The reconstructed evaluation: experiments E1-E18.

Each ``run_eN_*`` function executes one experiment and returns an
:class:`~repro.bench.harness.ExperimentTable`.  ``run_all`` executes the
whole suite (used by ``benchmarks/run_experiments.py`` to regenerate
EXPERIMENTS.md, and by ``repro experiments`` / ``repro bench``).  These
functions are the only implementation of E1-E18: DESIGN.md's experiment
index points at them by name.

Defaults are sized to finish in seconds on a laptop while preserving the
paper's comparative shapes; every function takes size parameters for
larger runs.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bench.harness import (
    ENCODING_NAMES,
    ExperimentTable,
    build_store,
    timed,
)
from repro.core.dewey import DeweyKey
from repro.core.shredder import shred
from repro.core.translator import make_translator
from repro.errors import TranslationError
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

#: Abstract per-node order-label sizes (bytes), for E1: integers cost 4.
_INT_BYTES = 4


# ---------------------------------------------------------------------------
# E1: storage
# ---------------------------------------------------------------------------


def run_e1_storage(
    sizes: Sequence[int] = (1000, 5000, 20000),
) -> ExperimentTable:
    """Rows and order-label bytes per encoding across document sizes."""
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
    dewey_text = None
    document = sized_article_corpus(sizes[0])
    shredded = shred(document)
    dewey_text = sum(
        len(str(DeweyKey(node.dewey))) for node in shredded.nodes
    ) / shredded.node_count()
    table.add_note(
        f"dotted-text Dewey keys would average {dewey_text:.1f} bytes/node "
        "at the smallest size; the binary codec is the practical choice"
    )
    return table


# ---------------------------------------------------------------------------
# E2: loading
# ---------------------------------------------------------------------------


def run_e2_loading(
    sizes: Sequence[int] = (1000, 5000),
    backend: str = "sqlite",
    repeat: int = 3,
) -> ExperimentTable:
    """Shred + bulk-load time per encoding."""
    table = ExperimentTable(
        "E2",
        f"Loading time ({backend})",
        ("nodes", "encoding", "load ms"),
    )
    for target in sizes:
        document = sized_article_corpus(target)
        n = document_stats(document)["nodes"]
        for name in ENCODING_NAMES:
            seconds = timed(
                lambda: build_store(document, name, backend), repeat
            )
            table.add_row(n, name, round(seconds * 1000, 2))
    return table


# ---------------------------------------------------------------------------
# E3/E4: query performance
# ---------------------------------------------------------------------------


def _query_experiment(
    table_id: str,
    title: str,
    queries,
    articles: int,
    backend: str,
    repeat: int,
) -> ExperimentTable:
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        table_id,
        title,
        ("query", "feature", "results",
         *(f"{n} ms" for n in ENCODING_NAMES)),
    )
    stores = {
        name: build_store(document, name, backend)
        for name in ENCODING_NAMES
    }
    for query in queries:
        cells = []
        count = None
        for name in ENCODING_NAMES:
            store, doc = stores[name]
            try:
                count = len(store.query(query.xpath, doc))
                seconds = timed(
                    lambda: store.query(query.xpath, doc), repeat
                )
                cells.append(round(seconds * 1000, 2))
            except TranslationError:
                cells.append("n/a")
        table.add_row(query.id, query.feature, count, *cells)
    return table


def run_e3_ordered_queries(
    articles: int = 20, backend: str = "sqlite", repeat: int = 3
) -> ExperimentTable:
    """Ordered query suite Q1-Q8 across encodings."""
    table = _query_experiment(
        "E3",
        f"Ordered query performance ({backend})",
        ORDERED_QUERIES,
        articles,
        backend,
        repeat,
    )
    table.add_note(
        "Local Q7/Q8 before its closure axes became recursive walks, "
        "i.e. what SQL-92-style depth expansion costs on this document "
        "(sqlite, articles=20): 17.39 ms and 188 ms"
    )
    return table


def run_e4_unordered_queries(
    articles: int = 20, backend: str = "sqlite", repeat: int = 3
) -> ExperimentTable:
    """Unordered query suite U1-U4 across encodings."""
    return _query_experiment(
        "E4",
        f"Unordered query performance ({backend})",
        UNORDERED_QUERIES,
        articles,
        backend,
        repeat,
    )


# ---------------------------------------------------------------------------
# E5: insert position sweep
# ---------------------------------------------------------------------------


def run_e5_insert_position(
    articles: int = 30,
    inserts: int = 20,
    backend: str = "sqlite",
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
        ("encoding", "scope", "position", "inserts", "rows relabeled",
         "ms total"),
    )
    for name in ENCODING_NAMES:
        for scope_name, scope_xpath in scopes:
            for where in ("first", "middle", "last"):
                store, doc = build_store(document, name, backend)
                workload = UpdateWorkload(store, doc)
                parent_id = store.query(scope_xpath, doc)[0].node_id
                started = time.perf_counter()
                stream = workload.insert_stream(
                    parent_id, where, inserts, payload_nodes=2
                )
                elapsed = time.perf_counter() - started
                table.add_row(
                    name, scope_name, where, stream.operations,
                    stream.relabeled, round(elapsed * 1000, 2),
                )
    return table


# ---------------------------------------------------------------------------
# E6: subtree insert / delete
# ---------------------------------------------------------------------------


def run_e6_subtree_updates(
    articles: int = 30,
    operations: int = 10,
    backend: str = "sqlite",
) -> ExperimentTable:
    """Insert and delete multi-node subtrees in the document middle."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E6",
        "Subtree insert / delete",
        ("encoding", "operation", "ops", "rows touched", "ms total"),
    )
    for name in ENCODING_NAMES:
        store, doc = build_store(document, name, backend)
        workload = UpdateWorkload(store, doc)
        root_id = store.query("/journal", doc)[0].node_id
        started = time.perf_counter()
        stream_relabeled = 0
        inserted = 0
        for _ in range(operations):
            report = workload.insert_at(
                root_id, "middle", payload_nodes=10, tag="article"
            )
            stream_relabeled += report.relabeled
            inserted += report.inserted
        insert_elapsed = time.perf_counter() - started
        table.add_row(
            name, "insert subtree", operations,
            stream_relabeled + inserted,
            round(insert_elapsed * 1000, 2),
        )

        started = time.perf_counter()
        deleted = 0
        for _ in range(operations):
            report = workload.delete_random("/journal/article")
            if report is not None:
                deleted += report.deleted
        delete_elapsed = time.perf_counter() - started
        table.add_row(
            name, "delete subtree", operations, deleted,
            round(delete_elapsed * 1000, 2),
        )
    return table


# ---------------------------------------------------------------------------
# E7: mixed workload crossover
# ---------------------------------------------------------------------------


def run_e7_mixed_workload(
    articles: int = 20,
    operations: int = 120,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    backend: str = "sqlite",
) -> ExperimentTable:
    """Total time vs. update fraction: the paper's headline trade-off."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E7",
        "Mixed workload: total seconds vs. update fraction",
        ("update %", *(f"{n} s" for n in ENCODING_NAMES), "winner"),
    )
    for fraction in fractions:
        cells = {}
        for name in ENCODING_NAMES:
            store, doc = build_store(document, name, backend)
            mix = MixedWorkload(
                store, doc, ORDERED_QUERIES + UNORDERED_QUERIES,
                insert_parent_xpath="/journal/article/section[1]",
            )
            result = mix.run(operations, fraction)
            cells[name] = result.total_seconds
        winner = min(cells, key=cells.get)
        table.add_row(
            int(fraction * 100),
            *(round(cells[n], 3) for n in ENCODING_NAMES),
            winner,
        )
    return table


# ---------------------------------------------------------------------------
# E8: reconstruction
# ---------------------------------------------------------------------------


def run_e8_reconstruction(
    articles: int = 40, backend: str = "sqlite", repeat: int = 3
) -> ExperimentTable:
    """Full-document and subtree reconstruction time."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E8",
        "Reconstruction time",
        ("encoding", "scope", "nodes", "ms"),
    )
    for name in ENCODING_NAMES:
        store, doc = build_store(document, name, backend)
        total = store.node_count(doc)
        seconds = timed(lambda: store.reconstruct(doc), repeat)
        table.add_row(name, "full document", total,
                      round(seconds * 1000, 2))
        target = store.query(
            f"/journal/article[{articles // 2}]", doc
        )[0].node_id
        subtree_nodes = 1 + len(
            store.query(
                f"/journal/article[{articles // 2}]/descendant-or-self::node()",
                doc,
            )
        )
        seconds = timed(
            lambda: store.reconstruct_subtree(doc, target), repeat
        )
        table.add_row(name, "one article subtree", subtree_nodes,
                      round(seconds * 1000, 2))
    return table


# ---------------------------------------------------------------------------
# E9: translation complexity (static)
# ---------------------------------------------------------------------------


def run_e9_translation() -> ExperimentTable:
    """Static SQL complexity per query class per encoding."""
    table = ExperimentTable(
        "E9",
        "Translation complexity (joins + subqueries + recursions)",
        ("query", "feature",
         *(f"{n} ops" for n in ENCODING_NAMES)),
    )
    for query in ORDERED_QUERIES + UNORDERED_QUERIES:
        cells = []
        for name in ENCODING_NAMES:
            translator = make_translator(name)
            try:
                translated = translator.translate(query.xpath, doc=1)
                cells.append(
                    translated.stats.total_relational_operations()
                )
            except TranslationError:
                cells.append("n/a")
        table.add_row(query.id, query.feature, *cells)
    table.add_note(
        "Local's closure axes are one recursive walk each (two nested "
        "for following/preceding) whatever the document's depth; the "
        "SQL-92-style expansion they replaced counted one arm per level "
        "instead (Q7/Q8: 12 ops at depth 6, growing linearly with depth)"
    )
    return table


def run_e9b_compile_cache(
    articles: int = 8,
    repeat: int = 20,
    backend: str = "sqlite",
) -> ExperimentTable:
    """Dynamic translation cost: cold compile vs warm shape-keyed plans.

    Cold runs pay parse + shape extraction + AST compilation for every
    query; warm runs hit the plan cache and only bind
    document/context/literal parameters into the compiled plan.
    """
    from repro.store import _parse_and_extract

    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E9b",
        "Translation cost: cold compile vs warm shape-keyed plan cache",
        ("encoding", "queries", "cold ms", "warm ms", "speedup"),
    )
    for name in ENCODING_NAMES:
        store = XmlStore(backend=backend, encoding=name, cache=True)
        doc = store.load(document)
        queries = []
        for query in ORDERED_QUERIES + UNORDERED_QUERIES:
            try:
                store.translate(query.xpath, doc)
            except TranslationError:
                continue
            queries.append(query.xpath)

        def run_batch() -> None:
            for xpath in queries:
                store.translate(xpath, doc)

        def run_cold() -> None:
            # Drop the process-wide shape cache and this store's plan
            # cache so every translation compiles from scratch.
            _parse_and_extract.cache_clear()
            store.cache.clear()
            run_batch()

        cold = timed(run_cold, repeat)
        run_batch()  # ensure the plan cache is warm
        warm = timed(run_batch, repeat)
        table.add_row(
            name, len(queries),
            round(cold * 1000, 3), round(warm * 1000, 3),
            round(cold / max(warm, 1e-9), 1),
        )
    table.add_note(
        "Plans are keyed on query shape (encoding, XPath shape, context "
        "kind, indexed) — never on document id, depth or literal values — so "
        "warm translations skip parsing and compilation entirely"
    )
    return table


# ---------------------------------------------------------------------------
# E10: sparse vs dense numbering
# ---------------------------------------------------------------------------


def run_e10_sparse_numbering(
    articles: int = 20,
    inserts: int = 40,
    gaps: Sequence[int] = (1, 16, 256),
    backend: str = "sqlite",
) -> ExperimentTable:
    """Repeated middle insertions under different gap factors."""
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E10",
        "Sparse numbering: relabeled rows over an insert burst",
        ("encoding", "gap", "inserts", "rows relabeled", "ms total"),
    )
    for name in ENCODING_NAMES:
        for gap in gaps:
            store, doc = build_store(document, name, backend, gap=gap)
            workload = UpdateWorkload(store, doc)
            root_id = store.query("/journal", doc)[0].node_id
            started = time.perf_counter()
            stream = workload.insert_stream(
                root_id, "middle", inserts, payload_nodes=2
            )
            elapsed = time.perf_counter() - started
            table.add_row(
                name, gap, inserts, stream.relabeled,
                round(elapsed * 1000, 2),
            )
    return table


# ---------------------------------------------------------------------------
# E11 (extension): Dewey vs. ORDPATH under adversarial insertion
# ---------------------------------------------------------------------------


def run_e11_ordpath(
    articles: int = 12,
    inserts: int = 30,
    backend: str = "sqlite",
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
        ("encoding", "inserts", "rows relabeled", "ms total",
         "avg key bytes", "max key bytes", "query Q5 ms"),
    )
    for name in ("dewey", "ordpath"):
        store, doc = build_store(document, name, backend)
        workload = UpdateWorkload(store, doc)
        root_id = store.query("/journal", doc)[0].node_id
        started = time.perf_counter()
        relabeled = 0
        for _ in range(inserts):
            relabeled += workload.insert_at(root_id, "middle").relabeled
        elapsed = time.perf_counter() - started
        column = store.encoding.sibling_order_column
        lengths = [
            len(row[0])
            for row in store.backend.execute(
                f"SELECT {column} FROM {store.node_table} "
                f"WHERE doc = ?",
                (doc,),
            ).rows
        ]
        query = ORDERED_QUERIES[4]  # Q5: following-sibling
        query_seconds = timed(
            lambda: store.query(query.xpath, doc), 3
        )
        table.add_row(
            name, inserts, relabeled, round(elapsed * 1000, 2),
            round(sum(lengths) / len(lengths), 2), max(lengths),
            round(query_seconds * 1000, 2),
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
    sizes: Sequence[int] = (500, 2000, 8000),
    backend: str = "sqlite",
    repeat: int = 3,
) -> ExperimentTable:
    """Query latency vs. document size for three representative queries.

    U2 (descendant scan) grows with result size for everyone; Q5
    (sibling axis) stays cheap; Q7 (document-order axis) separates the
    encodings — Local walks up from every candidate.
    """
    table = ExperimentTable(
        "E12",
        "Scaling: query ms vs. document size",
        ("nodes", "query", *(f"{n} ms" for n in ENCODING_NAMES)),
    )
    probes = {
        "U2 //para": "//para",
        "Q5 sibling": "/journal/article/section[1]"
                      "/following-sibling::section",
        "Q7 following": "/journal/article[3]/following::author",
    }
    for target in sizes:
        document = sized_article_corpus(target)
        stores = {
            name: build_store(document, name, backend)
            for name in ENCODING_NAMES
        }
        n = stores["global"][0].node_count(stores["global"][1])
        for label, xpath in probes.items():
            cells = []
            for name in ENCODING_NAMES:
                store, doc = stores[name]
                seconds = timed(lambda: store.query(xpath, doc), repeat)
                cells.append(round(seconds * 1000, 2))
            table.add_row(n, label, *cells)
    return table


# ---------------------------------------------------------------------------
# E13: logical I/O (engine-independent cost)
# ---------------------------------------------------------------------------


def run_e13_logical_io(articles: int = 10) -> ExperimentTable:
    """Rows read per query, per encoding, on the minidb engine.

    Wall-clock numbers depend on Python and the host; *rows touched* is
    the engine-independent unit the paper's analysis reasons in.  The
    minidb executor counts every row fetched from a table (via index or
    scan), giving the logical-I/O profile of each translation.
    """
    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E13",
        "Logical I/O: rows read per query (minidb counters)",
        ("query", "feature",
         *(f"{n} rows" for n in ENCODING_NAMES)),
    )
    stores = {
        name: build_store(document, name, "minidb")
        for name in ENCODING_NAMES
    }
    for query in ORDERED_QUERIES + UNORDERED_QUERIES:
        cells = []
        for name in ENCODING_NAMES:
            store, doc = stores[name]
            engine = store.backend.db  # type: ignore[attr-defined]
            engine.reset_stats()
            try:
                store.query(query.xpath, doc)
                cells.append(engine.stats.rows_read)
            except TranslationError:
                cells.append("n/a")
        table.add_row(query.id, query.feature, *cells)
    table.add_note(
        "counts include index-assisted fetches and the client-side "
        "order-resolution fetches Local needs"
    )
    table.add_note(
        "Local Q7/Q8 under SQL-92-style depth expansion, before its "
        "closure axes became recursive walks (articles=10): 49,672 and "
        "110,890 rows"
    )
    return table


# ---------------------------------------------------------------------------
# E14: concurrent serving (pooled connections vs serialized sharing)
# ---------------------------------------------------------------------------


def run_e14_concurrency(
    articles: int = 60,
    reader_counts: Sequence[int] = (1, 2, 4, 8),
    seconds: float = 0.4,
    encoding: str = "global",
) -> ExperimentTable:
    """Reader throughput with one writer active: pooled vs serialized.

    Both modes run the byte-identical pre-translated statement stream
    against the same file-backed sqlite database.  *serialized* is the
    legacy shared connection, whose lock is held from BEGIN to COMMIT
    of every update transaction — readers stall whenever the writer is
    in one.  *pooled* gives each reader thread its own WAL connection
    and funnels the writer through the single-writer group-commit
    queue, so reads proceed during writes.

    The writer front-inserts under the Global encoding, the paper's
    relabeling worst case: every insert shifts the whole document tail
    in bulk UPDATE statements, so each write transaction holds the
    serialized lock for a long engine-side window.  That makes the
    separation lock-hold time, not core count — it shows up even on a
    single-CPU host.  Every run is followed by a full invariant audit.
    """
    import tempfile

    from repro.backends.pooled_sqlite import PooledSqliteBackend
    from repro.backends.sqlite_backend import SqliteBackend
    from repro.check import audit_store
    from repro.workload.mixer import ConcurrentWorkload

    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E14",
        "Concurrent serving: reader ops/s with one writer active",
        ("mode", "readers", "read ops/s", "write ops/s",
         "vs serialized", "violations"),
    )
    baseline: dict[int, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-e14-") as tmp:
        for mode in ("serialized", "pooled"):
            if mode == "pooled":
                backend: object = PooledSqliteBackend(
                    f"{tmp}/pooled.db",
                    capacity=max(reader_counts) + 2,
                )
            else:
                backend = SqliteBackend(f"{tmp}/serialized.db")
            store = XmlStore(backend=backend, encoding=encoding)
            try:
                doc = store.load(document)
                if mode == "pooled":
                    store.enable_write_queue()
                workload = ConcurrentWorkload(
                    store, doc,
                    ORDERED_QUERIES + UNORDERED_QUERIES,
                    insert_parent_xpath="/journal",
                    writer_position="front",
                )
                for readers in reader_counts:
                    result = workload.run(readers, seconds, writer=True)
                    if result.read_errors or result.write_error:
                        raise RuntimeError(
                            f"E14 {mode}/{readers} worker failure: "
                            f"{result.read_errors or result.write_error}"
                        )
                    violations = len(audit_store(store))
                    if mode == "serialized":
                        baseline[readers] = result.read_ops_per_second
                        ratio = 1.0
                    else:
                        ratio = result.read_ops_per_second / max(
                            baseline.get(readers, 0.0), 1e-9
                        )
                    table.add_row(
                        mode, readers,
                        round(result.read_ops_per_second, 1),
                        round(result.write_ops_per_second, 1),
                        round(ratio, 2),
                        violations,
                    )
            finally:
                store.close()
    table.add_note(
        "writer front-inserts fragments (Global's relabeling worst "
        "case) throughout; 'vs serialized' compares read throughput "
        "at equal reader count against the shared-connection baseline"
    )
    return table


# ---------------------------------------------------------------------------
# E15: plan/result caching (extension beyond the paper)
# ---------------------------------------------------------------------------


def run_e15_cache(
    articles: int = 12,
    repeat: int = 30,
    operations: int = 24,
    backend: str = "sqlite",
) -> ExperimentTable:
    """Repeated-query throughput cached vs. uncached, plus a mixed
    update/query correctness check against the uncached store.

    The throughput half re-runs the E3 ordered query mix ``repeat``
    times against a warm cache and against a caching-off store of the
    same corpus.  The correctness half replays a seeded E7-style
    interleaving of updates and the full query mix on both stores
    simultaneously and counts result mismatches (must be zero: every
    update invalidates its document's catalogue row and results, so
    the caching store may never serve a pre-update depth or result).
    """
    import random

    from repro.check.fuzz import apply_operation, plan_operation

    document = article_corpus(articles=articles)
    table = ExperimentTable(
        "E15",
        "Plan/result caching: repeated E3 mix, cached vs uncached",
        ("encoding", "uncached q/s", "cached q/s", "speedup",
         "hit rate %", "mixed mismatches"),
    )

    def run_mix(store: XmlStore, doc: int) -> int:
        answered = 0
        for query in ORDERED_QUERIES:
            try:
                store.query(query.xpath, doc)
                answered += 1
            except TranslationError:
                pass
        return answered

    for name in (*ENCODING_NAMES, "ordpath"):
        cached = XmlStore(backend=backend, encoding=name, cache=True)
        uncached = XmlStore(backend=backend, encoding=name, cache=False)
        doc_c = cached.load(document)
        doc_u = uncached.load(document)

        run_mix(cached, doc_c)  # steady state: warm every cache layer
        rates = {}
        for store, doc in ((uncached, doc_u), (cached, doc_c)):
            answered = 0
            started = time.perf_counter()
            for _ in range(repeat):
                answered += run_mix(store, doc)
            elapsed = time.perf_counter() - started
            rates[store] = answered / elapsed if elapsed > 0 else 0.0

        mismatches = 0
        rng = random.Random(151_515)
        for _ in range(operations):
            op = plan_operation(rng, cached, doc_c)
            apply_operation(cached, doc_c, op)
            apply_operation(uncached, doc_u, op)
            for query in ORDERED_QUERIES:
                try:
                    got = [
                        (i.kind, i.node_id, i.label, i.value)
                        for i in cached.query(query.xpath, doc_c)
                    ]
                    want = [
                        (i.kind, i.node_id, i.label, i.value)
                        for i in uncached.query(query.xpath, doc_u)
                    ]
                except TranslationError:
                    continue
                if got != want:
                    mismatches += 1

        speedup = (
            rates[cached] / rates[uncached] if rates[uncached] else 0.0
        )
        table.add_row(
            name,
            round(rates[uncached], 1),
            round(rates[cached], 1),
            round(speedup, 2),
            round(100.0 * cached.cache.hit_rate(), 1),
            mismatches,
        )
        cached.close()
        uncached.close()
    table.add_note(
        f"{repeat} steady-state passes of the ordered mix; mixed check "
        f"interleaves {operations} seeded updates with the full mix on "
        f"both stores."
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
    backend: str = "sqlite",
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
    from repro.obs import METRICS

    document = article_corpus(articles=articles)
    queries = [
        q
        for q in ORDERED_QUERIES + UNORDERED_QUERIES
        if q.local_translatable
    ]
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

    def counters() -> dict:
        return dict(METRICS.snapshot()["counters"])

    def rows_between(before: dict, after: dict) -> int:
        return sum(
            after.get(name, 0) - before.get(name, 0)
            for name in ("backend.rows_read", "backend.rows_written")
        )

    def run_strategy(label: str, adaptive: bool) -> tuple:
        encoding = "global" if adaptive else label
        store, doc = build_store(document, encoding, backend)
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
            before = counters()
            mix.run(ops, fraction)
            after = counters()
            key = "query-heavy" if slice_name == "query-heavy" else "update"
            phase_rows[key] += rows_between(before, after)
            if not adaptive:
                continue
            window = {
                "counters": {
                    "query.executed": after.get("query.executed", 0)
                    - before.get("query.executed", 0),
                    "updates.renumber_ops": after.get(
                        "updates.renumber_ops", 0
                    )
                    - before.get("updates.renumber_ops", 0),
                }
            }
            current = store.encoding_for(doc).name
            recommendation = advisor.decide(window, current)
            if recommendation.migrate:
                mark = counters()
                migrate_document(store, doc, recommendation.target)
                migration_rows += rows_between(mark, counters())
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

    # Direct callers may have metrics off; the deltas need them on.
    # No reset: under ``_observed`` the registry is shared with the
    # suite-level snapshot this experiment will be reported with.
    was_enabled = METRICS.enabled
    METRICS.enabled = True
    try:
        totals = {}
        for name in ENCODING_NAMES:
            cells = run_strategy(name, adaptive=False)
            totals[name] = cells[3]
            table.add_row(name, *cells)
        cells = run_strategy("adaptive", adaptive=True)
        totals["adaptive"] = cells[3]
        table.add_row("adaptive", *cells)
    finally:
        METRICS.enabled = was_enabled
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


#: The same experiment at the parent of the per-document invalidation
#: change (PR 11: every commit dropped every cached result of its
#: store), same box, same sizes — kept beside the live table because
#: the 1-shard row is what that change moved.
_E17_BEFORE = (
    "Before per-document invalidation this run read 500 / 882 / 1255 "
    "ops/s at 1 / 2 / 4 shards (p50 3.41 / 2.17 / 1.75 ms): the 2.5x "
    "was one write flushing a whole store's results, which a single "
    "process no longer does."
)


def run_e17_sharding(
    shard_counts: Sequence[int] = (1, 2, 4),
    documents: int = 8,
    clients: int = 3,
    duration: float = 4.0,
    write_rate_hz: float = 20.0,
) -> ExperimentTable:
    """Sharded serving vs. a single-process daemon under a mixed load.

    Each configuration stands up a real cluster (``repro serve``
    machinery: supervisor, shard worker processes, asyncio front door)
    and drives it with the closed-loop multi-process load generator:
    *clients* reader processes drawing random (query, document) pairs,
    plus one paced writer spreading ``write_rate_hz`` updates
    round-robin across the corpus.

    What this measures has changed.  While every commit dropped every
    cached result of its store, the table showed ~2.5x at 4 shards on
    one box — cache-invalidation isolation, not CPU parallelism: with
    one shard each 20 Hz write flushed the whole corpus's cached
    results, with four only its own quarter's.  A commit now
    invalidates only the documents it wrote, so the single process
    keeps every unwritten document's results live by itself and that
    gap is gone (see the table's note for the before/after rows).
    What sharding still buys — fault isolation (``repro crashtest
    --shard-kill``) and room to scale across cores — is not a
    read-throughput ratio a 2-core box running three reader processes
    can show.  The 1-shard row *is* the single-process baseline: same
    wire protocol, same worker code, all documents in one store.
    """
    import tempfile

    from repro.serve.client import TcpClient
    from repro.serve.frontdoor import ServeConfig, ServeDaemon
    from repro.serve.loadgen import run_load
    from repro.workload.docgen import random_document
    from repro.xmldom import serialize

    queries = [
        "//a[b/c]//d",
        "//b[text() < 3]",
        "//*[b][c]//a",
        "//d[a/b]",
    ]
    corpus = [
        serialize(random_document(s, max_depth=10, max_children=6))
        for s in range(documents)
    ]

    table = ExperimentTable(
        "E17",
        "Sharded serving: aggregate read throughput under paced writes",
        (
            "shards",
            "read ops/s",
            "speedup vs 1 shard",
            "p50 ms",
            "p99 ms",
            "writes",
            "read errors",
        ),
    )

    baseline = None
    for shards in shard_counts:
        with tempfile.TemporaryDirectory(prefix="e17-") as tmp:
            daemon = ServeDaemon(ServeConfig(directory=tmp, shards=shards))
            try:
                port = daemon.start_in_background()
                setup = TcpClient("127.0.0.1", port)
                try:
                    docs = [setup.load(xml) for xml in corpus]
                finally:
                    setup.close()
                report = run_load(
                    "127.0.0.1",
                    port,
                    docs,
                    queries,
                    clients=clients,
                    duration=duration,
                    write_rate_hz=write_rate_hz,
                )
            finally:
                daemon.stop()
        if baseline is None:
            baseline = report.read_ops_s or 1.0
        table.add_row(
            shards,
            round(report.read_ops_s, 1),
            round(report.read_ops_s / baseline, 2),
            round(report.p50_ms, 3),
            round(report.p99_ms, 3),
            report.writes,
            report.read_errors,
        )
    table.add_note(
        f"{clients} closed-loop reader processes x {duration}s, paced "
        f"writer at {write_rate_hz:.0f} Hz round-robin over "
        f"{documents} documents; 2-core box.  {_E17_BEFORE}"
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
    where a pathid probe beats per-step structural joins.
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


def run_e18_indexing(
    products: int = 480,
    repeat: int = 4,
    backends: Sequence[str] = ("sqlite", "minidb"),
) -> ExperimentTable:
    """Deep descent and value predicates, indexed vs. unindexed.

    Two stores per (backend, encoding) cell hold the same data-centric
    catalogue; one builds the secondary indexes (path, value) after
    the load, the other never does.  The query mix is exactly the
    workload the indexes target: selective deep ``//`` descents that
    the path index answers with a pathid probe instead of per-step
    structural joins, and value predicates that the value index
    answers with a typed-column probe instead of a string-value
    aggregation over every candidate.

    Both stores keep their plan/catalog caches (translation overhead
    would otherwise swamp execution for the fast encodings) but run
    with the result cache disabled, so every pass executes its plan —
    the comparison isolates the access path, not result caching (E15
    measures that).  Each cell also byte-compares the two stores'
    answers on the full mix: the index rewrite must be
    answer-preserving, so mismatches must be zero.

    An update-heavy phase then bursts structural updates (text
    rewrites plus subtree inserts) at two *indexed* twins of the same
    document — one left to the maintenance every update performs
    (repair from the op's touched set), the baseline arm rebuilding
    every occurrence row with an explicit ``indexes.create`` after
    every op — timing both and byte-comparing their index tables
    afterwards.  Repair cost tracks the touched rows, not the
    document, so maintaining must beat rebuilding after every op by at
    least 2x on a large document (any table divergence counts into
    the mismatches column).
    """
    from repro.cache import StoreCache

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
        "Secondary indexes: deep // and value predicates, "
        "indexed vs unindexed",
        ("backend", "encoding", "unindexed q/s", "indexed q/s",
         "speedup", "access paths", "incr upd/s", "rebuild upd/s",
         "maint speedup", "mismatches"),
    )

    def run_mix(store: XmlStore, doc: int) -> int:
        answered = 0
        for xpath in queries:
            store.query(xpath, doc)
            answered += 1
        return answered

    #: Update burst of the maintenance phase: op k rewrites the text
    #: of a product's first child, every third op inserts a review
    #: subtree instead.  Expressed against surrogate ids, which both
    #: twins assign identically.
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
    ) -> float:
        started = time.perf_counter()
        for op in ops:
            if op[0] == "insert":
                store.updates.insert(doc, op[1], 0, op[2])
            else:
                store.updates.set_text(doc, op[1], op[2])
            if rebuild:
                store.indexes.create(doc)
        return time.perf_counter() - started

    def index_tables(store: XmlStore, doc: int) -> tuple:
        return tuple(
            tuple(sorted(store.backend.execute(
                f"SELECT * FROM {t} WHERE doc = ?", (doc,)
            ).rows))
            for t in ("idx_sval", "idx_paths", "idx_pathmap", "idx_stats")
        )

    for backend in backends:
        for name in (*ENCODING_NAMES, "ordpath"):
            indexed = XmlStore(backend=backend, encoding=name)
            plain = XmlStore(backend=backend, encoding=name)
            for store in (indexed, plain):
                # Plan/catalog caches on, result cache off (capacity
                # 0: every insert immediately evicts).
                store.cache = StoreCache(
                    enabled=True, result_capacity=0
                )
            doc_i = indexed.load(document)
            doc_p = plain.load(document)
            indexed.indexes.create(doc_i)
            # The load's ANALYZE ran before the index rows existed.
            indexed.backend.analyze()

            mismatches = 0
            for xpath in queries:
                got = [
                    (i.kind, i.node_id, i.label, i.value)
                    for i in indexed.query(xpath, doc_i)
                ]
                want = [
                    (i.kind, i.node_id, i.label, i.value)
                    for i in plain.query(xpath, doc_p)
                ]
                if got != want:
                    mismatches += 1

            rates = {}
            for store, doc in ((plain, doc_p), (indexed, doc_i)):
                answered = 0
                started = time.perf_counter()
                for _ in range(repeat):
                    answered += run_mix(store, doc)
                elapsed = time.perf_counter() - started
                rates[store] = answered / elapsed if elapsed else 0.0

            paths = sorted({
                indexed.translate(xpath, doc_i).access_path
                for xpath in queries
            })
            speedup = (
                rates[indexed] / rates[plain] if rates[plain] else 0.0
            )

            # Update-heavy phase: identical burst at two indexed
            # twins, one rebuilt after every op, then byte-compare
            # the tables.
            incr = XmlStore(backend=backend, encoding=name)
            eager = XmlStore(backend=backend, encoding=name)
            for store in (incr, eager):
                store.cache = StoreCache(enabled=True, result_capacity=0)
            doc_n = incr.load(document)
            doc_e = eager.load(document)
            for store, doc in ((incr, doc_n), (eager, doc_e)):
                store.indexes.create(doc)
                store.backend.analyze()
            ops = plan_burst(incr, doc_n)
            incr_elapsed = run_burst(incr, doc_n, ops, rebuild=False)
            eager_elapsed = run_burst(eager, doc_e, ops, rebuild=True)
            if index_tables(incr, doc_n) != index_tables(eager, doc_e):
                mismatches += 1
            incr_rate = (
                burst_ops / incr_elapsed if incr_elapsed else 0.0
            )
            eager_rate = (
                burst_ops / eager_elapsed if eager_elapsed else 0.0
            )
            maint_speedup = (
                incr_rate / eager_rate if eager_rate else 0.0
            )

            table.add_row(
                backend,
                name,
                round(rates[plain], 1),
                round(rates[indexed], 1),
                round(speedup, 2),
                "+".join(paths),
                round(incr_rate, 1),
                round(eager_rate, 1),
                round(maint_speedup, 2),
                mismatches,
            )
            indexed.close()
            plain.close()
            incr.close()
            eager.close()
    table.add_note(
        f"{products}-product catalogue, {repeat} passes of "
        f"{len(queries)} queries ({len(deep_queries)} deep descents, "
        f"{len(value_queries)} value predicates); result caching off "
        "on both stores so the comparison isolates the access path. "
        f"Maintenance phase: {burst_ops}-op structural burst at a twin "
        "whose index the updates maintain vs a twin that also rebuilds "
        "it (`indexes.create`) after every op — so the ratio reads "
        "1 + rebuild/repair — index tables byte-compared "
        "afterwards."
    )
    return table


def _observed(run) -> ExperimentTable:
    """Run one experiment with metrics enabled; attach the snapshot.

    Every experiment runs with the metrics registry on and freshly
    reset, so its table carries the wall-clock time, the per-phase span
    totals (``span.*`` histograms, in ms), and the full counter
    snapshot — the raw material for the per-phase breakdown in
    ``BENCH_results.json``.
    """
    from repro.obs import METRICS

    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    started = time.perf_counter()
    try:
        table = run()
    finally:
        METRICS.enabled = was_enabled
    table.elapsed_seconds = time.perf_counter() - started
    snapshot = METRICS.snapshot()
    METRICS.reset()
    table.metrics = snapshot
    table.phase_ms = {
        name[len("span."):]: round(hist["total"] * 1000.0, 3)
        for name, hist in snapshot["histograms"].items()
        if name.startswith("span.")
    }
    return table


def run_all(fast: bool = False) -> list[ExperimentTable]:
    """Run the full experiment suite (smaller sizes when *fast*)."""
    if fast:
        runs = [
            lambda: run_e1_storage(sizes=(500, 2000)),
            lambda: run_e2_loading(sizes=(500,), repeat=1),
            lambda: run_e3_ordered_queries(articles=8, repeat=1),
            lambda: run_e4_unordered_queries(articles=8, repeat=1),
            lambda: run_e5_insert_position(articles=10, inserts=5),
            lambda: run_e6_subtree_updates(articles=10, operations=4),
            lambda: run_e7_mixed_workload(
                articles=8, operations=30, fractions=(0.0, 0.5, 1.0)
            ),
            lambda: run_e8_reconstruction(articles=10, repeat=1),
            lambda: run_e9_translation(),
            lambda: run_e9b_compile_cache(articles=4, repeat=5),
            lambda: run_e10_sparse_numbering(articles=8, inserts=10),
            lambda: run_e11_ordpath(articles=6, inserts=10),
            lambda: run_e12_scaling(sizes=(300, 1000), repeat=1),
            lambda: run_e13_logical_io(articles=4),
            lambda: run_e14_concurrency(
                reader_counts=(1, 8), seconds=0.25
            ),
            lambda: run_e15_cache(articles=6, repeat=12, operations=8),
            lambda: run_e16_adaptive_migration(
                articles=3, query_ops=120, update_ops=48, probe_ops=4
            ),
            lambda: run_e17_sharding(
                shard_counts=(1, 4), duration=2.5
            ),
            lambda: run_e18_indexing(products=240, repeat=2),
        ]
    else:
        runs = [
            run_e1_storage,
            run_e2_loading,
            run_e3_ordered_queries,
            run_e4_unordered_queries,
            run_e5_insert_position,
            run_e6_subtree_updates,
            run_e7_mixed_workload,
            run_e8_reconstruction,
            run_e9_translation,
            run_e9b_compile_cache,
            run_e10_sparse_numbering,
            run_e11_ordpath,
            run_e12_scaling,
            run_e13_logical_io,
            run_e14_concurrency,
            run_e15_cache,
            run_e16_adaptive_migration,
            run_e17_sharding,
            run_e18_indexing,
        ]
    return [_observed(run) for run in runs]
