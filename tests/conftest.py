"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.core.reconstruct import reconstruct_document_with_ids
from repro.minidb import engine as minidb_engine
from repro.minidb.executor import Compiler
from repro.obs import METRICS
from repro.store import XmlStore
from repro.xmldom import Document, parse
from repro.xpath import AttributeNode, Evaluator

# Tier-1's verdict is a function of the commit: the same examples on
# every run, and no example database carried from an earlier run.  The
# nightly job explores instead (``--hypothesis-profile=explore``; the
# flag is applied after this file loads, so it wins).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("tier1")

#: The paper's three encodings (cost-shape tests assert their ordering).
ENCODINGS = ("global", "local", "dewey")
#: Including the ORDPATH extension (correctness tests cover all four).
ALL_ENCODINGS = (*ENCODINGS, "ordpath")
BACKENDS = ("sqlite", "minidb")

BIB_XML = (
    '<bib><book year="1994"><title>TCP/IP Illustrated</title>'
    "<author>Stevens</author><price>65.95</price></book>"
    '<book year="2000"><title>Data on the Web</title>'
    "<author>Abiteboul</author><author>Buneman</author>"
    "<author>Suciu</author><price>39.95</price></book>"
    '<book year="1999"><title>Economics</title>'
    "<author>Smith</author><price>10</price></book></bib>"
)


def node_ids(document: Document) -> dict[int, int]:
    """Map ``id(dom node) -> shredded surrogate id`` (preorder, 1-based).

    The shredder assigns ids in preorder starting at 1, so a parallel
    preorder walk of the DOM yields the same numbering.
    """
    return {
        id(node): index + 1
        for index, node in enumerate(document.iter_preorder())
    }


def oracle_identities(document: Document, xpath: str) -> list[tuple]:
    """Evaluate *xpath* natively; return store-comparable identities."""
    ids = node_ids(document)
    evaluator = Evaluator(document)
    out = []
    for node in evaluator.evaluate(xpath):
        if isinstance(node, AttributeNode):
            out.append(("attribute", ids[id(node.owner)], node.name))
        else:
            # The document node itself has no row; it maps to id 0 (such
            # queries are untranslatable, so the value is never compared
            # — it only keeps this helper total).
            out.append(("node", ids.get(id(node), 0)))
    return out


def stored_oracle_identities(
    store: XmlStore, doc: int, xpath: str
) -> list[tuple]:
    """*xpath* by the native evaluator over the document *store* holds
    now, with the store's node ids (the tree is rebuilt by
    ``ordered_rows``, which sorts by the stored rows alone)."""
    tree, id_map = reconstruct_document_with_ids(store, doc)
    return [
        ("attribute", id_map[id(node.owner)], node.name)
        if isinstance(node, AttributeNode) else ("node", id_map[id(node)])
        for node in Evaluator(tree).evaluate(xpath)
    ]


def store_identities(store: XmlStore, doc: int, xpath: str) -> list[tuple]:
    """Run *xpath* through the store; return comparable identities."""
    return [item.identity() for item in store.query(xpath, doc)]


def assert_query_matches_oracle(
    store: XmlStore, doc: int, document: Document, xpath: str
) -> None:
    got = store_identities(store, doc, xpath)
    want = oracle_identities(document, xpath)
    assert got == want, (
        f"{store.encoding.name}/{store.backend.name} {xpath!r}: "
        f"got {got}, want {want}"
    )


def stored_depth(store: XmlStore, doc: int) -> int:
    """The depth of *doc*'s deepest stored row: ``MAX(depth)`` over its
    node table."""
    return store.backend.execute(
        f"SELECT MAX(depth) FROM {store.node_table_for(doc)} WHERE doc = ?",
        (doc,),
    ).rows[0][0]


@contextmanager
def counters():
    """Enable the metrics registry; yields a name -> count reader."""
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    try:
        yield lambda name: METRICS.snapshot()["counters"].get(name, 0)
    finally:
        METRICS.enabled = was_enabled
        METRICS.reset()


def statement_log(store) -> list[str]:
    """Record the SQL text of every statement *store*'s backend runs."""
    log: list[str] = []
    backend = store.backend
    execute, executemany = backend.execute, backend.executemany

    def logged_execute(sql, params=()):
        log.append(sql)
        return execute(sql, params)

    def logged_executemany(sql, rows):
        log.append(sql)
        return executemany(sql, rows)

    backend.execute = logged_execute
    backend.executemany = logged_executemany
    return log


@pytest.fixture(autouse=True)
def _audit_created_stores(request, monkeypatch):
    """Audit every store a test created, once the test finishes.

    Tracks :class:`XmlStore` construction for the duration of the test
    and runs the full invariant auditor over each store at teardown, so
    any update path that corrupts an encoding fails the test that drove
    it even if its own assertions were weaker.  Mark a test
    ``@pytest.mark.skip_audit`` when it deliberately corrupts a store.
    Documents above the row cap are skipped to keep stress tests cheap.
    """
    if request.node.get_closest_marker("skip_audit"):
        yield
        return
    created: list[XmlStore] = []
    original_init = XmlStore.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(XmlStore, "__init__", tracking_init)
    yield
    from repro.check import audit_store

    problems: list[str] = []
    for store in created:
        try:
            store.documents()
        except Exception:
            continue  # backend closed or made unusable by the test
        violations = audit_store(store, max_rows_per_doc=3000)
        if violations:
            listing = "\n  ".join(str(v) for v in violations)
            problems.append(
                f"{store.encoding.name}/{store.backend.name}: "
                f"{len(violations)} violation(s):\n  {listing}"
            )
    if problems:
        pytest.fail(
            "post-test invariant audit failed:\n" + "\n".join(problems)
        )


@pytest.fixture
def bib_document() -> Document:
    return parse(BIB_XML)


@pytest.fixture(params=ALL_ENCODINGS)
def encoding(request) -> str:
    return request.param


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


@pytest.fixture
def bib_store(encoding, bib_document):
    """A sqlite-backed store per encoding, loaded with the bib document."""
    store = XmlStore(backend="sqlite", encoding=encoding)
    doc = store.load(bib_document)
    return store, doc, bib_document


@pytest.fixture
def minidb_work(monkeypatch) -> Counter:
    """Counts what minidb's two statement caches exist to avoid:
    ``"parse"`` — ``parse_sql`` calls made by the engine; ``"compile"`` —
    top-level ``compile_select`` calls (a subquery's nested compile is
    part of its statement's).  Deterministic, so tests assert exact
    counts instead of timing anything."""
    work: Counter = Counter()
    real_parse = minidb_engine.parse_sql
    real_compile = Compiler.compile_select
    depth = 0

    def parse_sql(sql):
        work["parse"] += 1
        return real_parse(sql)

    def compile_select(self, select, outer=None):
        nonlocal depth
        if depth == 0:
            work["compile"] += 1
        depth += 1
        try:
            return real_compile(self, select, outer)
        finally:
            depth -= 1

    monkeypatch.setattr(minidb_engine, "parse_sql", parse_sql)
    monkeypatch.setattr(Compiler, "compile_select", compile_select)
    return work
