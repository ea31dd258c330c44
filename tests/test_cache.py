"""Plan/catalog/result caching: per-document invalidation and satellites.

Covers the :mod:`repro.cache` layer itself (LRU mechanics, the
per-document key index, the refuse-stale-put race rule, doc-id reuse),
its wiring through :class:`XmlStore`, a store on a file, the index
manager and the migration engine (a write to one document drops that
document's entries and no other's; a commit that cannot name its write
set drops every document's; plans survive every write), the
deepening-insert regression (no plan depends on a document's depth, so
the plan compiled for the shallow document finds the deepened nodes),
the statement-verb ``rows_written``
classification, the slow-log short-circuit, and the multi-document
cache-twin mode of the differential fuzzer.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    counters,
    store_identities,
    stored_depth,
    stored_oracle_identities,
)
from repro.backends.base import is_write_statement
from repro.backends.sqlite_backend import SqliteBackend
from repro.cache import StoreCache
from repro.errors import StorageError
from repro.store import XmlStore
from repro.workload import (
    ORDERED_QUERIES,
    UNORDERED_QUERIES,
    article_corpus,
)

SHALLOW = "<r><a><b>x</b></a><a><b>y</b></a></r>"
DEEP_FRAGMENT = "<c><d><e><f>deep</f></e></d></c>"


def layer(store_or_cache, name: str) -> dict:
    cache = getattr(store_or_cache, "cache", store_or_cache)
    return cache.stats()["layers"][name]


def served_from_cache(store: XmlStore, xpath: str, doc: int) -> bool:
    """Run the query; True when the result layer answered it."""
    hits = layer(store, "result")["hits"]
    store.query(xpath, doc)
    return layer(store, "result")["hits"] == hits + 1


def catalog_cached(store: XmlStore, doc: int) -> bool:
    hits = layer(store, "catalog")["hits"]
    store.document_info(doc)
    return layer(store, "catalog")["hits"] == hits + 1


# -- the cache object itself ---------------------------------------------


def test_lru_eviction_and_counters():
    cache = StoreCache(plan_capacity=2)
    cache.put_plan("a", 1)
    cache.put_plan("b", 2)
    cache.put_plan("c", 3)  # evicts "a"
    assert cache.get_plan("a") is None
    assert cache.get_plan("b") == 2
    assert cache.get_plan("c") == 3
    stats = cache.stats()["layers"]["plan"]
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    assert stats["hits"] == 2 and stats["misses"] == 1


def test_result_key_index_stays_consistent_with_lru_eviction():
    """An evicted entry leaves its document's key index too: a later
    bump of that document counts (and drops) only live entries, and
    the bookkeeping does not grow past the layer's capacity."""
    cache = StoreCache(result_capacity=2)
    for n, doc in enumerate((1, 1, 2, 2, 1)):
        assert cache.put_result((doc, f"q{n}", None), n, cache.epoch(doc))
    # Live: (2, q3) and (1, q4); everything older was evicted.
    assert layer(cache, "result")["evictions"] == 3
    assert sum(len(k) for k in cache._result.keys_of.values()) == 2
    cache.bump([1])
    stats = layer(cache, "result")
    assert stats["invalidations"] == 1 and stats["size"] == 1
    assert cache.get_result((2, "q3", None)) == 3
    cache.bump([2])
    assert cache._result.keys_of == {} and not cache._result.entries


def test_bump_drops_the_written_documents_entries_only():
    cache = StoreCache()
    cache.bump([1, 2])  # both documents were loaded in this process
    cache.put_plan("p", 0)
    for doc in (1, 2):
        epoch = cache.epoch(doc)
        cache.put_catalog(doc, f"info{doc}", epoch)
        cache.put_result((doc, "//a", None), f"rows{doc}", epoch)
    untouched = cache.epoch(2)
    cache.bump([1])
    cache.bump([1])  # a second write to the same document
    assert cache.get_catalog(1) is None
    assert cache.get_result((1, "//a", None)) is None
    assert cache.get_catalog(2) == "info2"
    assert cache.get_result((2, "//a", None)) == "rows2"
    assert cache.get_plan("p") == 0, "plans carry no epoch"
    layers = cache.stats()["layers"]
    assert layers["plan"]["invalidations"] == 0
    assert layers["catalog"]["invalidations"] == 1
    assert layers["result"]["invalidations"] == 1
    # Document 2's epoch is intact: a reader that captured it before
    # the writes to document 1 may still put.
    assert cache.put_result((2, "//b", None), "late", untouched) is True


def test_bump_without_a_write_set_invalidates_every_document():
    cache = StoreCache()
    cache.put_plan("p", 0)
    captured = {}
    for doc in (1, 2):
        captured[doc] = cache.epoch(doc)
        cache.put_catalog(doc, "info", captured[doc])
        cache.put_result((doc, "//a", None), "rows", captured[doc])
    cache.bump()
    for doc in (1, 2):
        assert cache.get_catalog(doc) is None
        assert cache.get_result((doc, "//a", None)) is None
        assert cache.epoch(doc) != captured[doc]
        assert cache.put_result((doc, "//a", None), "x", captured[doc]) is False
    assert cache.get_plan("p") == 0
    assert cache.stats()["doc_epochs"] == 0  # nothing to remember


def test_put_with_stale_epoch_is_refused():
    """The read-during-write race: a value computed from pre-commit
    state arrives after the writer's bump and must not be stored — for
    the written document.  A reader of another document is unaffected."""
    cache = StoreCache()
    cache.bump([1, 2])  # both documents were loaded in this process
    reader_1, reader_2 = cache.epoch(1), cache.epoch(2)
    cache.bump([1])  # the "writer" commits to document 1
    assert cache.put_result((1, "//a", None), "stale", reader_1) is False
    assert cache.put_catalog(1, "stale", reader_1) is False
    assert cache.get_result((1, "//a", None)) is None
    assert cache.put_result((2, "//a", None), "fine", reader_2) is True
    # A put with the fresh epoch is accepted.
    assert cache.put_result((1, "//a", None), "fresh", cache.epoch(1)) is True
    assert cache.get_result((1, "//a", None)) == "fresh"


def test_forgotten_document_cannot_resurrect_a_stale_capture():
    """The ABA case on the cache object: whatever a reader captured
    for a document — an entry or the bare clock — stops matching at the
    document's next write, even once its bookkeeping was dropped and
    the id reused."""
    cache = StoreCache()
    never_written = cache.epoch(5)  # no entry: reads as the clock
    cache.bump([5])
    written = cache.epoch(5)
    assert written != never_written
    cache.bump([5])  # delete_document(5) commits ...
    cache.forget(5)  # ... and drops the bookkeeping
    assert cache.stats()["doc_epochs"] == 0
    for stale in (never_written, written):
        assert cache.put_result((5, "//a", None), "old doc", stale) is False
    cache.bump([5])  # a load reuses id 5
    for stale in (never_written, written):
        assert cache.put_result((5, "//a", None), "old doc", stale) is False
    assert cache.put_result((5, "//a", None), "new", cache.epoch(5)) is True


def test_clear_empties_every_layer_plans_included():
    cache = StoreCache()
    epoch = cache.epoch(1)
    cache.put_plan("p", 0)
    cache.put_catalog(1, "info", epoch)
    cache.put_result((1, "//a", None), "rows", epoch)
    cache.clear()
    assert all(v["size"] == 0 for v in cache.stats()["layers"].values())
    assert cache.put_result((1, "//a", None), "rows", epoch) is False


def test_disabled_cache_bump_is_inert():
    cache = StoreCache(enabled=False)
    before = cache.epoch(1)
    cache.bump([1])
    cache.bump()
    assert cache.epoch(1) == before
    assert cache.stats()["epoch"] == 0


def test_store_caches_unless_constructed_with_cache_false():
    assert XmlStore().cache.enabled is True
    assert XmlStore(cache=False).cache.enabled is False


# -- store wiring ---------------------------------------------------------


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_repeated_query_hits_every_layer(encoding):
    store = XmlStore(encoding=encoding, cache=True)
    doc = store.load(SHALLOW)
    first = [i.identity() for i in store.query("//b", doc)]
    second = [i.identity() for i in store.query("//b", doc)]
    assert first == second and len(first) == 2
    layers = store.cache.stats()["layers"]
    assert layers["result"]["hits"] >= 1
    # The second query was served from the result layer; the plan and
    # catalog layers were hit when the first query re-validated.
    store.translate("//b", doc)
    layers = store.cache.stats()["layers"]
    assert layers["plan"]["hits"] >= 1
    assert layers["catalog"]["hits"] >= 1


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_deepening_insert_returns_new_nodes(encoding, backend):
    """Regression: warm every cache layer, then insert a fragment
    deeper than any row it holds.  Local's ``//`` used to
    expand to exactly that depth and silently dropped the new nodes
    whenever the shallow plan was served again; its walk now recurses
    over the rows, and the plan warmed here is the one that finds
    them."""
    store = XmlStore(backend=backend, encoding=encoding, cache=True)
    doc = store.load(SHALLOW)
    old_depth = stored_depth(store, doc)
    # Warm: plans + results for the exact queries re-run below.
    assert store.query("//f", doc) == []
    assert store.query("//*", doc) != []
    store.query("/r/a/b/text()", doc)

    store.updates.insert(doc, 2, 0, DEEP_FRAGMENT)

    assert stored_depth(store, doc) > old_depth
    got = [i.value for i in store.query("//f", doc)]
    assert got == ["deep"], (
        f"{encoding}/{backend}: the warmed plan dropped the deepened "
        f"nodes: {got}"
    )
    # Byte-identical to a caching-off store replaying the same ops.
    twin = XmlStore(backend=backend, encoding=encoding, cache=False)
    twin_doc = twin.load(SHALLOW)
    twin.updates.insert(twin_doc, 2, 0, DEEP_FRAGMENT)
    for xpath in ("//f", "//*", "/r/a/b/text()", "//e/f/text()"):
        got = [(i.kind, i.node_id, i.label, i.value)
               for i in store.query(xpath, doc)]
        want = [(i.kind, i.node_id, i.label, i.value)
                for i in twin.query(xpath, twin_doc)]
        assert got == want, (encoding, backend, xpath)


def test_deepening_insert_is_served_by_the_plan_already_cached():
    """Depth is no part of the plan key: after a deepening insert the
    same Local plan object is served — shared, not recompiled — and it
    finds the deepened node."""
    store = XmlStore(encoding="local", cache=True)
    deepened = store.load(SHALLOW)
    shallow = store.load(SHALLOW)
    assert store.query("//f", deepened) == []
    plans = dict(store.cache._plan.entries)

    store.updates.insert(deepened, 2, 0, DEEP_FRAGMENT)

    with counters() as count:
        assert [i.value for i in store.query("//f", deepened)] == ["deep"]
        assert store.query("//f", shallow) == []
        assert count("translate.compile") == 0
        assert count("translate.plan_shared") == 2
    assert layer(store, "plan")["invalidations"] == 0
    after = store.cache._plan.entries
    assert after.keys() == plans.keys()
    assert all(after[key] is plan for key, plan in plans.items())


def _every_commit_path(store: XmlStore, doc: int):
    """(name, operation) for every committing operation on *doc* that
    names its write set; each leaves *doc* in place."""
    from repro.migrate import migrate_document

    updates, indexes = store.updates, store.indexes
    target = "global" if store.encoding.name != "global" else "dewey"
    return [
        ("insert", lambda: updates.insert(doc, 1, 0, "<z/>")),
        ("set_text", lambda: updates.set_text(doc, 2, "new")),
        ("rename", lambda: updates.rename(doc, 2, "aa")),
        ("set_attribute", lambda: updates.set_attribute(doc, 2, "k", "v")),
        ("delete", lambda: updates.delete(doc, 2)),
        ("index create", lambda: indexes.create(doc)),
        ("index drop", lambda: indexes.drop(doc)),
        ("rebalance", lambda: updates.rebalance(doc)),
        ("migration", lambda: migrate_document(store, doc, target)),
    ]


def test_every_update_kind_bumps_the_epoch():
    """Every commit path advances the epoch of the document it wrote,
    drops that document's result and catalogue entries, and leaves
    another document's entries (and every plan) where they were."""
    store = XmlStore(cache=True)
    written = store.load(SHALLOW)
    other = store.load(SHALLOW)
    other_epoch = store.cache.epoch(other)

    def warm() -> None:
        for doc in (written, other):
            store.query("//b", doc)
            store.document_info(doc)

    for name, operation in _every_commit_path(store, written):
        warm()
        before = store.cache.epoch(written)
        operation()
        assert store.cache.epoch(written) > before, name
        assert store.cache.epoch(other) == other_epoch, name
        assert catalog_cached(store, other), name
        assert served_from_cache(store, "//b", other), name
        assert not catalog_cached(store, written), name
        assert not served_from_cache(store, "//b", written), name
        assert layer(store, "plan")["invalidations"] == 0, name

    # load and delete_document name the document they create / remove.
    warm()
    third = store.load("<other/>")
    assert store.cache.epoch(third) > other_epoch
    assert served_from_cache(store, "//b", other)
    assert served_from_cache(store, "//b", written)
    store.delete_document(written)
    assert catalog_cached(store, other)
    assert served_from_cache(store, "//b", other)
    with pytest.raises(StorageError):
        store.query("//b", written)


@pytest.mark.parametrize("kind", ["raw-callable"])
def test_unknown_write_set_invalidates_store_wide(kind):
    """A commit that cannot name what it wrote falls back to dropping
    every document's results and catalogue rows — never fewer."""
    store = XmlStore(encoding="dewey", gap=4, cache=True)
    first = store.load(SHALLOW)
    second = store.load(SHALLOW)
    for doc in (first, second):
        store.query("//b", doc)
    plans = layer(store, "plan")["size"]
    store.transactionally(
        lambda: store.backend.execute(
            "UPDATE documents SET name = ? WHERE doc = ?",
            ("renamed", second),
        )
    )
    assert store.document_info(second).name == "renamed"
    for doc in (first, second):
        assert not served_from_cache(store, "//b", doc)
    assert layer(store, "plan")["size"] == plans
    assert layer(store, "plan")["invalidations"] == 0


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_a_warm_pass_compiles_nothing_and_shares_every_plan(encoding):
    """Plans are keyed on a query's shape, never on the document or a
    literal: a cold pass over the query mix compiles each query once,
    and a warm pass compiles none and binds each into the plan its
    shape already has."""
    store = XmlStore(encoding=encoding)
    doc = store.load(article_corpus(articles=4))
    queries = [q.xpath for q in ORDERED_QUERIES + UNORDERED_QUERIES]

    def compiled_and_shared() -> tuple[int, int]:
        with counters() as count:
            for xpath in queries:
                store.translate(xpath, doc)
            return count("translate.compile"), count("translate.plan_shared")

    store.cache.clear()
    assert compiled_and_shared() == (len(queries), 0)  # cold
    assert compiled_and_shared() == (0, len(queries))  # warm


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_a_warm_cached_pass_of_the_ordered_mix_runs_no_statement(encoding):
    """Once a caching store has answered the ordered mix, the result
    layer answers it again without a backend statement; an uncached
    store runs the mix's statements every time."""
    document = article_corpus(articles=4)
    statements = {}
    for cache in (True, False):
        store = XmlStore(encoding=encoding, cache=cache)
        doc = store.load(document)
        for query in ORDERED_QUERIES:
            store.query(query.xpath, doc)
        with counters() as count:
            for query in ORDERED_QUERIES:
                store.query(query.xpath, doc)
            statements[cache] = count("backend.statements")
    assert statements[True] == 0
    assert statements[False] >= len(ORDERED_QUERIES)


def test_plan_survives_a_write_and_is_not_recompiled():
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    store.query("//b", doc)
    with counters() as count:
        store.updates.insert(doc, 1, 0, "<b>z</b>")
        assert len(store.query("//b", doc)) == 3  # re-executed ...
        assert count("translate.compile") == 0  # ... from the old plan
        assert count("query.executed") == 1
    assert layer(store, "plan")["invalidations"] == 0


def test_rolled_back_transaction_invalidates_nothing():
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    store.query("//b", doc)
    epoch = store.cache.epoch(doc)

    def failing() -> None:
        store.updates.insert(doc, 1, 0, "<z/>")
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        store.transactionally(failing)
    assert store.cache.epoch(doc) == epoch
    assert served_from_cache(store, "//b", doc)
    assert store.query("//z", doc) == []


def test_a_rolled_back_write_set_does_not_reach_the_next_commit():
    """Only a transaction that commits contributes a write set: one
    that noted a document and then raised invalidates nothing, and the
    next commit starts from an empty write set."""
    store = XmlStore(cache=True)
    first = store.load(SHALLOW)
    second = store.load(SHALLOW)
    for doc in (first, second):
        store.query("//b", doc)

    def noted_then_failed() -> None:
        store.note_write(second)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        store.transactionally(noted_then_failed)
    assert served_from_cache(store, "//b", second)
    store.updates.insert(first, 1, 0, "<z/>")
    assert served_from_cache(store, "//b", second)
    assert not served_from_cache(store, "//b", first)


def test_delete_document_invalidates_cached_results():
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    assert len(store.query("//b", doc)) == 2
    assert store.cache.stats()["doc_epochs"] == 1
    store.delete_document(doc)
    with pytest.raises(StorageError):
        store.query("//b", doc)
    # Per-document bookkeeping goes with the document.
    assert store.cache.stats()["doc_epochs"] == 0
    assert layer(store, "catalog")["size"] == 0
    assert layer(store, "result")["size"] == 0


def test_doc_id_reuse_cannot_resurrect_a_result():
    """Document ids are reused (``MAX(doc) + 1``).  A reader that
    captured its epoch before the delete and puts after the id was
    re-loaded must be refused, or the new document would answer with
    the old one's nodes."""
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    key = (doc, "//b", None)
    slow_reader_epoch = store.cache.epoch(doc)
    slow_reader_rows = tuple(store.query("//b", doc))
    assert len(slow_reader_rows) == 2

    store.delete_document(doc)
    assert store.load("<r><b>only</b></r>") == doc  # the id is reused

    assert store.cache.put_result(
        key, slow_reader_rows, slow_reader_epoch
    ) is False
    assert [i.value for i in store.query("//b", doc)] == ["only"]


def test_result_cache_hands_out_fresh_lists():
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    first = store.query("//b", doc)
    first.clear()  # caller-side mutation must not poison the cache
    assert len(store.query("//b", doc)) == 2


def test_cache_off_store_caches_nothing():
    store = XmlStore(cache=False)
    doc = store.load(SHALLOW)
    store.query("//b", doc)
    store.query("//b", doc)
    stats = store.cache.stats()
    assert all(
        layer["size"] == 0 and layer["hits"] == 0
        for layer in stats["layers"].values()
    )


def test_pooled_commit_bumps_epoch(tmp_path):
    store = XmlStore(
        backend=SqliteBackend(str(tmp_path / "epoch.db")), cache=True
    )
    doc = store.load(SHALLOW)
    store.query("//b", doc)  # warm
    try:
        before = store.cache.epoch(doc)
        store.updates.insert(doc, 1, 0, "<z>q</z>")
        assert store.cache.epoch(doc) > before
        assert len(store.query("//z", doc)) == 1
    finally:
        store.close()


def test_one_commit_writing_two_documents_invalidates_both():
    """One transaction writing two documents drops both documents'
    entries by the time it returns; a third document the transaction
    did not write keeps its entries."""
    store = XmlStore(cache=True)
    docs = [store.load(SHALLOW) for _ in range(3)]
    for doc in docs:
        store.query("//b", doc)

    def cached() -> dict:
        return {
            doc: (doc, "//b", None) in store.cache._result.entries
            for doc in docs
        }

    def both() -> dict:
        for doc in docs[:2]:
            store.updates.insert(doc, 1, 0, "<b>n</b>")
        return cached()

    try:
        assert store.transactionally(both) == dict.fromkeys(docs, True)
        assert cached() == {docs[0]: False, docs[1]: False, docs[2]: True}
        assert len(store.query("//b", docs[0])) == 3
        assert served_from_cache(store, "//b", docs[2])
    finally:
        store.close()


def test_pooled_backend_concurrent_queries_stay_correct(tmp_path):
    """Readers on connections of their own share one cache; a writer's
    inserts must become visible to every thread's queries."""
    backend = SqliteBackend(str(tmp_path / "cache.db"))
    store = XmlStore(backend=backend, encoding="dewey", cache=True)
    doc = store.load(SHALLOW)
    errors: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            items = store.query("//b", doc)
            if not 2 <= len(items) <= 10:
                errors.append(f"saw {len(items)} <b> nodes")
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(8):
            store.updates.insert(doc, 1, 0, "<b>w</b>")
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors, errors
    assert len(store.query("//b", doc)) == 10
    store.close()


def test_concurrent_writers_to_other_documents_never_leave_a_stale_result(
    tmp_path,
):
    """Stress the shared per-document bookkeeping: more threads than
    cores, a shortened switch interval, each writer hammering its own
    document while readers cache all of them.  A lost or misdirected
    invalidation would leave a count behind the writer's."""
    import sys

    backend = SqliteBackend(str(tmp_path / "stress.db"))
    store = XmlStore(backend=backend, encoding="dewey", cache=True)
    docs = [store.load(SHALLOW) for _ in range(3)]
    inserts = 12
    errors: list[str] = []
    stop = threading.Event()

    def writer(doc: int) -> None:
        for n in range(inserts):
            store.updates.insert(doc, 1, 0, "<b>w</b>")
            seen = len(store.query("//b", doc))
            if seen != 3 + n:
                errors.append(f"doc {doc}: {seen} after {n + 1} inserts")
                return

    def reader() -> None:
        while not stop.is_set():
            for doc in docs:
                store.query("//b", doc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writers = [threading.Thread(target=writer, args=(d,)) for d in docs]
    readers = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for thread in (*readers, *writers):
            thread.start()
        for thread in writers:
            thread.join(60)
    finally:
        stop.set()
        for thread in readers:
            thread.join(60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (*writers, *readers))
    assert not errors, errors
    for doc in docs:
        assert len(store.query("//b", doc)) == 2 + inserts
    store.close()


# -- index presence lives under the per-document epoch ----------------------


def test_index_context_is_cached_per_document():
    """Whether a document is indexed is the one fact the planner takes
    from the index manager.  A write to A re-reads A's marker row and
    nothing of B's: B's next translation issues no backend statement
    at all."""
    store = XmlStore(cache=True)
    a = store.load(SHALLOW)
    b = store.load(SHALLOW)
    store.indexes.create(a)
    store.indexes.create(b)
    for doc in (a, b):
        store.translate("//b", doc)
    with counters() as count:
        store.updates.insert(a, 1, 0, "<b>z</b>")
        before = count("backend.statements")
        assert store.indexes.exists(b)
        store.translate("//b", b)
        assert count("backend.statements") == before, "B was reloaded"
        assert store.indexes.exists(a)
        assert count("backend.statements") == before + 1


def test_one_plan_serves_every_indexed_document_and_survives_writes():
    """The plan key is ``(encoding, shape, indexed)``: two indexed
    documents share one index plan, and no write to either — 40 of
    them here, past any refresh schedule — changes the key."""
    store = XmlStore(cache=True)
    a = store.load(SHALLOW)
    b = store.load(SHALLOW)
    store.indexes.create(a)
    store.indexes.create(b)
    with counters() as count:
        plans = [store.translate("//b[c = 'x']", doc) for doc in (a, b)]
        assert {p.access_path for p in plans} == {"value-index"}
        assert plans[0].sql == plans[1].sql
        assert count("translate.compile") == 1
        for n in range(40):
            store.updates.insert(a, 1, 0, f"<b><c>{n}</c></b>")
            assert len(store.query("//b[c = 'x']", a)) == 0
            assert len(store.query(f"//b[c = '{n}']", a)) == 1
        store.translate("//b[c = 'x']", b)
        assert count("translate.compile") == 1
        assert count("translate.plan_shared") >= 82


@pytest.mark.parametrize("number_first", (False, True))
@pytest.mark.parametrize("indexed", (False, True))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_a_string_and_a_number_literal_do_not_share_a_plan(
    encoding, backend, indexed, number_first
):
    """``[y = '1']`` compares text and ``[y = 1]`` numbers (on an
    indexed drive, ``leaf_text = ?`` against ``nval = ?``), so the two
    are different shapes: over ``<y>1.0</y>`` the first selects
    nothing and the second the ``x``, whichever runs first."""
    store = XmlStore(backend=backend, encoding=encoding)
    doc = store.load("<r><x><y>1.0</y></x></r>")
    if indexed:
        store.indexes.create(doc)
    for step in ("/r/x", "//x"):
        queries = [f"{step}[y = '1']", f"{step}[y = 1]"]
        if number_first:
            queries.reverse()
        for xpath in queries:
            assert store_identities(store, doc, xpath) == (
                stored_oracle_identities(store, doc, xpath)
            ), xpath
    assert store_identities(store, doc, "//x[y = 1]") != []


def test_deleted_document_leaves_no_cached_context():
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    store.indexes.create(doc)
    assert store.indexes.exists(doc)
    store.delete_document(doc)
    assert layer(store, "catalog")["size"] == 0
    reused = store.load(SHALLOW)
    assert reused == doc
    assert not store.indexes.exists(reused)  # not the old index's


# -- satellite: statement-verb write classification -----------------------


def test_is_write_statement_classifies_by_verb():
    assert is_write_statement("INSERT INTO t VALUES (1)")
    assert is_write_statement("  update t set x = 1")
    assert is_write_statement("DELETE FROM t")
    assert is_write_statement("REPLACE INTO t VALUES (1)")
    assert is_write_statement("-- comment\nINSERT INTO t VALUES (1)")
    assert not is_write_statement("SELECT * FROM t")
    assert not is_write_statement("CREATE TABLE t (x)")
    assert not is_write_statement("PRAGMA journal_mode=WAL")
    assert not is_write_statement("ANALYZE")
    assert not is_write_statement("-- only a comment")
    assert not is_write_statement("")


def test_rows_written_counts_dml_not_row_returning_reads(tmp_path):
    for backend in (
        SqliteBackend(),
        SqliteBackend(str(tmp_path / "w.db")),
    ):
        backend.execute("CREATE TABLE t (x INTEGER)")
        backend.execute("INSERT INTO t VALUES (1)")
        backend.execute("INSERT INTO t VALUES (2)")
        assert backend.rows_written() == 2
        # Reads never count, however many rows they produce.
        backend.execute("SELECT * FROM t")
        assert backend.rows_written() == 2
        # A row-producing write still counts (sqlite >= 3.35).
        import sqlite3

        if sqlite3.sqlite_version_info >= (3, 35):
            result = backend.execute(
                "UPDATE t SET x = x + 1 RETURNING x"
            )
            assert result.rows  # the old heuristic saw rows -> skipped
            assert backend.rows_written() == 4
        backend.close()


# -- the slow-query listing of `repro stats` ------------------------------


def _stats_out(tmp_path, capsys, *args: str) -> list[str]:
    from repro.cli import main

    source = tmp_path / "shallow.xml"
    source.write_text(SHALLOW)
    db = str(tmp_path / "store.db")
    assert main(["load", str(source), "--db", db]) == 0
    capsys.readouterr()
    assert main(["stats", "//b", "--db", db, *args]) == 0
    return capsys.readouterr().out.splitlines()


def test_slowlog_below_threshold_records_nothing(tmp_path, capsys):
    out = _stats_out(tmp_path, capsys, "--repeat", "5",
                     "--slow-ms", "10000")
    assert "slow queries (>= 10000 ms): none" in out
    assert not [line for line in out if line.startswith("slow query (")]


def test_slowlog_above_threshold_still_records_breakdown(tmp_path, capsys):
    out = _stats_out(tmp_path, capsys, "--repeat", "1", "--slow-ms", "0")
    heads = [line for line in out if line.startswith("slow query (")]
    assert len(heads) == 1
    assert heads[0].endswith(" ms) //b")
    phases = out[out.index(heads[0]) + 1]
    assert phases.startswith("  phases: ")
    assert "execute" in {
        part.split("=")[0]
        for part in phases[len("  phases: "):].split(", ")
    }


# -- the fuzzer's cache-twin mode -----------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_fuzz_cache_twin_fixed_seeds(backend):
    from repro.check import FuzzConfig, run_fuzz

    report = run_fuzz(FuzzConfig(
        seeds=2, ops=8, encodings=ALL_ENCODINGS,
        backends=(backend,), gaps=(1,), check_every=4,
        queries_per_check=3, cache_twin=True,
    ))
    assert report.ok(), "\n".join(str(f) for f in report.failures)


def _twin_battery(**overrides):
    from repro.check import FuzzConfig, run_fuzz

    settings = dict(
        seeds=3, ops=12, encodings=("local",), backends=("sqlite",),
        gaps=(1,), check_every=2, queries_per_check=3, cache_twin=True,
    )
    settings.update(overrides)
    return run_fuzz(FuzzConfig(**settings))


@pytest.mark.skip_audit
def test_fuzz_cache_twin_catches_missing_invalidation(monkeypatch):
    """Sanity check that the harness actually detects stale caches.

    Two seeded defects.  A store that never invalidates must fail the
    battery.  So must one that invalidates the *wrong document* —
    every commit bumps the store's first document instead of the one
    it wrote — which a twin holding a single document cannot see (its
    only document *is* the first), and the multi-document twin does.
    """
    from repro.check import fuzz

    # Stale state surfaces as a twin mismatch, an oracle divergence,
    # or an invariant violation (the audit reads the stale catalogue
    # row), depending on which check reaches it first.
    stale = {"cache-twin", "oracle", "invariant"}
    bump = StoreCache.bump

    with monkeypatch.context() as patch:
        patch.setattr(StoreCache, "bump", lambda self, docs=(): None)
        report = _twin_battery()
        assert {f.kind for f in report.failures} & stale, report.summary()

    with monkeypatch.context() as patch:
        patch.setattr(
            StoreCache, "bump",
            lambda self, docs=(): bump(self, [1] if docs else ()),
        )
        patch.setattr(fuzz, "TWIN_DOCUMENTS", 1)
        assert _twin_battery().ok(), "one document hides the defect"
        patch.setattr(fuzz, "TWIN_DOCUMENTS", 3)
        report = _twin_battery()
        assert {f.kind for f in report.failures} & stale, report.summary()
        assert any("document" in f.detail for f in report.failures)


# -- compiled-plan sharing and the put race --------------------------------


def test_plan_shared_across_documents_and_literals():
    """One compiled plan serves both documents and both literal values:
    the plan key is the query *shape* (dialect, encoding, shape, depth),
    with doc/context/literals bound as parameters afterwards."""
    with counters() as count:
        store = XmlStore(cache=True)
        d1 = store.load("<r><item id='a'/><item id='b'/></r>")
        d2 = store.load("<r><item id='a'/></r>")
        t1 = store.translate("//item[@id = 'a']", d1)
        t2 = store.translate("//item[@id = 'b']", d1)  # other literal
        t3 = store.translate("//item[@id = 'a']", d2)  # other document
        assert t1.sql == t2.sql == t3.sql
        assert t1.params != t2.params  # literals still bind correctly
        assert t1.params != t3.params  # and so does the document id
        layers = store.cache.stats()["layers"]
        assert layers["plan"]["misses"] == 1
        assert layers["plan"]["hits"] == 2
        assert count("translate.compile") == 1
        assert count("translate.plan_shared") == 2


@pytest.mark.skip_audit
@pytest.mark.parametrize("writer_hits", ["same-document", "another-document"])
def test_racing_put_result_is_refused_for_the_written_document_only(
    monkeypatch, writer_hits
):
    """The reader captures its document's epoch before touching the
    backend; a writer committing to that document mid-read (simulated
    by bumping inside the catalogue read) must keep the computed
    result out of the cache, while a writer committing to another
    document must not.  The plan compiled meanwhile is kept either
    way: it is right for its key whatever was committed."""
    store = XmlStore(cache=True)
    doc = store.load(SHALLOW)
    other = store.load(SHALLOW)
    original = XmlStore.document_info
    target = doc if writer_hits == "same-document" else other

    def racing_info(self, d, **kwargs):
        info = original(self, d, **kwargs)
        self.cache.bump([target])  # a concurrent writer commits
        return info

    monkeypatch.setattr(XmlStore, "document_info", racing_info)
    assert len(store.query("//b", doc)) == 2  # the read itself succeeds
    monkeypatch.setattr(XmlStore, "document_info", original)
    cached = (doc, "//b", None) in store.cache._result.entries
    assert cached == (writer_hits == "another-document")
    assert layer(store, "plan")["size"] == 1


@pytest.mark.skip_audit
def test_missed_invalidation_serves_the_stale_result(monkeypatch):
    """Negative control for the deepening-insert regression: with the
    bump disabled the result cached before the insert survives it, so
    the new deep nodes are dropped — proving the per-document bump, not
    the depth-free plan above it, is what keeps reads fresh."""
    monkeypatch.setattr(StoreCache, "bump", lambda self, docs=(): None)
    store = XmlStore(encoding="local", cache=True)
    doc = store.load(SHALLOW)
    assert store.query("//f", doc) == []  # warm plan + result layers

    store.updates.insert(doc, 2, 0, DEEP_FRAGMENT)

    got = [i.value for i in store.query("//f", doc)]
    assert got != ["deep"], (
        "bump disabled yet the deep nodes appeared — the "
        "missed-invalidation harness would no longer detect stale "
        "caches"
    )
