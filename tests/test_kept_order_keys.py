"""Local's kept parent pointers: a warm read sorts without a fetch, a
walk fetches no node an earlier read kept, and no write leaves a
pointer behind that the next read could sort by.

A caching store keeps the ``(parent id, lpos)`` of each node a Local
client-order walk read or fetched in the store cache's keys layer, per
document, until the next write to that document.  The write-then-read
cases below each change sibling positions (or the document behind an
id) under pointers an earlier read kept; the query pool that runs after
every write mixes reads that add some pointers with reads that climb
through all of them, so a pointer the write left behind shows as a
wrong order.
"""

from __future__ import annotations

import pytest

from repro.migrate import migrate_document
from repro.store import XmlStore
from repro.workload.docgen import sized_article_corpus

from tests.conftest import BACKENDS, counters, stored_oracle_identities

#: Two sibling lists the writes below move, under one more level.
DOCUMENT = (
    "<r><s><x><g/><g/></x><y><g/></y></s>"
    "<t><g/><u><g/></u></t></r>"
)

#: Reads that walk a few chains (and so add their pointers) before
#: reads that climb through every kept pointer.  The first walks the
#: two newest of the ``n`` elements the writes insert before ``y`` only.
POOL = (
    "/r/s/n[position() <= 2]/g",
    "/r/s/y/g",
    "/r/s/*/g",
    "//y/g | //t/g",
    "/r/s/*[last()]/g | /r/t/u/g",
    "//g",
    "/r/*/*",
    "//*",
    "//g/..",
)


def assert_pool_matches(store: XmlStore, doc: int, when: str) -> None:
    for xpath in POOL:
        got = [item.identity() for item in store.query(xpath, doc)]
        want = stored_oracle_identities(store, doc, xpath)
        assert got == want, (when, xpath)


def node(store: XmlStore, doc: int, xpath: str) -> int:
    return store.query(xpath, doc)[0].node_id


def loaded(backend: str) -> tuple[XmlStore, int]:
    store = XmlStore(backend=backend, encoding="local")
    doc = store.load(DOCUMENT)
    assert_pool_matches(store, doc, "load")
    return store, doc


def spread(store: XmlStore, doc: int) -> None:
    """Three inserts between ``x`` and ``y``, each halving the gap: the
    lpos values stop being multiples of the gap, so a relabel moves
    them."""
    s = node(store, doc, "/r/s")
    for i in range(3):
        store.updates.insert(doc, s, 1, f"<n><g/><m{i}/></n>")
        assert_pool_matches(store, doc, f"spread {i}")


def sibling_shift(store: XmlStore, doc: int) -> None:
    # At gap 256 eight inserts at one index halve the gap down to 1;
    # the ninth finds no free lpos and shifts its following siblings.
    s = node(store, doc, "/r/s")
    relabeled = []
    for i in range(9):
        relabeled.append(
            store.updates.insert(doc, s, 1, "<n><g/></n>").relabeled
        )
        assert_pool_matches(store, doc, f"insert {i}")
    assert relabeled == [0] * 8 + [9]


def delete(store: XmlStore, doc: int) -> None:
    spread(store, doc)
    store.updates.delete(doc, node(store, doc, "/r/s/x"))


def rebalance(store: XmlStore, doc: int) -> None:
    spread(store, doc)
    store.updates.rebalance(doc)


def migrate_away_and_back(store: XmlStore, doc: int) -> None:
    spread(store, doc)
    migrate_document(store, doc, "global")
    assert_pool_matches(store, doc, "migrated to global")
    migrate_document(store, doc, "local")


WRITES = {
    "sibling-shift": sibling_shift,
    "delete": delete,
    "rebalance": rebalance,
    "migrate-away-and-back": migrate_away_and_back,
}


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_next_read_after_a_write_sorts_as_the_oracle(backend, write):
    store, doc = loaded(backend)
    WRITES[write](store, doc)
    assert_pool_matches(store, doc, write)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_reused_document_id_keeps_none_of_the_old_keys(backend):
    store, doc = loaded(backend)
    store.delete_document(doc)
    # The same tags, but the ids sit in other places of the tree, with
    # other sibling positions.
    reused = store.load(
        "<r><t><u><g/></u><g/></t>"
        "<s><y><g/></y><x><g/><g/></x><k/></s></r>"
    )
    assert reused == doc
    assert_pool_matches(store, reused, "reused id")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_warm_local_read_runs_one_statement(backend):
    document = sized_article_corpus(1114)
    store = XmlStore(backend=backend, encoding="local")
    doc = store.load(document)
    cold = "/journal/article/section[2]/para[1]"
    warm = "/journal/article/section[2]/para[2]"
    store.query(cold, doc)
    with counters() as count:
        items = store.query(warm, doc)
        assert count("backend.statements") == 1
    assert len({item.node_id for item in items}) > 1
    got = [item.identity() for item in items]
    assert got == stored_oracle_identities(store, doc, warm)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_walk_fetches_no_node_an_earlier_read_kept(backend):
    """``…/para[1]`` after ``…/para[2]``: the first read keeps the
    parent pointers of its rows and of the sections and articles above
    them, so the second fetches only the heads that neither its rows
    nor the kept pointers hold."""
    document = sized_article_corpus(1114)
    store = XmlStore(backend=backend, encoding="local")
    doc = store.load(document)
    fetched: list[int] = []
    execute = store.backend.execute

    def recording(sql, params=()):
        if sql.startswith("SELECT id, parent, lpos "):
            fetched.extend(params[1:])
        return execute(sql, params)

    store.backend.execute = recording
    first = "/journal/article/section[2]/para[2]"
    second = "/journal/article/section[2]/para[1]"
    held = {item.node_id for item in store.query(first, doc)} | set(fetched)
    fetched.clear()
    items = store.query(second, doc)
    assert fetched and held.isdisjoint(fetched)
    got = [item.identity() for item in items]
    assert got == stored_oracle_identities(store, doc, second)
