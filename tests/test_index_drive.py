"""A step from the document reads its candidates from the index that
answers its predicate — against the oracle, on every backend × encoding.

``//x[@a = 'v']`` reads the attribute index ``(doc, name, value)`` and
joins the node table by id, on every document; ``//x[y <op> v]`` reads
the parents of the matching ``y`` from the value index ``idx_sval`` on
an indexed document: the leaves by their stored value, ``UNION`` the
``y`` with an element child by their aggregated string-value.  Either
join takes the place of the conjunct's ``EXISTS``.  A step counted by
``count()`` keeps its ``EXISTS``; so do a step with a context,
``not()``, ``or``, ``!=``, a numeric attribute comparison and a bare
``[@a]``.

Every case runs on a plain store and on an indexed twin, before and
after ``set_attribute``, ``set_text`` and ``delete``; the oracle is the
in-memory evaluator over the document the store reconstructs.
"""

import re

import pytest

from repro.core.reconstruct import reconstruct_document_with_ids
from repro.store import XmlStore
from repro.xmldom import parse
from repro.xpath import AttributeNode, Evaluator
from tests.conftest import ALL_ENCODINGS, BACKENDS, stored_oracle_identities

XML = (
    "<lib>"
    '<shelf no="1">'
    '<book id="b1" lang="en"><title>Alpha</title><price>5</price></book>'
    '<book id="b2" lang="fr"><title>Beta</title><price>12</price>'
    "<price>5</price></book>"
    "<book id=\"b3\" lang=\"it's\"><title>Gamma</title><price>n/a</price>"
    "</book>"
    "</shelf>"
    '<shelf no="2">'
    "<book id='q\"x' lang=\"\"><title>Delta</title><price>7.5</price>"
    '<note id="b1">same id, another tag</note></book>'
    '<book id="ünï日本" lang="en"><title>Épsilon</title><title/></book>'
    "<x><y>1</y><y>1</y></x><x><y>1</y><y>2</y></x><x><y>2</y></x>"
    "</shelf>"
    "</lib>"
)

#: Shapes whose first step the index drives.
DRIVEN = (
    "//book[@id = 'b1']",
    "//*[@id = 'b1']",
    "//book['en' = @lang]/title",
    "//book[@lang = 'en']//title",
    "//shelf[@no = '2']//y",
    "//book[@lang = 'en']/@id",
    "//book[@lang = 'en' and price]",
    "//book[price and @lang = 'en' and title = 'Alpha']",
    "//book[1][@lang = 'en']",
    "//book[@lang = 'fr'][price > 10]/title",
    "//book[@lang = 'en']/title | //*[@id = 'b1']",
    "//shelf[//book[@id = 'b2']]/@no",
    "/lib/shelf[//*[@id = 'b3']]",
    "//book[@lang = \"it's\"]/title",
    "//book[@id = 'q\"x']/note",
    "//book[@lang = '']",
    "//book[@id = 'ünï日本']/title",
    "//book[@id = 'missing']",
    "//descendant-or-self::book[@lang = 'en']",
    # the value index, on the indexed twin
    "//book[price = 5]/@id",
    "//book[price = '5']",
    "//book[5 = price]",
    "//book[price < 10]/title",
    "//book[price >= 7.5]",
    "//book[price > 12]",
    "//book[title = 'Beta']",
    "//book[title = 'Épsilon']",
    "//book[title = '']",
    "//x[y = '1']",
    "//x[y = 1]/y",
    "//x[y = '1'] | //x[y = '2']",
    "//*[y = 2]",
    "/lib[count(//book[@lang = 'en']) = 2]",
)

#: Shapes that keep the per-candidate EXISTS.
NOT_DRIVEN = (
    "//book[not(@lang = 'en')]",
    "//book[@lang = 'en' or @id = 'b3']",
    "//book[@lang != 'en']",
    "//shelf[@no < 2]",
    "//shelf[@no = 2]",
    "//book[@lang]",
    "//book[price]",
    "//book[price != 5]",
    "//book[price < '10']",
    "//book[@* = 'en']",
    "/lib/shelf/book[@lang = 'en']",
    "/lib/shelf[2]//book[@lang = 'en']",
    "/lib[count(//x[y = '1']) = 2]",
    "/lib[count(//x[y = 1]) = 2]",
    "/lib[count(//x[y = '1']/y) = 4]",
    "/lib[count(//x[y = '1']) > 2]",
)

QUERIES = DRIVEN + NOT_DRIVEN

#: Relative paths, run from every shelf as the context node.
RELATIVE = (
    ".//book[@lang = 'en']",
    ".//book[price < 10]",
    "book[@id = 'b1']/title",
)


def oracle(store: XmlStore, doc: int) -> dict:
    """Every query's answer on the document *store* holds now."""
    tree, id_map = reconstruct_document_with_ids(store, doc)
    evaluator = Evaluator(tree)

    def identities(nodes) -> list[tuple]:
        return [
            ("attribute", id_map[id(n.owner)], n.name)
            if isinstance(n, AttributeNode)
            else ("node", id_map[id(n)])
            for n in nodes
        ]

    out = {xpath: identities(evaluator.evaluate(xpath)) for xpath in QUERIES}
    for node in evaluator.evaluate("//shelf"):
        shelf = id_map[id(node)]
        for xpath in RELATIVE:
            out[(shelf, xpath)] = identities(
                evaluator.evaluate(xpath, context=node)
            )
    return out


def answers(store: XmlStore, doc: int, keys) -> dict:
    out = {}
    for key in keys:
        if isinstance(key, tuple):
            shelf, xpath = key
            items = store.query(xpath, doc, context_id=shelf)
        else:
            items = store.query(key, doc)
        out[key] = [item.identity() for item in items]
    return out


def updates(store: XmlStore, doc: int) -> None:
    """The same edits on any store loaded from :data:`XML`."""

    def first(xpath: str) -> int:
        return store.query(xpath, doc)[0].node_id

    b2 = first("//book[@id = 'b2']")
    store.updates.set_attribute(doc, b2, "lang", "en")
    b3 = first("//book[title = 'Gamma']")
    store.updates.set_attribute(doc, b3, "id", None)
    store.updates.set_attribute(doc, b3, "lang", "")
    store.updates.set_text(doc, first("//book[@id = 'b1']/price"), "11")
    store.updates.set_text(doc, first("//x[y = '2']/y"), "1")
    store.updates.delete(doc, first("//book[title = 'Delta']"))


def _cell(backend: str, encoding: str, indexed: bool, xml: str = XML):
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    doc = store.load(parse(xml))
    if indexed:
        store.indexes.create(doc)
    return store, doc


@pytest.mark.parametrize("indexed", (False, True), ids=("plain", "indexed"))
@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_answers_match_the_oracle_before_and_after_updates(
    backend, encoding, indexed
):
    store, doc = _cell(backend, encoding, indexed)
    try:
        for state in ("loaded", "updated"):
            if state == "updated":
                updates(store, doc)
            want = oracle(store, doc)
            got = answers(store, doc, want)
            wrong = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
            assert not wrong, f"{state}: {wrong}"
    finally:
        store.close()


def test_the_cases_have_answers():
    """Most cases select something, and the count cases are the ones
    a driven count would get wrong: ``//x[y = '1']`` holds an ``x``
    with two matching ``y`` children."""
    store, doc = _cell("sqlite", "dewey", indexed=False)
    want = oracle(store, doc)
    empty = [x for x in QUERIES if not want[x]]
    assert len(empty) <= 6, empty
    assert want["/lib[count(//x[y = '1']) = 2]"]
    assert want["/lib[count(//x[y = '1']/y) = 4]"]
    assert not want["/lib[count(//x[y = '1']) > 2]"]


#: An index joined in a FROM list, not probed by an EXISTS: the
#: attribute table, or the value index's parents as a derived table.
DRIVING = re.compile(
    r"FROM attr_[a-z]+ n\d+, "
    r"|FROM \(SELECT n\d+\.parent AS parent FROM idx_sval "
)


def reads_the_index_first(sql: str, table: str) -> bool:
    """Is the first FROM item of *sql* the attribute *table*, or, for
    ``idx_sval``, the derived table whose first arm reads it?"""
    first = sql.split(" FROM ", 2)
    if table != "idx_sval":
        return first[1].startswith(table)
    return first[1].startswith("(SELECT ") and first[2].startswith(table)


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_the_index_alias_comes_first_and_replaces_the_exists(encoding):
    store, doc = _cell("sqlite", encoding, indexed=True)
    for xpath in ("//*[@id = 'b1']", "//book[@lang = 'en']/title",
                  "//book[price < 10]", "//x[y = '1']"):
        plan = store.translate(xpath, doc)
        table = "idx_sval" if "@" not in xpath else (
            store.encoding.attr_table.name
        )
        assert reads_the_index_first(plan.sql, table), xpath
        assert DRIVING.search(plan.sql), xpath
        assert "EXISTS" not in plan.sql, xpath
        if table == "idx_sval":
            assert plan.access_path == "value-index"


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_the_other_shapes_keep_their_exists(encoding):
    store, doc = _cell("sqlite", encoding, indexed=True)
    for xpath in NOT_DRIVEN:
        sql = store.translate(xpath, doc).sql
        assert not DRIVING.search(sql) and "EXISTS" in sql, xpath
    for xpath in RELATIVE:
        sql = store.translate(xpath, doc, context_id=1).sql
        assert not DRIVING.search(sql), xpath


def test_an_unindexed_document_keeps_the_value_exists():
    store, doc = _cell("minidb", "global", indexed=False)
    plan = store.translate("//x[y = '1']", doc)
    assert plan.access_path == "scan"
    assert "idx_sval" not in plan.sql and "EXISTS" in plan.sql



#: Mixed content: most ``y`` that match have element children, so their
#: ``idx_sval`` rows hold NULL and only the value index's second arm,
#: which aggregates, finds them.
MIXED_XML = (
    "<r>"
    "<x><y>li<b>t</b></y></x>"
    "<x><y>lit</y></x>"
    "<x><y>1<i>2</i></y><y>z</y></x>"
    "<x><y><z>7</z></y></x>"
    "<x><y>7<!--c-->5</y></x>"
    "<x><y>abc<q/></y></x>"
    "<x><w>lit</w></x>"
    "</r>"
)

MIXED_QUERIES = (
    "/r/x[y = 'lit']",
    "/r/x[y != 'lit']",
    "/r/x[y < 13]",
    "/r/x[y != 12]",
    "/r/x[contains(y, 'it')]",
    "//x[y = 'lit']",
    "//x[y < 13]",
)


def mixed_updates(store: XmlStore, doc: int) -> None:
    """A leaf ``y`` gains an element child, a composite one loses its
    last, and a ``z`` below one is rewritten."""
    first = store.query("/r/x[2]/y", doc)[0].node_id
    store.updates.append(doc, first, "<e/>")
    bold = store.query("/r/x[1]/y/b", doc)[0].node_id
    store.updates.delete(doc, bold)
    z = store.query("/r/x[4]/y/z", doc)[0].node_id
    store.updates.set_text(doc, z, "12")


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_elements_with_element_children_answer_through_the_index(
    backend, encoding
):
    """Indexed, unindexed and the oracle agree on value predicates whose
    matching ``y`` has element children, before and after updates that
    move a ``y`` between the index's two arms."""
    stores = {indexed: _cell(backend, encoding, indexed, MIXED_XML)
              for indexed in (False, True)}
    try:
        for state in ("loaded", "updated"):
            if state == "updated":
                for store, doc in stores.values():
                    mixed_updates(store, doc)
            store, doc = stores[True]
            for xpath in MIXED_QUERIES:
                want = stored_oracle_identities(store, doc, xpath)
                got = {
                    indexed: [item.identity() for item in s.query(xpath, d)]
                    for indexed, (s, d) in stores.items()
                }
                assert got == {False: want, True: want}, (state, xpath)
                assert store.translate(xpath, doc).access_path == (
                    "value-index"
                ), xpath
        composite = store.backend.execute(
            "SELECT COUNT(*) FROM idx_sval WHERE doc = ? AND tag = 'y' "
            "AND leaf_text IS NULL", (doc,),
        ).rows[0][0]
        assert composite == 4
    finally:
        for store, _doc in stores.values():
            store.close()
