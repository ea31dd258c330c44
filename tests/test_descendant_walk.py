"""Descendant axes against the oracle, on every backend × encoding.

On Local a ``descendant`` / ``descendant-or-self`` step from a node
context reads its candidates from one recursive table that walks down
from the whole context set; the path up to the context (or an EXISTS's
correlation to its outer row) is that walk's anchor.  The other
encodings compare order columns.  The document nests sections in
sections and repeats ``para`` and ``title`` at several depths, so one
subtree lies under several contexts, a walk starts inside another, and
a context can be a leaf.
"""

import pytest

from repro.errors import TranslationError
from repro.store import XmlStore
from repro.xmldom import parse
from repro.xpath import Evaluator
from repro.xpath.evaluator import AttributeNode
from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    node_ids,
    oracle_identities,
    store_identities,
)

DOCUMENT = parse(
    '<doc id="d">'
    '<section id="s1"><title>A</title>'
    '<para k="1">p1<b>x</b></para>'
    '<section id="s2"><title>B</title><para k="2">p2</para>'
    '<section id="s3"><para k="3"/>'
    '<note><para k="4">deep<para k="7">deeper</para></para></note>'
    "</section>"
    "</section>"
    '<para k="5"/>'
    "</section>"
    '<para k="6">top</para>'
    '<section id="s4"><title>C</title><note/></section>'
    '<appendix><section id="s5"><para/></section></appendix>'
    "</doc>"
)

QUERIES = {
    "nested contexts": [
        "//section//para",
        "//section//title",
        "/doc/section//section",
        "//section/section//para",
        "/doc//section",
        "//section//text()",
        "//section//node()",
        "//section//*",
    ],
    "descendant-or-self": [
        "//section/descendant-or-self::section",
        "//section/descendant-or-self::*",
        "/doc/section/descendant-or-self::node()",
        "//note/descendant-or-self::text()",
        "//para/descendant-or-self::para",
        "//title/text()/descendant-or-self::node()",
        "/doc/descendant::section/descendant::para",
    ],
    "two // steps": [
        "//section//section//para",
        "/doc//section//note//para",
        "//section//note//para",
        "//section//para//para",
        "//section//para/b",
        "//section//para/parent::*",
        "//section//para/ancestor::section",
        "//section//note/following::para",
    ],
    "[.//x] and [not(.//x)]": [
        "//section[.//note]",
        "//section[not(.//note)]",
        "//section[.//para[@k]]/title",
        "//section[not(.//para)]/@id",
        "//section[descendant::para]",
        "//section[descendant-or-self::section[@id = 's3']]",
        "//section[.//para = 'p2']",
        "//section[count(.//para) > 2]",
        "//section[.//section[.//note]]",
        "/doc/*[not(.//title)]",
    ],
    "a union arm": [
        "//section//para | //note",
        "//title | //section//note//para",
        "//section//@k | //@id",
    ],
    "a//x[2] and a//x[last()]": [
        "//section//para[2]",
        "//section//para[last()]",
        "/doc//section[1]//para[1]",
        "//section//para[position() > 1]",
        "//section//title[last()]/text()",
    ],
    "a//@x": [
        "//section//@k",
        "/doc/section//@id",
        "//section//@*",
        "//note//@k",
        "//section[@id = 's2']//@k",
    ],
}

#: Relative paths, from the node of each ``id`` attribute.
RELATIVE = [
    ".//para",
    "descendant::para",
    "descendant-or-self::section",
    "section//para",
    ".//section//para",
    ".//@k",
]


def _cases() -> list[str]:
    return [xpath for group in QUERIES.values() for xpath in group]


def _relative_oracle() -> dict[tuple[str, str], list[tuple]]:
    ids = node_ids(DOCUMENT)
    evaluator = Evaluator(DOCUMENT)
    out = {}
    for owner in evaluator.evaluate("//*[@id]"):
        key = owner.attributes["id"]
        for xpath in RELATIVE:
            out[key, xpath] = [
                ("attribute", ids[id(n.owner)], n.name)
                if isinstance(n, AttributeNode)
                else ("node", ids[id(n)])
                for n in evaluator.evaluate(xpath, context=owner)
            ]
    return out


@pytest.fixture(scope="module")
def oracle() -> dict[str, list[tuple]]:
    return {xpath: oracle_identities(DOCUMENT, xpath) for xpath in _cases()}


def test_every_case_selects_something(oracle):
    assert all(oracle.values()), [x for x, ids in oracle.items() if not ids]


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_descendant_axes_match_the_oracle(oracle, backend, encoding):
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    try:
        doc = store.load(DOCUMENT)
        wrong = {
            xpath: store_identities(store, doc, xpath)
            for xpath in _cases()
            if store_identities(store, doc, xpath) != oracle[xpath]
        }
    finally:
        store.close()
    assert not wrong, wrong


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_relative_paths_from_a_context_id_match_the_oracle(
    backend, encoding
):
    want = _relative_oracle()
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    try:
        doc = store.load(DOCUMENT)
        contexts = {
            item.value: item.node_id
            for item in store.query("//@id", doc)
        }
        got = {
            (key, xpath): [
                item.identity()
                for item in store.query(xpath, doc, context_id=owner)
            ]
            for key, owner in contexts.items()
            for xpath in RELATIVE
        }
    finally:
        store.close()
    assert got == want


def test_local_reads_each_descendant_step_from_one_walk_down():
    """No upward walk per candidate: a descendant step is a derived
    recursive table whose anchor is the path so far."""
    store = XmlStore(backend="sqlite", encoding="local")
    doc = store.load(DOCUMENT)
    sql = store.translate("//section//note//para", doc).sql
    assert sql.count("FROM (WITH RECURSIVE") == 2
    assert "EXISTS" not in sql
    assert sql.split("WITH RECURSIVE")[0].endswith(" FROM (")


@pytest.mark.parametrize("backend", BACKENDS)
def test_local_does_not_count_positions_along_a_descendant_axis(backend):
    """The walk hides the context from the step's own predicates, and
    only a position counted along the axis needs it: Local refuses it,
    as it refuses every other position on a document-order axis."""
    store = XmlStore(backend=backend, encoding="local")
    doc = store.load(DOCUMENT)
    for xpath in (
        "/doc/section/descendant::para[last() = 2]",
        "/doc/section/descendant::para[2]",
        "/doc/section/descendant-or-self::*[last() > 1]",
    ):
        with pytest.raises(TranslationError):
            store.query(xpath, doc)
