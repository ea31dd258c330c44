"""Tests for top-level XPath unions (``p1 | p2``) across the stack."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranslationError, UnsupportedXPathError
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.xpath import UnionPath, evaluate, parse_xpath, string_value
from repro.xmldom import parse
from tests.conftest import (
    ALL_ENCODINGS,
    oracle_identities,
    store_identities,
)
from tests.test_property_differential import random_query

DOC = parse(
    '<bib><book year="1994"><title>A</title><author>X</author></book>'
    '<book year="2000"><title>B</title><author>Y</author>'
    "<author>Z</author></book></bib>"
)


class TestParser:
    def test_union_parses(self):
        path = parse_xpath("//a | //b")
        assert isinstance(path, UnionPath)
        assert len(path.paths) == 2

    def test_three_arms(self):
        path = parse_xpath("/a | /b | /c")
        assert len(path.paths) == 3

    def test_single_path_unwrapped(self):
        path = parse_xpath("//a")
        assert not isinstance(path, UnionPath)

    def test_str_roundtrip(self):
        path = parse_xpath("//a | /b/c[1]")
        assert parse_xpath(str(path)) == path


class TestEvaluator:
    def test_union_merges_in_document_order(self):
        values = [
            string_value(n)
            for n in evaluate(DOC, "//author | //title")
        ]
        assert values == ["A", "X", "B", "Y", "Z"]

    def test_union_deduplicates(self):
        result = evaluate(DOC, "//title | /bib/book/title")
        assert len(result) == 2

    def test_union_of_attributes(self):
        result = evaluate(DOC, "//book/@year | //book[1]/@year")
        assert [n.value for n in result] == ["1994", "2000"]


class TestTranslation:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_union_sql_matches_oracle(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(DOC)
        for xpath in (
            "//author | //title",
            "/bib/book[1]/title | /bib/book[2]/author[last()]",
            "//book/@year | //book[2]/@year",
            "//title | //title",
        ):
            assert store_identities(store, doc, xpath) == \
                oracle_identities(DOC, xpath), (encoding, xpath)

    def test_union_uses_sql_union(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(DOC)
        translated = store.translate("//a | //b", doc)
        assert " UNION " in translated.sql
        assert translated.sql.count("SELECT DISTINCT") == 2

    def test_mixed_kind_union_rejected(self):
        from repro.errors import UnsupportedXPathError

        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(DOC)
        with pytest.raises(UnsupportedXPathError):
            store.translate("//title | //@year", doc)

    def test_union_on_minidb(self):
        store = XmlStore(backend="minidb", encoding="dewey")
        doc = store.load(DOC)
        assert store_identities(store, doc, "//author | //title") == \
            oracle_identities(DOC, "//author | //title")

    def test_union_client_order_for_local(self):
        store = XmlStore(backend="sqlite", encoding="local")
        doc = store.load(DOC)
        translated = store.translate("//author | //title", doc)
        assert "ORDER BY" not in translated.sql
        assert store_identities(store, doc, "//author | //title") == \
            oracle_identities(DOC, "//author | //title")


@settings(max_examples=40, deadline=None)
@given(doc_seed=st.integers(0, 5000), query_seed=st.integers(0, 5000))
def test_random_unions_match_oracle(doc_seed, query_seed):
    document = random_document(doc_seed, max_depth=4, max_children=3)
    rng = random.Random(query_seed)
    arms = [random_query(rng) for _ in range(rng.randint(2, 3))]
    xpath = " | ".join(arms)
    want = oracle_identities(document, xpath)
    for encoding in ALL_ENCODINGS:
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        try:
            got = store_identities(store, doc, xpath)
        except (TranslationError, UnsupportedXPathError):
            continue
        assert got == want, (encoding, xpath)


class TestMixedProjectionAttributeUnions:
    """Arms that disagree on projection width (found by fuzzing).

    An attribute arm only projects its owner's order columns when the
    owner has a stable alias; ``/@id`` (document-node attributes) has
    none, so ``/@id | //@x`` used to emit a UNION of a 3-column and a
    4-column SELECT, which SQL rejects.  Such an arm can return no row,
    so it projects a constant under the owner's order-column name and
    the union still sorts in SQL.
    """

    DOC = parse('<r id="1"><a x="2"><b y="3"/></a><a x="4"/></r>')

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("xpath", [
        "/@id | //@x",
        "//@x | //b/@y",
        "/r/@id | /r/a/@x | //@y",
        "//@* | /@id",
    ])
    def test_mixed_owner_arms_match_oracle(self, encoding, xpath):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(self.DOC)
        assert store_identities(store, doc, xpath) == \
            oracle_identities(self.DOC, xpath)

    def test_document_node_arm_sorts_in_sql(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(self.DOC)
        xpath = "/@id | //@x"
        translated = store.translate(xpath, doc)
        assert translated.result_kind == "attribute"
        assert translated.sql.endswith(" ORDER BY dkey, name")
        assert store_identities(store, doc, xpath) == \
            oracle_identities(self.DOC, xpath)
