"""Edge-case tests across the stack: self-value predicates, dot/dotdot
navigation, deep documents, unusual content, minidb corner cases."""

import sys

import pytest

from repro.migrate import migrate_document
from repro.minidb import MiniDb
from repro.store import XmlStore
from repro.xmldom import parse, serialize
from repro.xpath import evaluate, string_value
from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    assert_query_matches_oracle,
)


class TestSelfValuePredicates:
    XML = "<r><a>x</a><a>y</a><b><a>x</a></b></r>"

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize(
        "xpath",
        [
            "//a[. = 'x']",
            "//a[. != 'x']",
            "//a[starts-with(., 'x')]",
            "//a[contains(., 'y')]",
            "//b/a[.]",
        ],
    )
    def test_dot_predicates(self, encoding, xpath):
        document = parse(self.XML)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert_query_matches_oracle(store, doc, document, xpath)

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_dotdot_navigation(self, encoding):
        document = parse(self.XML)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert_query_matches_oracle(
            store, doc, document, "//b/a/../a"
        )


class TestUnusualContent:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_unicode_everywhere(self, encoding):
        xml = '<röt attr="héllo"><子>中文内容</子><e>🎉</e></röt>'
        document = parse(xml)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert store.reconstruct(doc).structurally_equal(document)
        assert store.query_values("/röt/子/text()", doc) == ["中文内容"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_special_characters_in_values(self, encoding):
        xml = "<r><q>it's \"quoted\" &amp; 50% &lt;ok&gt;</q></r>"
        document = parse(xml)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert store.query_values("//q/text()", doc) == [
            "it's \"quoted\" & 50% <ok>"
        ]
        # A quoted string in a predicate survives SQL escaping.
        assert len(store.query('//q[contains(., "it\'s")]', doc)) == 1

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_wide_sibling_lists(self, encoding):
        xml = "<r>" + "".join(f"<i>{n}</i>" for n in range(300)) + "</r>"
        document = parse(xml)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert store.query_values("/r/i[150]/text()", doc) == ["149"]
        assert store.query_values("/r/i[last()]/text()", doc) == ["299"]
        assert len(store.query("/r/i[position() > 290]", doc)) == 10

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_deep_chains(self, encoding):
        depth = 40
        xml = "".join(f"<n{i}>" for i in range(depth)) + "leaf" + \
            "".join(f"</n{i}>" for i in reversed(range(depth)))
        document = parse(xml)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert store.query_values(f"//n{depth - 1}/text()", doc) == \
            ["leaf"]
        deep = store.query(f"//n{depth - 1}", doc)[0].node_id
        ancestors = store.query(
            f"//n{depth - 1}/ancestor::*", doc
        )
        assert len(ancestors) == depth - 1
        assert store.string_value(doc, deep) == "leaf"

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_empty_elements_and_whitespace_text(self, encoding):
        xml = "<r><e/><s> </s><t>\n</t></r>"
        document = parse(xml)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        assert store.reconstruct(doc).structurally_equal(document)
        assert store.query_values("/r/s/text()", doc) == [" "]


class TestDeeperThanTheRecursionLimit:
    """A document may nest deeper than the interpreter's recursion
    limit — loaded that deep, or grown that deep by updates: nothing
    between XML text in and XML text out may recurse once per level.
    Every call here runs at the default limit."""

    @staticmethod
    def _nest(levels: int) -> str:
        # The serializer's own form (innermost element self-closed).
        return "<a>" * (levels - 1) + "<a/>" + "</a>" * (levels - 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "encoding, target",
        [("global", "local"), ("local", "dewey"),
         ("dewey", "ordpath"), ("ordpath", "global")],
    )
    def test_rebalance_migrate_reconstruct_round_trip(
        self, backend, encoding, target
    ):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(self._nest(600))
        # Ids are preorder ranks, so node 600 is the innermost element.
        store.updates.insert(doc, 600, 0, self._nest(600))
        assert store.document_info(doc).max_depth == 1200
        expected = self._nest(1200)

        store.updates.rebalance(doc)
        assert serialize(store.reconstruct(doc)) == expected

        migrate_document(store, doc, target)
        assert store.encoding_for(doc).name == target
        assert serialize(store.reconstruct(doc)) == expected
        assert store.string_value(doc, 1) == ""

    # Prefix keys are O(depth^2) bytes per document: only the two
    # integer encodings go to 5000, and the post-test audit (which
    # decodes every key's whole path) is left to the 1200-deep test
    # above for Dewey and ORDPATH.
    DEEP_CELLS = [
        pytest.param(
            encoding, 1500,
            marks=[pytest.mark.skip_audit]
            if encoding in ("dewey", "ordpath") else [],
        )
        for encoding in ALL_ENCODINGS
    ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "encoding, levels",
        DEEP_CELLS + [("global", 5000), ("local", 5000)],
    )
    def test_text_load_reconstruct_serialize_round_trip(
        self, backend, encoding, levels
    ):
        assert levels > sys.getrecursionlimit()
        text = self._nest(levels)
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(text)
        assert store.document_info(doc).max_depth == levels
        assert serialize(store.reconstruct(doc)) == text

    @pytest.mark.parametrize("encoding, levels", DEEP_CELLS)
    def test_dom_load_and_pretty_serialize(self, encoding, levels):
        text = self._nest(levels)
        document = parse(text)
        store = XmlStore(encoding=encoding)
        doc = store.load(document)
        assert serialize(store.reconstruct(doc)) == text
        pretty = serialize(document, pretty=True)
        assert pretty.count("\n") == 2 * levels - 1
        assert serialize(parse(pretty, strip_whitespace=True)) == text


class TestLocalClosureAtDepth:
    """Local's closure axes recurse over the rows: a deep document
    costs a longer walk, not a bigger statement, and a corrupt parent
    cycle ends the walk instead of feeding it for ever."""

    LEVELS = 70

    @classmethod
    def _chain(cls) -> str:
        """``e0/e1/../e69``, a ``leaf`` first under every fifth level,
        two in the innermost and two after the chain, under the root."""
        inner = "<leaf/><leaf>t</leaf>"
        for level in reversed(range(1, cls.LEVELS)):
            own = "<leaf/>" if level % 5 == 0 else ""
            inner = f"<e{level}>{own}{inner}</e{level}>"
        return f"<e0>{inner}<leaf/><leaf/></e0>"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("xpath", [
        "/e0/e1/following::leaf",
        "//e3//leaf",
        "//e60/ancestor::*",
        "//e65/preceding::leaf",
        "//e40[leaf]/descendant-or-self::*",
        "//e60[e61 = 't']",
    ])
    def test_depth_70_answers_with_the_oracles_rows(self, backend, xpath):
        # At fb222ec sqlite refused the first two outright ("at most 64
        # tables in a join") and minidb parsed 312 kB of SQL for them.
        document = parse(self._chain())
        store = XmlStore(backend=backend, encoding="local")
        doc = store.load(document)
        assert store.document_info(doc).max_depth >= self.LEVELS
        assert store.query(xpath, doc) != []
        assert_query_matches_oracle(store, doc, document, xpath)
        assert len(store.translate(xpath, doc).sql) < 2000

    def test_the_plan_text_does_not_depend_on_any_documents_depth(self):
        from tests.test_golden_sql import SNAPSHOT_QUERIES

        store = XmlStore(encoding="local", cache=False)
        shallow = store.load("<a><b><c><d/></c></b></a>")
        deep = store.load("<a>" * 39 + "<a/>" + "</a>" * 39)
        assert store.document_info(shallow).max_depth == 4
        assert store.document_info(deep).max_depth == 40
        for xpath in SNAPSHOT_QUERIES:
            assert (
                store.translate(xpath, shallow).sql
                == store.translate(xpath, deep).sql
            ), xpath

    @pytest.mark.skip_audit
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_parent_cycle_ends_every_walk(self, backend):
        store = XmlStore(backend=backend, encoding="local", cache=False)
        doc = store.load("<r><a><b><x>t</x></b></a><x/></r>")
        # a (id 2) becomes the child of its own child b (id 3).
        store.backend.execute(
            "UPDATE node_local SET parent = 3 WHERE doc = ? AND id = 2",
            (doc,),
        )
        assert len(store.query("//x", doc)) == 2
        for xpath in (
            "/r//x", "//b//x", "//x/ancestor::*", "/r/a/following::x",
            "//b/following::x", "//x/preceding::*", "//b[x = 't']",
            "//b[a = 't']",
        ):
            store.query(xpath, doc)  # returns; the rows are what they are


class TestMiniDbCorners:
    def test_select_without_from(self):
        db = MiniDb()
        assert db.execute("SELECT 1 + 1, 'x' || 'y'").rows == \
            [(2, "xy")]

    def test_where_false_constant(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT a FROM t WHERE 1 = 0").rows == []

    def test_parameter_in_select_list(self):
        db = MiniDb()
        assert db.execute("SELECT ?", ("hi",)).rows == [("hi",)]

    def test_blob_parameters_roundtrip(self):
        db = MiniDb()
        db.execute("CREATE TABLE b (v BLOB)")
        payload = bytes(range(256))
        db.execute("INSERT INTO b VALUES (?)", (payload,))
        assert db.execute("SELECT v FROM b").rows == [(payload,)]

    def test_distinct_on_blobs(self):
        db = MiniDb()
        db.execute("CREATE TABLE b (v BLOB)")
        db.executemany(
            "INSERT INTO b VALUES (?)", [(b"\x01",), (b"\x01",)]
        )
        assert len(db.execute("SELECT DISTINCT v FROM b").rows) == 1

    def test_update_with_self_reference(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("UPDATE t SET a = b, b = a")
        # Assignments see the pre-update row, like SQL requires.
        assert db.execute("SELECT a, b FROM t").rows == [(10, 1)]

    def test_limit_expression(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)",
                       [(i,) for i in range(10)])
        assert len(db.execute(
            "SELECT a FROM t ORDER BY a LIMIT ?", (4,)
        ).rows) == 4

    def test_order_by_mixed_types_total_order(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (v TEXT)")
        # Heterogeneous values through an untyped-ish column.
        db.execute("INSERT INTO t VALUES (NULL)")
        db.execute("INSERT INTO t VALUES ('a')")
        result = db.execute("SELECT v FROM t ORDER BY v")
        assert result.rows == [(None,), ("a",)]


class TestEvaluatorEdges:
    def test_position_on_reverse_axis_counts_backwards(self):
        document = parse("<r><a/><a/><a/><b/></r>")
        result = evaluate(document, "/r/b/preceding-sibling::a[1]")
        # Nearest preceding sibling = the third a.
        (node,) = result
        assert node is document.root.children[2]

    def test_following_of_last_node_is_empty(self):
        document = parse("<r><a/><b/></r>")
        assert evaluate(document, "/r/b/following::*") == []

    def test_descendant_of_leaf_is_empty(self):
        document = parse("<r><a/></r>")
        assert evaluate(document, "/r/a/descendant::node()") == []

    def test_attribute_of_text_node_is_empty(self):
        document = parse("<r>text</r>")
        assert evaluate(document, "/r/text()/@x") == []

    def test_numeric_string_comparison_follows_xpath(self):
        document = parse('<r><v a="10"/><v a="9"/></r>')
        # Numeric, not lexicographic: 9 < 10.
        result = evaluate(document, "//v[@a < 10]")
        assert len(result) == 1
        assert result[0].get("a") == "9"

    def test_comment_content_not_matched_by_text(self):
        document = parse("<r><!--note-->real</r>")
        values = [
            string_value(n) for n in evaluate(document, "/r/text()")
        ]
        assert values == ["real"]

    def test_pi_not_matched_by_wildcard(self):
        document = parse("<r><?target data?><e/></r>")
        assert len(evaluate(document, "/r/*")) == 1


class TestContextRelativeQueries:
    XML = (
        '<bib><book year="1994"><title>A</title><author>X</author>'
        '</book><book year="2000"><title>B</title><author>Y</author>'
        "<author>Z</author></book></bib>"
    )

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_navigate_from_node(self, encoding):
        from repro.xpath import Evaluator, string_value

        document = parse(self.XML)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        book2 = store.query("/bib/book[2]", doc)[0].node_id
        evaluator = Evaluator(document)
        dom_book2 = evaluator.evaluate("/bib/book[2]")[0]
        for xpath in (
            "author",
            "author[last()]",
            "title/following-sibling::author",
            "preceding-sibling::book/title",
            "../book[1]/author",
            "@year",
            "descendant::text()",
        ):
            got = [i.value for i in store.query(
                xpath, doc, context_id=book2
            )]
            want = [
                string_value(n)
                for n in evaluator.evaluate(xpath, context=dom_book2)
            ]
            assert got == want, (encoding, xpath)

    def test_relative_without_context_rejected(self):
        from repro.errors import TranslationError

        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(self.XML)
        with pytest.raises(TranslationError):
            store.query("author", doc)

    def test_absolute_ignores_context(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(self.XML)
        book2 = store.query("/bib/book[2]", doc)[0].node_id
        assert len(store.query("//author", doc, context_id=book2)) == 3

    def test_relative_union(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(self.XML)
        book2 = store.query("/bib/book[2]", doc)[0].node_id
        values = [
            i.value
            for i in store.query("title | author", doc,
                                 context_id=book2)
        ]
        assert values == ["B", "Y", "Z"]

    def test_nonexistent_context_yields_empty(self):
        store = XmlStore(backend="sqlite", encoding="local")
        doc = store.load(self.XML)
        assert store.query("author", doc, context_id=9999) == []
