"""Golden pins for the XML reader and for the rows a text load stores.

Recorded from the per-character tokenizer and the DOM-walking shredder
immediately before they were replaced (the golden-SQL method of
``tests/test_golden_sql.py``), so the scanning tokenizer, the event
generator and the one labeler are held to the *old* reader's verdicts:

* ``tokens`` — for a fixed corpus of inputs the tokenizer accepts, the
  exact token list, line and column included;
* ``errors`` — for a fixed corpus of malformed inputs, the
  ``(message, line, column)`` of the :class:`XmlSyntaxError` ``parse``
  raises (``fragment_errors``: the same through ``parse_fragment``);
* ``rows`` — a digest of the node and attribute rows ``load(text)``
  stores for one fixed document under 4 encodings x gap 1/8;
* ``index`` — a digest of the ``idx_*`` rows ``indexes.create`` builds
  for each corpus input that parses and for the rows document, recorded
  from the index builder's own group-sort-and-walk immediately before
  it became one stack pass over ``ordered_rows`` (no order column
  reaches an index row, so one digest holds for every encoding and
  backend).

The only intended differences from the recording are the prologues in
:data:`PROLOGUE_FIXES`, which the old tokenizer rejected; what it said
about each is kept under ``parent_rejected``.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_golden_xml.py --regen
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import XmlSyntaxError
from repro.store import XmlStore
from repro.workload.docgen import article_corpus, catalog_corpus
from repro.xmldom import parse, parse_fragment, serialize
from repro.xmldom.tokenizer import Tokenizer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_xml_tokens.json"

ENCODINGS = ("global", "local", "dewey", "ordpath")
GAPS = (1, 8)

#: Inputs the tokenizer accepts (some are ill-formed one level up: the
#: token list is pinned all the same).
WELL_FORMED = {
    "article": serialize(article_corpus(articles=2, seed=5)),
    "article-pretty": serialize(
        article_corpus(articles=1, seed=6), pretty=True, xml_declaration=True
    ),
    "catalog": serialize(catalog_corpus(products=3, seed=7)),
    "catalog-pretty": serialize(catalog_corpus(products=2, seed=8),
                                pretty=True),
    "mixed-content": "<p>one <b>two</b> three<i/>four\n five</p>",
    "cdata": "<a>x<![CDATA[<b>&amp;</b> ]] ]>]]>y<![CDATA[]]></a>",
    "pis": "<?style href=\"x\"?><a><?p?><?q  spaced  data ?>"
           "<?r+odd?><?s\n\tmulti\nline\n?></a>",
    "xml-declarations": "<?xml version=\"1.0\"?>\n<a><?XML again?>"
                        "<?xml-stylesheet href='s'?></a>",
    "comments": "<!--before--><a><!----><!-- a - b --><!-- tail --->"
                "<!--\nmulti\nline\n--></a><!--after-->",
    "entities-text": "<a>1 &lt; 2 &amp;&amp; 3 &gt; 2 &apos;q&apos; "
                     "&quot;d&quot; &#65;&#x42;&#X43; &#8364;</a>",
    "entities-attributes": "<a t=\"a&amp;b\" u='&lt;&#x3c;&#60;' "
                           "v=\"it's\" w='say \"hi\"' x=\"a>b\"/>",
    "multi-line-tags": "<a\n  x = '1'\n\ty=\"2\"\r\n  z\n=\n'3'\n>\n"
                       "<b\n/>\n</a\n  >",
    "attribute-newlines": "<a x=\"line1\nline2\" y='\ttab'>t</a>",
    "crlf-columns": "<a>\r\n  <b/>\r  <c/>\r\n</a>",
    "non-ascii-names": "<données clé=\"v\"><中文 属性='值'/>"
                       "<a·b/><\U00010000x/></données>",
    "name-punctuation": "<a:b c-d.e_f=\"1\" _g='2' :h='3'><x1-2.3/></a:b>",
    "unicode-text": "<a>héllo wörld — 中文 \U0001F600</a>",
    "gt-in-text": "<a>a > b ]]> c</a>",
    "end-tag-space": "<a><b></b  ></a\n>",
    "self-closing-space": "<a><b  /><c x='1'  /></a>",
    "doctype-simple": "<!DOCTYPE html><a/>",
    "doctype-ids": "<!DOCTYPE a PUBLIC \"-//X//Y\" 'http://x/y.dtd'>\n<a/>",
    "doctype-subset": "<!DOCTYPE r [\n<!ELEMENT r ANY>\n"
                      "<!ENTITY x \"y\">\n<!ATTLIST r a CDATA #IMPLIED>\n"
                      "]>\n<r/>",
    "doctype-subset-comment": "<!DOCTYPE a [<!-- plain --> "
                              "<!ELEMENT a ANY>] >  <a/>",
    "doctype-inside-root": "<a><!DOCTYPE a><b/></a>",
    "whitespace-only-text": "  \n<a>  <b> </b>\n\t</a>\n  ",
    "text-outside-root": "lead<a/>trail",
    "two-roots": "<a/><b/>",
    "stray-end-tag": "<a/></a>",
    "empty": "",
    "only-whitespace": " \n ",
}

#: Legal prologues the old tokenizer rejected; they tokenise now, and
#: they are the only entries not recorded from it.
PROLOGUE_FIXES = {
    "doctype-quoted-bracket": "<!DOCTYPE a [<!ENTITY x \"]>\">]><a/>",
    "doctype-comment-bracket": "<!DOCTYPE a [<!-- > ] --> "
                               "<!ELEMENT a ANY>]><a/>",
    "leading-bom": "\ufeff<?xml version=\"1.0\"?>\n<a>x</a>",
}

#: Inputs ``parse`` must reject, with the message and position pinned.
MALFORMED = {
    "attr-missing-space": "<a x=\"1\"y=\"2\"/>",
    "attr-unquoted": "<a x=1/>",
    "attr-duplicate": "<a x=\"1\" x=\"2\"/>",
    "attr-duplicate-multiline": "<a x=\"1\"\n   x=\"2\"/>",
    "attr-lt-in-value": "<a x=\"<\"/>",
    "attr-unknown-entity": "<a x=\"&nope;\"/>",
    "attr-unterminated-entity": "<r>\n<a x=\"a &amp b\"/></r>",
    "attr-bad-charref": "<a x='&#xZZ;'/>",
    "attr-unterminated-value": "<a x=\"1/>",
    "attr-missing-equals": "<a x \"1\"/>",
    "attr-missing-value": "<a x=>",
    "attr-bad-name": "<a 1x=\"1\"/>",
    "attr-garbage-after-name": "<a!>",
    "text-unknown-entity": "<a>\n  &nope;</a>",
    "text-unterminated-entity": "<a>fish & chips</a>",
    "text-bad-charref": "<a>&#;</a>",
    "text-huge-charref": "<a>&#x110000;</a>",
    "unterminated-start-tag": "<a",
    "unterminated-start-tag-space": "<a ",
    "unterminated-start-tag-attrs": "<a x='1'",
    "unterminated-end-tag": "<a></a",
    "unterminated-comment": "<a><!-- never closed",
    "unterminated-cdata": "<a><![CDATA[ never closed ]]",
    "unterminated-pi": "<a><?pi never closed",
    "unterminated-doctype": "<!DOCTYPE a [ <!ELEMENT a ANY>",
    "comment-double-hyphen": "<a>\n<!-- a -- b --></a>",
    "bad-tag-name": "<1a/>",
    "bad-tag-name-space": "< a/>",
    "bad-end-tag-name": "<a></ a>",
    "end-tag-garbage": "<a></a b>",
    "bad-pi-target": "<? pi?><a/>",
    "lone-lt-at-end": "<a>x</a><",
    "slash-not-closed": "<a / >",
    "slash-before-attribute": "<a /x='1'>",
    "unknown-declaration": "<a><!ELEMENT a ANY></a>",
    "stray-end-tag": "<a/></a>",
    "stray-end-tag-first": "</a>",
    "mismatched-tags": "<a><b></a></b>",
    "mismatched-tags-multiline": "<a>\n  <b>\n  </c>\n</a>",
    "unclosed-element": "<a><b></b>",
    "two-roots": "<a/>\n<b/>",
    "text-before-root": "stray<a/>",
    "text-after-root": "<a/>\n  stray",
    "cdata-outside-root": "<a/><![CDATA[x]]>",
    "charref-outside-root": "&#65;<a/>",
    "empty-document": "",
    "only-a-comment": "<!--only a comment-->",
    "only-whitespace": "  \n ",
}

#: Inputs ``parse_fragment`` must reject.
MALFORMED_FRAGMENTS = {
    "empty": "",
    "blank": "  \n",
    "two-elements": "<a/><b/>",
    "text-then-element": "text <a/>",
    "comment-then-pi": "<!--c--><?p d?>",
    "mismatched": "<a></b>",
    "unclosed": "<a><b/>",
    "stray-end": "x</a>",
}

#: The document whose stored rows are digested: every node kind, mixed
#: content, attributes, entities, siblings past one Dewey byte (>127).
ROWS_DOCUMENT = (
    "<?xml version=\"1.0\"?><!--prolog--><lib name=\"x&amp;y\">"
    + serialize(article_corpus(articles=3, seed=9).root)
    + "<wide>" + "".join(f"<i n='{i}'>{i}</i>" for i in range(140))
    + "</wide><p>mixed <b>bold</b> tail<![CDATA[ <raw> ]]><?pi data?>"
    "<!--c--></p>\n</lib><?epilog?>"
)


def token_list(source: str) -> list:
    out = []
    for token in Tokenizer(source).tokens():
        fields = dataclasses.asdict(token)
        line, column = fields.pop("line"), fields.pop("column")
        out.append([type(token).__name__, line, column, fields])
    return out


def verdict(call, source: str) -> list:
    try:
        call(source)
    except XmlSyntaxError as exc:
        return [str(exc), exc.line, exc.column]
    return ["accepted", 0, 0]


def stored_rows_digest(encoding: str, gap: int) -> str:
    store = XmlStore(backend="sqlite", encoding=encoding, gap=gap)
    try:
        doc = store.load(ROWS_DOCUMENT)
        digest = hashlib.sha256()
        for table, order in (
            (store.node_table, "id"), (store.attr_table, "owner, name"),
        ):
            result = store.backend.execute(
                f"SELECT * FROM {table} WHERE doc = ? ORDER BY {order}",
                (doc,),
            )
            for row in result.rows:
                digest.update(repr(tuple(
                    bytes(v) if isinstance(v, (bytes, memoryview)) else v
                    for v in row
                )).encode("utf-8"))
                digest.update(b"\n")
        return digest.hexdigest()
    finally:
        store.close()


def indexed_corpus() -> dict:
    """The corpus inputs ``parse`` accepts, plus the rows document."""
    corpus = {**WELL_FORMED, **PROLOGUE_FIXES, "rows-document": ROWS_DOCUMENT}
    return {
        name: source for name, source in corpus.items()
        if verdict(parse, source)[0] == "accepted"
    }


def index_rows_digest(
    source: str, encoding: str = "dewey", backend: str = "sqlite"
) -> str:
    store = XmlStore(backend=backend, encoding=encoding)
    try:
        doc = store.load(source)
        store.indexes.create(doc)
        digest = hashlib.sha256()
        for table, order in (
            ("idx_sval", "id"), ("idx_paths", "pathid"),
            ("idx_pathmap", "id"),
        ):
            result = store.backend.execute(
                f"SELECT * FROM {table} WHERE doc = ? ORDER BY {order}",
                (doc,),
            )
            digest.update(f"{table}\n".encode("utf-8"))
            for row in result.rows:
                digest.update(repr(tuple(row)).encode("utf-8"))
                digest.update(b"\n")
        return digest.hexdigest()
    finally:
        store.close()


def snapshot(previous: dict) -> dict:
    tokens, rejected = {}, dict(previous.get("parent_rejected", {}))
    for name, source in WELL_FORMED.items():
        tokens[name] = token_list(source)
    for name, source in PROLOGUE_FIXES.items():
        parsed = verdict(parse, source)
        if parsed[0] == "accepted":
            tokens[name] = token_list(source)
        else:
            rejected[name] = parsed
    return {
        "tokens": tokens,
        "parent_rejected": rejected,
        "errors": {n: verdict(parse, s) for n, s in MALFORMED.items()},
        "fragment_errors": {
            n: verdict(parse_fragment, s)
            for n, s in MALFORMED_FRAGMENTS.items()
        },
        "rows": {
            f"{enc}/gap{gap}": stored_rows_digest(enc, gap)
            for enc in ENCODINGS for gap in GAPS
        },
        "index": {
            name: index_rows_digest(source)
            for name, source in indexed_corpus().items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        "golden file missing; regenerate with "
        "PYTHONPATH=src python tests/test_golden_xml.py --regen"
    )
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenTokens:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_tokens_match_the_recording(self, golden, name):
        assert token_list(WELL_FORMED[name]) == golden["tokens"][name]

    @pytest.mark.parametrize("name", sorted(PROLOGUE_FIXES))
    def test_prologue_fix_is_the_only_intended_difference(
        self, golden, name
    ):
        # Rejected when the corpus was recorded, tokenised now.
        assert name in golden["parent_rejected"]
        assert token_list(PROLOGUE_FIXES[name]) == golden["tokens"][name]
        assert parse(PROLOGUE_FIXES[name]).root.tag == "a"

    def test_corpus_and_recording_cover_each_other(self, golden):
        assert set(golden["tokens"]) == set(WELL_FORMED) | set(
            PROLOGUE_FIXES
        )
        assert set(golden["parent_rejected"]) == set(PROLOGUE_FIXES)
        assert set(golden["errors"]) == set(MALFORMED)
        assert set(golden["fragment_errors"]) == set(MALFORMED_FRAGMENTS)


class TestGoldenErrors:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_parse_raises_the_recorded_error(self, golden, name):
        want = golden["errors"][name]
        assert want[0] != "accepted", name
        assert verdict(parse, MALFORMED[name]) == want

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_load_text_raises_the_same_error_and_stores_nothing(
        self, golden, name
    ):
        store = XmlStore()
        assert verdict(store.load, MALFORMED[name]) == golden["errors"][name]
        assert store.documents() == []
        assert store.backend.execute(
            f"SELECT COUNT(*) FROM {store.node_table}"
        ).rows == [(0,)]

    @pytest.mark.parametrize("name", sorted(MALFORMED_FRAGMENTS))
    def test_parse_fragment_raises_the_recorded_error(self, golden, name):
        want = golden["fragment_errors"][name]
        assert want[0] != "accepted", name
        assert verdict(parse_fragment, MALFORMED_FRAGMENTS[name]) == want


class TestGoldenRows:
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_text_load_stores_the_recorded_rows(
        self, golden, encoding, gap
    ):
        assert stored_rows_digest(encoding, gap) == golden["rows"][
            f"{encoding}/gap{gap}"
        ]


class TestGoldenIndexRows:
    @pytest.mark.parametrize("backend", ("sqlite", "minidb"))
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_create_builds_the_recorded_index_rows(
        self, golden, encoding, backend
    ):
        corpus = indexed_corpus()
        assert set(golden["index"]) == set(corpus) and len(corpus) > 25
        for name, source in corpus.items():
            assert index_rows_digest(source, encoding, backend) == (
                golden["index"][name]
            ), name


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        previous = (
            json.loads(GOLDEN_PATH.read_text())
            if GOLDEN_PATH.exists() else {}
        )
        # One corpus entry per line: a changed verdict is a one-line diff.
        sections = [
            f' "{section}": {{\n' + ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(value)}"
                for name, value in entries.items()
            ) + "\n }"
            for section, entries in snapshot(previous).items()
        ]
        GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("usage: PYTHONPATH=src python tests/test_golden_xml.py --regen")
