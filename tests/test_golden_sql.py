"""Golden-SQL snapshots and the pre-refactor stats baseline.

Three guards around the translation path:

* the exact SQL text the renderer emits for a fixed corpus, per
  encoding, against a checked-in golden file (``tests/data/golden_sql.json``);
* every text in that file is one minidb's parser accepts and calls only
  functions both engines register — the text is all either engine gets;
* the :class:`TranslationStats` that :func:`compute_stats` derives from
  the expression AST, against the counts the pre-AST translators
  reported for the same corpus (captured before the refactor).

Regenerate the golden file after an intentional SQL-shape change with::

    PYTHONPATH=src python tests/test_golden_sql.py --regen
"""

import hashlib
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from repro.backends import make_backend
from repro.core.dewey import DeweyKey
from repro.core.ordpath import OrdpathKey
from repro.core.scalars import SCALAR_FUNCTIONS
from repro.core.translator import make_translator
from repro.core.translator.shape import extract_shape
from repro.minidb import parse_sql
from repro.minidb.expressions import AGGREGATE_NAMES, BUILTIN_SCALARS
from repro.minidb.sql_ast import FunctionExpr
from repro.xpath import parse_xpath

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sql.json"

ENCODINGS = ("global", "local", "dewey", "ordpath")

#: Fixed corpus for the SQL-text snapshots: one query per structural
#: family (join chain, descendant, deep attribute, positional, value
#: predicate, last(), document order, union, count, boolean-not), then
#: one query per remaining axis so all twelve axis conditions of every
#: encoding are pinned, and a second element-valued comparison (the
#: ``string_value_query`` subselect) under a ``//`` step.
SNAPSHOT_QUERIES = (
    "/bib/book/title",
    "/bib//title",
    "//@id",
    "/bib/book[2]",
    "/bib/book[author = 'Smith']/title",
    "/bib/book[last()]",
    "/bib/book[1]/following::title",
    "//title | //author",
    "/bib/book[count(author) > 1]/title",
    "/bib/book[not(@id)]",
    "/bib/book/title/parent::book",
    "/bib/book/self::book",
    "/bib/book/ancestor::bib",
    "//book/ancestor-or-self::*",
    "/bib/book/descendant::text()",
    "/bib/book/descendant-or-self::*",
    "/bib/book/author[1]/following-sibling::author",
    "/bib/book[3]/preceding-sibling::book",
    "/bib/book[3]/preceding::title",
    "//book[title = 'Smith']/@id",
)

#: Per-query relational-operation counts reported by the pre-refactor
#: string-assembling translators, captured immediately before the AST
#: rewrite: [joins, exists, count, recursions].  global/dewey/ordpath
#: agree everywhere; local differs only where an override is listed.
STATS_BASELINE = {
    "/bib/book/title": [2, 0, 0, 0],
    "/bib//title": [1, 0, 0, 0],
    "//book": [0, 0, 0, 0],
    "//@id": [1, 0, 0, 0],
    "/bib/book[2]": [1, 0, 1, 0],
    "/bib/book[position() <= 3]/title": [2, 0, 1, 0],
    "/bib/book[last()]": [1, 1, 0, 0],
    "/bib/book[author = 'Smith']/title": [2, 1, 0, 0],
    "/bib/book[price < 10]": [1, 1, 0, 0],
    "/bib/book[contains(title, 'Web')]": [1, 1, 0, 0],
    "/bib/book[starts-with(title, 'T')]": [1, 1, 0, 0],
    "/bib/book[author][@year]": [1, 2, 0, 0],
    "/bib/book/author[1]/following-sibling::author": [3, 0, 1, 0],
    "/bib/book[1]/following::title": [2, 0, 1, 0],
    "/bib/book/title/parent::book": [3, 0, 0, 0],
    "/bib/book/ancestor::bib": [2, 0, 0, 0],
    "//book/ancestor-or-self::*": [1, 0, 0, 0],
    "/bib/book[count(author) > 1]/title": [2, 0, 1, 0],
    "/bib/book[not(@id)]": [1, 1, 0, 0],
    "//title | //author": [0, 0, 0, 0],
    "/bib/book/@id | //@year": [3, 0, 0, 0],
    "/bib/book[@id = 'b1' or @id = 'b2']": [1, 2, 0, 0],
    "/bib/book/descendant::text()": [2, 0, 0, 0],
    "/bib/book[3]/preceding-sibling::book": [2, 0, 1, 0],
}

#: The local encoding pays one recursive walk per vertical-closure
#: axis and two (and an EXISTS) per document-order axis; joins, EXISTS
#: and COUNT are what the depth expansion it replaced reported.
LOCAL_OVERRIDES = {
    "/bib//title": [1, 0, 0, 1],
    "/bib/book[1]/following::title": [2, 1, 1, 2],
    "/bib/book/ancestor::bib": [2, 0, 0, 1],
    "//book/ancestor-or-self::*": [1, 0, 0, 1],
    "/bib/book/descendant::text()": [2, 0, 0, 1],
}


#: Indexable corpus: structural paths (path index), value predicates
#: (value index), and one positional query that must stay a scan even
#: with indexes available.
INDEX_SNAPSHOT_QUERIES = (
    "/bib/book/title",
    "/bib//title",
    "//price",
    "/bib/book[author = 'Smith']/title",
    "/bib/book[price < 10]",
    "/bib/book[2]",
)


def snapshot_sql(encoding: str) -> dict:
    translator = make_translator(encoding)
    return {
        xpath: translator.translate(xpath, doc=1).sql
        for xpath in SNAPSHOT_QUERIES
    }


def snapshot_index_plans(encoding: str) -> dict:
    """Access path and SQL of an indexed document's plans."""
    translator = make_translator(encoding)
    out = {}
    for xpath in INDEX_SNAPSHOT_QUERIES:
        shaped, _literals = extract_shape(parse_xpath(xpath))
        plan = translator.compile(shaped, indexed=True)
        out[xpath] = {"access_path": plan.access_path, "sql": plan.sql}
    return out


class TestGoldenSql:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        assert GOLDEN_PATH.exists(), (
            "golden file missing; regenerate with "
            "PYTHONPATH=src python tests/test_golden_sql.py --regen"
        )
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_text_sql_matches_golden(self, golden, encoding):
        got = snapshot_sql(encoding)
        want = golden[encoding]
        assert set(got) == set(want)
        for xpath in SNAPSHOT_QUERIES:
            assert got[xpath] == want[xpath], (
                f"{encoding}: SQL drifted for {xpath!r}; if intentional, "
                "regenerate tests/data/golden_sql.json"
            )

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_no_literals_embedded_in_snapshots(self, golden, encoding):
        # Predicate literals must never leak into the plan text.
        for xpath, sql in golden[encoding].items():
            for literal in ("Smith", "'1'", "'3'"):
                assert literal not in sql, (xpath, literal)


#: sha256 over ``[golden[enc], golden["index_plans"][enc]]`` (JSON,
#: sorted keys) as of fb222ec, the commit before Local's closure axes
#: became recursive: that change was Local's alone.
UNTOUCHED_BY_THE_RECURSION = {
    "global":
        "750cff2d995a328624fee24965481fc705e6eaab1add775023bceafbed837ae1",
    "dewey":
        "c738dad103d6e8721cb517275e336047f6d078e40cd002a53095ea4375258bdf",
    "ordpath":
        "a2b73a5e46fdc2a296f80d49f80d0309b14ad362d78844210758a5f06b24e32a",
}


@pytest.mark.parametrize("encoding", sorted(UNTOUCHED_BY_THE_RECURSION))
def test_only_locals_golden_text_moved_with_the_recursion(encoding):
    golden = json.loads(GOLDEN_PATH.read_text())
    blob = json.dumps(
        [golden[encoding], golden["index_plans"][encoding]], sort_keys=True
    ).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == UNTOUCHED_BY_THE_RECURSION[encoding]
    )
    assert "RECURSIVE" not in blob.decode()
    assert "WITH RECURSIVE" in json.dumps(golden["local"])


class TestGoldenIndexPlans:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        payload = json.loads(GOLDEN_PATH.read_text())
        assert "index_plans" in payload, (
            "index-plan snapshots missing; regenerate with "
            "PYTHONPATH=src python tests/test_golden_sql.py --regen"
        )
        return payload["index_plans"]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_index_plans_match_golden(self, golden, encoding):
        got = snapshot_index_plans(encoding)
        want = golden[encoding]
        assert set(got) == set(want)
        for xpath in INDEX_SNAPSHOT_QUERIES:
            assert got[xpath] == want[xpath], (
                f"{encoding}: index plan drifted for {xpath!r}; if "
                "intentional, regenerate tests/data/golden_sql.json"
            )

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_expected_access_paths(self, golden, encoding):
        """Indexed, the corpus splits exactly as designed: structural
        paths use the path index, value predicates the value index,
        and the positional query stays a scan."""
        plans = golden[encoding]
        assert plans["/bib/book/title"]["access_path"] == "path-index"
        assert plans["/bib//title"]["access_path"] == "path-index"
        assert plans["//price"]["access_path"] == "path-index"
        assert plans["/bib/book[author = 'Smith']/title"][
            "access_path"] == "value-index"
        assert plans["/bib/book[price < 10]"][
            "access_path"] == "value-index"
        assert plans["/bib/book[2]"]["access_path"] == "scan"

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_no_literals_in_index_plans(self, golden, encoding):
        # Neither predicate literals nor the path-match pattern may be
        # embedded in the SQL text: both arrive as bound parameters, so
        # the plan cache can share one plan across literal values.
        for xpath, plan in golden[encoding].items():
            sql = plan["sql"]
            for literal in ("Smith", "'10'", "'/bib", "'//"):
                assert literal not in sql, (xpath, literal)


def _function_names(node) -> set:
    """Names of every function called anywhere in a parsed statement."""
    names = set()
    if isinstance(node, FunctionExpr):
        names.add(node.name)
    if is_dataclass(node):
        node = tuple(getattr(node, f.name) for f in fields(node))
    if isinstance(node, tuple):
        for item in node:
            names |= _function_names(item)
    return names


class TestGoldenSqlParses:
    """The golden text is the whole interface to either engine: minidb
    must parse each one (sqlite prepares them in the conformance suite)
    and find every function it names."""

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_minidb_parses_golden_text(self, golden, encoding):
        assert len(golden[encoding]) == len(SNAPSHOT_QUERIES)
        for xpath, sql in golden[encoding].items():
            assert parse_sql(sql) is not None, xpath

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_minidb_parses_index_plans(self, golden, encoding):
        plans = golden["index_plans"][encoding]
        assert len(plans) == len(INDEX_SNAPSHOT_QUERIES)
        for xpath, plan in plans.items():
            assert parse_sql(plan["sql"]) is not None, xpath

    def test_every_function_called_is_in_the_scalar_table(self, golden):
        texts = [
            sql for enc in ENCODINGS for sql in golden[enc].values()
        ] + [
            plan["sql"]
            for enc in ENCODINGS
            for plan in golden["index_plans"][enc].values()
        ]
        assert len(texts) == 104
        called = set().union(*(_function_names(parse_sql(t)) for t in texts))
        declared = {name for name, _arity, _fn in SCALAR_FUNCTIONS}
        assert called - set(BUILTIN_SCALARS) - AGGREGATE_NAMES <= declared

    def test_scalar_table_agrees_on_both_engines(self):
        dkey = DeweyKey((1, 2)).encode()
        okey = OrdpathKey((1, 3)).encode()
        inputs = {
            "dewey_parent": (dkey,),
            "dewey_successor": (dkey,),
            "dewey_shift": (dkey, 1, 200),
            "ordpath_parent": (okey,),
            "ordpath_successor": (okey,),
            "xpath_number": (" 12.50 ",),
            "path_match": ("/bib/book/title", "/bib//title"),
            "lpos_key": (40,),
        }
        assert set(inputs) == {name for name, _a, _f in SCALAR_FUNCTIONS}
        engines = [make_backend("sqlite"), make_backend("minidb")]
        for name, arity, fn in SCALAR_FUNCTIONS:
            args = inputs[name]
            assert len(args) == arity
            sql = f"SELECT {name}({', '.join('?' * arity)})"
            got = [e.execute(sql, args).rows[0][0] for e in engines]
            assert got[0] == got[1] == fn(*args), name
            assert got[0] is not None, name


class TestStatsBaseline:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_ast_stats_match_pre_refactor_counts(self, encoding):
        """compute_stats over the expression AST reproduces the counts
        the pre-refactor translators accumulated while gluing strings —
        E9's cost model is unchanged by the rewrite."""
        translator = make_translator(encoding)
        for xpath, base in STATS_BASELINE.items():
            if encoding == "local":
                base = LOCAL_OVERRIDES.get(xpath, base)
            stats = translator.translate(xpath, doc=1).stats
            got = [
                stats.joins,
                stats.exists_subqueries,
                stats.count_subqueries,
                stats.recursions,
            ]
            assert got == base, (encoding, xpath)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        payload = {enc: snapshot_sql(enc) for enc in ENCODINGS}
        payload["index_plans"] = {
            enc: snapshot_index_plans(enc) for enc in ENCODINGS
        }
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("usage: PYTHONPATH=src python tests/test_golden_sql.py --regen")
