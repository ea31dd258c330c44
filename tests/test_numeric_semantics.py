"""XPath number() vs SQL CAST semantics (the seed-12 regression).

The migrate-during fuzzer surfaced a divergence present since the first
translator: value predicates compared via ``CAST(value AS REAL)``, and
SQL CAST of non-numeric text yields 0 while XPath ``number()`` yields
NaN — so ``text() < 25`` matched a node whose text was ``"t11"`` in SQL
but not in the native evaluator.  The fix routes every numeric
comparison through the registered ``xpath_number`` scalar (NaN mapped
to NULL, with an ``IS NULL`` disjunct on ``!=`` where NaN compares
true).  These tests pin the original failing shape and sweep the
semantics across all four encodings and both backends.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.check.fuzz import FuzzConfig, apply_operation, plan_operation, run_fuzz
from repro.core.numeric import xpath_number_value
from repro.store import XmlStore
from repro.workload import article_corpus
from repro.workload.docgen import random_document
from repro.xmldom.parser import parse
from repro.xmldom.serializer import serialize
from repro.xpath.evaluator import evaluate

ENCODINGS = ("global", "local", "dewey", "ordpath")
BACKENDS = ("sqlite", "minidb")

#: The ROADMAP repro query, verbatim.
SEED12_QUERY = "//node()/*[text() < 25]/c"

#: A hand-held version of the seed-12 state: the first ``a`` holds the
#: non-numeric text an insert_text op produced ("t11"); under CAST
#: semantics it wrongly matched ``text() < 25`` and leaked its ``c``
#: child into the result.
SEED12_XML = (
    "<r><a>t11<c/></a><a>7<c/></a><a> 12 <c/></a><a>88<c/></a>"
    "<d><b>t11</b><c/></d><d><b>7</b><c/></d></r>"
)


def _oracle_count(xml: str, query: str) -> int:
    return len(evaluate(parse(xml), query))


class TestXpathNumberScalar:
    def test_non_numeric_text_is_null(self):
        assert xpath_number_value("t11") is None
        assert xpath_number_value("") is None
        assert xpath_number_value("12abc") is None

    def test_numeric_text_parses_with_whitespace(self):
        assert xpath_number_value(" 12 ") == 12.0
        assert xpath_number_value("-3.5") == -3.5

    def test_scalar_types_pass_through(self):
        assert xpath_number_value(None) is None
        assert xpath_number_value(7) == 7.0
        assert xpath_number_value(2.5) == 2.5
        assert xpath_number_value(b"\x01\x02") is None

    def test_nan_never_escapes(self):
        assert xpath_number_value("nan") is None

    @given(st.text(
        alphabet=" \t\n+-._0123456789eEinfaINFA\u0661\u0662\u0969x",
        max_size=8,
    ))
    def test_agrees_with_float(self, text):
        """The first-character shortcut rejects only what ``float()``
        rejects: non-ASCII digits still reach it."""
        try:
            number = float(text.strip())
        except ValueError:
            number = None
        if number is not None and math.isnan(number):
            number = None
        assert xpath_number_value(text) == number


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("encoding", ENCODINGS)
class TestSeed12Regression:
    def test_repro_query_matches_evaluator(self, backend, encoding):
        store = XmlStore(backend=backend, encoding=encoding)
        try:
            doc = store.load(parse(SEED12_XML))
            got = store.query(SEED12_QUERY, doc=doc)
            want = _oracle_count(SEED12_XML, SEED12_QUERY)
            # Three numeric b's (7, 12 below 25; 88 not) => two matches;
            # "t11" must not be one of them.
            assert want == 2
            assert len(got) == want
        finally:
            store.close()

    def test_not_equal_follows_nan_semantics(self, backend, encoding):
        # number('t11') is NaN and NaN != 7 is *true*: the t11 branch
        # must match, the 7 branch must not.
        query = "//d[b != 7]/c"
        store = XmlStore(backend=backend, encoding=encoding)
        try:
            doc = store.load(parse(SEED12_XML))
            got = store.query(query, doc=doc)
            want = _oracle_count(SEED12_XML, query)
            assert want == 1
            assert len(got) == want
        finally:
            store.close()

    def test_seeded_stream_state_matches_evaluator(self, backend, encoding):
        """Rebuild a seed-12-style state the fuzzer's own way: random
        doc 12 plus its seeded op stream (whose insert pool emits
        "tNN " text), then differential-check the repro query."""
        store = XmlStore(backend=backend, encoding=encoding)
        try:
            doc = store.load(random_document(12, max_depth=4, max_children=3))
            rng = random.Random(12 * 7919 + 1)
            for _ in range(12):
                plan = plan_operation(rng, store, doc)
                apply_operation(store, doc, plan)
            xml = serialize(store.reconstruct(doc))
            for query in (SEED12_QUERY, "//a[b < 50]", "//*[text() != 3]"):
                got = store.query(query, doc=doc)
                assert len(got) == _oracle_count(xml, query), query
        finally:
            store.close()


#: Relational comparisons against string literals whose number() is not
#: finite: NaN compares false, ±Infinity orders like any number.
NON_FINITE_QUERIES = {
    "//article[@year >= 'NaN']": 0,
    "//article[@year < 'Infinity']": 3,
    "//article[@year > '-Infinity']": 3,
    "//article[@year <= '-Infinity']": 0,
    "//article[@year > ' inf ']": 0,
    "//article[@year < 'nan']": 0,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_non_finite_string_literals_answer_like_the_oracle(
    backend, encoding
):
    # These raised a bare ValueError / OverflowError while the
    # translator rendered the converted literal into the SQL text.
    dom = article_corpus(articles=3, seed=1)
    store = XmlStore(backend=backend, encoding=encoding)
    try:
        doc = store.load(dom)
        for query, count in NON_FINITE_QUERIES.items():
            assert len(evaluate(dom, query)) == count, query
            assert len(store.query(query, doc=doc)) == count, query
    finally:
        store.close()


@pytest.mark.slow
def test_fuzz_pool_samples_non_numeric_text():
    """The differential fuzzer now locks the fix in: its documents and
    insert fragments carry non-numeric text and its predicate pool
    keeps drawing numeric comparisons over element/text values."""
    report = run_fuzz(FuzzConfig(
        seeds=2, ops=15, base_seed=12,
        encodings=("global", "dewey"), backends=("sqlite",),
    ))
    assert not report.failures, report.failures
