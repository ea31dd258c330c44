"""Secondary indexes: lifecycle and differential plans.

Four guards around the ``repro.index`` subsystem:

* **differential plans** — every query of the conformance corpus runs
  on an indexed store and a twin that was never indexed, across all
  four encodings and both backends, and must answer byte-identically:
  an index may change access paths, never answers;
* **lifecycle** — an index is used when it exists (create flips every
  eligible plan to the index whatever the document's size, drop flips
  it back), maintenance through the update manager, the advisor's
  decision rule, and a fixed-seed create/drop crash sweep;
* **vacuity** — the index-twin fuzz must really run index plans;
* **regressions** — the mixed-content string-value comparison the
  first-text-child shortcut used to get wrong, pinned explicitly and
  exercised by the fuzzer's bare-element predicate pool.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    BIB_XML,
    stored_oracle_identities,
)
from repro.check.fuzz import FuzzConfig, indexable_xpath, run_fuzz
from repro.core.translator import make_translator
from repro.index import IndexAdvisor
from repro.obs import METRICS
from repro.store import XmlStore
from repro.workload import catalog_corpus
from repro.workload.docgen import random_document
from repro.xmldom import parse


# -- differential plans: indexed vs unindexed must answer identically ----

#: The conformance corpus plus value predicates and deep descents — the
#: shapes the value/path rewrites serve, with enough non-indexable
#: queries mixed in to cover the fall-through.
DIFFERENTIAL_QUERIES = (
    "/bib/book/title",
    "/bib//title",
    "//price",
    "//book//author",
    "/bib/*",
    "//*",
    "//book[price > 50]/title",
    "//book[author = 'Smith']",
    "//book[price < 40]/author",
    "//book[title != 'Economics']",
    "/bib/book[2]/author",
    "/bib/book[last()]",
    "//book[@year]/title",
    "//book[count(author) > 1]/title",
    "//title | //author",
)


def _answers(store: XmlStore, doc: int, queries) -> dict:
    return {
        xpath: [
            (i.kind, i.node_id, i.label, i.value)
            for i in store.query(xpath, doc)
        ]
        for xpath in queries
    }


class TestDifferentialPlans:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_index_on_off_byte_identical(self, encoding, backend):
        document = parse(BIB_XML)
        indexed = XmlStore(backend=backend, encoding=encoding)
        plain = XmlStore(backend=backend, encoding=encoding)
        doc_i = indexed.load(document)
        doc_p = plain.load(document)
        indexed.indexes.create(doc_i)
        assert indexed.indexes.exists(doc_i)
        assert not plain.indexes.exists(doc_p)
        assert _answers(indexed, doc_i, DIFFERENTIAL_QUERIES) == _answers(
            plain, doc_p, DIFFERENTIAL_QUERIES
        )

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_differential_survives_updates(self, encoding):
        """Maintenance: after inserts, deletes, renames and text
        edits the indexed store still answers like the unindexed one —
        the index rows ride the same transaction as the node rows."""
        document = random_document(seed=7, max_depth=4, max_children=3)
        indexed = XmlStore(backend="sqlite", encoding=encoding)
        plain = XmlStore(backend="sqlite", encoding=encoding)
        doc_i = indexed.load(document)
        doc_p = plain.load(document)
        indexed.indexes.create(doc_i)
        queries = ("//a", "//a//b", "/a/b", "//b[c > 10]", "//a[b = 5]")
        for store, doc in ((indexed, doc_i), (plain, doc_p)):
            root = store.query("/*", doc)[0].node_id
            store.updates.insert(doc, root, 0, "<b><c>42</c>mixed</b>")
            store.updates.insert(doc, root, 1, "t5 ")
            child = store.fetch_children(doc, root)[0]["id"]
            store.updates.rename(doc, child, "a")
            store.updates.set_text(doc, child, "5")
        assert _answers(indexed, doc_i, queries) == _answers(
            plain, doc_p, queries
        )


# -- lifecycle -----------------------------------------------------------


class TestIndexLifecycle:
    def _bulk_store(self, encoding="global", backend="sqlite"):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(catalog_corpus(products=30))
        return store, doc

    def test_plan_cache_invalidated_by_index_creation(self):
        """Creating an index changes the plan key's ``indexed``
        component, so a cached scan plan is not served for the indexed
        document — the next translate picks the index plan."""
        store, doc = self._bulk_store()
        xpath = "//product//comment"
        before = store.translate(xpath, doc)
        assert before.access_path == "scan"
        store.indexes.create(doc)
        after = store.translate(xpath, doc)
        assert after.access_path == "path-index"
        assert "FROM idx_sval n0, node_global n1" in after.sql
        # And dropping flips it back: the scan plan is still cached
        # under its own key.
        store.indexes.drop(doc)
        dropped = store.translate(xpath, doc)
        assert dropped.access_path == "scan"
        assert dropped.sql == before.sql

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_path_ending_in_a_wildcard_keeps_the_scan(self, backend):
        """The path index reads the rows of the last step's tag: a last
        ``*`` would read every element's row, where the scan reads only
        the context's children.  A ``*`` before the last step stays
        eligible."""
        store, doc = self._bulk_store(backend=backend)
        store.indexes.create(doc)
        for xpath, access in (
            ("/catalog/product/*", "scan"), ("//product//*", "scan"),
            ("/catalog/*/name", "path-index"), ("//*//name", "path-index"),
        ):
            translated = store.translate(xpath, doc)
            assert translated.access_path == access, xpath
            assert [i.identity() for i in store.query(xpath, doc)] == (
                stored_oracle_identities(store, doc, xpath)
            ), xpath

    def test_create_drop_recreate_answers_like_the_unindexed_twin(self):
        """Plans outlive writes, so every step of create -> query ->
        drop -> query and drop -> delete most of the document ->
        create -> query must pick the plan the document's index state
        names *now*: answers equal the never-indexed twin's throughout,
        and the post-drop plan is a scan."""
        store, doc = self._bulk_store()
        twin, twin_doc = self._bulk_store()
        queries = ("//product//comment", "//product[name = 'Widget 3']",
                   "/catalog/product/name")

        def check(access: str) -> None:
            assert _answers(store, doc, queries) == _answers(
                twin, twin_doc, queries
            )
            got = {store.translate(q, doc).access_path for q in queries}
            assert got == ({"scan"} if access == "scan" else {
                "path-index", "value-index"
            })

        store.indexes.create(doc)
        check("index")
        store.indexes.drop(doc)
        check("scan")
        store.indexes.create(doc)
        store.indexes.drop(doc)
        for target, target_doc in ((store, doc), (twin, twin_doc)):
            for product in target.query("/catalog/product", target_doc)[1:]:
                target.updates.delete(target_doc, product.node_id)
        check("scan")
        store.indexes.create(doc)
        check("index")
        # The doc id itself is reused after a delete; the new document
        # starts unindexed whatever the old one was.
        store.delete_document(doc)
        twin.delete_document(twin_doc)
        assert store.load(catalog_corpus(products=30)) == doc
        assert twin.load(catalog_corpus(products=30)) == twin_doc
        check("scan")

    def test_value_index_plan_on_big_document(self):
        store, doc = self._bulk_store()
        store.indexes.create(doc)
        plan = store.translate("//product[name = 'Widget 3']", doc)
        assert plan.access_path == "value-index"
        assert "idx_sval" in plan.sql

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_an_index_is_used_when_it_exists_whatever_the_size(
        self, encoding, backend
    ):
        """Vacuity guard for the index twin: on an indexed document of
        a single childless element, every shape the fuzzer offers as
        indexable compiles to an index plan (and to the scan, counted
        as a miss, without the index)."""
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load("<a/>")
        rng = random.Random(5)
        shapes = {indexable_xpath(rng) for _ in range(200)}
        assert len(shapes) > 100
        translator = make_translator(encoding)
        for xpath in shapes:
            plain = translator.compile(xpath)
            assert (plain.access_path, plain.index_miss) == ("scan", True)
            assert store.translate(xpath, doc).access_path == "scan"
        store.indexes.create(doc)
        seen = set()
        for xpath in sorted(shapes):
            translated = store.translate(xpath, doc)
            assert translated.access_path != "scan", xpath
            seen.update(translated.access_path.split("+"))
            store.query(xpath, doc)  # and the engine accepts the plan
        assert seen == {"path-index", "value-index"}

    def test_maintenance_keeps_value_rows_exact(self):
        """After an update, the idx_sval rows equal a from-scratch
        rebuild: maintenance leaves nothing stale behind."""
        store = XmlStore(backend="sqlite", encoding="ordpath")
        doc = store.load(parse(BIB_XML))
        store.indexes.create(doc)
        title = store.query("/bib/book[1]/title", doc)[0].node_id
        store.updates.set_text(doc, title, "Renamed Book")

        def sval_rows():
            return sorted(store.backend.execute(
                "SELECT id, tag, leaf_text FROM idx_sval WHERE doc = ?",
                (doc,),
            ).rows)

        maintained = sval_rows()
        store.indexes.create(doc)  # full rebuild
        assert sval_rows() == maintained
        assert (title, "title", "Renamed Book") in maintained

    def test_delete_document_purges_index_rows(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(parse(BIB_XML))
        store.indexes.create(doc)
        store.delete_document(doc)
        rows = store.backend.execute(
            "SELECT COUNT(*) FROM idx_sval WHERE doc = ?", (doc,)
        ).rows
        assert rows[0][0] == 0

    def test_obs_counters_track_index_activity(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store, doc = self._bulk_store()
            store.indexes.create(doc)
            store.query("//product//comment", doc)
            store.query("//product[name = 'Widget 3']", doc)
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert counters["index.created"] >= 1
        assert counters["index.rewrite_path"] >= 1
        assert counters["index.rewrite_value"] >= 1
        assert counters["translate.access.path-index"] >= 1
        assert counters["translate.access.value-index"] >= 1
        assert counters["index.plan_queries"] >= 2

    def test_miss_counter_feeds_the_advisor(self):
        """``index.miss`` counts translations, plan-cache hits
        included, whose plan the compiler flagged: an eligible
        fragment, no index.  The flag is the only eligibility test."""
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store, doc = self._bulk_store()
            for _ in range(3):
                store.query("//product//comment", doc)
                store.translate("/catalog/product/name", doc)
                # ``//`` and a predicate, but nothing the translator
                # rewrites: not a miss.
                store.translate("//product[1]/name[1]", doc)
            missed = METRICS.snapshot()["counters"].get("index.miss", 0)
            store.indexes.create(doc)
            store.translate("/catalog/product/name", doc)
            after = METRICS.snapshot()["counters"].get("index.miss", 0)
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        # One executed query (its repeats are result-cache hits) plus
        # three translations of the child path.
        assert missed == 4
        assert after == missed


# -- the advisor ---------------------------------------------------------


class TestIndexAdvisor:
    def test_holds_below_threshold(self):
        rec = IndexAdvisor().decide(
            {"index.miss": 2}, unindexed=[1]
        )
        assert rec.action == "hold"
        assert not rec.act
        assert rec.samples == 2

    def test_creates_past_threshold(self):
        rec = IndexAdvisor().decide(
            {"counters": {"index.miss": 5}}, unindexed=[1, 2]
        )
        assert rec.action == "create"
        assert rec.act
        assert rec.documents == (1, 2)
        assert rec.samples == 5

    def test_holds_when_fresh_and_indexed(self):
        rec = IndexAdvisor().decide({"index.miss": 100}, unindexed=[])
        assert rec.action == "hold"

    def test_indexable_xpath_shapes(self):
        """Eligible is what the compiler rewrites, and nothing else
        under ``src/`` holds an opinion: a bare child path is (the path
        index serves it), a positional path with ``//`` is not."""
        translator = make_translator("dewey")
        missed = lambda xpath: (  # noqa: E731
            translator.compile(xpath).index_miss
        )
        assert missed("//a/b")
        assert missed("/a/b/c")
        assert missed("/a[b = 1]")
        assert missed("//a | //b[c > 2]")
        assert not missed("//section[1]/para[1]")
        assert missed("/a[contains(b, 'x')]/@id")
        assert not missed("//a[@id = 'x']")
        assert not translator.compile("//a/b", indexed=True).index_miss


# -- mixed-content string-value regression -------------------------------


class TestMixedContentStringValue:
    """Bare element comparisons use the XPath string-value — every
    descendant text node concatenated in document order — not the first
    text child.  Mixed content is exactly where a first-text shortcut
    diverges, so these stay pinned across all encodings and backends.
    """

    MIXED_XML = (
        "<r>"
        "<a>1<b>2</b>3</a>"          # string-value "123"
        "<a><b>45</b></a>"           # string-value "45"
        "<a>45</a>"                  # string-value "45"
        "<a>4<b></b>5</a>"           # string-value "45" (empty element)
        "<a>45<b>0</b></a>"          # string-value "450"
        "</r>"
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_element_comparison_aggregates_descendant_text(
        self, encoding, backend
    ):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(parse(self.MIXED_XML))
        ids = lambda xpath: [  # noqa: E731
            i.node_id for i in store.query(xpath, doc)
        ]
        # ids: r=1, then a=2 (1,b,3 -> 3,4,6), a=7 (b=8), a=10,
        # a=12 (4,b,5), a=16 (45,b=18).
        assert ids("/r/a[. != 0]") == ids("/r/a")  # smoke: all match !=
        assert ids("//a[b = 2]") == [2]
        assert ids("/r[a = 123]") == [1]
        equals_45 = store.query("/r/a[. = 45]", doc)
        assert len(equals_45) == 3  # "45" three ways, never "450"/"123"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_indexed_plan_agrees_on_mixed_content(self, backend):
        """The value index stores the same string-value the correlated
        aggregation computes, so the indexed plan answers mixed-content
        comparisons identically."""
        indexed = XmlStore(backend=backend, encoding="global")
        plain = XmlStore(backend=backend, encoding="global")
        doc_i = indexed.load(parse(self.MIXED_XML))
        doc_p = plain.load(parse(self.MIXED_XML))
        indexed.indexes.create(doc_i)
        queries = ("/r[a = 123]", "/r[a = 45]", "/r[a != 45]",
                   "//a[b = 2]")
        assert _answers(indexed, doc_i, queries) == _answers(
            plain, doc_p, queries
        )

    def test_fuzzer_predicate_pool_emits_bare_element_comparisons(self):
        """The regression stays guarded: the fuzzer's predicate pool
        must keep generating bare element comparisons (not only
        text()), the shape that exposed the bug."""
        from repro.check.fuzz import _random_predicate

        rng = random.Random(0)
        predicates = {_random_predicate(rng) for _ in range(400)}
        bare = [
            p for p in predicates
            if any(p.startswith(f"{t} ") for t in "abcd")
        ]
        assert bare, "predicate pool lost bare element comparisons"


# -- fixed-seed differential matrices ------------------------------------


class TestIndexTwinFuzzMatrix:
    def test_fixed_seed_index_twin_all_encodings_both_backends(self):
        config = FuzzConfig(
            seeds=1, ops=8, encodings=ALL_ENCODINGS, backends=BACKENDS,
            base_seed=11, queries_per_check=4, check_every=4,
            index_twin=True,
        )
        report = run_fuzz(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.operations == 8
        # Not scan against scan: both rewrites ran, and the summary
        # line (what ``repro fuzz --index-twin`` prints) says so.
        assert report.index_plans["path-index"] > 0
        assert report.index_plans["value-index"] > 0
        # And on all 8 indexed stores, each of the 8 operations but
        # the one that sets an attribute (no index row holds one)
        # repaired the index.
        assert (
            f"index plans: path-index={report.index_plans['path-index']} "
            f"value-index={report.index_plans['value-index']}, "
            "maintenance: repaired=56 rebuilt=0: OK"
        ) in report.summary()
        assert "index plans" not in run_fuzz(
            FuzzConfig(seeds=1, ops=0, encodings=("dewey",),
                       backends=("sqlite",))
        ).summary()

    def test_mixed_content_seed_regression(self):
        """Pinned seed whose op stream builds mixed content while the
        (post-fix) predicate pool compares bare elements against it —
        the exact combination that used to diverge from the oracle."""
        config = FuzzConfig(
            seeds=2, ops=12, encodings=("global", "local"),
            backends=("sqlite",), base_seed=3, queries_per_check=6,
            check_every=3,
        )
        report = run_fuzz(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)


@pytest.mark.skip_audit  # the harness audits internally, on reopened stores
class TestIndexCrashSweep:
    def test_fixed_seed_create_drop_sweep(self):
        """Index DDL crash-safety: crashes injected at statement
        boundaries of create and drop must always recover to a clean
        audit with the index either absent or complete."""
        from repro.robust.crashtest import (
            CrashTestConfig,
            run_index_crashtest,
        )

        config = CrashTestConfig(
            seeds=1, encodings=("global", "dewey"), crashes_per_op=3,
        )
        report = run_index_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.crashes > 0
        assert report.recoveries == report.crashes
