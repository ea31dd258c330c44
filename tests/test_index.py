"""Secondary indexes: cost model, lifecycle, and differential plans.

Four guards around the ``repro.index`` subsystem:

* **cost model** — the scan-vs-index decision pinned on both sides of
  each crossover, so retuning the constants is a conscious act;
* **differential plans** — every query of the conformance corpus runs
  on an indexed store and a twin that was never indexed, across all
  four encodings and both backends, and must answer byte-identically:
  the planner may change access paths, never answers;
* **lifecycle** — plan-cache invalidation when an index appears
  (statistics fingerprint), stale-statistics detection after deepening
  inserts, maintenance through the update manager, the advisor's
  decision rule, and a fixed-seed create/drop crash sweep;
* **regressions** — the mixed-content string-value comparison the
  first-text-child shortcut used to get wrong, pinned explicitly and
  exercised by the fuzzer's bare-element predicate pool.
"""

from __future__ import annotations

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS, BIB_XML
from repro.index import (
    INDEX_PROBE_COST,
    IndexAdvisor,
    STATS_REFRESH_THRESHOLD,
    choose_path_plan,
    choose_value_plan,
    estimate_value_matches,
    is_indexable_xpath,
)
from repro.obs import METRICS
from repro.store import XmlStore
from repro.workload import catalog_corpus
from repro.workload.docgen import random_document
from repro.xmldom import parse, serialize


# -- cost model ----------------------------------------------------------


class TestCostModel:
    def test_value_plan_scan_side_of_crossover(self):
        # Tiny document: 10 node rows never amortize a 24-unit probe.
        choice = choose_value_plan(node_count=10, tag_count=5, distinct=5)
        assert choice.access_path == "scan"
        assert not choice.use_index
        assert choice.index_names == ()
        assert choice.est_rows is None
        assert choice.scan_cost == 10
        assert choice.index_cost == INDEX_PROBE_COST + 1

    def test_value_plan_index_side_of_crossover(self):
        choice = choose_value_plan(
            node_count=10_000, tag_count=50, distinct=10
        )
        assert choice.access_path == "value-index"
        assert choice.use_index
        assert choice.index_names == ("ix_idx_sval_parent",)
        assert choice.est_rows == 5
        assert choice.index_cost == INDEX_PROBE_COST + 5
        assert choice.index_cost < choice.scan_cost

    def test_value_plan_exact_boundary_prefers_scan(self):
        # index_cost == scan_cost must keep the scan (strict <).
        boundary = int(INDEX_PROBE_COST) + 1
        choice = choose_value_plan(
            node_count=boundary, tag_count=boundary, distinct=boundary
        )
        assert choice.index_cost == choice.scan_cost
        assert choice.access_path == "scan"

    def test_path_plan_scan_side_of_crossover(self):
        choice = choose_path_plan(
            node_count=10, step_count=1, path_count=8, est_rows=5
        )
        assert choice.access_path == "scan"
        assert choice.index_names == ()
        assert choice.scan_cost == 10
        assert choice.index_cost == INDEX_PROBE_COST + 8 + 5

    def test_path_plan_index_side_of_crossover(self):
        choice = choose_path_plan(
            node_count=10_000, step_count=3, path_count=40, est_rows=100
        )
        assert choice.access_path == "path-index"
        assert choice.index_names == ("ux_idx_paths", "ix_idx_pathmap")
        assert choice.est_rows == 100
        assert choice.scan_cost == 30_000
        assert choice.index_cost == INDEX_PROBE_COST + 140

    def test_path_plan_step_count_moves_the_crossover(self):
        # The same document flips to the index as the path deepens:
        # every extra step adds a full node-table pass to the scan.
        args = dict(node_count=40, path_count=10, est_rows=20)
        assert choose_path_plan(step_count=1, **args).access_path == "scan"
        assert (
            choose_path_plan(step_count=2, **args).access_path
            == "path-index"
        )

    def test_estimate_value_matches(self):
        assert estimate_value_matches(0, 5) == 0
        assert estimate_value_matches(100, 10) == 10
        assert estimate_value_matches(100, 0) == 100
        assert estimate_value_matches(3, 1000) == 1  # never below one


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
        """A store whose document is big enough that indexed plans win
        the cost crossover."""
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(catalog_corpus(products=30))
        return store, doc

    def test_plan_cache_invalidated_by_index_creation(self):
        """Creating an index changes the statistics fingerprint, so a
        cached scan plan cannot outlive the statistics that justified
        it — the next translate re-compiles and picks the index."""
        store, doc = self._bulk_store()
        xpath = "//product//comment"
        before = store.translate(xpath, doc)
        assert before.access_path == "scan"
        store.indexes.create(doc)
        after = store.translate(xpath, doc)
        assert after.access_path == "path-index"
        assert after.index_names == ("ux_idx_paths", "ix_idx_pathmap")
        # And dropping flips it back: the fingerprint component of the
        # plan key disappears with the index.
        store.indexes.drop(doc)
        assert store.translate(xpath, doc).access_path == "scan"

    def test_fingerprint_is_never_reused_after_drop_or_doc_id_reuse(self):
        """Regression: plans outlive writes, so the plan key's
        ``(doc, stats_version)`` must never name two different sets of
        statistics.  create -> query -> drop -> mutate -> create used
        to restart the version at 1 (the meta row it counted from was
        purged), and the path-index plan compiled for the big document
        was then served for the shrunken one, where a fresh compile
        picks the scan."""
        store, doc = self._bulk_store()
        xpath = "//product//comment"
        first = store.indexes.create(doc)["stats_version"]
        assert store.translate(xpath, doc).access_path == "path-index"
        store.indexes.drop(doc)
        for product in store.query("/catalog/product", doc)[1:]:
            store.updates.delete(doc, product.node_id)
        second = store.indexes.create(doc)["stats_version"]
        assert second > first
        assert store.indexes.context(doc).fingerprint == (doc, second)
        assert store.translate(xpath, doc).access_path == "scan"
        # The doc id itself is reused after a delete; its statistics
        # versions still never are.
        store.delete_document(doc)
        assert store.load(catalog_corpus(products=30)) == doc
        third = store.indexes.create(doc)["stats_version"]
        assert third > second
        assert store.translate(xpath, doc).access_path == "path-index"

    def test_value_index_plan_on_big_document(self):
        store, doc = self._bulk_store()
        store.indexes.create(doc)
        plan = store.translate("//product[name = 'Widget 3']", doc)
        assert plan.access_path == "value-index"
        assert plan.index_names == ("ix_idx_sval_parent",)
        assert plan.est_rows is not None and plan.est_rows >= 1

    def test_stale_statistics_after_deepening_insert(self):
        """An insert that deepens the document past the recorded
        max_depth marks the statistics stale (the drift that skews
        path estimates) even before the update-counter threshold."""
        store, doc = self._bulk_store()
        store.indexes.create(doc)
        assert not store.indexes.stats_stale(doc)
        product = store.query("/catalog/product", doc)[0].node_id
        store.updates.insert(
            doc, product, 0,
            "<deep1><deep2><deep3><deep4>x</deep4></deep3></deep2></deep1>",
        )
        assert store.indexes.stats_stale(doc)
        describe = store.indexes.describe(doc)
        assert describe["stale"] is True
        store.indexes.refresh_stats(doc)
        assert not store.indexes.stats_stale(doc)

    def test_update_counter_triggers_stats_refresh(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(parse(BIB_XML))
        store.indexes.create(doc)
        version = store.indexes.describe(doc)["stats_version"]
        book = store.query("/bib/book[1]", doc)[0].node_id
        for n in range(STATS_REFRESH_THRESHOLD):
            store.updates.set_attribute(doc, book, "x", str(n))
        describe = store.indexes.describe(doc)
        assert describe["stats_version"] == version + 1
        assert describe["updates_since"] == 0

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
                "SELECT id, tag, sval FROM idx_sval WHERE doc = ?",
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
        for table in ("idx_sval", "idx_paths", "idx_pathmap", "idx_stats"):
            rows = store.backend.execute(
                f"SELECT COUNT(*) FROM {table} WHERE doc = ?", (doc,)
            ).rows
            assert rows[0][0] == 0, table

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
        assert counters["index.est_rows"] >= 1
        assert counters["index.actual_rows"] >= 1

    def test_miss_counter_feeds_the_advisor(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store, doc = self._bulk_store()
            for _ in range(3):
                store.query("//product//comment", doc)
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        # Compilation is cached: at least the cold compile missed.
        assert counters.get("index.miss", 0) >= 1


# -- the advisor ---------------------------------------------------------


class TestIndexAdvisor:
    def test_holds_below_threshold(self):
        rec = IndexAdvisor(min_samples=5).decide(
            {"index.miss": 2}, unindexed=[1], slow_xpaths=["/a/b"]
        )
        assert rec.action == "hold"
        assert not rec.act
        assert rec.samples == 2  # '/a/b' is not an indexable shape

    def test_creates_past_threshold(self):
        rec = IndexAdvisor(min_samples=5).decide(
            {"counters": {"index.miss": 3}},
            unindexed=[1, 2],
            slow_xpaths=["//a[b = 1]", "//deep//path"],
        )
        assert rec.action == "create"
        assert rec.act
        assert rec.documents == (1, 2)
        assert rec.samples == 5

    def test_refresh_when_indexed_but_stale(self):
        rec = IndexAdvisor().decide(
            {"index.miss": 100}, unindexed=[], stale=[3]
        )
        assert rec.action == "refresh"
        assert rec.documents == (3,)

    def test_holds_when_fresh_and_indexed(self):
        rec = IndexAdvisor().decide({"index.miss": 100}, unindexed=[])
        assert rec.action == "hold"

    def test_indexable_xpath_shapes(self):
        assert is_indexable_xpath("//a/b")
        assert is_indexable_xpath("/a[b = 1]")
        assert is_indexable_xpath("/a[contains(b, 'x')]")
        assert not is_indexable_xpath("/a/b")


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
        import random

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
        from repro.check.fuzz import FuzzConfig, run_fuzz

        config = FuzzConfig(
            seeds=1, ops=8, encodings=ALL_ENCODINGS, backends=BACKENDS,
            base_seed=11, queries_per_check=4, check_every=4,
            index_twin=True,
        )
        report = run_fuzz(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.operations == 8

    def test_mixed_content_seed_regression(self):
        """Pinned seed whose op stream builds mixed content while the
        (post-fix) predicate pool compares bare elements against it —
        the exact combination that used to diverge from the oracle."""
        from repro.check.fuzz import FuzzConfig, run_fuzz

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
            seeds=1, encodings=("global", "dewey"),
            backends=BACKENDS, crashes_per_op=3,
        )
        report = run_index_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.crashes > 0
        assert report.recoveries == report.crashes
