"""sqlite's statistics are re-measured per table, on doubling.

A bulk writer (a load, a migration, an index create) names the tables
it grew, and sqlite runs ``ANALYZE <table>`` only once that table holds
at least twice the rows its ``sqlite_stat1`` row says were there at the
last measurement.  So N loads cost O(N)
statistics work, the statistics are at most 2x stale, and the index
tables and a migration's target tables get statistics too.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.backends.sqlite_backend import connect_sqlite, measured_rows
from repro.bench.experiments import _e18_document
from repro.core.translator import make_translator
from repro.errors import StorageError
from repro.migrate import migrate_document
from repro.obs import counting
from repro.store import XmlStore, _parse_and_extract
from repro.workload import article_corpus

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sql.json"
SCHEDULE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "perf" / "schedule.py"
)

ENCODINGS = ("global", "local", "dewey", "ordpath")
#: 63 loads: the last measurement was at 32, so every table's
#: statistics are as stale as the rule lets them get.
STALEST = 63


def _templates() -> dict[str, str]:
    """T1-T11 of the benchmark's read mix, with literals filled in."""
    spec = importlib.util.spec_from_file_location(
        "perf_schedule", SCHEDULE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        name: template.format(k=2, s=1, y=1995)
        for name, template in module.TEMPLATES.items()
    }


def analyze_log(store: XmlStore) -> Counter:
    """Count the ``ANALYZE`` statements *store*'s connection runs, per
    their argument (``None``: the whole database).  The backend runs
    them on its connection directly, so the trace callback sees them
    where a wrapped ``execute`` would not."""
    seen: Counter = Counter()

    def trace(sql: str) -> None:
        words = sql.split()
        if words and words[0].upper() == "ANALYZE":
            seen[words[1] if len(words) > 1 else None] += 1

    store.backend._shared.set_trace_callback(trace)
    return seen


DOCUMENT = article_corpus(articles=3, seed=5)


def grow(store: XmlStore, loads: int) -> None:
    """*loads* more loads of one document shape, each indexed."""
    for _ in range(loads):
        store.indexes.create(store.load(DOCUMENT))


def corpus(encoding: str) -> dict[str, tuple]:
    """``name -> (sql, params)``: every golden SQL shape of *encoding*
    and T1-T11 on an indexed document and unindexed."""
    golden = json.loads(GOLDEN_PATH.read_text())
    statements = {
        f"golden {xpath}": (sql, ())
        for xpath, sql in golden[encoding].items()
    }
    for group in ("index_plans", "drives"):
        for xpath, entry in golden[group][encoding].items():
            statements[f"{group} {entry['access_path']} {xpath}"] = (
                entry["sql"], (),
            )
    translator = make_translator(encoding)
    for name, xpath in _templates().items():
        shaped, _, literals = _parse_and_extract(xpath)
        for indexed in (False, True):
            plan = translator.compile(shaped, indexed=indexed)
            bound = plan.bind(1, None, literals)
            statements[f"{name} indexed={indexed}"] = (
                bound.sql, bound.params,
            )
    return {
        name: (sql, params or (None,) * sql.count("?"))
        for name, (sql, params) in statements.items()
    }


def plans_differing_from_full_analyze(store: XmlStore, encoding: str):
    """The names of the :func:`corpus` statements whose
    ``EXPLAIN QUERY PLAN`` on *store* differs from the one on a copy
    of it after a whole-database ``ANALYZE``."""
    conn = store.backend._shared
    fresh = connect_sqlite(None)
    conn.backup(fresh)
    fresh.execute("ANALYZE")
    explain = "EXPLAIN QUERY PLAN "
    return sorted(
        name for name, (sql, params) in corpus(encoding).items()
        if conn.execute(explain + sql, params).fetchall()
        != fresh.execute(explain + sql, params).fetchall()
    )


def test_statistics_work_does_not_grow_with_the_store():
    store = XmlStore(encoding="dewey")
    analyzed = analyze_log(store)
    grow(store, 64)
    # Loads 1, 2, 4, ..., 64 measure a table; the whole-database
    # ANALYZE that used to follow every load ran 64 times.
    assert None not in analyzed
    assert set(analyzed) == {
        "node_dewey", "attr_dewey", "idx_sval",
    }
    assert max(analyzed.values()) <= 7, analyzed


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("documents", (STALEST, 64))
def test_plans_match_a_full_analyze(encoding, documents):
    """At 63 documents every table was last measured at 32, as stale
    as the rule lets statistics get; at 64 every one was just measured.
    Either way every plan is the one a full ANALYZE gives."""
    store = XmlStore(encoding=encoding)
    grow(store, documents)
    assert plans_differing_from_full_analyze(store, encoding) == []


def test_index_tables_get_statistics():
    store = XmlStore(encoding="dewey")
    doc = store.load(_e18_document(240))
    store.indexes.create(doc)
    conn = store.backend._shared

    def plan(xpath: str) -> list[str]:
        translated = store.translate(xpath, doc)
        return [
            row[3] for row in conn.execute(
                f"EXPLAIN QUERY PLAN {translated.sql}", translated.params
            )
        ]

    assert (
        "SEARCH n1 USING INDEX ix_idx_sval_str "
        "(doc=? AND tag=? AND leaf_text=?)"
        in plan("//product[stock = '500']")
    )
    for step in plan("//product//warranty"):
        assert not ("idx_sval" in step and step.endswith("(doc=?)")), step


def test_a_migration_target_gets_statistics():
    store = XmlStore(encoding="dewey")
    doc = store.load(article_corpus(articles=2, seed=3))
    conn = store.backend._shared
    assert "node_global" not in measured_rows(conn, ["node_global"])
    migrate_document(store, doc, "global")
    assert measured_rows(conn, ["node_global"]) == {
        "node_global": store.document_info(doc).node_count,
    }


def test_a_failed_remeasure_does_not_fail_the_committed_write(
    monkeypatch,
):
    """The re-measure runs after the writer's commit; if it fails (a
    file whose other writer holds the lock past the busy timeout), the
    load, the index create and the migration still report success."""
    store = XmlStore(encoding="dewey")

    def locked(tables):
        raise StorageError("database is locked")

    monkeypatch.setattr(store.backend, "analyze", locked)
    with counting() as counters:
        doc = store.load(DOCUMENT)
        store.indexes.create(doc)
        report = migrate_document(store, doc, "global")
    assert report.outcome == "migrated"
    assert counters["statistics.failed"] == 3
    assert counters["migrate.completed"] == 1
    assert store.document_info(doc).encoding == "global"
    assert [n.label for n in store.query("/journal", doc)] == ["journal"]
