"""Tests for the backend layer and the benchmark harness."""

import pytest

from repro.backends import (
    Backend,
    MiniDbBackend,
    SqliteBackend,
    make_backend,
)
from repro.bench.harness import (
    ENCODING_NAMES,
    ExperimentTable,
    build_store,
)
from repro.workload import article_corpus


class TestBackendFactory:
    def test_make_backend_names(self):
        assert isinstance(make_backend("sqlite"), SqliteBackend)
        assert isinstance(make_backend("minidb"), MiniDbBackend)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_backend("oracle11g")


@pytest.mark.parametrize("name", ["sqlite", "minidb"])
class TestBackendContract:
    def _backend(self, name) -> Backend:
        backend = make_backend(name)
        backend.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        return backend

    def test_execute_returns_rows(self, name):
        backend = self._backend(name)
        backend.execute("INSERT INTO t VALUES (?, ?)", (1, "x"))
        result = backend.execute("SELECT a, b FROM t")
        assert result.rows == [(1, "x")]

    def test_rowcount_on_dml(self, name):
        backend = self._backend(name)
        backend.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, "v") for i in range(4)]
        )
        result = backend.execute("UPDATE t SET b = 'w' WHERE a >= 2")
        assert result.rowcount == 2
        result = backend.execute("DELETE FROM t WHERE a = 0")
        assert result.rowcount == 1

    def test_rows_written_accumulates(self, name):
        backend = self._backend(name)
        base = backend.rows_written()
        backend.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, "v") for i in range(3)]
        )
        assert backend.rows_written() >= base + 3

    def test_blob_roundtrip_and_order(self, name):
        backend = make_backend(name)
        backend.execute("CREATE TABLE b (k BLOB)")
        backend.executemany(
            "INSERT INTO b VALUES (?)",
            [(bytes([3]),), (bytes([1, 9]),), (bytes([1]),)],
        )
        result = backend.execute("SELECT k FROM b ORDER BY k")
        assert [r[0] for r in result.rows] == [
            bytes([1]), bytes([1, 9]), bytes([3]),
        ]

    def test_dewey_functions_available(self, name):
        from repro.core.dewey import DeweyKey

        backend = make_backend(name)
        backend.execute("CREATE TABLE d (k BLOB)")
        backend.execute(
            "INSERT INTO d VALUES (?)",
            (DeweyKey.parse("1.2.3").encode(),),
        )
        result = backend.execute(
            "SELECT dewey_parent(k), dewey_successor(k) FROM d"
        )
        parent, successor = result.rows[0]
        assert DeweyKey.decode(parent) == DeweyKey.parse("1.2")
        assert DeweyKey.decode(successor) == DeweyKey.parse("1.2.4")


class TestHarness:
    def test_build_store(self):
        document = article_corpus(articles=2)
        for encoding in ENCODING_NAMES:
            store, doc = build_store(document, encoding)
            assert store.node_count(doc) == document.node_count()

    def test_experiment_table_render(self):
        table = ExperimentTable(
            "EX", "demo", ("name", "rows"),
        )
        table.add_row("alpha", 1.5)
        table.add_row("beta", 120)
        table.add_note("a note")
        text = table.render()
        assert "EX: demo" in text
        assert "alpha" in text and "120" in text
        assert "note: a note" in text

    def test_experiment_table_markdown(self):
        table = ExperimentTable("EX", "demo", ("a", "b"))
        table.add_row(1, 2)
        markdown = table.render_markdown()
        assert markdown.startswith("| a | b |")
        assert "| 1 | 2 |" in markdown

    def test_row_width_checked(self):
        table = ExperimentTable("EX", "demo", ("a", "b"))
        with pytest.raises(ValueError):
            table.add_row(1)


class TestExperimentsFastPath:
    """E1 and E9 are cheap enough to assert shapes inside the test suite."""

    def test_e1_dewey_labels_grow_with_depth(self):
        from repro.bench.experiments import run_e1_storage

        table = run_e1_storage(sizes=(500,))
        by_encoding = {row[1]: row for row in table.rows}
        assert by_encoding["global"][3] == 8.0  # two 4-byte integers
        assert by_encoding["local"][3] == 4.0
        assert by_encoding["dewey"][3] > 4.0  # variable-length keys

    def test_e13_local_reads_most_on_document_order_by_a_small_factor(self):
        """E13's verdict is a count: Local reads more rows than Global
        and Dewey on Q7/Q8 — 152 and 306 at ten articles, hundreds of
        times fewer than the depth expansion did (49,672 and
        110,890)."""
        from repro.bench.experiments import run_e13_logical_io
        from repro.bench.report import compute_verdicts

        table = run_e13_logical_io(articles=10)
        local = table.columns.index("local rows")
        rows = {row[0]: row for row in table.rows}
        assert (rows["Q7"][local], rows["Q8"][local]) == (152, 306)
        verdicts = {v.experiment: v for v in compute_verdicts([table])}
        assert verdicts.keys() == {"E13"}
        assert verdicts["E13"].ok
        assert "152 rows" in verdicts["E13"].claim

    def test_e9_local_most_expensive_on_document_order(self):
        from repro.bench.experiments import run_e9_translation

        table = run_e9_translation()
        q7 = next(row for row in table.rows if row[0] == "Q7")
        _id, _feature, global_ops, local_ops, dewey_ops, _deep = q7
        assert local_ops > global_ops
        assert local_ops > dewey_ops
