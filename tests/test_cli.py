"""Tests for the ``python -m repro`` command-line interface."""

import random
import sqlite3

import pytest

from repro.cli import main, open_store
from repro.errors import StorageError

BIB = (
    '<bib><book year="1994"><title>TCP/IP</title>'
    "<author>Stevens</author></book>"
    '<book year="2000"><title>Data on the Web</title>'
    "<author>Abiteboul</author></book></bib>"
)


@pytest.fixture
def bib_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(BIB)
    return str(path)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "store.db")


def run(args) -> int:
    return main(args)


class TestLoadAndQuery:
    def test_load_reports_stats(self, bib_file, db, capsys):
        assert run(["load", bib_file, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "loaded document 1" in out
        assert "dewey" in out

    def test_query_prints_rows(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run(["query", "/bib/book/title", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "TCP/IP" in out and "Data on the Web" in out

    def test_query_show_sql(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["query", "/bib/book[1]", "--db", db, "--show-sql"])
        out = capsys.readouterr().out
        assert "SELECT DISTINCT" in out
        assert "node_dewey" in out

    def test_query_xml_output(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["query", "/bib/book[1]/title", "--db", db, "--xml"])
        out = capsys.readouterr().out
        assert "<title>TCP/IP</title>" in out

    def test_attribute_query(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["query", "//book/@year", "--db", db, "--xml"])
        out = capsys.readouterr().out
        assert 'year="1994"' in out

    def test_attribute_query_xml_escapes_the_value_as_dump_does(
        self, tmp_path, db, capsys
    ):
        path = tmp_path / "q.xml"
        path.write_text('<r><p q="x&quot;y&amp;z&lt;"/></r>')
        run(["load", str(path), "--db", db])
        capsys.readouterr()
        run(["query", "//p/@q", "--db", db, "--xml"])
        printed = capsys.readouterr().out.strip()
        assert printed == 'q="x&quot;y&amp;z&lt;"'
        run(["dump", "--db", db])
        assert f"<p {printed}/>" in capsys.readouterr().out

    def test_encoding_choice(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db, "--encoding", "global"])
        out = capsys.readouterr().out
        assert "global" in out
        run(["query", "/bib/book[2]/author", "--db", db])
        assert "Abiteboul" in capsys.readouterr().out

    def test_encoding_mismatch_rejected(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db, "--encoding", "local"])
        capsys.readouterr()
        code = run(["load", bib_file, "--db", db, "--encoding", "dewey"])
        assert code == 1
        assert "cannot reopen" in capsys.readouterr().err

    def test_load_file_with_byte_order_mark(self, tmp_path, db, capsys):
        # What many editors write; ``Path.read_text()`` keeps U+FEFF.
        path = tmp_path / "bom.xml"
        path.write_bytes(
            b"\xef\xbb\xbf<?xml version=\"1.0\"?>\n" + BIB.encode("utf-8")
        )
        assert run(["load", str(path), "--db", db]) == 0
        assert "loaded document 1" in capsys.readouterr().out
        assert run(["query", "/bib/book[1]/title", "--db", db]) == 0
        assert "TCP/IP" in capsys.readouterr().out

    def test_missing_file(self, db, capsys):
        assert run(["load", "/nonexistent.xml", "--db", db]) == 1
        assert "error" in capsys.readouterr().err


class TestUpdatesAndDump:
    def test_insert_and_dump(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run([
            "insert", "<book><title>New</title></book>",
            "--db", db, "--parent", "/bib", "--index", "0",
        ]) == 0
        capsys.readouterr()
        run(["dump", "--db", db])
        out = capsys.readouterr().out
        assert out.index("<title>New</title>") < out.index("TCP/IP")

    def test_insert_appends_by_default(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["insert", "<book><title>Z</title></book>",
             "--db", db, "--parent", "/bib"])
        capsys.readouterr()
        run(["query", "/bib/book[last()]/title", "--db", db])
        assert "Z" in capsys.readouterr().out

    def test_delete_single(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run(["delete", "/bib/book[1]", "--db", db]) == 0
        capsys.readouterr()
        run(["query", "/bib/book/title", "--db", db])
        out = capsys.readouterr().out
        assert "TCP/IP" not in out
        assert "Data on the Web" in out

    def test_delete_multiple_needs_all_flag(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        assert run(["delete", "//author", "--db", db]) == 1
        assert "--all" in capsys.readouterr().err
        assert run(["delete", "//author", "--db", db, "--all"]) == 0

    def test_delete_all_with_nested_matches_is_one_whole_command(
        self, tmp_path, db, capsys
    ):
        # The first match contains the second: deleting in document
        # order removed it, then failed on it with the third untouched.
        path = tmp_path / "nested.xml"
        path.write_text("<a><s><s/></s><k/><s/></a>")
        run(["load", str(path), "--db", db])
        capsys.readouterr()
        assert run(["delete", "//s", "--db", db, "--all"]) == 0
        assert "deleted 3 node(s)" in capsys.readouterr().out
        run(["dump", "--db", db])
        assert capsys.readouterr().out.strip() == "<a><k/></a>"
        assert run(["check", "--db", db]) == 0

    def test_bad_parent(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        code = run(["insert", "<x/>", "--db", db,
                    "--parent", "//nothing"])
        assert code == 1


class TestInfoAndSql:
    def test_info_lists_documents(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["load", bib_file, "--db", db, "--name", "second"])
        capsys.readouterr()
        run(["info", "--db", db])
        out = capsys.readouterr().out
        assert "bib" in out and "second" in out

    def test_raw_sql(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        run(["sql", "SELECT COUNT(*) FROM node_dewey", "--db", db])
        out = capsys.readouterr().out.strip()
        assert out == "11"  # the bib fixture shreds into 11 nodes

    def test_query_without_documents(self, db, capsys):
        code = run(["query", "/x", "--db", db])
        assert code == 1
        assert "no documents" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["info"], ["dump"], ["query", "//a"]]
    )
    def test_file_that_is_not_a_database_fails_typed(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "random.db"
        garbage = random.Random(3).randbytes(3072)
        path.write_bytes(garbage)
        assert run([*command, "--db", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot open {str(path)!r}: file is not a database"
        ]
        assert path.read_bytes() == garbage
        with pytest.raises(StorageError, match="not a database"):
            open_store(str(path))

    @pytest.mark.parametrize(
        "command", [["info"], ["dump"], ["query", "/a"]]
    )
    def test_a_path_that_cannot_be_opened_fails_typed(
        self, tmp_path, capsys, command
    ):
        path = str(tmp_path / "missing" / "x.db")
        assert run([*command, "--db", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot open {path!r}: unable to open database file"
        ]
        with pytest.raises(StorageError, match="unable to open"):
            open_store(path)

    def test_unreadable_settings_are_not_a_fresh_store(self, db, capsys):
        """Only a missing ``repro_meta`` means "not initialised yet"; a
        settings read that fails is reported as the failure it is."""
        connection = sqlite3.connect(db)
        connection.execute(
            "CREATE VIEW repro_meta AS SELECT 'encoding' AS key, "
            "abs(-9223372036854775807 - 1) AS value"
        )
        connection.close()
        assert run(["info", "--db", db]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read store {db!r}: integer overflow"
        ]

    def test_a_fresh_db_is_initialised(self, db, capsys):
        """The one settings failure that means "not initialised yet"
        reaches the CLI as the StorageError every sqlite error is."""
        assert run(["info", "--db", db]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "encoding: dewey"
        connection = sqlite3.connect(db)
        rows = connection.execute(
            "SELECT key, value FROM repro_meta ORDER BY key"
        ).fetchall()
        connection.close()
        assert rows == [("encoding", "dewey")]

    def test_settings_with_wrong_columns_fail_on_one_line(self, db, capsys):
        connection = sqlite3.connect(db)
        connection.execute("CREATE TABLE repro_meta (a TEXT, b TEXT)")
        connection.close()
        assert run(["info", "--db", db]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot read store {db!r}: no such column: key"
        ]


class TestOpenStoreHelper:
    def test_persists_gap(self, bib_file, tmp_path):
        """The gap is the document's: a reopen with another ``--gap``
        changes the gap of the documents it loads, not of this one."""
        db = str(tmp_path / "gapped.db")
        run(["load", bib_file, "--db", db, "--encoding", "global",
             "--gap", "32"])
        store = open_store(db)
        assert store.encoding.name == "global"
        assert store.document_info(1).gap == 32
        store.close()
        store = open_store(db, gap=4)
        assert store.document_info(1).gap == 32
        assert store.document_info(store.load(BIB)).gap == 4

    def test_a_fresh_store_loads_at_the_encodings_declared_gap(
        self, bib_file, tmp_path
    ):
        db = str(tmp_path / "declared.db")
        run(["load", bib_file, "--db", db, "--encoding", "global"])
        store = open_store(db)
        assert store.document_info(1).gap == store.encoding.load_gap > 1

    def test_memory_store(self):
        store = open_store(":memory:", "dewey")
        assert store.encoding.name == "dewey"


class TestOneDocumentOneGap:
    """Two documents of one store loaded at two gaps: every later
    session inserts into each at its own gap."""

    FRONT_INSERTS = 10

    def front_inserts(self, db, doc, capsys) -> list[int]:
        """Relabel counts of inserts at index 0 under ``/bib``, each
        by its own ``repro insert`` session."""
        counts = []
        for _ in range(self.FRONT_INSERTS):
            assert run(["insert", "<x/>", "--db", db, "--doc", str(doc),
                        "--parent", "/bib", "--index", "0"]) == 0
            out = capsys.readouterr().out
            counts.append(int(out.split("relabeled ")[1].split()[0]))
        return counts

    def test_inserts_relabel_per_their_documents_gap(
        self, bib_file, db, capsys
    ):
        assert run(["load", bib_file, "--db", db, "--encoding", "global",
                    "--gap", "1"]) == 0
        assert run(["load", bib_file, "--db", db, "--gap", "64"]) == 0
        capsys.readouterr()
        assert run(["info", "--db", db]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[-1] for row in rows] == ["1", "64"]
        dense = self.front_inserts(db, 1, capsys)
        sparse = self.front_inserts(db, 2, capsys)
        # Dense: every front insert shifts the tail.  Gap 64: six
        # inserts halve the free run in front of the first book, the
        # seventh shifts the tail by 64 and the new node lands in the
        # middle of what that opened, so the last three fit again.
        assert all(count > 0 for count in dense)
        assert [count > 0 for count in sparse] == [False] * 6 + [True] + [
            False] * 3
        assert run(["check", "--db", db]) == 0


class TestDrop:
    def test_drop_document(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        run(["load", bib_file, "--db", db, "--name", "again"])
        capsys.readouterr()
        assert run(["drop", "1", "--db", db]) == 0
        capsys.readouterr()
        run(["info", "--db", db])
        out = capsys.readouterr().out
        assert "again" in out
        assert out.count("bib") <= 1  # only the second doc remains

    def test_drop_unknown(self, db, capsys):
        assert run(["drop", "9", "--db", db]) == 1


class TestIndexCommand:
    def test_create_flips_the_plan_and_describe_counts_live(
        self, bib_file, db, capsys
    ):
        """An index is used when it exists, on a 7-element document
        too; ``repro index`` reports what the index tables hold now."""
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        show = ["query", "/bib/book/title", "--db", db, "--show-sql"]
        assert run(show) == 0
        scan = capsys.readouterr().out
        assert "idx_" not in scan
        assert run(["index", "--db", db]) == 0
        assert "document 1: no index" in capsys.readouterr().out
        assert run(["index", "--db", db, "--doc", "1", "--create"]) == 0
        assert capsys.readouterr().out.strip() == (
            "indexed document 1: 7 element value(s), 4 distinct path(s)"
        )
        assert run(show) == 0
        indexed = capsys.readouterr().out
        assert "FROM idx_sval n0, node_dewey n1" in indexed
        rows = lambda out: [  # noqa: E731
            line for line in out.splitlines() if "\telem\t" in line
        ]
        assert rows(indexed) == rows(scan) and len(rows(scan)) == 2
        run(["insert", "<book><title>New</title></book>",
             "--db", db, "--parent", "/bib", "--index", "0"])
        capsys.readouterr()
        assert run(["index", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "document 1: indexed, 9 element value(s), 4 distinct" in out
        assert "top tags: book=3, title=3, author=2, bib=1" in out
        assert run(["index", "--db", db, "--advise"]) == 0
        assert "advisor: hold (every document is indexed)" in (
            capsys.readouterr().out
        )
        assert run(["index", "--db", db, "--doc", "1", "--drop"]) == 0
        capsys.readouterr()
        assert run(show) == 0
        assert capsys.readouterr().out.splitlines()[:3] == (
            scan.splitlines()[:3]
        )
        assert run(["check", "--db", db]) == 0


class TestCountersFile:
    """``--counters`` names a JSON object of integer counters; anything
    else is a typed error, on both commands that read one."""

    @pytest.mark.parametrize("command", (
        ["index", "--advise"], ["migrate", "--advise"],
    ))
    @pytest.mark.parametrize("case", (
        "not-json", "array", "directory", "missing",
    ))
    def test_an_unreadable_counters_file_is_an_error(
        self, bib_file, db, tmp_path, capsys, command, case
    ):
        run(["load", bib_file, "--db", db])
        path = tmp_path / "c.json"
        if case == "not-json":
            path.write_text("counters, not JSON")
        elif case == "array":
            path.write_text("[1, 2]")
        elif case == "directory":
            path.mkdir()
        capsys.readouterr()
        assert run([*command, "--db", db, "--counters", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot read counters from '{path}': ")
        if case == "array":
            assert line.endswith("expected a JSON object, found list")

    @pytest.mark.parametrize("command", (
        ["index", "--advise"], ["migrate", "--advise"],
    ))
    def test_stats_json_feeds_both_advisors(
        self, bib_file, db, tmp_path, capsys, command
    ):
        """The file ``repro stats --json`` writes is what both
        ``--counters`` options read."""
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        assert run(["stats", "//book/title", "--db", db, "--repeat", "2",
                    "--json"]) == 0
        path = tmp_path / "stats.json"
        path.write_text(capsys.readouterr().out)
        assert run([*command, "--db", db, "--counters", str(path)]) == 0
        captured = capsys.readouterr()
        assert "advisor:" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command", (
        ["index", "--advise"], ["migrate", "--advise"],
    ))
    @pytest.mark.parametrize("content, name", (
        ('{"counters": {"index.miss": "many"}}', "index.miss"),
        ('{"updates.renumber_ops": null}', "updates.renumber_ops"),
    ))
    def test_a_counter_that_is_not_an_integer_is_an_error(
        self, bib_file, db, tmp_path, capsys, command, content, name
    ):
        run(["load", bib_file, "--db", db])
        path = tmp_path / "c.json"
        path.write_text(content)
        capsys.readouterr()
        assert run([*command, "--db", db, "--counters", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: cannot read counters from '{path}': counter "
            f"'{name}' is not an integer"
        )


class TestObservabilityCommands:
    def test_trace_prints_span_tree(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run(["trace", "//book/title", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "query" in out
        assert "translate" in out
        assert "execute" in out
        assert "leaf spans cover" in out
        assert "query.executed" in out
        # The query line shows which plan ran; the SQL quotes 'elem',
        # so its repr is double-quoted.
        (query_line,) = [
            line for line in out.splitlines() if line.startswith("query ")
        ]
        assert "xpath='//book/title'" in query_line
        assert ' sql="SELECT ' in query_line
        assert "params=(1, " in query_line

    def test_trace_seeds_empty_store(self, db, capsys):
        assert run(["trace", "//item[2]/name", "--db", db]) == 0
        captured = capsys.readouterr()
        assert "seeded a 100-item demo document" in captured.err
        assert "1 result(s)" in captured.err

    def test_trace_json(self, bib_file, db, capsys):
        import json

        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        assert run(["trace", "//author", "--db", db, "--json"]) == 0
        out = capsys.readouterr().out
        tree = json.loads(out)
        assert tree["spans"][0]["name"] == "query"

    def test_stats_prints_counters_and_slow_log(self, bib_file, db,
                                                capsys):
        """At threshold 0 each query that ran is listed with its time,
        its phases, the SQL and the parameters it was bound with; the
        second round is answered by the result cache and runs none."""
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        assert run(["stats", "//book/title", "//author", "--db", db,
                    "--repeat", "2", "--slow-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "query.executed" in out
        spans = out[out.index("spans:\n"):].splitlines()[1:]
        assert spans[0].split()[:2] == ["query", "count=2"]
        assert "translate" in {line.split()[0] for line in spans[:5]}
        listed = out[out.index("slow queries (>= 0 ms):\n"):].splitlines()
        heads = [line for line in listed if line.startswith("slow query (")]
        assert [head.split(" ms) ")[1] for head in heads] == [
            "//book/title", "//author",
        ]
        for head in heads:
            at = listed.index(head)
            phases, sql, params = listed[at + 1:at + 4]
            assert phases.startswith("  phases: ")
            assert {"translate", "execute", "materialize"} <= {
                part.split("=")[0]
                for part in phases[len("  phases: "):].split(", ")
            }
            assert sql.startswith("  sql: SELECT ")
            assert params.startswith("  params: (1, ")

    def test_stats_over_a_high_threshold_lists_no_query(
        self, bib_file, db, capsys
    ):
        run(["load", bib_file, "--db", db])
        capsys.readouterr()
        assert run(["stats", "//book/title", "--db", db,
                    "--repeat", "3", "--slow-ms", "100000"]) == 0
        out = capsys.readouterr().out
        assert "slow queries (>= 100000 ms): none" in out
        assert "slow query (" not in out

    def test_stats_json(self, db, capsys):
        import json

        assert run(["stats", "--db", db, "--repeat", "1",
                    "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out)
        assert snapshot["counters"]["query.executed"] == 2
        assert snapshot["spans"]["query"]["count"] == 2
        assert snapshot["spans"]["execute"]["total_ms"] >= 0
        assert snapshot["cache"]["enabled"] is True

    def test_observability_is_off_afterwards(self, db):
        from repro.obs import METRICS, current_tracer

        run(["trace", "//item/name", "--db", db])
        run(["stats", "--db", db, "--repeat", "1"])
        assert not METRICS.enabled
        assert current_tracer() is None


class TestExperimentsCommand:
    @pytest.mark.slow
    def test_suite_prints_tables_and_verdicts(self, capsys):
        assert run(["experiments"]) == 0
        out = capsys.readouterr().out
        # The printed page is EXPERIMENTS.md.
        assert out.startswith(
            "# EXPERIMENTS — reconstructed evaluation, paper vs. measured\n"
        )
        # Every experiment table renders with its id and title, and
        # every verdict passes (the exit code says so too).
        for eid in ("E1:", "E3:", "E7:", "E11:", "E18:"):
            assert eid in out
        assert "PASS  E17:" in out
        assert "FAIL" not in out


# Each CLI invocation opens an independent store handle on the db file;
# handles opened *before* a migration keep their stale catalog cache (no
# cross-connection invalidation), so the blanket teardown audit would
# misread them.  The tests audit explicitly through `repro check`, which
# opens a fresh handle.
@pytest.mark.skip_audit
class TestMigrateCommand:
    def test_migrate_to_target(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db, "--encoding", "global"])
        assert run(["migrate", "--db", db, "--to", "dewey"]) == 0
        out = capsys.readouterr().out
        assert "migrated document 1: global -> dewey" in out
        # The catalog survives reopen and info shows the new encoding.
        assert run(["info", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "dewey" in out
        assert run(["query", "/bib/book/title", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "TCP/IP" in out
        assert run(["check", "--db", db]) == 0

    def test_migrate_noop(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db, "--encoding", "dewey"])
        assert run(["migrate", "--db", db, "--to", "dewey"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_migrate_requires_a_mode(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run(["migrate", "--db", db]) == 1
        assert "--to ENCODING" in capsys.readouterr().err

    def test_migrate_to_conflicts_with_advise(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db])
        assert run(["migrate", "--db", db, "--to", "global",
                    "--advise"]) == 1
        assert "conflicts" in capsys.readouterr().err

    def test_advise_from_counters_file(self, bib_file, db, tmp_path,
                                       capsys):
        import json

        run(["load", bib_file, "--db", db, "--encoding", "global"])
        counters = tmp_path / "counters.json"
        counters.write_text(json.dumps({
            "counters": {
                "query.executed": 40,
                "updates.renumber_ops": 60,
            }
        }))
        assert run(["migrate", "--db", db, "--advise",
                    "--counters", str(counters)]) == 0
        out = capsys.readouterr().out
        assert "migrate -> local" in out
        assert "E7 crossover" in out
        # --advise only prints; the document is unchanged.
        store = open_store(db)
        assert store.encoding_for(1).name == "global"
        store.close()

    def test_auto_migrates_on_recommendation(self, bib_file, db,
                                             tmp_path, capsys):
        import json

        run(["load", bib_file, "--db", db, "--encoding", "global"])
        counters = tmp_path / "counters.json"
        counters.write_text(json.dumps({
            "counters": {
                "query.executed": 40,
                "updates.renumber_ops": 60,
            }
        }))
        assert run(["migrate", "--db", db, "--auto",
                    "--counters", str(counters)]) == 0
        out = capsys.readouterr().out
        assert "migrated document 1: global -> local" in out
        store = open_store(db)
        assert store.encoding_for(1).name == "local"
        store.close()

    def test_auto_holds_below_min_samples(self, bib_file, db, capsys):
        run(["load", bib_file, "--db", db, "--encoding", "global"])
        assert run(["migrate", "--db", db, "--auto"]) == 0
        out = capsys.readouterr().out
        assert "hold" in out
        store = open_store(db)
        assert store.encoding_for(1).name == "global"
        store.close()

    def test_stats_surfaces_migrate_counters(self, db, capsys):
        assert run(["stats", "--db", db, "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("migrate.started", "migrate.completed",
                     "migrate.aborted"):
            assert name in out


@pytest.mark.skip_audit  # the harnesses audit internally
class TestMigrationHarnessCommands:
    @pytest.mark.slow
    def test_crashtest_migrate_flag(self, capsys):
        assert run(["crashtest", "--migrate", "--seeds", "1",
                    "--encodings", "global,dewey",
                    "--crashes-per-op", "2"]) == 0
        out = capsys.readouterr().out
        assert "crashtest:" in out
        assert "OK" in out

    @pytest.mark.slow
    def test_fuzz_migrate_during_flag(self, capsys):
        assert run(["fuzz", "--migrate-during", "--seeds", "1",
                    "--ops", "10", "--encodings", "global",
                    "--check-every", "5"]) == 0
        out = capsys.readouterr().out
        assert "fuzz:" in out
        assert "OK" in out

    def test_fuzz_migrate_during_runs_on_minidb(self, capsys):
        assert run(["fuzz", "--migrate-during", "--seeds", "1",
                    "--ops", "5", "--encodings", "global",
                    "--backends", "minidb"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 1 cell(s), 5 operation(s)" in out
        assert out.rstrip().endswith("OK")

    @pytest.mark.parametrize("twin", ["--cache-twin", "--index-twin"])
    def test_fuzz_migrate_during_refuses_another_twin(self, capsys, twin):
        assert run(["fuzz", "--migrate-during", twin, "--seeds", "1",
                    "--ops", "5", "--encodings", "global"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --migrate-during is a twin mode of its own" in (
            captured.err
        )
