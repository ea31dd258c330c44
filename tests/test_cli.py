"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main, open_store

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


class TestOpenStoreHelper:
    def test_persists_gap(self, bib_file, tmp_path):
        db = str(tmp_path / "gapped.db")
        run(["load", bib_file, "--db", db, "--encoding", "global",
             "--gap", "32"])
        store = open_store(db)
        assert store.encoding.name == "global"
        assert store.gap == 32

    def test_memory_store(self):
        store = open_store(":memory:", "dewey")
        assert store.encoding.name == "dewey"


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
        assert "FROM idx_paths n0, idx_pathmap n1" in indexed
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
        run(["load", bib_file, "--db", db])
        assert run(["stats", "//book/title", "--db", db,
                    "--repeat", "2", "--slow-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "query.executed" in out
        assert "slow query" in out

    def test_stats_json(self, db, capsys):
        import json

        assert run(["stats", "--db", db, "--repeat", "1",
                    "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out)
        assert snapshot["counters"]["query.executed"] == 2

    def test_observability_is_off_afterwards(self, db):
        from repro.obs import METRICS, slow_log

        run(["trace", "//item/name", "--db", db])
        run(["stats", "--db", db, "--repeat", "1"])
        assert not METRICS.enabled
        assert slow_log() is None


class TestExperimentsCommand:
    @pytest.mark.slow
    def test_fast_suite_prints_tables(self, capsys):
        assert run(["experiments", "--fast"]) == 0
        out = capsys.readouterr().out
        # Every experiment table renders with its id and title.
        for eid in ("E1:", "E3:", "E7:", "E11:", "E13:"):
            assert eid in out


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
                    "--backends", "sqlite",
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

    def test_fuzz_migrate_during_rejects_minidb(self, capsys):
        assert run(["fuzz", "--migrate-during", "--seeds", "1",
                    "--ops", "5", "--encodings", "global",
                    "--backends", "minidb"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "sqlite" in err
