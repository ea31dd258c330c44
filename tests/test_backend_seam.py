"""Keep the backend seam shut.

SQL text plus a parameter tuple is all that crosses from the store to an
engine (see "One SQL text" in DESIGN.md): sqlite prepares the text,
minidb parses it once behind its statement cache.  The static scans here
fail when code outside ``repro/minidb/`` reaches for the engine's
internals again, when a ``Backend`` grows a dialect or capability flag,
or when something starts using the two shims the frozen benchmark probe
still needs.  The two run-time guards pin what the seam buys: a warm
minidb read parses and plans nothing, and a fault-injecting wrapper
hands the engine exactly what a bare backend does.

The same scan keeps a second seam shut: ``core/`` imports nothing from
``repro.index`` (the translator is told *indexed* or not, and that is
all), no ``cost`` module chooses between scan and index behind it, and
each element's index row keeps its rooted path as text, with no path
dictionary beside it (see "Indexing" in DESIGN.md).

Transactions are the backend's to serialize, on every backend: a second
thread's transaction begins once the first one has committed, and
nothing above the seam queues writers of its own (see "Concurrency
model" in DESIGN.md).  sqlite is one backend, whose path alone decides
how it shares connections: no pool, no second sqlite class and no
switch between them come back.  The lock is one per backend
(``Backend._writer``): minidb's engine takes none of its own, only its
statement runner and its rollback write a heap table, and the
readers-writer latch it used to carry stays gone.  Nor does anything
retry a failed statement: a storage error reaches the caller typed,
and the router's reconnect loop on the shard hop is the one retry in
the package (see "Failure model & recovery" in DESIGN.md).

A read is one snapshot: a wrapper forwards the read scope to the engine
it wraps, only the store's commit invalidates cache entries, and the
torn-read guard (its epoch and its retry counter) stays gone.

Durability is sqlite's: minidb has no snapshot format, ``MiniDb`` no
``save`` / ``open``, and the crash sweep under ``repro/robust/``
imports neither the engine nor its backend.

minidb accepts the SQL the program sends and no more: every construct
it used to parse besides, and every function nothing calls, is a typed
error again.
"""

import ast
import inspect
import re
import threading
from functools import lru_cache
from pathlib import Path

import pytest

from repro.backends import MiniDbBackend, SqliteBackend
from repro.robust.faults import FaultInjectingBackend
from repro.store import XmlStore
from tests.conftest import ALL_ENCODINGS, BIB_XML

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: minidb modules nothing outside the engine may import.
ENGINE_INTERNALS = {"sql_ast", "sql_parser", "planner", "executor"}
#: Where any import from ``repro.minidb`` is a leak.
ENGINE_FREE = ("core", "index", "cache", "store.py")
#: The frozen caller both shims exist for.
PROBE = "benchmarks/perf/workloads.py"


def _files(*entries: str) -> list[Path]:
    files: list[Path] = []
    for entry in entries:
        path = SRC / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


@lru_cache(maxsize=None)
def _nodes(path: Path) -> tuple:
    return tuple(ast.walk(ast.parse(path.read_text())))


def package_imports(nodes, package: str) -> set:
    """Dotted names under *package* imported among *nodes*."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(
            n for n in names if f"{n}.".startswith(f"{package}.")
        )
    return found


def minidb_imports(nodes) -> set:
    return package_imports(nodes, "repro.minidb")


def test_scanner_sees_each_import_form():
    assert minidb_imports(ast.walk(ast.parse(
        "import repro.minidb.planner\n"
        "from repro.minidb import sql_ast as m, MiniDb\n"
        "def f():\n    from repro.minidb.sql_parser import parse_sql\n"
        "from repro.core import relalg\n"
    ))) == {
        "repro.minidb.planner", "repro.minidb.sql_ast",
        "repro.minidb.MiniDb", "repro.minidb.sql_parser.parse_sql",
    }


def test_engine_internals_are_imported_only_inside_minidb():
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in _files(".")
        if "minidb" not in path.relative_to(SRC).parts
        and (names := {
            n for n in minidb_imports(_nodes(path))
            if ENGINE_INTERNALS & set(n.split("."))
        })
    }
    assert not leaks, (
        f"{leaks}: hand the engine SQL text (Backend.execute) instead"
    )


def test_core_index_cache_and_store_import_nothing_from_minidb():
    files = _files(*ENGINE_FREE)
    assert len(files) > 20
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in files
        if (names := minidb_imports(_nodes(path)))
    }
    assert not leaks, leaks


def test_core_imports_nothing_from_the_index_package():
    assert package_imports(ast.walk(ast.parse(
        "def f():\n    from repro.index import cost as _cost\n"
        "import repro.index.manager\n"
        "from repro import index\n"
        "from repro.indexing import other\n"
    )), "repro.index") == {
        "repro.index.cost", "repro.index.manager", "repro.index",
    }
    files = _files("core")
    assert len(files) > 15
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in files
        if (names := package_imports(_nodes(path), "repro.index"))
    }
    assert not leaks, (
        f"{leaks}: compile(shaped, indexed) is the whole interface"
    )


def test_no_cost_module_under_the_index_package():
    modules = {path.stem for path in (SRC / "index").iterdir()}
    assert "manager" in modules
    assert "cost" not in modules, (
        "an index is used when it exists; nothing chooses"
    )


def test_the_path_index_is_a_column():
    """Each element's ``idx_sval`` row keeps its rooted path as text:
    no path dictionary, path id or dictionary loader comes back."""
    banned = re.compile(
        r"idx_paths|\bpathid\b|_load_paths|ix_idx_sval_path|ux_idx_paths"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


def test_minidb_reads_an_index_one_way():
    """A base table is read by one index loop over the row ids its
    lookup lists, a heap scan, or listed rows: no loop per kind of
    index read, and no second loop for listed rows, comes back."""
    banned = {
        "_probe", "_in_probe", "_range_read", "_common_table_rows",
        "_derived_rows",
    }
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in _files("minidb")
        for node in _nodes(path)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in banned
    ]
    assert hits == []


def _backend_classes() -> list[tuple[Path, ast.ClassDef]]:
    """``Backend`` and every class under src that names it as a base."""
    return [
        (path, node)
        for path in _files(".")
        for node in _nodes(path)
        if isinstance(node, ast.ClassDef)
        and (node.name == "Backend" or any(
            isinstance(b, ast.Name) and b.id == "Backend"
            for b in node.bases
        ))
    ]


def test_no_backend_has_a_dialect_or_capability_flag():
    classes = _backend_classes()
    assert {c.name for _p, c in classes} >= {
        "Backend", "SqliteBackend", "MiniDbBackend",
        "FaultInjectingBackend",
    }
    flags = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path, cls in classes
        for node in ast.walk(cls)
        # class attributes are Name stores, ``self.x = ...`` Attributes
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Store)
        and (
            (name := getattr(node, "id", None) or node.attr)
            in ("dialect", "pooled")
            or name.startswith("supports_")
        )
    ]
    assert not flags, (
        f"{flags}: both engines take the same SQL text; emit text they "
        "both accept instead of branching on the backend"
    )
    # Connections are autocommit and transaction() is the only scope: a
    # bare commit() has nothing to commit.
    commits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "commit"
    ]
    assert not commits, commits


def test_the_probe_shims_are_single_labelled_and_unused():
    """``Backend.execute_plan`` and ``TranslatedQuery.statement`` exist
    for benchmarks/perf only (ROADMAP, "`[benchmark]` re-base")."""
    base = (SRC / "backends" / "base.py").read_text()
    relalg = (SRC / "core" / "relalg.py").read_text()
    for source, marker in ((base, "def execute_plan("),
                           (relalg, "    statement = None\n")):
        assert source.count(marker) == 1
        at = source.index(marker)
        assert PROBE in source[at - 300:at + 300], marker
    defined, used = [], []
    for path in [*_files("."), *sorted((ROOT / "tests").glob("*.py"))]:
        for node in _nodes(path):
            if isinstance(node, ast.FunctionDef):
                found = defined if node.name == "execute_plan" else None
            elif isinstance(node, ast.Attribute) and (
                node.attr == "execute_plan"
                # ``args.statement`` is the CLI's ``repro sql`` argument.
                or node.attr == "statement"
                and ast.unparse(node) != "args.statement"
            ):
                found = used
            else:
                continue
            if found is not None:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert len(defined) == 1 and defined[0].startswith(
        "src/repro/backends/base.py"
    ), defined
    assert not used, used


#: Reads for the run-time guards: child/descendant steps, a positional
#: and a value predicate, a document-order axis, a union, attributes.
READS = (
    "/bib/book/title",
    "//author",
    "/bib/book[2]/author[1]",
    "//book[@year < 2000]/title",
    "/bib/book[1]/following::author",
    "//title | //price",
    "//@year",
    "//book[author = 'Smith']/title",
)


def test_warm_minidb_reads_parse_and_plan_nothing(minidb_work):
    """The no-stopwatch guard against per-read parsing: once each text
    has been seen, 200 reads make 0 ``parse_sql`` calls and 0 top-level
    ``compile_select`` calls, every encoding.  ``cache=False`` so every
    read reaches the engine (and re-renders its SQL: the engine's caches
    key on the text's value, not on one string object)."""
    for encoding in ALL_ENCODINGS:
        store = XmlStore(backend="minidb", encoding=encoding, cache=False)
        doc = store.load(BIB_XML)
        for xpath in READS:
            store.query(xpath, doc)
        minidb_work.clear()
        selects = store.backend.db.stats.statements
        for _ in range(25):
            for xpath in READS:
                store.query(xpath, doc)
        assert store.backend.db.stats.statements - selects >= 200
        assert minidb_work == {}, encoding


def _engine_traffic(backend, minidb_backend) -> list:
    """Drive one fixed session through *backend*; return every
    ``(sql, params)`` the minidb engine under it was handed."""
    seen: list = []
    db = minidb_backend.db
    execute, executemany = db.execute, db.executemany

    def record_execute(sql, params=()):
        seen.append((sql, tuple(params)))
        return execute(sql, params)

    def record_executemany(sql, param_rows):
        rows = [tuple(row) for row in param_rows]
        seen.append((sql, rows))
        return executemany(sql, rows)

    db.execute, db.executemany = record_execute, record_executemany
    store = XmlStore(backend=backend, encoding="dewey")
    doc = store.load(BIB_XML)
    for xpath in READS:
        store.query(xpath, doc)
    store.updates.insert(doc, 2, 0, "<note>new</note>")
    store.indexes.create(doc)
    for xpath in READS:
        store.query(xpath, doc)
    store.updates.delete(doc, store.query("//book[3]", doc)[0].node_id)
    return seen


def test_wrapped_and_bare_minidb_hand_the_engine_the_same_text():
    """The crash sweeps wrap the backend in ``FaultInjectingBackend``;
    what they exercise is production's path only if the wrapper changes
    nothing the engine sees."""
    bare = MiniDbBackend()
    inner = MiniDbBackend()
    plain = _engine_traffic(bare, bare)
    wrapped = _engine_traffic(FaultInjectingBackend(inner), inner)
    assert len(plain) > 50
    assert all(isinstance(sql, str) for sql, _params in plain)
    assert wrapped == plain


# -- one transaction at a time, on every backend ------------------------

_BACKENDS = {
    "sqlite": lambda tmp_path: SqliteBackend(),  # in memory
    # On a file: a connection per statement, one per transaction.
    "file": lambda tmp_path: SqliteBackend(str(tmp_path / "f.db")),
    "minidb": lambda tmp_path: MiniDbBackend(),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_every_backend_serializes_its_transactions(tmp_path, kind):
    """Thread B's ``transaction()`` does not BEGIN until thread A's has
    committed.  On a file, sqlite used to BEGIN both at once, and one
    of two writers then failed with "database is locked"."""
    backend = _BACKENDS[kind](tmp_path)
    backend.execute("CREATE TABLE t (x INTEGER)")
    order = []
    a_open, b_asking, b_begun = (threading.Event() for _ in range(3))

    def other_writer():
        a_open.wait(10)
        b_asking.set()
        with backend.transaction():
            order.append("B begins")
            b_begun.set()
            backend.execute("INSERT INTO t VALUES (2)")

    thread = threading.Thread(target=other_writer)
    thread.start()
    with backend.transaction():
        backend.execute("INSERT INTO t VALUES (1)")
        a_open.set()
        assert b_asking.wait(10)
        # B is on its way into begin(); it must not get past it.
        assert not b_begun.wait(0.2)
        order.append("A commits")
    thread.join(10)
    assert not thread.is_alive()
    assert order == ["A commits", "B begins"]
    assert backend.execute("SELECT x FROM t ORDER BY x").rows == [(1,), (2,)]
    backend.close()


#: Receivers of an ``insert`` / ``delete`` / ``update`` call under
#: ``repro/minidb/`` that are not heap tables: the B+-tree and its node
#: lists, a secondary index, a dict.
NOT_HEAP_TABLES = {
    "self.tree", "node.keys", "node.values", "node.children", "index",
    "bound",
}
#: Where a heap table is mutated: the statement runner, under the
#: backend's writer lock, and the undo journal's replay.
TABLE_WRITERS = {"executor.py", "engine.py:MiniDb.rollback"}


def scoped_calls(tree) -> list:
    """``(scope, call)`` of every call in *tree*; *scope* names the
    enclosing classes and functions, as in ``Class.method``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Call):
            found.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def table_mutations(tree) -> list:
    """``(scope, receiver)`` of each ``insert`` / ``delete`` /
    ``update`` call in *tree* whose receiver is not one of
    :data:`NOT_HEAP_TABLES`."""
    return [
        (scope, receiver)
        for scope, call in scoped_calls(tree)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr in ("insert", "delete", "update")
        and (receiver := ast.unparse(call.func.value)) not in NOT_HEAP_TABLES
    ]


def test_heap_tables_are_written_by_the_statement_runner_only():
    """minidb is single-threaded: a heap table is safe to mutate only
    where the backend's writer lock is held, that is inside a statement
    (``executor.py``) or a rollback.  Outside ``repro/minidb/`` a table
    is reachable only through an engine, and the one engine under
    ``src/`` is the backend's."""
    assert table_mutations(ast.parse(
        "class E:\n    def f(self, t):\n"
        "        self.catalog.tables['t'].insert((1,))\n"
        "        index.delete(row, 1)\n"
    )) == [("E.f", "self.catalog.tables['t']")]
    writers = {
        path.name if path.name == "executor.py" else f"{path.name}:{scope}"
        for path in _files("minidb")
        for scope, _receiver in table_mutations(_nodes(path)[0])
    }
    assert writers == TABLE_WRITERS, (
        f"{sorted(writers - TABLE_WRITERS)}: mutate a table through a "
        "statement, which runs under the backend's writer lock"
    )
    engines = [
        f"{path.relative_to(SRC)}:{scope}"
        for path in _files(".")
        for scope, call in scoped_calls(_nodes(path)[0])
        if "MiniDb" in (getattr(call.func, "id", None),
                        getattr(call.func, "attr", None))
    ]
    assert engines == ["backends/minidb_backend.py:MiniDbBackend.__init__"]
    outside = [path for path in _files(".")
               if "minidb" not in path.relative_to(SRC).parts]
    reaches = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in outside
        for node in _nodes(path)
        if isinstance(node, ast.Attribute)
        and node.attr in ("catalog", "get_table")
    ]
    assert reaches == []
    assert not {
        n for path in outside
        for n in minidb_imports(_nodes(path))
        if {"tables", "catalog", "HeapTable", "Catalog"} & set(n.split("."))
    }


def test_the_readers_writer_latch_stays_gone():
    """One writer lock per backend (``Backend._writer``): minidb's
    engine takes no lock of its own, and the latch package that gave it
    one does not come back."""
    assert not (SRC / "concurrent").exists()
    banned = re.compile(r"repro\.concurrent|RWLatch|held_exclusively_by_me")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
    locking = {
        str(path.relative_to(SRC)): sorted(names)
        for path in _files("minidb")
        if (names := package_imports(_nodes(path), "threading")
            | package_imports(_nodes(path), "_thread"))
    }
    assert not locking, locking


def test_no_write_queue_under_src():
    """Writers take the backend's lock; no module queues them again."""
    banned = re.compile(r"WriteQueue|enable_write_queue|writequeue|max_batch")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []



def test_sqlite_is_one_backend():
    """In memory one shared connection, on a file a connection per
    statement: the path decides, and nothing else chooses."""
    from repro import cli, errors

    assert not (SRC / "backends" / "pooled_sqlite.py").exists()
    assert not (SRC / "concurrent" / "pool.py").exists()
    assert "pooled" not in inspect.signature(cli.open_store).parameters
    assert not hasattr(errors, "PoolExhaustedError")
    assert not hasattr(errors, "ConcurrencyError")
    banned = re.compile(
        r"sqlite-pool|PooledSqlite|ConnectionPool|PoolExhausted"
        r"|ConcurrencyError"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []

# -- no statement is retried ---------------------------------------------

#: The loops under ``src/repro/`` that run a failed body again, and why
#: each one is not a retried statement.
REPEATERS = {
    ("serve/router.py", "_call_shard"):
        "the shard hop reconnects; it sends wire requests, not SQL",
    ("serve/worker.py", "run_worker"):
        "accept() polls the listener until shutdown",
    ("serve/frontdoor.py", "_respawn_loop"):
        "the respawn loop outlives a failed liveness check",
}


def _names(nodes, ctx) -> set:
    return {
        n.id for node in nodes for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)
    }


def repeat_on_failure_loops(tree) -> list:
    """``(function, line)`` of each loop holding a ``try`` whose body
    reads no name the loop assigns and one of whose handlers lets the
    loop go round again: the shape of a retry."""
    found = []

    def visit(node, function, loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, loop = node.name, None
        elif isinstance(node, (ast.For, ast.While)):
            loop = node
        elif isinstance(node, ast.Try) and loop is not None:
            moving = _names([loop], ast.Store)
            if not moving & _names(node.body, ast.Load) and any(
                not isinstance(h.body[-1], (ast.Raise, ast.Return, ast.Break))
                for h in node.handlers
            ):
                found.append((function, loop.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function, loop)

    visit(tree, None, None)
    return found


def test_scanner_sees_a_retry_loop():
    retry = (
        "def run(op):\n"
        "    for attempt in range(5):\n"
        "        try:\n"
        "            return op()\n"
        "        except Busy:\n"
        "            if attempt == 4:\n"
        "                raise\n"
        "            sleep(0.01)\n"
        "def spin(conn):\n"
        "    while True:\n"
        "        try:\n"
        "            conn.execute('BEGIN IMMEDIATE')\n"
        "            break\n"
        "        except Busy:\n"
        "            continue\n"
    )
    assert repeat_on_failure_loops(ast.parse(retry)) == [
        ("run", 2), ("spin", 10),
    ]
    # A loop that moves on to the next item is not a retry, nor is one
    # whose handler ends it.
    assert repeat_on_failure_loops(ast.parse(
        "def scan(tables):\n"
        "    for table in tables:\n"
        "        try:\n"
        "            execute(f'SELECT doc FROM {table}')\n"
        "        except Error:\n"
        "            continue\n"
        "    for attempt in range(3):\n"
        "        try:\n"
        "            execute('SELECT 1')\n"
        "        except Error:\n"
        "            raise\n"
    )) == []


def test_nothing_but_the_shard_hop_retries():
    found = {
        (str(path.relative_to(SRC)), function)
        for path in _files(".")
        for function, _line in repeat_on_failure_loops(
            ast.parse(path.read_text())
        )
    }
    assert ("serve/router.py", "_call_shard") in found
    assert found <= set(REPEATERS), (
        f"{sorted(found - set(REPEATERS))}: a storage error reaches "
        "the caller typed; do not run the statement again"
    )

# -- a read is one snapshot ----------------------------------------------


def test_the_torn_read_guard_stays_gone():
    """A read runs in one snapshot (``Backend.snapshot``), so nothing
    re-runs a query whose plan a commit overtook, and no writer moves
    an epoch for readers: the store's commit invalidates its write set,
    and no other caller drops cache entries."""
    banned = re.compile(r"_plan_epoch|plan_retries")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
    bumps = [
        f"{path.relative_to(SRC)}:{scope}"
        for path in _files(".")
        for scope, call in scoped_calls(_nodes(path)[0])
        if isinstance(call.func, ast.Attribute) and call.func.attr == "bump"
    ]
    assert bumps and set(bumps) == {"store.py:XmlStore._commit"}, bumps


#: What a backend implements to open and close a read scope.
SNAPSHOT_HOOKS = ("begin_snapshot", "end_snapshot")


def test_every_backend_wrapper_forwards_the_read_scope():
    """A wrapper that kept the base hooks would take its own lock, not
    the wrapped engine's, and read nothing in one snapshot."""
    wrappers = {
        cls.name: {
            node.name for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and node.name in SNAPSHOT_HOOKS
            and f"self.inner.{node.name}(" in ast.unparse(node)
        }
        for _path, cls in _backend_classes()
        if "self.inner = " in ast.unparse(cls)
    }
    assert "FaultInjectingBackend" in wrappers
    assert wrappers == {
        name: set(SNAPSHOT_HOOKS) for name in wrappers
    }, wrappers


@pytest.mark.parametrize("kind", ["sqlite", "minidb"])
def test_a_wrapped_read_scope_excludes_the_inner_writers(kind):
    """In memory a read scope holds the engine's writer lock: a
    transaction on the wrapped backend does not begin until it ends."""
    inner = _BACKENDS[kind](None)
    store = XmlStore(backend=FaultInjectingBackend(inner))
    doc = store.load(BIB_XML)
    begun = threading.Event()

    def writer():
        with inner.transaction():
            begun.set()

    thread = threading.Thread(target=writer)
    with store.backend.snapshot():
        assert not store.backend.reads_beside_writers()
        assert store.query("/bib", doc)
        thread.start()
        assert not begun.wait(0.2)
    thread.join(10)
    assert begun.is_set()


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_a_read_scope_joins_a_transaction_and_begins_none(tmp_path, kind):
    from repro.errors import StorageError

    backend = _BACKENDS[kind](tmp_path)
    backend.execute("CREATE TABLE t (x INTEGER)")
    with backend.transaction():
        backend.execute("INSERT INTO t VALUES (1)")
        with backend.snapshot():
            # The transaction's own uncommitted row.
            assert backend.execute("SELECT x FROM t").rows == [(1,)]
            assert not backend.reads_beside_writers()
    with backend.snapshot():
        with backend.snapshot():
            assert backend.execute("SELECT x FROM t").rows == [(1,)]
        assert backend.reads_beside_writers() == (kind == "file")
        with pytest.raises(StorageError, match="read snapshot"):
            with backend.transaction():
                pass
    with backend.transaction():
        backend.execute("INSERT INTO t VALUES (2)")
    assert backend.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
    backend.close()


def test_the_store_level_retry_stays_gone():
    assert not (SRC / "robust" / "retry.py").exists()
    assert "retry" not in inspect.signature(XmlStore.__init__).parameters
    banned = re.compile(
        r"RetryPolicy|is_transient|Transient\w*Error|is_busy|transient_rate"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


def test_minidb_keeps_no_files():
    from repro.minidb import MiniDb

    assert not (SRC / "minidb" / "persist.py").exists()
    assert not hasattr(MiniDb, "save") and not hasattr(MiniDb, "open"), (
        "durability belongs to sqlite; minidb is an in-memory engine"
    )


def test_the_crash_sweep_imports_no_minidb():
    assert {
        n for n in package_imports(ast.walk(ast.parse(
            "from repro.backends import MiniDbBackend, SqliteBackend\n"
            "from repro.minidb.engine import MiniDb\n"
        )), "repro")
        if "minidb" in n.lower()
    } == {"repro.backends.MiniDbBackend", "repro.minidb.engine.MiniDb"}
    files = _files("robust")
    assert len(files) >= 3
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in files
        if (names := {
            n for n in package_imports(_nodes(path), "repro")
            if "minidb" in n.lower()
        })
    }
    assert not leaks, (
        f"{leaks}: crashes are swept on sqlite files, the one backend "
        "that keeps data"
    )


#: One statement per SQL construct minidb used to accept and nothing in
#: the program sends: the grammar rejects each with a typed error.
OUTSIDE_THE_GRAMMAR = {
    "JOIN ... ON": "SELECT 1 FROM t JOIN t u ON t.a = u.a",
    "INNER JOIN": "SELECT 1 FROM t INNER JOIN t u ON t.a = u.a",
    "LEFT JOIN": "SELECT 1 FROM t LEFT JOIN t u ON t.a = u.a",
    "LEFT OUTER JOIN": "SELECT 1 FROM t LEFT OUTER JOIN t u ON t.a = u.a",
    "CROSS JOIN": "SELECT 1 FROM t CROSS JOIN t u",
    "GROUP BY": "SELECT a FROM t GROUP BY a",
    "HAVING": "SELECT COUNT(*) FROM t HAVING COUNT(*) > 0",
    "compound LIMIT": "SELECT a FROM t UNION SELECT a FROM t ORDER BY a LIMIT 1",
    "ASC": "SELECT a FROM t ORDER BY a ASC",
    "DESC": "SELECT a FROM t ORDER BY a DESC",
    "ORDER BY position": "SELECT a FROM t ORDER BY 1",
    "compound ORDER BY position": "SELECT a FROM t UNION SELECT a FROM t ORDER BY 1",
    "UNION ALL": "SELECT a FROM t UNION ALL SELECT a FROM t",
    "recursive UNION ALL": "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
                           "SELECT n + 1 FROM r WHERE n < 3) SELECT n FROM r",
    "WITH": "WITH w(n) AS (SELECT 1) SELECT n FROM w",
    "WITH RECURSIVE without a step": "WITH RECURSIVE w(n) AS (SELECT 1) "
                                     "SELECT n FROM w",
    "IN (SELECT ...)": "SELECT 1 FROM t WHERE a IN (SELECT a FROM t)",
    "NOT IN": "SELECT 1 FROM t WHERE a NOT IN (1)",
    "IS NOT NULL": "SELECT 1 FROM t WHERE a IS NOT NULL",
    "LIKE": "SELECT 1 FROM t WHERE b LIKE 'x%'",
    "BETWEEN": "SELECT 1 FROM t WHERE a BETWEEN 1 AND 2",
    "CAST": "SELECT CAST(a AS TEXT) FROM t",
    "NULL literal": "SELECT NULL",
    "*": "SELECT a * 2 FROM t",
    "/": "SELECT a / 2 FROM t",
    "binary -": "SELECT a - 1 FROM t",
    "unary - on a column": "SELECT -a FROM t",
    "DROP TABLE": "DROP TABLE IF EXISTS gone",
    "INSERT column list": "INSERT INTO t (a, b) VALUES (1, 'x')",
    "multi-row VALUES": "INSERT INTO t VALUES (1, 'x'), (2, 'y')",
    "alias.*": "SELECT t.* FROM t",
    "COUNT(expr)": "SELECT COUNT(a) FROM t",
    "COUNT(DISTINCT ...)": "SELECT COUNT(DISTINCT a) FROM t",
}

#: Functions minidb used to define and nothing in the program calls.
REMOVED_FUNCTIONS = (
    "length(b)", "upper(b)", "lower(b)", "abs(a)", "nullif(a, 1)",
    "typeof(a)", "sum(a)", "avg(a)", "total(a)",
)


def test_minidb_accepts_only_the_program_sql():
    """minidb's grammar is the SQL the store and the translator send
    (see "One SQL text" in DESIGN.md), not a general SQL dialect."""
    from repro.errors import ExecutionError, SqlSyntaxError
    from repro.minidb import MiniDb

    db = MiniDb()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t VALUES (?, ?)", (1, "x"))
    accepted = []
    for construct, sql in OUTSIDE_THE_GRAMMAR.items():
        try:
            db.execute(sql)
        except SqlSyntaxError:
            continue
        accepted.append(construct)
    for call in REMOVED_FUNCTIONS:
        try:
            db.execute(f"SELECT {call} FROM t")
        except ExecutionError as exc:
            assert "unknown function" in str(exc), call
            continue
        accepted.append(call)
    assert accepted == []
    assert not hasattr(db, "create_function")
    # relalg writes -infinity as a negative literal, which still folds.
    assert db.execute("SELECT -1e999, -2").rows == [(float("-inf"), -2)]
